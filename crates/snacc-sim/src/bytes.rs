//! Zero-copy payload buffers.
//!
//! Every hop of the simulated datapath (Ethernet frame → AXIS beat →
//! streamer buffer → PCIe → NVMe) used to own a fresh `Vec<u8>`, so a
//! 4 KiB page was memcpy'd once per layer. [`Payload`] is an immutable,
//! cheaply-cloneable view into shared bytes: a reference-counted backing
//! buffer, or a lazy segment whose bytes are a pure function of their
//! offset ([`Payload::pattern`], [`Payload::fill`],
//! [`Payload::generated`]), plus an `(offset, len)` window. Cloning,
//! slicing and splitting are O(1) and allocation-free; the bytes are
//! copied at most once — at ingress, or never for generated data.
//!
//! Two windows join without copying ([`Payload::joins`]) when the second
//! continues the first in one backing, or when both are pattern windows
//! whose origins meet ([`Payload::pattern_origin`]): a pattern byte
//! depends only on its origin, so windows cut from separate allocations
//! of one stream join into one pattern of at most [`LAZY_BACKING_MAX`]
//! bytes. A producer that builds a stream beat by beat therefore leaves
//! one segment per 1 MiB in the stores it writes, not one per beat.
//!
//! `Payload` dereferences to `[u8]`, so read sites (`&beat.data[0..8]`,
//! iteration, `len()`) work unchanged; that materialises a lazy segment
//! once, for all sharers. [`Payload::copy_to`] and [`Payload::byte_at`]
//! read a window without materialising it. The type is single-threaded by
//! design (`Rc`, not `Arc`): the DES engine and everything it models are
//! single-threaded, and the workspace lints (SL003) keep atomics out of
//! simulation crates.

use std::cell::OnceCell;
use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

/// The most bytes a join may put in one lazy pattern backing, and so the
/// most that one lazy segment built by a join (or by the segment store's
/// fills) materialises on [`Payload::as_slice`].
pub const LAZY_BACKING_MAX: usize = 1 << 20;

/// A caller's generator: writes a segment's bytes at an offset into a
/// buffer.
type GenFn = dyn Fn(usize, &mut [u8]);

/// What a lazy segment's bytes are.
enum Gen {
    /// Byte `i` is [`pattern_byte`]`(seed, i)`.
    Pattern(u64),
    /// Every byte is this one.
    Fill(u8),
    /// A caller's generator, boxed twice so that the pointer is thin: a
    /// `Gen`, and with it every pattern and fill segment, stays two words.
    /// The segment store holds one lazy segment per pattern page that
    /// joins no neighbour (random 4 KiB writes).
    Func(Box<Box<GenFn>>),
}

impl Gen {
    /// Write the segment's bytes `[off, off + out.len())` into `out`.
    fn write(&self, off: usize, out: &mut [u8]) {
        match self {
            Gen::Pattern(seed) => {
                for (i, b) in out.iter_mut().enumerate() {
                    *b = pattern_byte(*seed, (off + i) as u64);
                }
            }
            Gen::Fill(byte) => out.fill(*byte),
            Gen::Func(f) => f(off, out),
        }
    }
}

/// A lazily materialised segment: its bytes are a pure function of the
/// offset, generated whole on the first [`Payload::as_slice`] and shared
/// by every clone and slice of the segment. A copy-out read before that
/// generates only the bytes it copies.
struct LazySeg {
    gen: Gen,
    total_len: usize,
    cache: OnceCell<Box<[u8]>>,
}

impl LazySeg {
    fn bytes(&self) -> &[u8] {
        self.cache.get_or_init(|| match self.gen {
            // A constant buffer from `vec!`: a zero fill maps fresh zero
            // pages and touches none of them.
            Gen::Fill(byte) => vec![byte; self.total_len].into_boxed_slice(),
            // Others are written into a preallocated buffer: a fill in
            // place vectorises, collecting byte by byte does not.
            _ => {
                let mut v = vec![0u8; self.total_len];
                self.gen.write(0, &mut v);
                v.into_boxed_slice()
            }
        })
    }

    /// Copy bytes `[off, off + out.len())` into `out`: from the cache when
    /// the segment is materialised, else straight from the generator.
    fn copy_to(&self, off: usize, out: &mut [u8]) {
        match self.cache.get() {
            Some(b) => out.copy_from_slice(&b[off..off + out.len()]),
            None => self.gen.write(off, out),
        }
    }
}

/// Deterministic pattern byte for (seed, offset) — the generator behind
/// [`Payload::pattern`]. Cheap, seed-dependent, and position-sensitive so
/// shifted windows differ.
#[inline]
pub fn pattern_byte(seed: u64, offset: u64) -> u8 {
    let x = offset.wrapping_add(seed);
    (x ^ (x >> 7) ^ 0x5a) as u8
}

#[derive(Clone)]
enum Repr {
    Bytes(Rc<[u8]>),
    Lazy(Rc<LazySeg>),
}

/// An immutable, cheaply-cloneable byte buffer: shared backing storage
/// plus an `(offset, len)` window. See the module docs.
#[derive(Clone)]
pub struct Payload {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Payload {
    /// The empty payload (no backing allocation).
    pub fn empty() -> Payload {
        thread_local! {
            static EMPTY: Rc<[u8]> = Rc::from(Vec::new().into_boxed_slice());
        }
        Payload {
            repr: Repr::Bytes(EMPTY.with(|e| e.clone())),
            off: 0,
            len: 0,
        }
    }

    /// Take `v`'s bytes. They are copied once into a new shared buffer
    /// (its reference counts live in the same allocation) and `v` is
    /// freed; a large buffer is better written in place with
    /// [`Payload::build`].
    pub fn from_vec(v: Vec<u8>) -> Payload {
        Payload::from(&v[..])
    }

    /// A buffer of `len` bytes that `write` fills in place (it receives
    /// them zeroed): one allocation, and no copy after `write`.
    pub fn build(len: usize, write: impl FnOnce(&mut [u8])) -> Payload {
        let mut buf: Rc<[u8]> = std::iter::repeat_n(0, len).collect();
        write(Rc::get_mut(&mut buf).expect("a fresh buffer has one handle"));
        Payload {
            repr: Repr::Bytes(buf),
            off: 0,
            len,
        }
    }

    fn lazy(gen: Gen, len: usize) -> Payload {
        Payload {
            repr: Repr::Lazy(Rc::new(LazySeg {
                gen,
                total_len: len,
                cache: OnceCell::new(),
            })),
            off: 0,
            len,
        }
    }

    /// A lazily generated synthetic segment of `len` bytes: byte `i` is
    /// [`pattern_byte`]`(seed, i)`. Nothing is allocated until the bytes
    /// are first read; all clones and slices share one materialisation.
    pub fn pattern(seed: u64, len: usize) -> Payload {
        Payload::lazy(Gen::Pattern(seed), len)
    }

    /// A lazily allocated constant-fill segment of `len` bytes, each equal
    /// to `byte`. Nothing is allocated until the bytes are first read; all
    /// clones and slices share one materialisation. Functional media uses
    /// this for reads of never-written (zero) extents and for prewarmed
    /// fill data, so untouched gigabytes stay metadata-only.
    pub fn fill(byte: u8, len: usize) -> Payload {
        Payload::lazy(Gen::Fill(byte), len)
    }

    /// A lazily generated segment of `len` bytes whose bytes `[off, off +
    /// out.len())` `gen(off, out)` writes into `out`. `gen` must be pure:
    /// the same offset always yields the same bytes, whatever the window.
    /// Nothing is allocated until [`as_slice`](Payload::as_slice)
    /// materialises the whole segment, once for all clones and slices;
    /// [`copy_to`](Payload::copy_to) and [`byte_at`](Payload::byte_at)
    /// generate only the bytes they read.
    pub fn generated(len: usize, gen: impl Fn(usize, &mut [u8]) + 'static) -> Payload {
        Payload::lazy(Gen::Func(Box::new(Box::new(gen))), len)
    }

    /// Window length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the window empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes of this window. A lazy segment materialises (once, for
    /// all sharers) on first call.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Bytes(b) => &b[self.off..self.off + self.len],
            Repr::Lazy(l) => &l.bytes()[self.off..self.off + self.len],
        }
    }

    /// Copy the window's bytes into `out`, which must be as long as the
    /// window. A lazy segment that is not materialised yet generates just
    /// these bytes and stays unmaterialised.
    pub fn copy_to(&self, out: &mut [u8]) {
        assert_eq!(
            out.len(),
            self.len,
            "copy_to needs a buffer of the window's length"
        );
        self.copy_at(0, out);
    }

    /// Byte `i` of the window, read like [`copy_to`](Payload::copy_to)
    /// reads: a lazy segment is not materialised for it. Panics if `i` is
    /// past the window.
    pub fn byte_at(&self, i: usize) -> u8 {
        assert!(
            i < self.len,
            "byte {i} out of bounds for payload of {} bytes",
            self.len
        );
        let mut b = [0u8];
        self.copy_at(i, &mut b);
        b[0]
    }

    /// Copy window bytes `[at, at + out.len())` into `out`.
    fn copy_at(&self, at: usize, out: &mut [u8]) {
        let from = self.off + at;
        match &self.repr {
            Repr::Bytes(b) => out.copy_from_slice(&b[from..from + out.len()]),
            Repr::Lazy(l) => l.copy_to(from, out),
        }
    }

    /// Zero-copy sub-window. Panics if the range exceeds the window,
    /// matching `&v[range]` semantics on `Vec<u8>`.
    pub fn slice(&self, range: Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds for payload of {} bytes",
            self.len
        );
        Payload {
            repr: self.repr.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// Zero-copy split into `[0, mid)` and `[mid, len)`. Panics if `mid`
    /// exceeds the window, matching `slice::split_at`.
    pub fn split_at(&self, mid: usize) -> (Payload, Payload) {
        (self.slice(0..mid), self.slice(mid..self.len))
    }

    /// Concatenate parts. When each part [`joins`](Payload::joins) the
    /// ones before it (windows of one backing, or pattern windows whose
    /// origins meet, within [`LAZY_BACKING_MAX`]), the result is one
    /// window and no byte is copied; anything else is copied once into one
    /// fresh buffer (the only copying operation on this type besides
    /// ingress). Lazy parts are copied out without being materialised.
    pub fn concat(parts: &[Payload]) -> Payload {
        match parts {
            [] => Payload::empty(),
            [one] => one.clone(),
            [first, rest @ ..] => {
                let mut joined = first.clone();
                if rest.iter().all(|p| joined.try_extend(p)) {
                    return joined;
                }
                let total: usize = parts.iter().map(|p| p.len).sum();
                Payload::build(total, |buf| {
                    let mut at = 0;
                    for p in parts {
                        p.copy_to(&mut buf[at..at + p.len]);
                        at += p.len;
                    }
                })
            }
        }
    }

    /// Copy the window out into an owned `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Whether `next` continues this window, so that a join of the two
    /// copies nothing: either a window of the same backing that starts
    /// where this one ends, or a pattern window whose origin is this
    /// pattern window's end (`pattern_origin(self) + self.len() ==
    /// pattern_origin(next)`, whatever allocations they came from) when
    /// the joined pattern holds at most [`LAZY_BACKING_MAX`] bytes. The
    /// one rule behind [`try_extend`](Payload::try_extend),
    /// [`concat`](Payload::concat) and the segment store's joins. O(1);
    /// nothing is materialised.
    pub fn joins(&self, next: &Payload) -> bool {
        self.continues_backing(next) || self.joins_by_origin(next)
    }

    fn continues_backing(&self, next: &Payload) -> bool {
        next.off == self.off + self.len && same_backing(&self.repr, &next.repr)
    }

    fn joins_by_origin(&self, next: &Payload) -> bool {
        self.len + next.len <= LAZY_BACKING_MAX
            && matches!(
                (self.pattern_origin(), next.pattern_origin()),
                (Some(a), Some(b)) if a.wrapping_add(self.len as u64) == b
            )
    }

    /// Grow this window by `next` when `next` [`joins`](Payload::joins)
    /// it, and say whether it did; `false` leaves it as it was. A window
    /// of the same backing only lengthens the window. A join by origin
    /// lengthens the pattern backing itself when this handle alone holds
    /// it (`Rc::get_mut`), it is not materialised and the window ends at
    /// its end, so a stream appended beat by beat allocates nothing; else
    /// the window becomes one fresh pattern of the joined bytes. Either
    /// way no other handle ever sees its window or bytes change.
    pub fn try_extend(&mut self, next: &Payload) -> bool {
        if self.continues_backing(next) {
            self.len += next.len;
            return true;
        }
        if !self.joins_by_origin(next) {
            return false;
        }
        let len = self.len + next.len;
        if let Repr::Lazy(l) = &mut self.repr {
            if let Some(seg) = Rc::get_mut(l) {
                let grown = seg.total_len + next.len;
                if seg.cache.get().is_none()
                    && self.off + self.len == seg.total_len
                    && grown <= LAZY_BACKING_MAX
                {
                    seg.total_len = grown;
                    self.len = len;
                    return true;
                }
            }
        }
        let origin = self
            .pattern_origin()
            .expect("a join by origin is a pattern");
        *self = Payload::pattern(origin, len);
        true
    }

    /// True when `other` is this very window: the same backing, offset and
    /// length. Equal bytes from another backing do not count; no byte is
    /// compared or materialised.
    #[inline]
    pub fn same_window(&self, other: &Payload) -> bool {
        self.off == other.off && self.len == other.len && same_backing(&self.repr, &other.repr)
    }

    /// Copy `data` over the window's bytes starting at `at`, in place, when
    /// the backing is a materialised buffer that no other handle shares
    /// (`Rc::get_mut` succeeds). Returns `false` and changes nothing for
    /// lazy windows and for shared buffers, so no other window can ever
    /// see its bytes change. Panics if the span exceeds the window.
    pub fn overwrite_unique(&mut self, at: usize, data: &[u8]) -> bool {
        let end = at + data.len();
        assert!(
            end <= self.len,
            "overwrite {at}..{end} out of bounds for payload of {} bytes",
            self.len
        );
        match &mut self.repr {
            Repr::Bytes(b) => match Rc::get_mut(b) {
                Some(buf) => {
                    buf[self.off + at..self.off + end].copy_from_slice(data);
                    true
                }
                None => false,
            },
            Repr::Lazy(_) => false,
        }
    }

    /// True when this handle is the only one on a materialised buffer: no
    /// clone, slice or store shares its bytes, so copying them out and
    /// dropping the handle frees the buffer. Lazy windows are never
    /// unique.
    pub fn is_unique(&self) -> bool {
        match &self.repr {
            Repr::Bytes(b) => Rc::strong_count(b) == 1 && Rc::weak_count(b) == 0,
            Repr::Lazy(_) => false,
        }
    }

    /// Where this window starts in the generator's byte stream when it is
    /// a lazy pattern window: `seed + offset`, so byte `i` of the window
    /// is [`pattern_byte`]`(0, origin + i)`. `None` for every other
    /// backing. O(1); nothing is materialised.
    pub fn pattern_origin(&self) -> Option<u64> {
        match &self.repr {
            Repr::Lazy(l) => match l.gen {
                Gen::Pattern(seed) => Some(seed.wrapping_add(self.off as u64)),
                Gen::Fill(_) | Gen::Func(_) => None,
            },
            Repr::Bytes(_) => None,
        }
    }

    /// The materialised byte buffer behind this window, as `(identity,
    /// buffer length)`: every window of one buffer reports the same
    /// identity, so callers can count shared buffers once. `None` for lazy
    /// windows, materialised or not.
    pub fn owned_backing(&self) -> Option<(usize, usize)> {
        match &self.repr {
            Repr::Bytes(b) => Some((Rc::as_ptr(b).cast::<u8>() as usize, b.len())),
            Repr::Lazy(_) => None,
        }
    }
}

/// A FIFO of [`Payload`] segments addressable as one logical byte stream.
///
/// Replaces `VecDeque<u8>` staging buffers in the models: refilling is an
/// O(1) segment push instead of a per-byte `extend`, and [`take`] carves
/// the front `n` bytes out as a `Payload` — zero-copy whenever the bytes
/// sit in one segment or in segments that [`Payload::joins`] merges (the
/// common case when an upstream producer sliced one large buffer, or one
/// pattern stream, into frames).
///
/// [`take`]: PayloadQueue::take
#[derive(Default)]
pub struct PayloadQueue {
    segs: std::collections::VecDeque<Payload>,
    len: usize,
}

impl PayloadQueue {
    /// An empty queue.
    pub fn new() -> PayloadQueue {
        PayloadQueue::default()
    }

    /// Total buffered bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a segment at the back (O(1), no copy).
    pub fn push_back(&mut self, p: Payload) {
        self.len += p.len();
        if !p.is_empty() {
            self.segs.push_back(p);
        }
    }

    /// Return a segment to the front (O(1), no copy) — the undo of a
    /// [`take`] whose consumer refused the bytes.
    ///
    /// [`take`]: PayloadQueue::take
    pub fn push_front(&mut self, p: Payload) {
        self.len += p.len();
        if !p.is_empty() {
            self.segs.push_front(p);
        }
    }

    /// Remove and return the front `n` bytes as one [`Payload`]. Panics if
    /// fewer than `n` bytes are buffered, matching `drain(..n)` semantics.
    pub fn take(&mut self, n: usize) -> Payload {
        assert!(
            n <= self.len,
            "take({n}) out of bounds for {} bytes",
            self.len
        );
        if n == 0 {
            return Payload::empty();
        }
        self.len -= n;
        // Fast path: the front segment covers the request.
        let first_len = self.segs.front().map_or(0, Payload::len);
        if first_len > n {
            let first = self.segs.front_mut().expect("len accounted");
            let head = first.slice(0..n);
            *first = first.slice(n..first_len);
            return head;
        }
        if first_len == n {
            return self.segs.pop_front().expect("len accounted");
        }
        // Slow path: gather segments; concat merges joinable windows
        // zero-copy and copies otherwise.
        let mut parts = Vec::new();
        let mut need = n;
        while need > 0 {
            let seg = self.segs.pop_front().expect("len accounted");
            if seg.len() <= need {
                need -= seg.len();
                parts.push(seg);
            } else {
                let (head, tail) = seg.split_at(need);
                self.segs.push_front(tail);
                parts.push(head);
                need = 0;
            }
        }
        Payload::concat(&parts)
    }

    /// Drop the front `n` bytes without gathering them (whole segments
    /// are popped, a straddled one is re-sliced). Panics if fewer than `n`
    /// bytes are buffered.
    pub fn skip(&mut self, n: usize) {
        assert!(
            n <= self.len,
            "skip({n}) out of bounds for {} bytes",
            self.len
        );
        self.len -= n;
        let mut need = n;
        while need > 0 {
            let front = self.segs.front_mut().expect("len accounted");
            if front.len() > need {
                *front = front.slice(need..front.len());
                return;
            }
            need -= front.len();
            self.segs.pop_front();
        }
    }

    /// Offset of the first occurrence of `needle` in the buffered stream,
    /// scanning segment by segment: a match straddling segments is found
    /// through a carry of the previous `needle.len() - 1` bytes, and
    /// nothing is concatenated.
    pub fn find(&self, needle: &[u8]) -> Option<usize> {
        let k = needle.len();
        if k == 0 {
            return Some(0);
        }
        // The stream's last `k - 1` bytes before the current segment.
        let mut carry: Vec<u8> = Vec::with_capacity(2 * k);
        let mut base = 0usize;
        for seg in &self.segs {
            let s = seg.as_slice();
            // Matches that start in the carry and end in this segment.
            let carry_start = base - carry.len();
            carry.extend_from_slice(&s[..s.len().min(k - 1)]);
            if let Some(p) = position_of(&carry, needle) {
                return Some(carry_start + p);
            }
            if let Some(p) = position_of(s, needle) {
                return Some(base + p);
            }
            if s.len() >= k - 1 {
                carry.clear();
                carry.extend_from_slice(&s[s.len() - (k - 1)..]);
            } else {
                carry.drain(..carry.len().saturating_sub(k - 1));
            }
            base += s.len();
        }
        None
    }
}

/// First index of a non-empty `needle` in `hay`. Blocks of 64 candidate
/// starts that hold no first byte of `needle` are skipped by a
/// branch-free test that vectorises; a whole-window compare runs only at
/// a first-byte hit.
fn position_of(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let starts = (hay.len() + 1).checked_sub(needle.len())?;
    let first = needle[0];
    (0..starts).step_by(64).find_map(|base| {
        let block = &hay[base..starts.min(base + 64)];
        if !block.iter().fold(false, |hit, &b| hit | (b == first)) {
            return None;
        }
        (base..base + block.len()).find(|&i| hay[i] == first && &hay[i..i + needle.len()] == needle)
    })
}

fn same_backing(a: &Repr, b: &Repr) -> bool {
    match (a, b) {
        (Repr::Bytes(x), Repr::Bytes(y)) => Rc::ptr_eq(x, y),
        (Repr::Lazy(x), Repr::Lazy(y)) => Rc::ptr_eq(x, y),
        _ => false,
    }
}

impl Default for Payload {
    fn default() -> Self {
        Payload::empty()
    }
}

impl Deref for Payload {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    #[inline]
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

/// Copies the bytes once, straight into the shared backing.
impl From<&[u8]> for Payload {
    fn from(b: &[u8]) -> Payload {
        Payload {
            repr: Repr::Bytes(Rc::from(b)),
            off: 0,
            len: b.len(),
        }
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(b: [u8; N]) -> Payload {
        Payload::from(&b[..])
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(b: &[u8; N]) -> Payload {
        Payload::from(&b[..])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Payload {}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for Payload {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Don't materialise a lazy segment just to debug-print it.
        if let Repr::Lazy(l) = &self.repr {
            if l.cache.get().is_none() {
                let (off, len, total) = (self.off, self.len, l.total_len);
                return match l.gen {
                    Gen::Pattern(seed) => write!(
                        f,
                        "Payload::pattern(seed={seed:#x}, off={off}, len={len}, backing={total})"
                    ),
                    Gen::Fill(byte) => write!(
                        f,
                        "Payload::fill(byte={byte:#04x}, len={len}, backing={total})"
                    ),
                    Gen::Func(_) => write!(
                        f,
                        "Payload::generated(off={off}, len={len}, backing={total})"
                    ),
                };
            }
        }
        write!(f, "Payload({} B: {:02x?})", self.len, {
            let s = self.as_slice();
            &s[..s.len().min(16)]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_roundtrip() {
        let p = Payload::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(p.len(), 4);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4]);
        assert_eq!(p.to_vec(), vec![1, 2, 3, 4]);
        assert_eq!(p, vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_is_empty() {
        let p = Payload::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.as_slice(), &[] as &[u8]);
        assert_eq!(Payload::default(), p);
    }

    #[test]
    fn clone_shares_backing() {
        let p = Payload::from_vec((0u8..100).collect());
        let q = p.clone();
        let (a, b) = q.split_at(40);
        // All views read the same backing without copies.
        assert!(same_backing(&p.repr, &a.repr));
        assert!(same_backing(&p.repr, &b.repr));
        assert_eq!(a.as_slice(), &p.as_slice()[..40]);
        assert_eq!(b.as_slice(), &p.as_slice()[40..]);
    }

    #[test]
    fn slice_matches_vec_semantics() {
        let v: Vec<u8> = (0u8..32).collect();
        let p = Payload::from_vec(v.clone());
        assert_eq!(p.slice(4..9).as_slice(), &v[4..9]);
        assert_eq!(p.slice(0..0).len(), 0);
        assert_eq!(p.slice(32..32).len(), 0);
        // Slices of slices compose.
        assert_eq!(p.slice(8..24).slice(2..6).as_slice(), &v[10..14]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn slice_out_of_bounds_panics() {
        Payload::from_vec(vec![0; 4]).slice(2..6);
    }

    #[test]
    fn concat_adjacent_is_zero_copy() {
        let p = Payload::from_vec((0u8..64).collect());
        let (a, b) = p.split_at(17);
        let joined = Payload::concat(&[a, b]);
        assert!(same_backing(&joined.repr, &p.repr));
        assert_eq!(joined, p);
    }

    #[test]
    fn concat_disjoint_copies() {
        let a = Payload::from_vec(vec![1, 2]);
        let b = Payload::from_vec(vec![3]);
        let j = Payload::concat(&[a, b, Payload::empty()]);
        assert_eq!(j.as_slice(), &[1, 2, 3]);
        assert_eq!(Payload::concat(&[]), Payload::empty());
    }

    #[test]
    fn pattern_is_lazy_and_shared() {
        let p = Payload::pattern(0xfeed, 4096);
        // Not materialised yet (Debug must not force it).
        let dbg = format!("{p:?}");
        assert!(dbg.contains("pattern"), "{dbg}");
        let s = p.slice(100..108);
        let expect: Vec<u8> = (100u64..108).map(|i| pattern_byte(0xfeed, i)).collect();
        assert_eq!(s.as_slice(), &expect[..]);
        // Clones observe the same materialisation.
        assert_eq!(p.slice(100..108), s);
    }

    #[test]
    fn fill_is_lazy_and_shared() {
        let p = Payload::fill(0xa5, 4096);
        // Not materialised yet (Debug must not force it).
        let dbg = format!("{p:?}");
        assert!(dbg.contains("fill"), "{dbg}");
        let s = p.slice(100..108);
        assert_eq!(s.as_slice(), &[0xa5; 8]);
        // Clones observe the same materialisation.
        assert_eq!(p.slice(0..4).as_slice(), &[0xa5; 4]);
    }

    #[test]
    fn generated_copies_out_lazily_and_materialises_once() {
        // Byte `i` is `i * 3`; the generator sees absolute offsets.
        let p = Payload::generated(300, |off, out| {
            for (i, b) in out.iter_mut().enumerate() {
                *b = ((off + i) * 3) as u8;
            }
        });
        let want: Vec<u8> = (0..300).map(|i| (i * 3) as u8).collect();
        let w = p.slice(100..140);
        let mut out = [0u8; 40];
        w.copy_to(&mut out);
        assert_eq!(out[..], want[100..140]);
        assert_eq!(w.byte_at(7), want[107]);
        // Copy-out reads left it lazy.
        assert!(format!("{w:?}").contains("generated"), "{w:?}");
        // `as_slice` materialises the whole segment for every window.
        assert_eq!(w.as_slice(), &want[100..140]);
        assert!(!format!("{p:?}").contains("generated"), "{p:?}");
        assert_eq!(p.as_slice(), &want[..]);
        // Copy-out now reads the cache: the same bytes.
        p.slice(299..300).copy_to(&mut out[..1]);
        assert_eq!(out[0], want[299]);
        assert!(p.owned_backing().is_none() && !p.is_unique());
    }

    #[test]
    fn build_writes_one_buffer_in_place() {
        let p = Payload::build(5, |buf| {
            assert_eq!(buf, &[0; 5]);
            buf.copy_from_slice(&[1, 2, 3, 4, 5]);
        });
        assert_eq!(p, vec![1, 2, 3, 4, 5]);
        assert!(p.is_unique());
        assert_eq!(p.owned_backing().map(|(_, len)| len), Some(5));
    }

    #[test]
    fn adjacent_windows_of_one_backing_join() {
        let p = Payload::from_vec((0u8..64).collect());
        let (a, b) = p.split_at(17);
        assert!(a.joins(&b) && Payload::concat(&[a.clone(), b.clone()]).same_window(&p));
        // Non-adjacent or different backing: no join.
        assert!(!b.joins(&a));
        assert!(!a.joins(&Payload::from_vec(vec![0; 4])));
        // Fill segments join only within one shared backing.
        let f = Payload::fill(0, 32);
        let (fa, fb) = f.split_at(10);
        assert!(fa.joins(&fb) && Payload::concat(&[fa.clone(), fb]).same_window(&f));
        assert!(!fa.joins(&Payload::fill(0, 8)));
    }

    /// The lazy backing behind `p`: its length and whether `p` is its
    /// only handle.
    fn lazy_backing(p: &Payload) -> (usize, bool) {
        match &p.repr {
            Repr::Lazy(l) => (l.total_len, Rc::strong_count(l) == 1),
            Repr::Bytes(_) => panic!("not lazy: {p:?}"),
        }
    }

    #[test]
    fn pattern_windows_join_by_origin_across_allocations() {
        // Two allocations of one stream: bytes [100, 400) and [400, 1000)
        // of the pattern with seed 7, the second cut from a larger one.
        let a = Payload::pattern(107, 300);
        let b = Payload::pattern(397, 700).slice(10..610);
        assert!(a.joins(&b) && !same_backing(&a.repr, &b.repr));
        let want = Payload::pattern(7, 1000).slice(100..1000);
        let j = Payload::concat(&[a.clone(), b.clone()]);
        assert_eq!(j.pattern_origin(), Some(107));
        assert_eq!(j.len(), 900);
        assert_eq!(lazy_backing(&j).0, 900, "one fresh pattern");
        assert_eq!(j, want);
        // The parts are untouched.
        assert_eq!((a.len(), a.pattern_origin()), (300, Some(107)));
        assert_eq!(b, Payload::pattern(407, 600));
    }

    #[test]
    fn pattern_joins_refuse_gaps_overlaps_order_and_the_cap() {
        let a = Payload::pattern(0, 4096);
        let refused = [
            ("gap", Payload::pattern(4097, 10)),
            ("overlap", Payload::pattern(4095, 10)),
            ("other seed", Payload::pattern(4096 + (1 << 40), 10)),
            (
                "bytes",
                Payload::from_vec(Payload::pattern(4096, 10).to_vec()),
            ),
            ("fill", Payload::fill(0, 10)),
        ];
        for (what, b) in &refused {
            assert!(!a.joins(b), "{what}");
            let mut grown = a.clone();
            assert!(!grown.try_extend(b), "{what}");
            assert!(grown.same_window(&a), "{what}: a refused extend changed it");
            assert!(Payload::concat(&[a.clone(), b.clone()])
                .owned_backing()
                .is_some());
        }
        // Reversed order: `b` continues `a`, not the other way round.
        let b = Payload::pattern(4096, 10);
        assert!(a.joins(&b) && !b.joins(&a));
        // Up to the cap the join is lazy; one byte past it is refused and
        // `concat` copies. Windows of one backing join past it.
        let half = LAZY_BACKING_MAX / 2;
        let (x, y) = (
            Payload::pattern(0, half),
            Payload::pattern(half as u64, half),
        );
        assert!(x.joins(&y));
        let xy = Payload::concat(&[x.clone(), y]);
        assert_eq!(lazy_backing(&xy).0, LAZY_BACKING_MAX);
        let y1 = Payload::pattern(half as u64, half + 1);
        assert!(!x.joins(&y1));
        let mut q = PayloadQueue::new();
        q.push_back(x.clone());
        q.push_back(y1.clone());
        let copied = q.take(LAZY_BACKING_MAX + 1);
        assert!(copied.owned_backing().is_some());
        assert_eq!(copied.byte_at(half + 7), pattern_byte(0, half as u64 + 7));
        let big = Payload::pattern(0, 2 * LAZY_BACKING_MAX);
        let (h, t) = big.split_at(LAZY_BACKING_MAX / 3);
        assert!(Payload::concat(&[h, t]).same_window(&big), "one backing");
    }

    #[test]
    fn try_extend_grows_a_sole_pattern_backing_in_place() {
        let mut p = Payload::pattern(0, 4096);
        let next = Payload::pattern(4096, 4096);
        assert!(p.try_extend(&next));
        assert_eq!(lazy_backing(&p), (8192, true), "grown in place");
        assert_eq!(p, Payload::pattern(0, 8192));
        // A window of the same backing only lengthens the window.
        let whole = Payload::pattern(0, 100);
        let mut head = whole.slice(0..40);
        assert!(head.try_extend(&whole.slice(40..70)));
        assert!(head.same_window(&whole.slice(0..70)));
        assert_eq!(lazy_backing(&whole).0, 100);
    }

    #[test]
    fn try_extend_never_changes_what_another_handle_holds() {
        let next = Payload::pattern(4096, 4096);
        // A clone, a slice and a window that stops short of the backing's
        // end each force a fresh pattern; the old backing stays as it was.
        let (p, q) = (Payload::pattern(0, 4096), Payload::pattern(0, 4096));
        let cases = [
            ("clone", p.clone(), p),
            ("slice", q.slice(1000..4096), q),
            (
                "short window",
                Payload::pattern(0, 8192).slice(0..4096),
                Payload::empty(),
            ),
        ];
        for (what, mut grown, held) in cases {
            let before = (held.len(), held.to_vec(), held.pattern_origin());
            let origin = grown.pattern_origin();
            assert!(grown.try_extend(&next), "{what}");
            assert_eq!(
                (held.len(), held.to_vec(), held.pattern_origin()),
                before,
                "{what}"
            );
            if !held.is_empty() {
                assert_eq!(lazy_backing(&held).0, 4096, "{what}");
            }
            assert_eq!(grown.pattern_origin(), origin, "{what}");
            assert_eq!(lazy_backing(&grown), (grown.len(), true), "{what}: fresh");
            assert_eq!(
                grown,
                Payload::pattern(origin.unwrap(), grown.len()),
                "{what}"
            );
        }
    }

    #[test]
    fn try_extend_never_changes_a_materialised_backing() {
        let mut p = Payload::pattern(0, 4096);
        let bytes = p.to_vec();
        assert!(!format!("{p:?}").contains("pattern"), "materialised");
        assert!(p.try_extend(&Payload::pattern(4096, 100)));
        assert!(format!("{p:?}").contains("pattern"), "a fresh lazy pattern");
        assert_eq!(&p[..4096], &bytes[..]);
        assert_eq!(p, Payload::pattern(0, 4196));
        // Past the cap a sole, lazy backing is not grown either.
        let mut full = Payload::pattern(0, LAZY_BACKING_MAX - 8);
        assert!(full.try_extend(&Payload::pattern(LAZY_BACKING_MAX as u64 - 8, 8)));
        assert_eq!(lazy_backing(&full), (LAZY_BACKING_MAX, true));
        assert!(!full.try_extend(&Payload::pattern(LAZY_BACKING_MAX as u64, 1)));
        assert_eq!(full.len(), LAZY_BACKING_MAX);
    }

    #[test]
    fn same_window_is_identity_not_equality() {
        let p = Payload::from_vec((0u8..64).collect());
        assert!(p.slice(8..24).same_window(&p.slice(8..24)));
        // Another offset or length of the same buffer is another window.
        assert!(!p.slice(8..24).same_window(&p.slice(9..25)));
        assert!(!p.slice(8..24).same_window(&p.slice(8..23)));
        // Equal bytes in another buffer are not the same window.
        assert!(!p.same_window(&Payload::from_vec((0u8..64).collect())));
        let f = Payload::fill(3, 32);
        assert!(f.slice(0..8).same_window(&f.slice(0..8)));
        assert!(!f.slice(0..8).same_window(&Payload::fill(3, 8)));
        let g = Payload::generated(12, |off, out| out.fill(off as u8));
        assert!(g.slice(1..4).same_window(&g.slice(1..4)));
        assert!(!g.same_window(&Payload::pattern(1, g.len())));
    }

    #[test]
    fn overwrite_unique_only_touches_unshared_bytes() {
        let mut p = Payload::from_vec(vec![1u8; 16]).slice(4..12);
        assert!(p.is_unique());
        assert!(p.overwrite_unique(2, &[9, 9]));
        assert_eq!(p, vec![1, 1, 9, 9, 1, 1, 1, 1]);
        // A second handle on the buffer blocks the write.
        let held = p.slice(0..8);
        assert!(!p.is_unique());
        assert!(!p.overwrite_unique(0, &[7]));
        assert_eq!(held, p);
        assert_eq!(p[0], 1);
        // Lazy windows never materialise to take a write.
        assert!(!Payload::fill(0, 8).is_unique());
        assert!(!Payload::fill(0, 8).overwrite_unique(0, &[7]));
        assert!(!Payload::pattern(3, 8).overwrite_unique(0, &[7]));
    }

    #[test]
    fn equality_is_by_bytes() {
        let a = Payload::from_vec(vec![5, 6, 7]);
        let b = Payload::from_vec(vec![5, 6, 7]);
        assert_eq!(a, b);
        let pat = Payload::pattern(0, 3);
        let mat = Payload::from_vec(pat.to_vec());
        assert_eq!(pat, mat);
    }

    #[test]
    fn deref_enables_slice_ops() {
        let p = Payload::from_vec(vec![9, 8, 7, 6]);
        assert_eq!(p[1], 8);
        assert_eq!(&p[1..3], &[8, 7]);
        assert_eq!(p.iter().copied().max(), Some(9));
    }

    #[test]
    fn queue_matches_vecdeque_semantics() {
        let mut q = PayloadQueue::new();
        let mut model: Vec<u8> = Vec::new();
        let backing = Payload::from_vec((0u8..=255).collect());
        for i in 0..8 {
            let seg = backing.slice(i * 32..(i + 1) * 32);
            model.extend_from_slice(seg.as_slice());
            q.push_back(seg);
        }
        assert_eq!(q.len(), 256);
        // Takes of varying sizes, spanning segment boundaries.
        for n in [1usize, 31, 32, 33, 64, 95] {
            let got = q.take(n);
            let want: Vec<u8> = model.drain(..n).collect();
            assert_eq!(got.to_vec(), want);
        }
        assert_eq!(q.len(), model.len());
        let rest = q.take(q.len());
        assert_eq!(rest.to_vec(), model);
        assert!(q.is_empty());
    }

    #[test]
    fn queue_take_of_adjacent_segments_is_zero_copy() {
        let backing = Payload::from_vec((0u8..128).collect());
        let mut q = PayloadQueue::new();
        q.push_back(backing.slice(0..50));
        q.push_back(backing.slice(50..100));
        let got = q.take(80); // spans both segments
        assert!(same_backing(&got.repr, &backing.repr));
        assert_eq!(got.to_vec(), backing.as_slice()[..80].to_vec());
        assert_eq!(q.len(), 20);
    }

    #[test]
    fn queue_push_front_undoes_take() {
        let mut q = PayloadQueue::new();
        q.push_back(Payload::from_vec(vec![1, 2, 3, 4, 5]));
        let head = q.take(3);
        q.push_front(head);
        assert_eq!(q.take(5).to_vec(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn queue_find_catches_a_match_straddling_segments() {
        // A stream of junk with one magic, cut into segments at every
        // point around it (and into one-byte segments): `find` must agree
        // with a flat `windows(4)` scan, and `skip` to it must leave the
        // magic in front.
        let magic = [0x53, 0x4e, 0x41, 0x43];
        let mut flat: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(7)).collect();
        flat.splice(21..21, magic);
        let want = flat.windows(4).position(|w| w == magic);
        assert_eq!(want, Some(21));
        let cuts: Vec<Vec<usize>> = (18..27)
            .map(|c| vec![c])
            .chain([
                vec![22, 23],
                vec![10, 22, 24, 30],
                (1..flat.len()).collect(),
            ])
            .collect();
        for cut in cuts {
            let mut q = PayloadQueue::new();
            let mut from = 0;
            for &c in cut.iter().chain([&flat.len()]) {
                q.push_back(Payload::from(&flat[from..c]));
                from = c;
            }
            assert_eq!(q.find(&magic), want, "cut at {cut:?}");
            q.skip(21);
            assert_eq!(q.len(), flat.len() - 21);
            assert_eq!(q.take(4).to_vec(), magic, "cut at {cut:?}");
        }
        let mut q = PayloadQueue::new();
        q.push_back(Payload::from(&flat[..23]));
        assert_eq!(q.find(&magic), None, "a partial magic is no match");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn queue_take_beyond_len_panics() {
        let mut q = PayloadQueue::new();
        q.push_back(Payload::from_vec(vec![0; 4]));
        q.take(5);
    }
}
