//! Segment-store memory: zero-copy functional media.
//!
//! [`SegmentMemory`] is the one functional byte store: SSD NAND, host DRAM,
//! on-board DRAM, URAM and the small MMIO regions (queue FIFOs, completion
//! queues, register files) all sit on it. Instead of copying every written
//! byte into pages, it keeps an ordered map of non-overlapping [`Payload`]
//! windows:
//!
//! * **Writes retain the payload** and copy no bytes. Lazy pattern or fill
//!   segments stay lazy; a 2 GiB synthetic write pass moves O(segments)
//!   metadata instead of gigabytes of bytes. The map holds each segment's
//!   slot in a slab of payloads, so map nodes stay small and a cursor
//!   reaches a payload without a descent.
//! * **A page appended to a joined segment costs no map walk.** A write
//!   that joins its predecessor makes that segment the *write cursor*.
//!   The next write that starts at its end, ends before the next segment
//!   and continues its backing (a producer landing one buffer page by
//!   page) grows its slot in place. The next segment's start is known from
//!   the joining walk or looked up once, on the first such append.
//! * **Writing back a window a segment already holds changes nothing.**
//!   When the payload is that very window (same backing, offset and
//!   length) strictly inside one segment, the write is found at the write
//!   cursor or at the walk's first step and skipped: the walk would leave
//!   the same layout. Every write joins its result with both neighbours
//!   where their windows continue one backing, so no two neighbouring
//!   segments are ever joinable (the lockstep tests check this after
//!   every op). A rewrite that touches a segment's start or end is
//!   therefore a layout no-op as well; the skip still takes only windows
//!   strictly inside, which keeps the write cursor where appends need it.
//! * **Any other write** costs one ordered-map descent plus one step per
//!   segment it overlaps: a single backward walk finds the trimmed head,
//!   the covered segments, the split tail and the join candidates, and the
//!   write lands in place in the predecessor's or an overwritten segment's
//!   slot where it can. Only keys that appear or disappear cost another
//!   descent. Every key insert or removal drops both cursors.
//! * **Small writes land in place** when one segment covers them and the
//!   store holds that segment's owned buffer alone: the bytes are copied
//!   into it with no new buffer, no key change and no coalescer (MMIO
//!   doorbells, CQEs, SQEs). This holds for byte writes and for payloads
//!   that nothing else holds — the fresh buffer a fabric write carries:
//!   copying it keeps the layout, and its buffer is freed on return. A
//!   window a reader still holds keeps the buffer shared, so the write
//!   then takes the normal path and no alias ever sees bytes change.
//! * **Reads return zero-copy views** — a read covered by one segment is a
//!   slice of that segment's backing; gaps come back as lazy zero-fill.
//!   The segment the last covering read or in-place write found is the
//!   *read cursor*: a read inside it (the next page of a sequential read)
//!   slices it with no descent.
//!   Only reads spanning multiple backings copy (via [`Payload::concat`]),
//!   and [`read_payload_parts`](SegmentMemory::read_payload_parts) avoids
//!   even that for consumers that can handle a part list.
//! * **Copy-on-write coalescing** bounds fragmentation: when more than
//!   [`COALESCE_SEGS`] segments start inside one 1 MiB window, the window
//!   is materialised into a single owned segment. This is the only copying
//!   path in the store. The bound equals the pages per window, so
//!   page-granular traffic (NVMe pages, streamer ring slots) never copies;
//!   only sub-page fragmentation does. A per-window count of segment
//!   starts, kept in step with every key insert and removal, makes the
//!   check after each write O(1); the window is walked only when it is
//!   about to be materialised.
//!
//! The byte-oriented API (`write`/`read`/`read_vec`/scalar helpers) serves
//! ring buffers, descriptor pages, register files and tests.

use snacc_sim::bytes::Payload;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use crate::hostmem::PAGE_4K;

#[cfg(test)]
mod reference;

/// CoW coalescing window (bytes). Fragmentation is bounded per window.
pub const COALESCE_WINDOW: u64 = 1 << 20;

/// Maximum segments tolerated inside one window before the window is
/// materialised into a single owned segment: one per 4 KiB page, so a
/// window fully tiled by independent page writes (random 4 KiB I/O, ring
/// slots) stays zero-copy and only sub-page fragments trigger a copy.
pub const COALESCE_SEGS: usize = (COALESCE_WINDOW / PAGE_4K) as usize;

/// Chunk size for [`SegmentMemory::fill`] backings: bounds how much one
/// lazy fill segment materialises if a byte of it is ever inspected.
const FILL_CHUNK: u64 = 1 << 20;

/// Hasher for window numbers: one multiply spreads consecutive windows
/// over the table (the keys are plain integers, never adversarial).
#[derive(Default)]
struct WindowHasher(u64);

impl Hasher for WindowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ b as u64);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

/// The segment the last joining write extended. The next write that starts
/// at its end, ends before the following segment and continues its backing
/// grows it in place: the layout the general walk would leave, with no map
/// walk. Every key insert or removal drops it.
struct WriteCursor {
    start: u64,
    slot: u32,
    /// Start of the following segment (`u64::MAX` if none): known from the
    /// joining walk, or looked up once by the first append.
    next: Option<u64>,
}

/// A sparse, zero-initialised byte-addressable memory storing zero-copy
/// payload segments. See the module docs.
#[derive(Default)]
pub struct SegmentMemory {
    /// Non-overlapping segments: start byte address → slot in `slab`.
    segs: BTreeMap<u64, u32>,
    /// Segment payloads by slot. A removed key's slot holds the empty
    /// payload and waits in `free` for the next new key.
    slab: Vec<Payload>,
    free: Vec<u32>,
    write_cursor: Option<WriteCursor>,
    /// `(start, slot)` of the last segment found covering a read or an
    /// in-place write, tried before the map. Every key insert or removal
    /// drops it.
    read_cursor: Option<(u64, u32)>,
    /// Segment starts per coalescing window, keyed by
    /// `start / COALESCE_WINDOW`; windows without a start have no entry.
    /// Every key insert and removal in `segs` goes through `put`/`take`,
    /// which keep this in step.
    window_starts: HashMap<u64, u32, BuildHasherDefault<WindowHasher>>,
    bytes_written: u64,
    bytes_read: u64,
}

impl SegmentMemory {
    /// New empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct 4 KiB pages covered by resident segments.
    pub fn resident_pages(&self) -> usize {
        let mut pages = 0usize;
        let mut last_counted: Option<u64> = None;
        for (&start, &slot) in &self.segs {
            let first = start / PAGE_4K;
            let last = (start + self.seg(slot).len() as u64 - 1) / PAGE_4K;
            let first = match last_counted {
                Some(lc) if first <= lc => lc + 1,
                _ => first,
            };
            if first <= last {
                pages += (last - first + 1) as usize;
                last_counted = Some(last);
            }
        }
        pages
    }

    /// Bytes held in the materialised byte buffers the store references,
    /// each distinct buffer counted once at its full length (a window keeps
    /// its whole buffer alive). Lazy pattern and fill segments hold none.
    /// Computed on demand in one pass over the segments.
    pub fn backing_bytes(&self) -> u64 {
        let mut seen = HashSet::new();
        self.segs
            .values()
            .filter_map(|&slot| self.seg(slot).owned_backing())
            .filter(|&(id, _)| seen.insert(id))
            .map(|(_, len)| len as u64)
            .sum()
    }

    /// Number of resident segments (fragmentation metric).
    pub fn segment_count(&self) -> usize {
        self.segs.len()
    }

    /// Total bytes written through the write paths.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read through the read paths.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Write `data` starting at byte address `addr`, copying it once: in
    /// place when one segment covers the span and the store holds its
    /// owned buffer alone, else into a new backing (prefer
    /// [`write_payload`](Self::write_payload) for large data).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() && !self.write_in_place(addr, data) {
            self.write_payload(addr, Payload::from(data));
        }
    }

    /// Write a payload window starting at `addr` — a metadata update, no
    /// byte copying. Overlapped extents of existing segments are trimmed
    /// (zero-copy slices); adjacent windows of the same backing re-join so
    /// a producer slicing one large buffer leaves one segment. A payload
    /// that nothing else holds lands in place like a byte
    /// [`write`](Self::write) when it can.
    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        if data.is_unique() && self.write_in_place(addr, &data) {
            return;
        }
        self.bytes_written += data.len() as u64;
        self.insert_segment(addr, data);
        self.maybe_coalesce(addr);
    }

    /// Copy `data` into the one segment covering `[addr, addr + len)` when
    /// the store holds that segment's owned buffer alone.
    fn write_in_place(&mut self, addr: u64, data: &[u8]) -> bool {
        let Some((s, slot)) = self.covering_slot(addr, data.len()) else {
            return false;
        };
        let done = self.slab[slot as usize].overwrite_unique((addr - s) as usize, data);
        if done {
            self.bytes_written += data.len() as u64;
        }
        done
    }

    /// Fill `[addr, addr + len)` with `byte` as lazy shared-backing fill
    /// segments — O(len / 1 MiB) metadata, no allocation until (and unless)
    /// the bytes are inspected. Chunks are cut at absolute 1 MiB boundaries
    /// so aligned 1 MiB reads land on exactly one segment.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        if len == 0 {
            return;
        }
        self.bytes_written += len;
        let backing = Payload::fill(byte, FILL_CHUNK.min(len) as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let chunk_end = ((cur / FILL_CHUNK) + 1) * FILL_CHUNK;
            let n = chunk_end.min(end) - cur;
            self.insert_segment(cur, backing.slice(0..n as usize));
            cur += n;
        }
    }

    /// Read into `out` starting at byte address `addr`. Unwritten bytes
    /// come back as zero; untouched extents never allocate.
    pub fn read(&mut self, addr: u64, out: &mut [u8]) {
        self.bytes_read += out.len() as u64;
        self.read_at(addr, out);
    }

    /// Read `len` bytes starting at `addr` as one [`Payload`] — zero-copy
    /// when one segment covers the span (or the span is a gap, which comes
    /// back as lazy zero-fill); spans crossing backings copy once.
    pub fn read_payload(&mut self, addr: u64, len: usize) -> Payload {
        self.bytes_read += len as u64;
        if len == 0 {
            return Payload::empty();
        }
        if let Some(p) = self.covering(addr, len) {
            return p;
        }
        let parts = self.gather_parts(addr, len);
        match parts.len() {
            1 => parts.into_iter().next().expect("len checked"),
            _ => Payload::concat(&parts),
        }
    }

    /// Read `len` bytes starting at `addr` as a list of zero-copy payload
    /// parts (in address order, gaps as lazy zero-fill). Never copies.
    pub fn read_payload_parts(&mut self, addr: u64, len: usize) -> Vec<Payload> {
        self.bytes_read += len as u64;
        self.gather_parts(addr, len)
    }

    /// Convenience: read `len` bytes into a fresh vector.
    pub fn read_vec(&mut self, addr: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read(addr, &mut v);
        v
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.slab.clear();
        self.free.clear();
        self.write_cursor = None;
        self.read_cursor = None;
        self.window_starts.clear();
    }

    /// The payload in `slot`.
    fn seg(&self, slot: u32) -> &Payload {
        &self.slab[slot as usize]
    }

    /// Insert or replace the segment starting at `start` (one map descent),
    /// counting a new start in its window.
    fn put(&mut self, start: u64, seg: Payload) {
        self.write_cursor = None;
        self.read_cursor = None;
        match self.segs.entry(start) {
            Entry::Occupied(e) => self.slab[*e.get() as usize] = seg,
            Entry::Vacant(e) => {
                let slot = match self.free.pop() {
                    Some(slot) => {
                        self.slab[slot as usize] = seg;
                        slot
                    }
                    None => {
                        self.slab.push(seg);
                        (self.slab.len() - 1) as u32
                    }
                };
                e.insert(slot);
                *self
                    .window_starts
                    .entry(start / COALESCE_WINDOW)
                    .or_insert(0) += 1;
            }
        }
    }

    /// Remove the segment starting at `start`, dropping its payload and
    /// uncounting its start.
    fn take(&mut self, start: u64) {
        let Some(slot) = self.segs.remove(&start) else {
            return;
        };
        self.write_cursor = None;
        self.read_cursor = None;
        self.slab[slot as usize] = Payload::empty();
        self.free.push(slot);
        let win = start / COALESCE_WINDOW;
        match self.window_starts.get_mut(&win) {
            Some(n) if *n > 1 => *n -= 1,
            _ => {
                self.window_starts.remove(&win);
            }
        }
    }

    /// `(start, slot)` of the one segment covering `[addr, addr + len)`, if
    /// there is one: the read cursor when it covers the span, else the
    /// segment one map descent finds, which becomes the read cursor.
    fn covering_slot(&mut self, addr: u64, len: usize) -> Option<(u64, u32)> {
        let end = addr + len as u64;
        let covers = |slab: &[Payload], (s, slot): (u64, u32)| {
            s <= addr && s + slab[slot as usize].len() as u64 >= end
        };
        if let Some(hit) = self.read_cursor.filter(|&c| covers(&self.slab, c)) {
            return Some(hit);
        }
        let (&s, &slot) = self.segs.range(..=addr).next_back()?;
        let found = covers(&self.slab, (s, slot)).then_some((s, slot))?;
        self.read_cursor = Some(found);
        Some(found)
    }

    /// `[addr, addr + len)` as a zero-copy slice of the one segment that
    /// covers it, if there is one.
    fn covering(&mut self, addr: u64, len: usize) -> Option<Payload> {
        let (s, slot) = self.covering_slot(addr, len)?;
        let from = (addr - s) as usize;
        Some(self.seg(slot).slice(from..from + len))
    }

    /// Gather `[addr, addr + len)` as zero-copy parts: segment slices plus
    /// lazy zero-fill for gaps. Parts cover the span exactly, in order.
    fn gather_parts(&self, addr: u64, len: usize) -> Vec<Payload> {
        if len == 0 {
            return Vec::new();
        }
        let end = addr + len as u64;
        let mut parts = Vec::new();
        let mut cur = addr;
        // A segment starting before `addr` may cover the front.
        if let Some((&s, &slot)) = self.segs.range(..addr).next_back() {
            let seg = self.seg(slot);
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                let from = (addr - s) as usize;
                let to = (seg_end.min(end) - s) as usize;
                parts.push(seg.slice(from..to));
                cur = seg_end.min(end);
            }
        }
        for (&s, &slot) in self.segs.range(addr..end) {
            if cur >= end {
                break;
            }
            if s > cur {
                parts.push(Payload::fill(0, (s.min(end) - cur) as usize));
                cur = s.min(end);
                if cur >= end {
                    break;
                }
            }
            let seg = self.seg(slot);
            let seg_end = s + seg.len() as u64;
            let to = (seg_end.min(end) - s) as usize;
            parts.push(seg.slice(0..to));
            cur = seg_end.min(end);
        }
        if cur < end {
            parts.push(Payload::fill(0, (end - cur) as usize));
        }
        parts
    }

    /// Copy `[addr, addr + out.len())` into `out` without touching the
    /// read counter (shared by `read` and the coalescer). A span inside one
    /// segment copies straight from it and builds no part list.
    fn read_at(&mut self, addr: u64, out: &mut [u8]) {
        let one = self.covering(addr, out.len());
        let many = match one {
            Some(_) => Vec::new(),
            None => self.gather_parts(addr, out.len()),
        };
        let mut off = 0usize;
        for p in one.iter().chain(&many) {
            let n = p.len();
            // The copy below is the byte-API boundary: callers handed us a
            // borrowed output buffer, so the bytes must land there.
            out[off..off + n].copy_from_slice(p.as_slice());
            off += n;
        }
    }

    /// Grow the write cursor's segment in place by `data` when `data`
    /// starts at its end, ends before the following segment and continues
    /// its backing. The general walk would find that segment as the
    /// predecessor, nothing overlapped and no successor at `end`, and
    /// leave exactly this layout.
    fn append_at_cursor(&mut self, addr: u64, data: &Payload) -> bool {
        let Some(cur) = &mut self.write_cursor else {
            return false;
        };
        let seg = &self.slab[cur.slot as usize];
        if cur.start + seg.len() as u64 != addr {
            return false;
        }
        let Some(joined) = seg.try_join(data) else {
            return false;
        };
        let segs = &self.segs;
        let next = *cur
            .next
            .get_or_insert_with(|| segs.range(addr..).next().map_or(u64::MAX, |(&s, _)| s));
        if addr + data.len() as u64 >= next {
            return false;
        }
        self.slab[cur.slot as usize] = joined;
        true
    }

    /// Whether `data` is the window the write cursor's segment already
    /// holds at `addr`, strictly inside it (see [`holds_inside`]).
    fn rewrite_at_cursor(&self, addr: u64, data: &Payload) -> bool {
        self.write_cursor
            .as_ref()
            .is_some_and(|cur| holds_inside(cur.start, self.seg(cur.slot), addr, data))
    }

    /// Insert `data` at `addr`, trimming any overlapped extents of existing
    /// segments and re-joining with same-backing neighbours. All slicing is
    /// zero-copy.
    ///
    /// An append at the write cursor grows its segment in place. Otherwise
    /// one backward walk from the last segment starting at or before `end`
    /// visits the successor at `end`, the segments overlapping
    /// `[addr, end)` and the predecessor ending at `addr`. It trims the
    /// head in place and keeps the slots of the predecessor and of a
    /// segment starting at `addr`, so the write lands in one of them
    /// whenever it can. Keys that appear or disappear (a split tail,
    /// covered segments past `addr`, a successor absorbed by a join, a
    /// write at a fresh key) cost one more descent each. A write that
    /// joins its predecessor makes that segment the write cursor.
    ///
    /// A rewrite of the very window a segment holds strictly inside it
    /// changes nothing: the walk would trim that segment, join the write
    /// to its head and the tail to the write, and leave the same segment
    /// as the write cursor. It is found at the write cursor or at the
    /// walk's first step, and only the cursor is set.
    fn insert_segment(&mut self, addr: u64, data: Payload) {
        if data.is_empty()
            || self.append_at_cursor(addr, &data)
            || self.rewrite_at_cursor(addr, &data)
        {
            return;
        }
        let end = addr + data.len() as u64;
        let mut merged = data;
        // Overlapped keys to drop, and the overlapped extent past `end`
        // (re-inserted there unless joined).
        let mut covered: Vec<u64> = Vec::new();
        let mut tail: Option<Payload> = None;
        let mut succ: Option<u32> = None;
        let mut at_addr: Option<u32> = None;
        let mut pred: Option<(u64, u32)> = None;
        for (&s, &slot) in self.segs.range(..=end).rev() {
            if s == end {
                succ = Some(slot);
                continue;
            }
            let seg = &mut self.slab[slot as usize];
            let seg_end = s + seg.len() as u64;
            if seg_end <= addr {
                if seg_end == addr {
                    pred = Some((s, slot));
                }
                break;
            }
            // Only the first step can find a segment that holds the write
            // strictly inside: nothing else starts in `(s, end]`.
            if holds_inside(s, seg, addr, &merged) {
                self.write_cursor = Some(WriteCursor {
                    start: s,
                    slot,
                    next: None,
                });
                return;
            }
            if seg_end > end {
                tail = Some(seg.slice((end - s) as usize..seg.len()));
            }
            if s < addr {
                *seg = seg.slice(0..(addr - s) as usize);
                pred = Some((s, slot));
                break;
            }
            if s == addr {
                at_addr = Some(slot);
            } else {
                covered.push(s);
            }
        }
        // Join with the predecessor, then the successor, when they
        // continue the same backing buffer (zero-copy window merge).
        let joined_pred = match pred.and_then(|(_, p)| self.seg(p).try_join(&merged)) {
            Some(j) => {
                merged = j;
                true
            }
            None => false,
        };
        let mut take_succ = false;
        let next_seg = tail.as_ref().or(succ.map(|k| self.seg(k)));
        if let Some(j) = next_seg.and_then(|n| merged.try_join(n)) {
            merged = j;
            take_succ = tail.take().is_none();
        }
        // A segment still starts at `end` unless the join absorbed it.
        let next_at_end = (tail.is_some() || (succ.is_some() && !take_succ)).then_some(end);
        let mut unplaced = None;
        match (pred, at_addr) {
            (Some((_, p)), at_addr) if joined_pred => {
                self.slab[p as usize] = merged;
                if at_addr.is_some() {
                    covered.push(addr);
                }
            }
            (_, Some(slot)) => self.slab[slot as usize] = merged,
            _ => unplaced = Some(merged),
        }
        for s in covered {
            self.take(s);
        }
        if take_succ {
            self.take(end);
        }
        if let Some(t) = tail {
            self.put(end, t);
        }
        if let Some(m) = unplaced {
            self.put(addr, m);
        }
        if let Some((start, slot)) = pred.filter(|_| joined_pred) {
            self.write_cursor = Some(WriteCursor {
                start,
                slot,
                next: next_at_end,
            });
        }
    }

    /// If the 1 MiB window containing `addr` holds more than
    /// [`COALESCE_SEGS`] segment starts, materialise the extent covered by
    /// its first `COALESCE_SEGS + 1` segments into one owned segment (the
    /// store's only copying path).
    fn maybe_coalesce(&mut self, addr: u64) {
        let win = addr / COALESCE_WINDOW;
        match self.window_starts.get(&win) {
            Some(&n) if n as usize > COALESCE_SEGS => {}
            _ => return,
        }
        let win_start = win * COALESCE_WINDOW;
        let win_end = win_start + COALESCE_WINDOW;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for (&s, &slot) in self.segs.range(win_start..win_end).take(COALESCE_SEGS + 1) {
            lo = lo.min(s);
            hi = hi.max((s + self.seg(slot).len() as u64).min(win_end));
        }
        if lo >= hi {
            return;
        }
        let len = (hi - lo) as usize;
        let mut buf = vec![0u8; len];
        self.read_at(lo, &mut buf);
        self.insert_segment(lo, Payload::from_vec(buf));
    }
}

/// Whether `data` is exactly the window `seg`, stored at `start`, holds at
/// `addr`, with bytes of `seg` on both sides of it. Such a write leaves the
/// layout as it is; one that touches either end of the segment may join a
/// neighbour and takes the walk.
fn holds_inside(start: u64, seg: &Payload, addr: u64, data: &Payload) -> bool {
    let end = addr + data.len() as u64;
    start < addr
        && end < start + seg.len() as u64
        && seg
            .slice((addr - start) as usize..(end - start) as usize)
            .same_window(data)
}

#[cfg(test)]
mod tests {
    use super::reference::Reference;
    use super::*;

    /// The stored layout: `(start, len)` of every segment, in order.
    fn layout(m: &SegmentMemory) -> Vec<(u64, usize)> {
        m.segs
            .iter()
            .map(|(&s, &slot)| (s, m.seg(slot).len()))
            .collect()
    }

    /// The start of the first of two neighbouring segments that could be
    /// one: contiguous in address and windows of one backing.
    fn joinable_neighbours(m: &SegmentMemory) -> Option<u64> {
        let mut prev: Option<(u64, &Payload)> = None;
        for (&s, &slot) in &m.segs {
            let p = m.seg(slot);
            if let Some((ps, pp)) = prev {
                if ps + pp.len() as u64 == s && pp.try_join(p).is_some() {
                    return Some(ps);
                }
            }
            prev = Some((s, p));
        }
        None
    }

    /// The window-start index recounted from scratch.
    fn recount_window_starts(m: &SegmentMemory) -> HashMap<u64, u32> {
        let mut counts = HashMap::new();
        for &s in m.segs.keys() {
            *counts.entry(s / COALESCE_WINDOW).or_insert(0) += 1;
        }
        counts
    }

    fn assert_index_in_step(m: &SegmentMemory, step: usize) {
        let index: HashMap<u64, u32> = m.window_starts.iter().map(|(&w, &n)| (w, n)).collect();
        assert_eq!(
            index,
            recount_window_starts(m),
            "window index diverged at op {step}"
        );
    }

    /// A 4 KiB shared backing whose adjacent windows re-join.
    fn backing() -> Payload {
        Payload::from_vec((0u8..=255).cycle().take(4096).collect())
    }

    #[test]
    fn layout_disjoint_write() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 8]);
        m.write(100, &[2u8; 8]);
        m.write(50, &[3u8; 8]);
        assert_eq!(layout(&m), [(0, 8), (50, 8), (100, 8)]);
    }

    #[test]
    fn layout_join_with_predecessor() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(0, b.slice(0..512));
        m.write_payload(512, b.slice(512..1024));
        assert_eq!(layout(&m), [(0, 1024)]);
        assert_eq!(m.read_payload(0, 1024), b.slice(0..1024));
    }

    #[test]
    fn layout_join_with_successor() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(512, b.slice(512..1024));
        m.write_payload(0, b.slice(0..512));
        assert_eq!(layout(&m), [(0, 1024)]);
        assert_eq!(m.read_payload(0, 1024), b.slice(0..1024));
    }

    #[test]
    fn layout_join_with_both_neighbours() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(0, b.slice(0..512));
        m.write_payload(1024, b.slice(1024..1536));
        assert_eq!(layout(&m), [(0, 512), (1024, 512)]);
        m.write_payload(512, b.slice(512..1024));
        assert_eq!(layout(&m), [(0, 1536)]);
        assert_eq!(m.read_payload(0, 1536), b.slice(0..1536));
    }

    #[test]
    fn layout_exact_overwrite() {
        let mut m = SegmentMemory::new();
        m.write(0, &[9u8; 4]);
        m.write(64, &[1u8; 64]);
        m.write(64, &[2u8; 64]);
        assert_eq!(layout(&m), [(0, 4), (64, 64)]);
        assert_eq!(m.read_vec(64, 64), vec![2u8; 64]);
    }

    #[test]
    fn layout_head_overwrite_keeps_tail() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        // A held payload is retained, not copied into the segment.
        let head = Payload::from_vec(vec![2u8; 16]);
        m.write_payload(0, head.clone());
        assert_eq!(layout(&m), [(0, 16), (16, 48)]);
        let mut want = vec![2u8; 16];
        want.extend([1u8; 48]);
        assert_eq!(m.read_vec(0, 64), want);
    }

    #[test]
    fn layout_head_overwrite_rejoins_tail() {
        // Ring reuse of a joined window: the new head continues the
        // backing of the segment's remaining tail, so one segment is left.
        let mut m = SegmentMemory::new();
        let old = Payload::from_vec(vec![7u8; 1024]);
        m.write_payload(0, old);
        let b = backing();
        m.write_payload(0, b.slice(0..1024));
        m.write_payload(0, b.slice(0..256));
        assert_eq!(layout(&m), [(0, 1024)]);
        // A head from another backing splits it again.
        m.write(0, &[5u8; 256]);
        assert_eq!(layout(&m), [(0, 256), (256, 768)]);
        m.write_payload(0, b.slice(0..256));
        assert_eq!(layout(&m), [(0, 1024)]);
        assert_eq!(m.read_payload(0, 1024), b.slice(0..1024));
    }

    #[test]
    fn layout_middle_split() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        let middle = Payload::from_vec(vec![2u8; 16]);
        m.write_payload(16, middle.clone());
        assert_eq!(layout(&m), [(0, 16), (16, 16), (32, 32)]);
        // Writing the cut-out window back re-joins all three pieces.
        let b = backing();
        m.write_payload(0, b.slice(0..64));
        m.write_payload(16, b.slice(16..32));
        assert_eq!(layout(&m), [(0, 64)]);
    }

    #[test]
    fn byte_overwrite_of_unique_segment_lands_in_place() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        m.write(16, &[2u8; 16]);
        m.write(0, &[3u8; 4]);
        assert_eq!(layout(&m), [(0, 64)]);
        let mut want = vec![1u8; 64];
        want[..4].fill(3);
        want[16..32].fill(2);
        assert_eq!(m.read_vec(0, 64), want);
        assert_eq!(m.bytes_written(), 84);
    }

    #[test]
    fn unique_payload_overwrite_lands_in_place() {
        // A CQE or register write reaches a scratch region as a fresh
        // payload: it must land like a byte write, with no split and no
        // new key.
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        m.write_payload(16, Payload::from_vec(vec![2u8; 16]));
        m.write_payload(0, Payload::from(b"cqe0"));
        assert_eq!(layout(&m), [(0, 64)]);
        let mut want = vec![1u8; 64];
        want[..4].copy_from_slice(b"cqe0");
        want[16..32].fill(2);
        assert_eq!(m.read_vec(0, 64), want);
        assert_eq!(m.bytes_written(), 84);
    }

    #[test]
    fn held_window_keeps_old_bytes_across_overwrite() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        let held = m.read_payload(0, 64);
        m.write(16, &[2u8; 16]);
        assert_eq!(held, vec![1u8; 64], "a reader's window saw the write");
        assert_eq!(layout(&m), [(0, 16), (16, 16), (32, 32)]);
        assert_eq!(m.read_vec(16, 16), vec![2u8; 16]);
    }

    #[test]
    fn lazy_and_shared_segments_take_the_split_path() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(0, Payload::fill(7, 64));
        m.write_payload(64, Payload::pattern(5, 64));
        m.write_payload(128, b.slice(0..64));
        for base in [0, 64, 128] {
            m.write(base + 16, &[2u8; 16]);
        }
        let mut want = vec![(0, 16), (16, 16), (32, 32)];
        for base in [64, 128] {
            want.extend([(base, 16), (base + 16, 16), (base + 32, 32)]);
        }
        assert_eq!(layout(&m), want);
        assert_eq!(
            m.backing_bytes(),
            4096 + 3 * 16,
            "no lazy window was materialised"
        );
        assert_eq!(b, backing(), "the shared buffer was written through");
    }

    #[test]
    fn layout_overwrite_covering_several_segments() {
        let mut m = SegmentMemory::new();
        for i in 0..8u64 {
            m.write(i * 10, &[i as u8; 10]);
        }
        m.write(15, &[0xee; 50]);
        assert_eq!(layout(&m), [(0, 10), (10, 5), (15, 50), (65, 5), (70, 10)]);
        m.write(10, &[0xdd; 60]);
        assert_eq!(layout(&m), [(0, 10), (10, 60), (70, 10)]);
    }

    #[test]
    fn window_index_matches_recount() {
        // Small writes packed into three windows (and across their
        // boundaries) so the copy-on-write coalescer fires, mixed with
        // every other mutating entry point.
        let mut m = SegmentMemory::new();
        let b = Payload::pattern(11, 1 << 16);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut coalesced = 0;
        for step in 0..20_000 {
            let addr = (1 + next() % 3) * COALESCE_WINDOW + next() % (16 << 10) - (8 << 10);
            let len = 1 + next() % 64;
            let before = m.segment_count();
            match next() % 100 {
                _ if step % 5000 == 4999 => m.clear(),
                0..=46 => m.write(addr, &vec![step as u8; len as usize]),
                47..=93 => {
                    let from = (next() % (1 << 15)) as usize;
                    m.write_payload(addr, b.slice(from..from + len as usize));
                }
                _ => m.fill(addr, len * 64, step as u8),
            }
            // A write of at most 64 bytes removes at most 64 segments by
            // overlap; a bigger drop is the coalescer.
            if m.segment_count() + 64 < before && !m.segs.is_empty() {
                coalesced += 1;
            }
            assert_index_in_step(&m, step);
        }
        assert!(coalesced > 0, "the coalescer never fired");
    }

    #[test]
    fn zero_initialised() {
        let mut m = SegmentMemory::new();
        assert_eq!(m.read_vec(123_456, 16), vec![0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SegmentMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(1000, &data);
        assert_eq!(m.read_vec(1000, 256), data);
        assert_eq!(m.bytes_written(), 256);
    }

    #[test]
    fn overwrite_partial() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 8]);
        m.write(4, &[2u8; 2]);
        assert_eq!(m.read_vec(0, 8), vec![1, 1, 1, 1, 2, 2, 1, 1]);
    }

    #[test]
    fn overwrite_spanning_many_segments() {
        let mut m = SegmentMemory::new();
        for i in 0..8u64 {
            m.write(i * 10, &[i as u8; 10]);
        }
        m.write(15, &[0xee; 50]);
        let got = m.read_vec(0, 80);
        for (i, b) in got.iter().enumerate() {
            let want = if (15..65).contains(&i) {
                0xee
            } else {
                (i / 10) as u8
            };
            assert_eq!(*b, want, "byte {i}");
        }
    }

    #[test]
    fn payload_write_is_retained_zero_copy() {
        let mut m = SegmentMemory::new();
        let p = Payload::pattern(7, 4096);
        m.write_payload(64, p.clone());
        let back = m.read_payload(64, 4096);
        // The store returned our window, not a copy: a slice of the result
        // re-joins with the original's tail only if both share one backing.
        assert!(p.slice(0..2048).try_join(&back.slice(2048..4096)).is_some());
        assert_eq!(back, p);
        assert_eq!(m.segment_count(), 1);
    }

    #[test]
    fn adjacent_slices_of_one_buffer_rejoin() {
        let mut m = SegmentMemory::new();
        let big = Payload::from_vec((0u8..=255).cycle().take(4096).collect());
        for i in 0..8 {
            m.write_payload((i * 512) as u64, big.slice(i * 512..(i + 1) * 512));
        }
        assert_eq!(m.segment_count(), 1, "same-backing windows must re-join");
        assert_eq!(m.read_vec(0, 4096), big.to_vec());
    }

    #[test]
    fn gap_reads_are_lazy_fill() {
        let mut m = SegmentMemory::new();
        m.write(8192, &[9u8; 16]);
        let p = m.read_payload(0, 4096);
        let dbg = format!("{p:?}");
        assert!(dbg.contains("fill"), "gap read should be lazy: {dbg}");
        assert_eq!(p.to_vec(), vec![0u8; 4096]);
    }

    #[test]
    fn fill_is_metadata_only_and_aligned() {
        let mut m = SegmentMemory::new();
        m.fill(0, 8 << 20, 0xa5);
        assert_eq!(m.segment_count(), 8, "1 MiB chunks");
        // An aligned 1 MiB read is one zero-copy part.
        let parts = m.read_payload_parts(2 << 20, 1 << 20);
        assert_eq!(parts.len(), 1);
        assert_eq!(m.read_vec(123, 7), vec![0xa5; 7]);
    }

    #[test]
    fn resident_pages_counts_covered_pages_once() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 100]);
        m.write(200, &[2u8; 100]); // same page
        assert_eq!(m.resident_pages(), 1);
        m.write(4096, &[3u8; 4096]);
        assert_eq!(m.resident_pages(), 2);
        m.write(2_000_000_000_000 - 4, &[7u8; 8]);
        assert_eq!(m.resident_pages(), 4, "straddles two pages");
    }

    #[test]
    fn backing_bytes_counts_each_buffer_once() {
        let mut m = SegmentMemory::new();
        let b = backing();
        // Two non-adjacent windows of one 4 KiB buffer keep all of it.
        m.write_payload(0, b.slice(0..16));
        m.write_payload(1 << 30, b.slice(100..200));
        assert_eq!(m.backing_bytes(), 4096);
        // Lazy segments hold no bytes, even once read.
        m.write_payload(8192, Payload::pattern(1, 4096));
        m.fill(1 << 20, 3 << 20, 0xab);
        assert_eq!(m.read_vec(8192, 8)[0], snacc_sim::bytes::pattern_byte(1, 0));
        assert_eq!(m.backing_bytes(), 4096);
        m.write(64, &[1u8; 10]);
        assert_eq!(m.backing_bytes(), 4106);
        // Dropping the last window drops the buffer from the count.
        m.write_payload(0, Payload::fill(0, 16));
        m.write_payload(1 << 30, Payload::fill(0, 100));
        assert_eq!(m.backing_bytes(), 10);
    }

    #[test]
    fn coalesce_bounds_fragmentation() {
        let mut m = SegmentMemory::new();
        // Interleave non-adjacent tiny writes from distinct backings.
        for i in 0..(2 * COALESCE_SEGS as u64) {
            m.write(i * 128, &[i as u8; 64]);
        }
        assert!(
            m.segment_count() <= COALESCE_SEGS + 2,
            "coalescing must bound fragmentation: {} segments",
            m.segment_count()
        );
        // Contents survive coalescing.
        for i in 0..(2 * COALESCE_SEGS as u64) {
            assert_eq!(m.read_vec(i * 128, 64), vec![i as u8; 64]);
            assert_eq!(m.read_vec(i * 128 + 64, 64), vec![0u8; 64]);
        }
    }

    #[test]
    fn page_granular_ring_writes_never_coalesce() {
        // A 2 MiB ring rewritten page by page in shuffled order, each page
        // its own lazy pattern: every window holds exactly its 256 pages,
        // so nothing may be materialised.
        const RING: u64 = 2 << 20;
        let pages = RING / PAGE_4K;
        let mut m = SegmentMemory::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for pass in 0..4u64 {
            let mut order: Vec<u64> = (0..pages).collect();
            for i in (1..order.len()).rev() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                order.swap(i, (x % (i as u64 + 1)) as usize);
            }
            for &pg in &order {
                let seed = pass * pages + pg;
                m.write_payload(pg * PAGE_4K, Payload::pattern(seed, PAGE_4K as usize));
            }
        }
        assert_eq!(m.segment_count(), 512, "a window was materialised");
        for pg in 0..pages {
            let want = Payload::pattern(3 * pages + pg, PAGE_4K as usize);
            assert_eq!(m.read_payload(pg * PAGE_4K, PAGE_4K as usize), want);
        }
    }

    #[test]
    fn scalar_helpers() {
        let mut m = SegmentMemory::new();
        m.write_u32(16, 0xdead_beef);
        m.write_u64(24, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(16), 0xdead_beef);
        assert_eq!(m.read_vec(24, 8), 0x0123_4567_89ab_cdef_u64.to_le_bytes());
    }

    /// The store under test and the cursor-free layout oracle, driven in
    /// lockstep. Each side gets its own copy of every buffer: a payload
    /// shared by both would turn unique in one when the other drops its
    /// window, and send that one down the in-place path.
    #[derive(Default)]
    struct Lockstep {
        m: SegmentMemory,
        r: Reference,
        /// Read windows kept alive for a while, one per side.
        held: Vec<(Payload, Payload)>,
        ops: usize,
    }

    /// Two equal buffers, one per side.
    fn twin(bytes: Vec<u8>) -> (Payload, Payload) {
        (Payload::from_vec(bytes.clone()), Payload::from_vec(bytes))
    }

    impl Lockstep {
        fn check(&mut self) {
            self.ops += 1;
            let op = self.ops;
            assert_eq!(layout(&self.m), self.r.layout(), "layout, op {op}");
            assert_eq!(
                self.m.backing_bytes(),
                self.r.backing_bytes(),
                "backing bytes, op {op}"
            );
            assert_eq!(
                self.m.resident_pages(),
                self.r.resident_pages(),
                "resident pages, op {op}"
            );
            assert_index_in_step(&self.m, op);
            assert_eq!(
                joinable_neighbours(&self.m),
                None,
                "joinable neighbours, op {op}"
            );
        }

        fn write(&mut self, addr: u64, data: &[u8]) {
            self.m.write(addr, data);
            self.r.write(addr, data);
            self.check();
        }

        fn window(&mut self, addr: u64, b: &(Payload, Payload), from: usize, to: usize) {
            self.m.write_payload(addr, b.0.slice(from..to));
            self.r.write_payload(addr, b.1.slice(from..to));
            self.check();
        }

        fn unique(&mut self, addr: u64, bytes: Vec<u8>) {
            let (a, b) = twin(bytes);
            self.m.write_payload(addr, a);
            self.r.write_payload(addr, b);
            self.check();
        }

        fn pattern(&mut self, addr: u64, seed: u64, len: usize) {
            self.m.write_payload(addr, Payload::pattern(seed, len));
            self.r.write_payload(addr, Payload::pattern(seed, len));
            self.check();
        }

        fn fill(&mut self, addr: u64, len: u64, byte: u8) {
            self.m.fill(addr, len, byte);
            self.r.fill(addr, len, byte);
            self.check();
        }

        fn clear(&mut self) {
            self.m.clear();
            self.r.clear();
            self.check();
        }

        /// Write back a window the segment covering `addr` already holds,
        /// on each side from that side's own segment: strictly inside it
        /// (`how` 0), from its start (1), up to its end (2) or all of it
        /// (3). Short segments are rewritten whole.
        fn rewrite(&mut self, addr: u64, how: u64, cut: u64) {
            let Some((&s, &slot)) = self.m.segs.range(..=addr).next_back() else {
                return;
            };
            let len = self.m.seg(slot).len();
            if s + len as u64 <= addr {
                return;
            }
            let cut = cut as usize;
            let (from, to) = match how % 4 {
                0 if len >= 3 => {
                    let from = 1 + cut % (len - 2);
                    (from, from + 1 + (cut >> 16) % (len - 1 - from))
                }
                1 if len >= 2 => (0, 1 + cut % (len - 1)),
                2 if len >= 2 => (1 + cut % (len - 1), len),
                _ => (0, len),
            };
            let theirs = self.r.segment(s).expect("layouts agree").slice(from..to);
            self.m
                .write_payload(s + from as u64, self.m.seg(slot).slice(from..to));
            self.r.write_payload(s + from as u64, theirs);
            self.check();
        }

        fn read(&mut self, addr: u64, len: usize, hold: bool) {
            let a = self.m.read_payload(addr, len);
            let b = self.r.read_payload(addr, len);
            assert_eq!(a, b, "read {addr:#x}+{len}, op {}", self.ops);
            if hold {
                if self.held.len() == 8 {
                    self.held.remove(0);
                }
                self.held.push((a, b));
            }
            self.check();
        }
    }

    /// Seeded random op mix over three coalescing windows: sequential
    /// appends of shared-backing windows (the write cursor's path), byte
    /// writes packed into one hot region (so the coalescer fires), random
    /// shared windows, patterns, unique payloads, fills,
    /// rewrites of windows the store already holds (inside a segment, at
    /// either end or whole; near the append stream, where the write
    /// cursor sits, or anywhere), held and dropped reads, and the odd
    /// `clear`.
    #[test]
    fn layout_matches_oracle_under_random_ops() {
        const BASE: u64 = COALESCE_WINDOW;
        const SPAN: u64 = 3 * COALESCE_WINDOW;
        let mut coalesced = 0;
        for seed in 1..=6u64 {
            let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let backings: Vec<_> = (0..3u64)
                .map(|k| twin((0..64u64 << 10).map(|i| (i * 7 + k) as u8).collect()))
                .collect();
            let mut l = Lockstep::default();
            // The append stream: next address, backing and offset.
            let (mut at, mut bi, mut off) = (BASE, 0usize, 0usize);
            for step in 0..2500u64 {
                let anywhere = BASE + next() % SPAN;
                let before = l.m.segment_count();
                match next() % 100 {
                    _ if step % 1000 == 999 => l.clear(),
                    0..=29 => {
                        let len = match next() % 3 {
                            0 => 4096,
                            1 => 512,
                            _ => 1 + next() as usize % 600,
                        };
                        if off + len > 64 << 10 || next() % 16 == 0 {
                            at = if next() % 2 == 0 {
                                anywhere & !(PAGE_4K - 1)
                            } else {
                                anywhere
                            };
                            bi = next() as usize % backings.len();
                            off = next() as usize % (32 << 10);
                        }
                        l.window(at, &backings[bi], off, off + len);
                        at += len as u64;
                        off += len;
                    }
                    30..=46 => {
                        let hot = BASE + COALESCE_WINDOW + next() % (256 << 10);
                        let len = 1 + next() as usize % 64;
                        l.write(hot, &vec![step as u8; len]);
                    }
                    47..=56 => {
                        let b = &backings[next() as usize % backings.len()];
                        let from = next() as usize % (60 << 10);
                        let len = 1 + next() as usize % 4096;
                        l.window(anywhere, b, from, from + len);
                    }
                    57..=63 => {
                        let len = if next() % 2 == 0 {
                            4096
                        } else {
                            1 + next() % 2048
                        };
                        l.pattern(anywhere & !(PAGE_4K - 1), step, len as usize);
                    }
                    64..=71 => {
                        let len = 1 + next() as usize % 300;
                        l.unique(anywhere, vec![step as u8 ^ 0x5a; len]);
                    }
                    72..=74 => l.fill(anywhere, 1 + next() % (200 << 10), step as u8),
                    75..=89 => {
                        let addr = if next() % 2 == 0 {
                            at.saturating_sub(1 + next() % 8192)
                        } else {
                            anywhere
                        };
                        l.rewrite(addr, next(), next());
                    }
                    _ => {
                        // Reads near the append stream hit the read cursor.
                        let addr = if next() % 2 == 0 {
                            at.saturating_sub(next() % 8192)
                        } else {
                            anywhere
                        };
                        l.read(addr, 1 + next() as usize % 4096, next() % 2 == 0);
                    }
                }
                if l.m.segment_count() + 64 < before && l.m.segment_count() > 0 {
                    coalesced += 1;
                }
            }
        }
        assert!(coalesced > 0, "the coalescer never fired");
    }

    /// A write cursor at `[0, 1536)` with its successor at 8192 already
    /// looked up (by the third, in-place append).
    fn cursor_with_known_successor() -> (Lockstep, (Payload, Payload)) {
        let mut l = Lockstep::default();
        let b = twin((0u8..=255).cycle().take(16 << 10).collect());
        l.pattern(8192, 3, 512);
        l.window(0, &b, 0, 512);
        l.window(512, &b, 512, 1024);
        l.window(1024, &b, 1024, 1536);
        assert_eq!(layout(&l.m), [(0, 1536), (8192, 512)]);
        (l, b)
    }

    #[test]
    fn identical_rewrites_keep_the_layout() {
        let (mut l, b) = cursor_with_known_successor();
        // Inside the write cursor's segment: found at the cursor. The
        // bytes `[6, 14)` still count as written.
        let written = l.m.bytes_written();
        l.rewrite(100, 0, 7 << 16 | 5);
        assert_eq!(layout(&l.m), [(0, 1536), (8192, 512)]);
        assert_eq!(l.m.write_cursor.as_ref().map(|c| c.start), Some(0));
        assert_eq!(l.m.bytes_written(), written + 8);
        // Touching either end, or the whole segment: the walk.
        for how in 1..=3 {
            l.rewrite(100, how, 300);
            assert_eq!(layout(&l.m), [(0, 1536), (8192, 512)]);
        }
        // Inside a segment the cursor is not on: found by the walk's first
        // step, which moves the cursor there.
        l.window(4096, &b, 4096, 6144);
        l.write(7000, &[3u8; 8]);
        assert!(l.m.write_cursor.is_none());
        l.rewrite(4200, 0, 1 << 16);
        assert_eq!(l.m.write_cursor.as_ref().map(|c| c.start), Some(4096));
        assert_eq!(
            layout(&l.m),
            [(0, 1536), (4096, 2048), (7000, 8), (8192, 512)]
        );
        // The same window of an equal copy is not the same window.
        let copy = Payload::from_vec(b.0.slice(4200..4300).to_vec());
        l.m.write_payload(4200, copy.clone());
        l.r.write_payload(4200, copy);
        l.check();
        assert_eq!(
            layout(&l.m),
            [
                (0, 1536),
                (4096, 104),
                (4200, 100),
                (4300, 1844),
                (7000, 8),
                (8192, 512)
            ]
        );
    }

    #[test]
    fn cursor_dropped_by_a_key_between_it_and_its_successor() {
        let (mut l, b) = cursor_with_known_successor();
        l.write(4096, &[9u8; 100]);
        // A stale cursor would still take [1536, 4608) as an append past
        // the new segment at 4096.
        l.window(1536, &b, 1536, 4608);
        assert_eq!(layout(&l.m), [(0, 4608), (8192, 512)]);
        l.window(4608, &b, 4608, 5120);
        assert_eq!(layout(&l.m), [(0, 5120), (8192, 512)]);
    }

    #[test]
    fn cursor_follows_a_trim_of_its_segment() {
        let (mut l, b) = cursor_with_known_successor();
        // A foreign write inside the cursor segment trims it and splits
        // off a tail.
        l.write(1024, &[1u8; 256]);
        assert_eq!(
            layout(&l.m),
            [(0, 1024), (1024, 256), (1280, 256), (8192, 512)]
        );
        l.window(1536, &b, 1536, 2048);
        assert_eq!(
            layout(&l.m),
            [(0, 1024), (1024, 256), (1280, 768), (8192, 512)]
        );
        // Writing the cut-out window back re-joins all three pieces.
        l.window(1024, &b, 1024, 1280);
        assert_eq!(layout(&l.m), [(0, 2048), (8192, 512)]);
        l.window(2048, &b, 2048, 2560);
        assert_eq!(layout(&l.m), [(0, 2560), (8192, 512)]);
        l.read(0, 2560, false);
    }

    #[test]
    fn cursor_dropped_when_its_window_coalesces() {
        let (mut l, b) = cursor_with_known_successor();
        // Enough distinct starts in window 0 to materialise it.
        for i in 0..COALESCE_SEGS as u64 {
            l.write((16 << 10) + i * 128, &[i as u8; 64]);
        }
        assert!(l.m.segment_count() < COALESCE_SEGS, "the window coalesced");
        l.window(1536, &b, 1536, 2048);
        l.window(2048, &b, 2048, 4096);
        l.read(0, 4096, false);
    }
}
