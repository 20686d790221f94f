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
//! * **Neighbours join by [`Payload::joins`]:** windows of one backing
//!   that continue each other, or pattern windows whose origins meet,
//!   whatever allocation each came from, up to [`LAZY_BACKING_MAX`] bytes.
//!   A pattern stream written beat by beat is stored as one segment per
//!   1 MiB, not one per beat, and the join grows the segment's own
//!   pattern in place ([`Payload::try_extend`]) when the store holds it
//!   alone.
//! * **A page appended to a joined segment costs no map walk.** A write
//!   that joins its predecessor makes that segment the *write cursor*.
//!   The next write that starts at its end, ends before the next segment
//!   and joins it (a producer landing one buffer or one pattern stream
//!   page by page) grows its slot in place. The next segment's start is
//!   known from the joining walk or looked up once, on the first such
//!   append.
//! * **Writing back a window a segment already holds changes nothing.**
//!   When the payload is that very window (same backing, offset and
//!   length) strictly inside one segment, the write is found at the write
//!   cursor or at the walk's first step and skipped: the walk would trim
//!   that segment and join the write and its tail back onto its head,
//!   leaving the same layout.
//! * **Any other write** costs one ordered-map descent plus one step per
//!   segment it overlaps: a single backward walk finds the trimmed head,
//!   the covered segments, the split tail and the join candidates, and the
//!   write lands in place in the predecessor's or an overwritten segment's
//!   slot where it can. Only keys that appear or disappear cost another
//!   descent. Every key insert or removal drops both cursors.
//! * **A small write lands in its own page.** A write shorter than 4 KiB
//!   of bytes nothing else holds — a byte `write`, or a payload that is
//!   the only handle on its buffer (the fresh buffer a fabric write
//!   carries) — is copied in place when one segment covers it and the
//!   store holds that segment's owned buffer alone: no new buffer and no
//!   key change. Otherwise the page(s) it touches are materialised as one
//!   owned buffer holding their current bytes with the write applied, so
//!   every later small write to the page (the next SQE, CQE or doorbell
//!   of a ring) lands in place, and a burst read of slots inside the page
//!   is a zero-copy slice. A window a reader still holds keeps the old
//!   buffer alive, so no alias ever sees bytes change. A window of a
//!   shared buffer, a pattern or a fill is retained zero-copy, whatever
//!   its length.
//! * **Reads return zero-copy views** — a read covered by one segment is a
//!   slice of that segment's backing; gaps come back as lazy zero-fill.
//!   The segment the last covering read or in-place write found is the
//!   *read cursor*: a read inside it (the next page of a sequential read)
//!   slices it with no descent.
//!   Only reads spanning multiple backings copy (via [`Payload::concat`]),
//!   and [`read_payload_parts`](SegmentMemory::read_payload_parts) avoids
//!   even that for consumers that can handle a part list.
//!
//! The byte-oriented API (`write`/`read`/`read_vec`/scalar helpers) serves
//! ring buffers, descriptor pages, register files and tests.

use snacc_sim::bytes::{Payload, LAZY_BACKING_MAX};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};

use crate::hostmem::PAGE_4K;

#[cfg(test)]
mod reference;

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

    /// Write `data` starting at byte address `addr`, copying it once: in
    /// place when one segment covers the span and the store holds its
    /// owned buffer alone, else into the page(s) it touches when it is
    /// shorter than a page, else into a new backing (prefer
    /// [`write_payload`](Self::write_payload) for large data).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if !data.is_empty() && !self.write_owned(addr, data) {
            self.insert_segment(addr, Payload::from(data));
        }
    }

    /// Write a payload window starting at `addr` — a metadata update, no
    /// byte copying. Overlapped extents of existing segments are trimmed
    /// (zero-copy slices); neighbours that [`Payload::joins`] merges
    /// re-join, so a producer slicing one large buffer, or one pattern
    /// stream into beats, leaves one segment (per 1 MiB of pattern). A
    /// payload that nothing else holds is copied like a byte
    /// [`write`](Self::write) when it lands in place or is shorter than a
    /// page.
    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        if !data.is_unique() || !self.write_owned(addr, &data) {
            self.insert_segment(addr, data);
        }
    }

    /// Copy bytes nothing else holds into the store: in place when one
    /// segment covers them and the store holds its owned buffer alone,
    /// else, for a non-empty write shorter than a page, into the page(s)
    /// it touches. False, with nothing written, for any other write.
    fn write_owned(&mut self, addr: u64, data: &[u8]) -> bool {
        if self.write_in_place(addr, data) {
            return true;
        }
        if data.is_empty() || data.len() >= PAGE_4K as usize {
            return false;
        }
        self.write_pages(addr, data);
        true
    }

    /// Copy `data` into the one segment covering `[addr, addr + len)` when
    /// the store holds that segment's owned buffer alone.
    fn write_in_place(&mut self, addr: u64, data: &[u8]) -> bool {
        let Some((s, slot)) = self.covering_slot(addr, data.len()) else {
            return false;
        };
        self.slab[slot as usize].overwrite_unique((addr - s) as usize, data)
    }

    /// Store the 4 KiB page(s) `[addr, addr + len)` touches as one owned
    /// buffer: their current bytes with `data` applied. Later small writes
    /// to the page land in place. Kept out of line: page-sized writes
    /// never come here.
    #[cold]
    #[inline(never)]
    fn write_pages(&mut self, addr: u64, data: &[u8]) {
        let lo = addr & !(PAGE_4K - 1);
        let hi = (addr + data.len() as u64).next_multiple_of(PAGE_4K);
        let mut page = Payload::build((hi - lo) as usize, |buf| self.read(lo, buf));
        let written = page.overwrite_unique((addr - lo) as usize, data);
        assert!(written, "a fresh page has one handle");
        self.insert_segment(lo, page);
    }

    /// Fill `[addr, addr + len)` with `byte` as lazy shared-backing fill
    /// segments — O(len / 1 MiB) metadata, no allocation until (and unless)
    /// the bytes are inspected. Chunks are cut at absolute
    /// [`LAZY_BACKING_MAX`] (1 MiB) boundaries, so aligned 1 MiB reads land
    /// on exactly one segment and an inspected chunk materialises no more
    /// than a joined pattern does.
    pub fn fill(&mut self, addr: u64, len: u64, byte: u8) {
        if len == 0 {
            return;
        }
        let chunk = LAZY_BACKING_MAX as u64;
        let backing = Payload::fill(byte, chunk.min(len) as usize);
        let mut cur = addr;
        let end = addr + len;
        while cur < end {
            let chunk_end = ((cur / chunk) + 1) * chunk;
            let n = chunk_end.min(end) - cur;
            self.insert_segment(cur, backing.slice(0..n as usize));
            cur += n;
        }
    }

    /// Read into `out` starting at byte address `addr`. Unwritten bytes
    /// come back as zero; untouched extents never allocate, and lazy
    /// segments copy out without materialising. A span inside one segment
    /// copies straight from it and builds no part list.
    pub fn read(&mut self, addr: u64, out: &mut [u8]) {
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
            p.copy_to(&mut out[off..off + n]);
            off += n;
        }
    }

    /// Read `len` bytes starting at `addr` as one [`Payload`] — zero-copy
    /// when one segment covers the span (or the span is a gap, which comes
    /// back as lazy zero-fill); spans crossing backings copy once.
    pub fn read_payload(&mut self, addr: u64, len: usize) -> Payload {
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

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.slab.clear();
        self.free.clear();
        self.write_cursor = None;
        self.read_cursor = None;
    }

    /// The payload in `slot`.
    fn seg(&self, slot: u32) -> &Payload {
        &self.slab[slot as usize]
    }

    /// Insert or replace the segment starting at `start` (one map descent).
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
            }
        }
    }

    /// Remove the segment starting at `start`, dropping its payload.
    fn take(&mut self, start: u64) {
        let Some(slot) = self.segs.remove(&start) else {
            return;
        };
        self.write_cursor = None;
        self.read_cursor = None;
        self.slab[slot as usize] = Payload::empty();
        self.free.push(slot);
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

    /// Grow the write cursor's segment in place by `data` when `data`
    /// starts at its end, ends before the following segment and joins it
    /// ([`Payload::joins`]). The general walk would find that segment as
    /// the predecessor, nothing overlapped and no successor at `end`, and
    /// leave exactly this layout.
    fn append_at_cursor(&mut self, addr: u64, data: &Payload) -> bool {
        let Some(cur) = &mut self.write_cursor else {
            return false;
        };
        let seg = &self.slab[cur.slot as usize];
        if cur.start + seg.len() as u64 != addr || !seg.joins(data) {
            return false;
        }
        let segs = &self.segs;
        let next = *cur
            .next
            .get_or_insert_with(|| segs.range(addr..).next().map_or(u64::MAX, |(&s, _)| s));
        if addr + data.len() as u64 >= next {
            return false;
        }
        self.slab[cur.slot as usize].try_extend(data)
    }

    /// Whether `data` is the window the write cursor's segment already
    /// holds at `addr`, strictly inside it (see [`holds_inside`]).
    fn rewrite_at_cursor(&self, addr: u64, data: &Payload) -> bool {
        self.write_cursor
            .as_ref()
            .is_some_and(|cur| holds_inside(cur.start, self.seg(cur.slot), addr, data))
    }

    /// Insert `data` at `addr`, trimming any overlapped extents of existing
    /// segments and joining the write with the neighbours it joins. All
    /// slicing is zero-copy.
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
    /// joins its predecessor makes that segment the write cursor. Only the
    /// write joins: a trimmed head or split tail is not offered to the
    /// segment on its far side, so a pattern window a trim brings under
    /// [`LAZY_BACKING_MAX`] stays apart from a neighbour it meets by origin.
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
        // Join with the predecessor, then the successor, when they join
        // (zero-copy). The predecessor grows in place: it swaps slots with
        // the write, so the store's handle on it stays its only one.
        let joined_pred = match pred {
            Some((_, p)) if self.seg(p).joins(&merged) => {
                std::mem::swap(&mut self.slab[p as usize], &mut merged);
                merged.try_extend(&self.slab[p as usize])
            }
            _ => false,
        };
        let mut take_succ = false;
        let next_seg = tail.as_ref().or(succ.map(|k| self.seg(k)));
        if next_seg.is_some_and(|n| merged.try_extend(n)) {
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

    /// Segments that touch, as `(start, payload)` pairs in address order.
    fn neighbours(m: &SegmentMemory) -> Vec<[(u64, &Payload); 2]> {
        let segs: Vec<(u64, &Payload)> = m.segs.iter().map(|(&s, &k)| (s, m.seg(k))).collect();
        segs.windows(2)
            .filter(|w| w[0].0 + w[0].1.len() as u64 == w[1].0)
            .map(|w| [w[0], w[1]])
            .collect()
    }

    /// The start of the first of two neighbouring segments that could be
    /// one and are not both pattern windows (a trim can leave two that
    /// meet by origin under [`LAZY_BACKING_MAX`]; nothing joins them).
    fn joinable_neighbours(m: &SegmentMemory) -> Option<u64> {
        let pattern = |p: &Payload| p.pattern_origin().is_some();
        neighbours(m)
            .into_iter()
            .find(|[(_, a), (_, b)]| a.joins(b) && !(pattern(a) && pattern(b)))
            .map(|[(s, _), _]| s)
    }

    /// Neighbouring pattern segments whose origins meet but that together
    /// pass [`LAZY_BACKING_MAX`]: the cap is what keeps them apart.
    fn capped_neighbours(m: &SegmentMemory) -> usize {
        neighbours(m)
            .iter()
            .filter(|[(_, a), (_, b)]| {
                a.len() + b.len() > LAZY_BACKING_MAX
                    && matches!(
                        (a.pattern_origin(), b.pattern_origin()),
                        (Some(x), Some(y)) if x.wrapping_add(a.len() as u64) == y
                    )
            })
            .count()
    }

    /// A 4 KiB shared backing whose adjacent windows re-join.
    fn backing() -> Payload {
        Payload::from_vec((0u8..=255).cycle().take(4096).collect())
    }

    #[test]
    fn layout_disjoint_write() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(0, b.slice(0..8));
        m.write_payload(100, b.slice(200..208));
        m.write_payload(50, b.slice(400..408));
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
        let [nines, ones, twos] = [9u8, 1, 2].map(|v| Payload::from_vec(vec![v; 64]));
        m.write_payload(0, nines.slice(0..4));
        m.write_payload(64, ones.clone());
        m.write_payload(64, twos.clone());
        assert_eq!(layout(&m), [(0, 4), (64, 64)]);
        assert_eq!(m.read_vec(64, 64), vec![2u8; 64]);
    }

    #[test]
    fn layout_head_overwrite_keeps_tail() {
        let mut m = SegmentMemory::new();
        let ones = Payload::from_vec(vec![1u8; 64]);
        m.write_payload(0, ones.clone());
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
        m.write_payload(0, old.clone());
        let b = backing();
        m.write_payload(0, b.slice(0..1024));
        m.write_payload(0, b.slice(0..256));
        assert_eq!(layout(&m), [(0, 1024)]);
        // A head from another backing splits it again.
        let fives = Payload::from_vec(vec![5u8; 256]);
        m.write_payload(0, fives.clone());
        assert_eq!(layout(&m), [(0, 256), (256, 768)]);
        m.write_payload(0, b.slice(0..256));
        assert_eq!(layout(&m), [(0, 1024)]);
        assert_eq!(m.read_payload(0, 1024), b.slice(0..1024));
    }

    #[test]
    fn layout_middle_split() {
        let mut m = SegmentMemory::new();
        let ones = Payload::from_vec(vec![1u8; 64]);
        m.write_payload(0, ones.clone());
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
        assert_eq!(layout(&m), [(0, 4096)], "the first write took its page");
        let mut want = vec![1u8; 64];
        want[..4].fill(3);
        want[16..32].fill(2);
        assert_eq!(m.read_vec(0, 64), want);
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
        assert_eq!(layout(&m), [(0, 4096)], "the first write took its page");
        let mut want = vec![1u8; 64];
        want[..4].copy_from_slice(b"cqe0");
        want[16..32].fill(2);
        assert_eq!(m.read_vec(0, 64), want);
    }

    #[test]
    fn held_window_keeps_old_bytes_across_overwrite() {
        let mut m = SegmentMemory::new();
        m.write(0, &[1u8; 64]);
        let held = m.read_payload(0, 64);
        // A byte write copies the page into a new buffer.
        m.write(16, &[2u8; 16]);
        assert_eq!(held, vec![1u8; 64], "a reader's window saw the write");
        assert_eq!(layout(&m), [(0, 4096)]);
        assert_ne!(
            m.read_payload(0, 64).owned_backing(),
            held.owned_backing(),
            "the held buffer was written through"
        );
        // A shared window splits it.
        let threes = Payload::from_vec(vec![3u8; 16]);
        let held = m.read_payload(0, 64);
        m.write_payload(16, threes.clone());
        let mut want = vec![1u8; 64];
        want[16..32].fill(2);
        assert_eq!(held, want, "a reader's window saw the write");
        assert_eq!(layout(&m), [(0, 16), (16, 16), (32, 4064)]);
        assert_eq!(m.read_vec(16, 16), vec![3u8; 16]);
    }

    #[test]
    fn lazy_and_shared_segments_take_the_split_path() {
        let mut m = SegmentMemory::new();
        let b = backing();
        m.write_payload(0, Payload::fill(7, 64));
        m.write_payload(64, Payload::pattern(5, 64));
        m.write_payload(128, b.slice(0..64));
        let twos: Vec<Payload> = (0..3).map(|_| Payload::from_vec(vec![2u8; 16])).collect();
        for (base, two) in [0, 64, 128].into_iter().zip(&twos) {
            m.write_payload(base + 16, two.clone());
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
        let tens: Vec<Payload> = (0..8u8).map(|i| Payload::from_vec(vec![i; 10])).collect();
        for (i, ten) in tens.iter().enumerate() {
            m.write_payload(i as u64 * 10, ten.clone());
        }
        let (ee, dd) = (
            Payload::from_vec(vec![0xee; 50]),
            Payload::from_vec(vec![0xdd; 60]),
        );
        m.write_payload(15, ee.clone());
        assert_eq!(layout(&m), [(0, 10), (10, 5), (15, 50), (65, 5), (70, 10)]);
        m.write_payload(10, dd.clone());
        assert_eq!(layout(&m), [(0, 10), (10, 60), (70, 10)]);
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
        // The store returned our window, not a copy.
        assert!(back.same_window(&p));
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
        let ten = Payload::from_vec(vec![1u8; 10]);
        m.write_payload(64, ten.clone());
        assert_eq!(m.backing_bytes(), 4106);
        // Dropping the last window drops the buffer from the count.
        m.write_payload(0, Payload::fill(0, 16));
        m.write_payload(1 << 30, Payload::fill(0, 100));
        assert_eq!(m.backing_bytes(), 10);
    }

    #[test]
    fn tiny_writes_leave_one_segment_per_page() {
        // Interleaved tiny writes, some straddling a page boundary: each
        // touched page ends up in one segment (two neighbouring pages a
        // straddling write took together share one).
        let mut m = SegmentMemory::new();
        let mut flat = vec![0u8; 1 << 20];
        let mut pages = HashSet::new();
        for i in 0..2048u64 {
            let addr = (i * 7919) % ((1 << 20) - 128);
            let len = 1 + (i % 96) as usize;
            let data = vec![i as u8; len];
            m.write(addr, &data);
            flat[addr as usize..][..len].copy_from_slice(&data);
            pages.extend([addr / PAGE_4K, (addr + len as u64 - 1) / PAGE_4K]);
        }
        assert!(
            m.segment_count() <= pages.len(),
            "{} segments for {} pages",
            m.segment_count(),
            pages.len()
        );
        assert_eq!(m.read_vec(0, 1 << 20), flat);
    }

    #[test]
    fn page_granular_ring_writes_stay_lazy() {
        // A 2 MiB ring rewritten page by page in shuffled order, each page
        // its own lazy pattern: one segment per page, and nothing may be
        // materialised.
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
        assert_eq!(m.segment_count(), 512);
        assert_eq!(m.backing_bytes(), 0, "a page was materialised");
        for pg in 0..pages {
            let want = Payload::pattern(3 * pages + pg, PAGE_4K as usize);
            assert_eq!(m.read_payload(pg * PAGE_4K, PAGE_4K as usize), want);
        }
    }

    #[test]
    fn ring_slots_share_their_page() {
        // A 16 KiB ring of 64-byte slots (an SQ), first written slot by
        // slot into unwritten memory: each slot write takes its page, so
        // the ring is four segments, not 256.
        const SLOT: usize = 64;
        const RING: u64 = 16 << 10;
        let mut m = SegmentMemory::new();
        for i in 0..RING / SLOT as u64 {
            m.write(i * SLOT as u64, &[i as u8; SLOT]);
        }
        assert_eq!(m.segment_count(), 4);
        assert_eq!(m.backing_bytes(), RING);
        // Later slot writes, as bytes or as fresh payloads, land in place.
        for i in 0..2 * RING / SLOT as u64 {
            let at = i * SLOT as u64 % RING;
            match i % 2 {
                0 => m.write(at, &[!i as u8; SLOT]),
                _ => m.write_payload(at, Payload::from_vec(vec![!i as u8; SLOT])),
            }
        }
        assert_eq!(m.segment_count(), 4);
        assert_eq!(m.backing_bytes(), RING);
        // An 8-slot burst read is a window of the page's own buffer.
        let at = PAGE_4K + 1024;
        let burst = m.read_payload(at, 8 * SLOT);
        let (s, slot) = m.covering_slot(at, 8 * SLOT).expect("one page covers it");
        assert_eq!(s, PAGE_4K);
        assert_eq!(burst.owned_backing(), m.seg(slot).owned_backing());
        assert!(burst.same_window(&m.seg(slot).slice(1024..1024 + 8 * SLOT)));
    }

    #[test]
    fn scalar_helpers() {
        let mut m = SegmentMemory::new();
        m.write_u32(16, 0xdead_beef);
        assert_eq!(m.read_u32(16), 0xdead_beef);
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
        /// The origin-aligned beat [`Lockstep::beat_window`] cuts from:
        /// its start address and one allocation per side.
        beat: Option<(u64, Payload, Payload)>,
        ops: usize,
    }

    /// Bytes per origin-aligned beat, as the streamer cuts a transfer.
    const BEAT: u64 = 64 << 10;

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
            assert_eq!(
                joinable_neighbours(&self.m),
                None,
                "joinable neighbours, op {op}"
            );
        }

        /// A byte write; one shorter than a page leaves its span in one
        /// segment.
        fn write(&mut self, addr: u64, data: &[u8]) {
            self.m.write(addr, data);
            self.r.write(addr, data);
            self.check();
            if data.len() < PAGE_4K as usize {
                let op = self.ops;
                assert!(
                    self.m.covering_slot(addr, data.len()).is_some(),
                    "small write split, op {op}"
                );
            }
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

        /// A window of the 64 KiB beat `Payload::pattern(beat_start,
        /// BEAT)` holding `addr`, a new allocation per beat: byte `addr` of
        /// the store is `pattern_byte(0, addr)` wherever it was written
        /// from. Cut at the beat's end, so it may be shorter than `len`;
        /// returns the length written.
        fn beat_window(&mut self, addr: u64, len: usize) -> usize {
            let start = addr & !(BEAT - 1);
            if self.beat.as_ref().is_none_or(|b| b.0 != start) {
                let pat = || Payload::pattern(start, BEAT as usize);
                self.beat = Some((start, pat(), pat()));
            }
            let (_, a, b) = self.beat.as_ref().expect("set above");
            let from = (addr - start) as usize;
            let to = (from + len).min(BEAT as usize);
            self.m.write_payload(addr, a.slice(from..to));
            self.r.write_payload(addr, b.slice(from..to));
            self.check();
            to - from
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

    /// Seeded random op mix over 3 MiB: sequential appends of
    /// shared-backing windows or of origin-aligned pattern beats (the
    /// write cursor's path, joins across allocations, in-place growth and
    /// the [`LAZY_BACKING_MAX`] cap), small byte writes packed into one
    /// hot region (in place, or taking their page), random shared windows,
    /// patterns, origin-aligned patterns (`Payload::pattern(addr, len)`,
    /// which join every origin-aligned neighbour), unique payloads,
    /// fills, rewrites of windows the store already holds (inside a
    /// segment, at either end or whole; near the append stream, where the
    /// write cursor sits, or anywhere), held and dropped reads, and the
    /// odd `clear`.
    #[test]
    fn layout_matches_oracle_under_random_ops() {
        const BASE: u64 = 1 << 20;
        const SPAN: u64 = 3 << 20;
        let mut capped = 0;
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
                            // One stream in four is origin-aligned beats.
                            bi = next() as usize % (backings.len() + 1);
                            off = next() as usize % (32 << 10);
                        }
                        let len = match backings.get(bi) {
                            Some(b) => {
                                l.window(at, b, off, off + len);
                                len
                            }
                            None => l.beat_window(at, len),
                        };
                        at += len as u64;
                        off += len;
                    }
                    30..=46 => {
                        let hot = 2 * BASE + next() % (256 << 10);
                        let len = 1 + next() as usize % 64;
                        l.write(hot, &vec![step as u8; len]);
                    }
                    47..=56 => {
                        let b = &backings[next() as usize % backings.len()];
                        let from = next() as usize % (60 << 10);
                        let len = 1 + next() as usize % 4096;
                        l.window(anywhere, b, from, from + len);
                    }
                    57..=60 => {
                        let len = if next() % 2 == 0 {
                            4096
                        } else {
                            1 + next() % 2048
                        };
                        l.pattern(anywhere & !(PAGE_4K - 1), step, len as usize);
                    }
                    61..=63 => {
                        let len = 1 + next() as usize % (512 << 10);
                        l.pattern(anywhere, anywhere, len);
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
                capped += capped_neighbours(&l.m).min(1);
            }
        }
        assert!(capped > 0, "no join by origin ever met the cap");
    }

    #[test]
    fn streamed_pattern_beats_join_into_capped_segments() {
        // 4 MiB landed page by page from 64 KiB beats, each its own
        // `Payload::pattern(addr, 64 KiB)`: one segment per 1 MiB.
        let mut l = Lockstep::default();
        for addr in (0..4u64 << 20).step_by(PAGE_4K as usize) {
            l.beat_window(addr, PAGE_4K as usize);
        }
        assert_eq!(
            layout(&l.m),
            (0..4)
                .map(|i| (i << 20, LAZY_BACKING_MAX))
                .collect::<Vec<_>>()
        );
        assert_eq!(capped_neighbours(&l.m), 3);
        assert_eq!(l.m.backing_bytes(), 0, "nothing materialised");
        l.read((1 << 20) - 100, 200, false);
        let p = l.m.read_payload(3 << 20, 1 << 20);
        assert_eq!(p.pattern_origin(), Some(3 << 20));
    }

    #[test]
    fn a_trim_under_the_cap_leaves_two_segments() {
        // Pattern windows that meet by origin but pass the cap together
        // stay two segments when a write cuts one of them under it: a trim
        // joins nothing. First a trimmed end ([512K, 1280K) cut back to
        // 512K beside [0, 512K)), then a split tail (cutting the head of
        // [2M, 2M + 768K) leaves 512K beside the 512K after it).
        const K: u64 = 1 << 10;
        let mut l = Lockstep::default();
        let mut flat = vec![0u8; 3328 << 10];
        for (at, len, byte) in [
            (0, 512, None),
            (512, 768, None),
            (1024, 256, Some(1)),
            (2048, 768, None),
            (2816, 512, None),
            (2048, 256, Some(2)),
        ] {
            let (at, len) = (at * K, (len * K) as usize);
            let span = &mut flat[at as usize..][..len];
            match byte {
                None => {
                    l.pattern(at, at, len);
                    Payload::pattern(at, len).copy_to(span);
                }
                Some(b) => {
                    span.fill(b);
                    l.write(at, span);
                }
            }
        }
        let want = [
            (0, 512),
            (512, 512),
            (1024, 256),
            (2048, 256),
            (2304, 512),
            (2816, 512),
        ];
        assert_eq!(layout(&l.m), want.map(|(s, n)| (s * K, (n * K) as usize)));
        for at in [0, 2304 * K] {
            let head = l.m.read_payload(at, 512 << 10);
            let next = l.m.read_payload(at + 512 * K, 512 << 10);
            assert!(head.joins(&next), "{at:#x}: the pair meets under the cap");
        }
        assert_eq!(l.m.read_vec(0, flat.len()), flat);
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
        // Inside the write cursor's segment: found at the cursor.
        l.rewrite(100, 0, 7 << 16 | 5);
        assert_eq!(layout(&l.m), [(0, 1536), (8192, 512)]);
        assert_eq!(l.m.write_cursor.as_ref().map(|c| c.start), Some(0));
        // Touching either end, or the whole segment: the walk.
        for how in 1..=3 {
            l.rewrite(100, how, 300);
            assert_eq!(layout(&l.m), [(0, 1536), (8192, 512)]);
        }
        // Inside a segment the cursor is not on: found by the walk's first
        // step, which moves the cursor there.
        l.window(4096, &b, 4096, 6144);
        l.pattern(7000, 9, 8);
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
        l.pattern(4096, 9, 100);
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
        l.pattern(1024, 9, 256);
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
}
