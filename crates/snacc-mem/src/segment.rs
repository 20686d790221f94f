//! Segment-store memory: zero-copy functional media.
//!
//! [`SegmentMemory`] replaces the page-materialising [`crate::SparseMemory`]
//! behind the functional media models (SSD NAND, host DRAM, on-board DRAM,
//! URAM). Instead of copying every written byte into 4 KiB pages, it keeps
//! an ordered map of non-overlapping [`Payload`] windows:
//!
//! * **Writes retain the payload** — an O(1) metadata insert. Lazy pattern
//!   or fill segments stay lazy; a 2 GiB synthetic write pass moves
//!   O(segments) metadata instead of gigabytes of bytes.
//! * **Reads return zero-copy views** — a read covered by one segment is a
//!   slice of that segment's backing; gaps come back as lazy zero-fill.
//!   Only reads spanning multiple backings copy (via [`Payload::concat`]),
//!   and [`read_payload_parts`](SegmentMemory::read_payload_parts) avoids
//!   even that for consumers that can handle a part list.
//! * **Copy-on-write coalescing** bounds fragmentation: when more than
//!   [`COALESCE_SEGS`] segments accumulate inside one 1 MiB window, the
//!   window is materialised into a single owned segment. This is the only
//!   copying path in the store. The bound equals the pages per window, so
//!   page-granular traffic (NVMe pages, streamer ring slots) never copies;
//!   only sub-page fragmentation does.
//!
//! The byte-oriented API (`write`/`read`/`read_vec`/scalar helpers) matches
//! `SparseMemory` so ring buffers, descriptor pages and tests work
//! unchanged.

use snacc_sim::bytes::Payload;
use std::collections::BTreeMap;

use crate::sparse::PAGE_SIZE;

/// CoW coalescing window (bytes). Fragmentation is bounded per window.
pub const COALESCE_WINDOW: u64 = 1 << 20;

/// Maximum segments tolerated inside one window before the window is
/// materialised into a single owned segment: one per 4 KiB page, so a
/// window fully tiled by independent page writes (random 4 KiB I/O, ring
/// slots) stays zero-copy and only sub-page fragments trigger a copy.
pub const COALESCE_SEGS: usize = (COALESCE_WINDOW / PAGE_SIZE as u64) as usize;

/// Chunk size for [`SegmentMemory::fill`] backings: bounds how much one
/// lazy fill segment materialises if a byte of it is ever inspected.
const FILL_CHUNK: u64 = 1 << 20;

/// A sparse, zero-initialised byte-addressable memory storing zero-copy
/// payload segments. See the module docs.
#[derive(Default)]
pub struct SegmentMemory {
    /// Non-overlapping segments keyed by start byte address.
    segs: BTreeMap<u64, Payload>,
    bytes_written: u64,
    bytes_read: u64,
}

impl SegmentMemory {
    /// New empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct 4 KiB pages covered by resident segments — the
    /// same footprint measure `SparseMemory::resident_pages` reports.
    pub fn resident_pages(&self) -> usize {
        let mut pages = 0usize;
        let mut last_counted: Option<u64> = None;
        for (&start, seg) in &self.segs {
            let first = start / PAGE_SIZE as u64;
            let last = (start + seg.len() as u64 - 1) / PAGE_SIZE as u64;
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

    /// Write `data` starting at byte address `addr` (copies `data` once
    /// into a shared backing; prefer [`write_payload`](Self::write_payload)
    /// on hot paths).
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        if data.is_empty() {
            return;
        }
        self.write_payload(addr, Payload::from(data));
    }

    /// Write a payload window starting at `addr` — O(log segments) metadata
    /// update, no byte copying. Overlapped extents of existing segments are
    /// trimmed (zero-copy slices); adjacent windows of the same backing
    /// re-join so a producer slicing one large buffer leaves one segment.
    pub fn write_payload(&mut self, addr: u64, data: Payload) {
        self.bytes_written += data.len() as u64;
        self.insert_segment(addr, data);
        self.maybe_coalesce(addr);
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
        let parts = self.gather_parts(addr, len);
        match parts.len() {
            0 => Payload::empty(),
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

    /// Read a little-endian u64.
    pub fn read_u64(&mut self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Write a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, v: u32) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }

    /// Copy `len` bytes from `src_addr` to `dst_addr` within this memory —
    /// zero-copy: the destination shares the source segments' backings.
    pub fn copy_within(&mut self, src_addr: u64, dst_addr: u64, len: usize) {
        let parts = self.read_payload_parts(src_addr, len);
        self.bytes_written += len as u64;
        let mut off = 0u64;
        for p in parts {
            let n = p.len() as u64;
            self.insert_segment(dst_addr + off, p);
            off += n;
        }
        self.maybe_coalesce(dst_addr);
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.segs.clear();
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
        if let Some((&s, seg)) = self.segs.range(..addr).next_back() {
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                let from = (addr - s) as usize;
                let to = (seg_end.min(end) - s) as usize;
                parts.push(seg.slice(from..to));
                cur = seg_end.min(end);
            }
        }
        for (&s, seg) in self.segs.range(addr..end) {
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
    /// read counter (shared by `read` and the coalescer).
    fn read_at(&self, addr: u64, out: &mut [u8]) {
        let mut off = 0usize;
        for p in self.gather_parts(addr, out.len()) {
            let n = p.len();
            // The copy below is the byte-API boundary: callers handed us a
            // borrowed output buffer, so the bytes must land there.
            out[off..off + n].copy_from_slice(p.as_slice());
            off += n;
        }
    }

    /// Insert `data` at `addr`, trimming any overlapped extents of existing
    /// segments and re-joining with same-backing neighbours. All slicing is
    /// zero-copy.
    fn insert_segment(&mut self, addr: u64, data: Payload) {
        if data.is_empty() {
            return;
        }
        let end = addr + data.len() as u64;
        // Trim a segment that starts before `addr` and overlaps it.
        if let Some((&s, seg)) = self.segs.range_mut(..addr).next_back() {
            let seg_end = s + seg.len() as u64;
            if seg_end > addr {
                let left = seg.slice(0..(addr - s) as usize);
                let right = if seg_end > end {
                    Some(seg.slice((end - s) as usize..seg.len()))
                } else {
                    None
                };
                *seg = left;
                if let Some(tail) = right {
                    self.segs.insert(end, tail);
                }
            }
        }
        // Remove segments starting inside the new window; keep any tail
        // extending past it.
        let covered: Vec<u64> = self.segs.range(addr..end).map(|(&s, _)| s).collect();
        for s in covered {
            let seg = self.segs.remove(&s).expect("listed");
            let seg_end = s + seg.len() as u64;
            if seg_end > end {
                self.segs
                    .insert(end, seg.slice((end - s) as usize..seg.len()));
            }
        }
        // Join with the predecessor / successor when they continue the same
        // backing buffer (zero-copy window merge).
        let mut start = addr;
        let mut merged = data;
        if let Some((&s, seg)) = self.segs.range(..addr).next_back() {
            if s + seg.len() as u64 == addr {
                if let Some(j) = seg.try_join(&merged) {
                    self.segs.remove(&s);
                    start = s;
                    merged = j;
                }
            }
        }
        if let Some(succ) = self.segs.get(&end) {
            if let Some(j) = merged.try_join(succ) {
                self.segs.remove(&end);
                merged = j;
            }
        }
        self.segs.insert(start, merged);
    }

    /// If the 1 MiB window containing `addr` holds more than
    /// [`COALESCE_SEGS`] segments, materialise its covered extent into one
    /// owned segment (the store's only copying path).
    fn maybe_coalesce(&mut self, addr: u64) {
        let win_start = addr & !(COALESCE_WINDOW - 1);
        let win_end = win_start + COALESCE_WINDOW;
        let mut count = 0usize;
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for (&s, seg) in self.segs.range(win_start..win_end) {
            count += 1;
            lo = lo.min(s);
            hi = hi.max((s + seg.len() as u64).min(win_end));
            if count > COALESCE_SEGS {
                break;
            }
        }
        if count <= COALESCE_SEGS || lo >= hi {
            return;
        }
        let len = (hi - lo) as usize;
        let mut buf = vec![0u8; len];
        self.read_at(lo, &mut buf);
        self.insert_segment(lo, Payload::from_vec(buf));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let pages = RING / PAGE_SIZE as u64;
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
                m.write_payload(pg * PAGE_SIZE as u64, Payload::pattern(seed, PAGE_SIZE));
            }
        }
        assert_eq!(m.segment_count(), 512, "a window was materialised");
        for pg in 0..pages {
            let want = Payload::pattern(3 * pages + pg, PAGE_SIZE);
            assert_eq!(m.read_payload(pg * PAGE_SIZE as u64, PAGE_SIZE), want);
        }
    }

    #[test]
    fn copy_within_shares_backing() {
        let mut m = SegmentMemory::new();
        m.write(0, b"hello world");
        m.copy_within(0, 1 << 20, 11);
        assert_eq!(m.read_vec(1 << 20, 11), b"hello world");
        assert_eq!(m.segment_count(), 2);
    }

    #[test]
    fn scalar_helpers() {
        let mut m = SegmentMemory::new();
        m.write_u32(16, 0xdead_beef);
        m.write_u64(24, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(16), 0xdead_beef);
        assert_eq!(m.read_u64(24), 0x0123_4567_89ab_cdef);
    }
}
