//! Sparse byte memory.
//!
//! A [`SparseMemory`] is a page table of 4 KiB pages allocated on first
//! write; untouched bytes read back as zero, matching fresh hardware. It
//! backs the small MMIO scratch and completion-queue regions
//! (`ScratchTarget`, `NotifyTarget` in `snacc-pcie`) and is the reference
//! model in the segment-store equivalence tests. Bulk functional storage
//! (host DRAM, FPGA DRAM, URAM, NAND media) is a
//! [`SegmentMemory`](crate::SegmentMemory).

use std::collections::HashMap;

/// Page size for the sparse store (matches the NVMe PRP page size, which is
/// convenient but not required — reads/writes may span pages arbitrarily).
pub const PAGE_SIZE: usize = 4096;

/// A sparse, zero-initialised byte-addressable memory.
#[derive(Default)]
pub struct SparseMemory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
    bytes_written: u64,
    bytes_read: u64,
}

impl SparseMemory {
    /// New empty memory (all bytes read as zero).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct pages materialised so far.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes written through [`write`](Self::write).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Total bytes read through [`read`](Self::read).
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read
    }

    /// Write `data` starting at byte address `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) {
        self.bytes_written += data.len() as u64;
        let mut page_no = addr / PAGE_SIZE as u64;
        let mut page_off = (addr % PAGE_SIZE as u64) as usize;
        let mut off = 0usize;
        while off < data.len() {
            let n = (PAGE_SIZE - page_off).min(data.len() - off);
            if n == PAGE_SIZE {
                // Full-page overwrite: build the page straight from the
                // source instead of zero-initialising it first.
                let page: [u8; PAGE_SIZE] = data[off..off + n].try_into().expect("full page");
                self.pages.insert(page_no, Box::new(page));
            } else {
                let page = self
                    .pages
                    .entry(page_no)
                    .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
                page[page_off..page_off + n].copy_from_slice(&data[off..off + n]);
            }
            off += n;
            page_no += 1;
            page_off = 0;
        }
    }

    /// Fill `[addr, addr + len)` with the deterministic pattern generator
    /// [`snacc_sim::bytes::pattern_byte`]`(seed, i)` for `i` in `0..len` —
    /// page-wise in place, with no intermediate staging buffer.
    pub fn fill_pattern(&mut self, addr: u64, len: u64, seed: u64) {
        self.bytes_written += len;
        let mut off = 0u64;
        while off < len {
            let a = addr + off;
            let page_no = a / PAGE_SIZE as u64;
            let page_off = (a % PAGE_SIZE as u64) as usize;
            let n = ((PAGE_SIZE - page_off) as u64).min(len - off);
            let page = self
                .pages
                .entry(page_no)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            for (i, b) in page[page_off..page_off + n as usize].iter_mut().enumerate() {
                *b = snacc_sim::bytes::pattern_byte(seed, off + i as u64);
            }
            off += n;
        }
    }

    /// Read into `out` starting at byte address `addr`. Unwritten bytes
    /// come back as zero.
    pub fn read(&mut self, addr: u64, out: &mut [u8]) {
        self.bytes_read += out.len() as u64;
        self.read_into(addr, out);
    }

    /// Read into `out`, returning how many bytes came from resident pages.
    /// Untouched pages never allocate — they zero the output in place —
    /// and a fully-untouched span is detectable from the `0` return.
    pub fn read_into(&mut self, addr: u64, out: &mut [u8]) -> usize {
        let mut resident = 0usize;
        let mut page_no = addr / PAGE_SIZE as u64;
        let mut page_off = (addr % PAGE_SIZE as u64) as usize;
        let mut off = 0usize;
        while off < out.len() {
            let n = (PAGE_SIZE - page_off).min(out.len() - off);
            match self.pages.get(&page_no) {
                Some(page) => {
                    out[off..off + n].copy_from_slice(&page[page_off..page_off + n]);
                    resident += n;
                }
                None => out[off..off + n].fill(0),
            }
            off += n;
            page_no += 1;
            page_off = 0;
        }
        resident
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

    /// Copy `len` bytes from `src_addr` to `dst_addr` within this memory.
    pub fn copy_within(&mut self, src_addr: u64, dst_addr: u64, len: usize) {
        let tmp = self.read_vec(src_addr, len);
        self.write(dst_addr, &tmp);
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.pages.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mut m = SparseMemory::new();
        assert_eq!(m.read_vec(123_456, 16), vec![0u8; 16]);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn write_read_roundtrip() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write(1000, &data);
        assert_eq!(m.read_vec(1000, 256), data);
        assert_eq!(m.bytes_written(), 256);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE as u64 - 100;
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        m.write(addr, &data);
        assert_eq!(m.read_vec(addr, 200), data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overwrite_partial() {
        let mut m = SparseMemory::new();
        m.write(0, &[1u8; 8]);
        m.write(4, &[2u8; 2]);
        assert_eq!(m.read_vec(0, 8), vec![1, 1, 1, 1, 2, 2, 1, 1]);
    }

    #[test]
    fn scalar_helpers() {
        let mut m = SparseMemory::new();
        m.write_u32(16, 0xdead_beef);
        m.write_u64(24, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u32(16), 0xdead_beef);
        assert_eq!(m.read_u64(24), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn copy_within_moves_bytes() {
        let mut m = SparseMemory::new();
        m.write(0, b"hello world");
        m.copy_within(0, 1 << 20, 11);
        assert_eq!(m.read_vec(1 << 20, 11), b"hello world");
    }

    #[test]
    fn read_into_reports_resident_bytes() {
        let mut m = SparseMemory::new();
        m.write(PAGE_SIZE as u64, &[3u8; 16]);
        let mut out = vec![0xffu8; 2 * PAGE_SIZE];
        let resident = m.read_into(0, &mut out);
        assert_eq!(resident, PAGE_SIZE, "only the written page is resident");
        assert_eq!(&out[..PAGE_SIZE], &vec![0u8; PAGE_SIZE][..]);
        assert_eq!(&out[PAGE_SIZE..PAGE_SIZE + 16], &[3u8; 16]);
        assert_eq!(m.resident_pages(), 1, "reads must not allocate pages");
    }

    #[test]
    fn fill_pattern_matches_generator() {
        let mut m = SparseMemory::new();
        let addr = PAGE_SIZE as u64 - 10;
        m.fill_pattern(addr, 100, 0xfeed);
        let got = m.read_vec(addr, 100);
        let want: Vec<u8> = (0u64..100)
            .map(|i| snacc_sim::bytes::pattern_byte(0xfeed, i))
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn full_page_write_fast_path() {
        let mut m = SparseMemory::new();
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 100).map(|i| i as u8).collect();
        let addr = PAGE_SIZE as u64 - 50;
        m.write(addr, &data);
        assert_eq!(m.read_vec(addr, data.len()), data);
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn sparse_footprint_stays_small() {
        let mut m = SparseMemory::new();
        // Touch two pages in a "2 TB" address space.
        m.write(2_000_000_000_000 - 8, &[7u8; 8]);
        m.write(0, &[7u8; 8]);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.read_vec(2_000_000_000_000 - 8, 8), vec![7u8; 8]);
    }
}
