//! Host DRAM model and pinned-buffer allocator.
//!
//! The host-DRAM streamer variant exchanges payload data with the NVMe
//! controller through buffers in host memory that the TaPaSCo kernel driver
//! pins for DMA (Sec 4.3 / 4.6). The driver can only allocate *contiguous*
//! buffers of up to 4 MB, so a 64 MB buffer is stitched from 16 segments —
//! the address-calculation overhead the paper mentions comes from walking
//! that segment table, which [`PinnedBuffer`] makes explicit.
//!
//! Host memory itself is modelled full-duplex and generously provisioned
//! (a server-class EPYC memory subsystem); it is never the bottleneck in
//! any of the paper's experiments, and that property carries over here.

use crate::addr::AddrRange;
use crate::segment::SegmentMemory;
use snacc_sim::bytes::Payload;
use snacc_sim::{Bandwidth, SharedLink, SimDuration, SimTime};

/// The kernel driver's maximum physically contiguous allocation (Sec 4.3).
pub const MAX_CONTIG_ALLOC: u64 = 4 << 20;

/// NVMe PRP page size.
pub const PAGE_4K: u64 = 4096;

/// A DMA-pinned buffer composed of one or more physically contiguous
/// segments, each at most [`MAX_CONTIG_ALLOC`] bytes and 4 KiB-aligned.
#[derive(Clone, Debug)]
pub struct PinnedBuffer {
    segments: Vec<AddrRange>,
    size: u64,
}

impl PinnedBuffer {
    /// Total buffer size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// The physically contiguous segments, in buffer order.
    pub fn segments(&self) -> &[AddrRange] {
        &self.segments
    }

    /// True if the buffer is a single contiguous region.
    pub fn is_contiguous(&self) -> bool {
        self.segments.len() == 1
    }

    /// Translate a byte offset within the buffer to a physical address.
    /// This is the per-access table walk the host-DRAM streamer performs.
    pub fn phys_addr(&self, offset: u64) -> u64 {
        assert!(offset < self.size, "offset {offset} beyond buffer");
        let mut remaining = offset;
        for seg in &self.segments {
            if remaining < seg.size {
                return seg.base + remaining;
            }
            remaining -= seg.size;
        }
        unreachable!("segment table inconsistent with size");
    }

    /// Split `len` bytes at buffer offset `offset` into physically
    /// contiguous pieces `(phys, offset within the request, len)`.
    pub fn pieces(&self, offset: u64, len: usize) -> Vec<(u64, usize, usize)> {
        let mut out = Vec::new();
        let mut off = 0usize;
        while off < len {
            let phys = self.phys_addr(offset + off as u64);
            let seg = self.segments.iter().find(|s| s.contains(phys));
            let seg_end = seg.expect("phys in a segment").end();
            let n = ((seg_end - phys) as usize).min(len - off);
            out.push((phys, off, n));
            off += n;
        }
        out
    }

    /// Physical address of the n-th 4 KiB page of the buffer (PRP entry n).
    pub fn page_addr(&self, page_index: u64) -> u64 {
        self.phys_addr(page_index * PAGE_4K)
    }

    /// Number of 4 KiB pages spanned.
    pub fn pages(&self) -> u64 {
        snacc_sim::ceil_div(self.size, PAGE_4K)
    }
}

/// Host DRAM: functional segment store + a full-duplex timing port per
/// direction, plus the pinned-buffer allocator.
pub struct HostMemory {
    store: SegmentMemory,
    read_port: SharedLink,
    write_port: SharedLink,
    pin_cursor: u64,
    pin_base: u64,
    pin_limit: u64,
}

/// Host memory subsystem parameters.
#[derive(Clone, Debug)]
pub struct HostMemConfig {
    /// Per-direction sustained bandwidth.
    pub bandwidth: Bandwidth,
    /// Access latency.
    pub latency: SimDuration,
    /// Base physical address of the pinned-allocation region.
    pub pinned_base: u64,
    /// Size of the pinned-allocation region.
    pub pinned_size: u64,
}

impl Default for HostMemConfig {
    fn default() -> Self {
        HostMemConfig {
            // One EPYC DDR4 channel pair — far above any PCIe device rate.
            bandwidth: Bandwidth::gb_per_s(38.4),
            latency: SimDuration::from_ns(90),
            pinned_base: 0x1_0000_0000, // 4 GiB mark, away from low memory
            pinned_size: 1 << 30,       // 1 GiB of pinnable memory
        }
    }
}

impl Default for HostMemory {
    fn default() -> Self {
        Self::new(HostMemConfig::default())
    }
}

impl HostMemory {
    /// Create host memory with the given configuration.
    pub fn new(cfg: HostMemConfig) -> Self {
        HostMemory {
            store: SegmentMemory::new(),
            read_port: SharedLink::new("hostmem.rd", cfg.bandwidth, cfg.latency),
            write_port: SharedLink::new("hostmem.wr", cfg.bandwidth, cfg.latency),
            pin_cursor: cfg.pinned_base,
            pin_base: cfg.pinned_base,
            pin_limit: cfg.pinned_base + cfg.pinned_size,
        }
    }

    /// Bytes currently pinned.
    pub fn pinned_bytes(&self) -> u64 {
        self.pin_cursor - self.pin_base
    }

    /// Allocate a DMA-pinned buffer of `size` bytes. The allocation is
    /// split into ≤ 4 MB physically contiguous, 4 KiB-aligned segments,
    /// mirroring the TaPaSCo kernel driver's allocator.
    pub fn alloc_pinned(&mut self, size: u64) -> PinnedBuffer {
        assert!(size > 0, "zero-size pinned allocation");
        let aligned = size.div_ceil(PAGE_4K) * PAGE_4K;
        assert!(
            self.pin_cursor + aligned <= self.pin_limit,
            "pinned memory exhausted"
        );
        let mut segments = Vec::new();
        let mut remaining = aligned;
        while remaining > 0 {
            let seg = remaining.min(MAX_CONTIG_ALLOC);
            segments.push(AddrRange::new(self.pin_cursor, seg));
            self.pin_cursor += seg;
            remaining -= seg;
        }
        PinnedBuffer {
            segments,
            size: aligned,
        }
    }

    /// Direct functional access (no timing).
    pub fn store_mut(&mut self) -> &mut SegmentMemory {
        &mut self.store
    }

    /// Timed + functional zero-copy write: the store retains the payload
    /// window (or copies a payload nothing else holds in place).
    pub fn write_payload(&mut self, now: SimTime, addr: u64, data: Payload) -> SimTime {
        let len = data.len() as u64;
        self.store.write_payload(addr, data);
        self.write_port.transfer(now, len)
    }

    /// Timed + functional zero-copy read: returns the stored bytes as a
    /// payload view.
    pub fn read_payload(&mut self, now: SimTime, addr: u64, len: usize) -> (Payload, SimTime) {
        let p = self.store.read_payload(addr, len);
        (p, self.read_port.transfer(now, len as u64))
    }

    /// Total bytes moved in either direction.
    pub fn bytes_transferred(&self) -> u64 {
        self.read_port.bytes_transferred() + self.write_port.bytes_transferred()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_alloc_is_contiguous() {
        let mut m = HostMemory::default();
        let b = m.alloc_pinned(1 << 20);
        assert!(b.is_contiguous());
        assert_eq!(b.size(), 1 << 20);
        assert_eq!(b.pages(), 256);
    }

    #[test]
    fn large_alloc_splits_at_4mb() {
        let mut m = HostMemory::default();
        let b = m.alloc_pinned(64 << 20);
        assert_eq!(b.segments().len(), 16);
        assert!(b.segments().iter().all(|s| s.size <= MAX_CONTIG_ALLOC));
        assert_eq!(b.size(), 64 << 20);
    }

    #[test]
    fn phys_addr_walks_segments() {
        let mut m = HostMemory::default();
        let b = m.alloc_pinned(9 << 20); // 3 segments: 4+4+1 MB
        assert_eq!(b.segments().len(), 3);
        // Offset 0 → first segment base.
        assert_eq!(b.phys_addr(0), b.segments()[0].base);
        // Offset 4 MB → second segment base.
        assert_eq!(b.phys_addr(4 << 20), b.segments()[1].base);
        // Offset 4 MB − 1 → last byte of first segment.
        assert_eq!(b.phys_addr((4 << 20) - 1), b.segments()[0].end() - 1);
        // Page address helper matches.
        assert_eq!(b.page_addr(1024), b.segments()[1].base);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut m = HostMemory::default();
        let a = m.alloc_pinned(6 << 20);
        let b = m.alloc_pinned(6 << 20);
        for sa in a.segments() {
            for sb in b.segments() {
                assert!(!sa.overlaps(sb));
            }
        }
        assert_eq!(m.pinned_bytes(), 12 << 20);
    }

    #[test]
    fn alloc_rounds_to_pages() {
        let mut m = HostMemory::default();
        let b = m.alloc_pinned(100);
        assert_eq!(b.size(), 4096);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn pinned_exhaustion_detected() {
        let mut m = HostMemory::new(HostMemConfig {
            pinned_size: 8 << 20,
            ..Default::default()
        });
        m.alloc_pinned(16 << 20);
    }

    #[test]
    fn timed_roundtrip() {
        let mut m = HostMemory::default();
        let done = m.write_payload(SimTime::ZERO, 0x2000, Payload::from(b"abc"));
        assert!(done > SimTime::ZERO);
        let (out, _) = m.read_payload(SimTime::ZERO, 0x2000, 3);
        assert_eq!(out, b"abc"[..]);
    }
}
