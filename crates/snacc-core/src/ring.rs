//! Circular data-buffer allocator.
//!
//! The streamer's payload buffers are circular: each command's data
//! occupies a contiguous, 4 KiB-aligned region (paper Sec 4.3: "each new
//! read and write command starts at a 4 kB boundary"), and regions are
//! released in allocation order because retirement is in-order (Sec 4.2).
//! A region that would straddle the wrap point is placed at offset 0 and
//! the skipped tail is accounted to that region so frees stay consistent.
//!
//! Write transfers whose length is unknown until TLAST reserve the
//! 1 MB maximum and [`shrink_last`](RingAllocator::shrink_last) returns
//! the unused tail once the actual length is known — this is what lets
//! 4 KiB random writes keep all 64 queue slots busy inside the 4 MB URAM
//! buffer.

use std::collections::VecDeque;

/// 4 KiB alignment for command regions.
pub const REGION_ALIGN: u64 = 4096;

/// An allocated region (offsets are logical buffer offsets).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    /// Start offset within the buffer.
    pub offset: u64,
    /// Usable (aligned) length.
    pub len: u64,
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    offset: u64,
    len: u64,
    /// Bytes skipped before this region to wrap to offset 0.
    pre_skip: u64,
}

/// FIFO-ordered ring allocator.
pub struct RingAllocator {
    capacity: u64,
    head: u64,
    /// Bytes currently allocated (including wrap skips).
    used: u64,
    live: VecDeque<Entry>,
}

impl RingAllocator {
    /// An allocator over `capacity` bytes (must be 4 KiB aligned).
    pub fn new(capacity: u64) -> Self {
        assert!(capacity >= REGION_ALIGN && capacity.is_multiple_of(REGION_ALIGN));
        RingAllocator {
            capacity,
            head: 0,
            used: 0,
            live: VecDeque::new(),
        }
    }

    /// Total capacity.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently reserved (including wrap waste).
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Allocate a region of at least `len` bytes (rounded up to 4 KiB).
    /// Returns `None` when the ring cannot currently fit it.
    pub fn alloc(&mut self, len: u64) -> Option<Region> {
        assert!(len > 0);
        let len = len.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        if len > self.capacity {
            return None;
        }
        let head_pos = self.head % self.capacity;
        let to_end = self.capacity - head_pos;
        let (pre_skip, offset) = if len <= to_end {
            (0, head_pos)
        } else {
            // Wrap: skip the tail and start at 0.
            (to_end, 0)
        };
        if self.used + pre_skip + len > self.capacity {
            return None;
        }
        self.used += pre_skip + len;
        self.head += pre_skip + len;
        let e = Entry {
            offset,
            len,
            pre_skip,
        };
        self.live.push_back(e);
        Some(Region { offset, len })
    }

    /// Shrink the most recent allocation to `new_len` (rounded up to
    /// 4 KiB), returning the adjusted region. Only legal while it is still
    /// the newest allocation; otherwise the full reservation is kept and
    /// the original region is returned.
    pub fn shrink_last(&mut self, region: Region, new_len: u64) -> Region {
        let new_len = new_len.div_ceil(REGION_ALIGN) * REGION_ALIGN;
        let Some(last) = self.live.back_mut() else {
            return region;
        };
        if last.offset != region.offset || last.len != region.len || new_len >= region.len {
            return region;
        }
        let give_back = region.len - new_len;
        last.len = new_len;
        self.used -= give_back;
        self.head -= give_back;
        Region {
            offset: region.offset,
            len: new_len,
        }
    }

    /// Free the **oldest** allocation; `region` must match it (frees are
    /// in allocation order by design).
    pub fn free_oldest(&mut self, region: Region) {
        let e = self.live.pop_front().expect("free with no live regions");
        assert_eq!(
            (e.offset, e.len),
            (region.offset, region.len),
            "out-of-order or mismatched free"
        );
        self.used -= e.pre_skip + e.len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alloc_aligns_and_frees() {
        let mut r = RingAllocator::new(1 << 20);
        let a = r.alloc(5000).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(a.len, 8192);
        let b = r.alloc(4096).unwrap();
        assert_eq!(b.offset, 8192);
        r.free_oldest(a);
        r.free_oldest(b);
        assert_eq!(r.used(), 0);
    }

    #[test]
    fn full_ring_rejects() {
        let mut r = RingAllocator::new(16 << 10);
        let a = r.alloc(16 << 10).unwrap();
        assert!(r.alloc(4096).is_none());
        r.free_oldest(a);
        assert!(r.alloc(4096).is_some());
    }

    #[test]
    fn wrap_skips_tail() {
        let mut r = RingAllocator::new(16 << 10);
        let a = r.alloc(12 << 10).unwrap(); // [0, 12k)
        r.free_oldest(a);
        let b = r.alloc(4 << 10).unwrap(); // [12k, 16k)
        assert_eq!(b.offset, 12 << 10);
        // 8 KiB doesn't fit in the 0-byte tail: wraps to 0.
        let c = r.alloc(8 << 10).unwrap();
        assert_eq!(c.offset, 0);
        r.free_oldest(b);
        r.free_oldest(c);
        assert_eq!(r.used(), 0);
    }

    #[test]
    fn wrap_waste_blocks_then_releases() {
        let mut r = RingAllocator::new(16 << 10);
        let a = r.alloc(8 << 10).unwrap(); // [0, 8k)
        r.free_oldest(a);
        let b = r.alloc(4 << 10).unwrap(); // [8k, 12k)
                                           // 8 KiB: tail is 4 KiB → wrap, skipping 4 KiB. used = 4k + skip4k + 8k = 16k.
        let c = r.alloc(8 << 10).unwrap();
        assert_eq!(c.offset, 0);
        assert_eq!(r.used(), 16 << 10);
        assert!(r.alloc(4096).is_none());
        r.free_oldest(b); // releases its 4 KiB (no skip)
        assert_eq!(r.used(), 12 << 10); // c + its skip
        r.free_oldest(c);
        assert_eq!(r.used(), 0);
    }

    #[test]
    fn shrink_last_returns_tail() {
        let mut r = RingAllocator::new(4 << 20);
        let a = r.alloc(1 << 20).unwrap();
        let a2 = r.shrink_last(a, 4096);
        assert_eq!(a2.len, 4096);
        assert_eq!(r.used(), 4096);
        // Next alloc starts right after the shrunk region.
        let b = r.alloc(4096).unwrap();
        assert_eq!(b.offset, 4096);
        r.free_oldest(a2);
        r.free_oldest(b);
    }

    #[test]
    fn shrink_not_last_keeps_reservation() {
        let mut r = RingAllocator::new(4 << 20);
        let a = r.alloc(1 << 20).unwrap();
        let _b = r.alloc(4096).unwrap();
        let a2 = r.shrink_last(a, 4096);
        assert_eq!(a2.len, 1 << 20, "shrink after newer alloc is a no-op");
    }

    #[test]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_free_detected() {
        let mut r = RingAllocator::new(1 << 20);
        let _a = r.alloc(4096).unwrap();
        let b = r.alloc(4096).unwrap();
        r.free_oldest(b);
    }

    proptest! {
        /// Invariants under arbitrary alloc/free sequences: no two live
        /// regions overlap, used ≤ capacity, and draining all frees
        /// returns to empty.
        #[test]
        fn ring_invariants(ops in proptest::collection::vec(1u64..2_000_000, 1..200)) {
            let mut r = RingAllocator::new(4 << 20);
            let mut live: VecDeque<Region> = VecDeque::new();
            for len in ops {
                match r.alloc(len) {
                    Some(reg) => {
                        // Overlap check against all live regions.
                        for other in &live {
                            let a0 = reg.offset;
                            let a1 = reg.offset + reg.len;
                            let b0 = other.offset;
                            let b1 = other.offset + other.len;
                            prop_assert!(a1 <= b0 || b1 <= a0,
                                "overlap {reg:?} vs {other:?}");
                        }
                        live.push_back(reg);
                    }
                    None => {
                        // Must be able to make progress by freeing.
                        if let Some(reg) = live.pop_front() {
                            r.free_oldest(reg);
                        }
                    }
                }
                prop_assert!(r.used() <= r.capacity());
            }
            while let Some(reg) = live.pop_front() {
                r.free_oldest(reg);
            }
            prop_assert_eq!(r.used(), 0);
        }
    }
}
