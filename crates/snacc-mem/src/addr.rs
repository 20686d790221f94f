//! Address ranges and decode maps.
//!
//! The PCIe root complex, the FPGA platform shell, and the NVMe streamer's
//! BAR windows all decode incoming addresses against a set of
//! non-overlapping ranges; [`AddressMap`] provides that with O(log n)
//! lookup, and O(1) when the range of the previous hit is hit again.

use std::cell::Cell;
use std::fmt;

/// A half-open byte-address range `[base, base + size)`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AddrRange {
    /// First address in the range.
    pub base: u64,
    /// Size in bytes (must be non-zero).
    pub size: u64,
}

impl AddrRange {
    /// Construct; panics on zero size or overflow.
    pub fn new(base: u64, size: u64) -> Self {
        assert!(size > 0, "empty AddrRange");
        assert!(base.checked_add(size).is_some(), "AddrRange overflow");
        AddrRange { base, size }
    }

    /// One past the last address.
    #[inline]
    pub fn end(&self) -> u64 {
        self.base + self.size
    }

    /// Does the range contain `addr`?
    #[inline]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.end()
    }

    /// Does the range fully contain `[addr, addr + len)`?
    #[inline]
    pub fn contains_span(&self, addr: u64, len: u64) -> bool {
        len > 0
            && self.contains(addr)
            && addr
                .checked_add(len)
                .map(|e| e <= self.end())
                .unwrap_or(false)
    }

    /// Offset of `addr` from the range base (caller must ensure containment).
    #[inline]
    pub fn offset_of(&self, addr: u64) -> u64 {
        debug_assert!(self.contains(addr));
        addr - self.base
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.base < other.end() && other.base < self.end()
    }
}

impl fmt::Debug for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:#x}..{:#x})", self.base, self.end())
    }
}

/// A decode map from address ranges to targets of type `T`.
///
/// Ranges must not overlap; insertion order is irrelevant. Lookup tries the
/// range of the previous hit, then binary-searches the ranges sorted by
/// base. Ranges do not overlap, so at most one contains an address, and
/// whichever way finds it returns the same answer.
pub struct AddressMap<T> {
    entries: Vec<(AddrRange, T)>,
    /// Index of the last range `decode` found. Only a hint: it is checked
    /// before use, and `insert` resets it.
    last_hit: Cell<usize>,
}

impl<T> Default for AddressMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> AddressMap<T> {
    /// Empty map.
    pub fn new() -> Self {
        AddressMap {
            entries: Vec::new(),
            last_hit: Cell::new(0),
        }
    }

    /// Number of mapped ranges.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no ranges are mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert a range → target mapping. Panics if it overlaps an existing
    /// range (decode conflicts are configuration bugs and must be loud).
    pub fn insert(&mut self, range: AddrRange, target: T) {
        for (existing, _) in &self.entries {
            assert!(
                !existing.overlaps(&range),
                "AddressMap overlap: {existing:?} vs {range:?}"
            );
        }
        let pos = self.entries.partition_point(|(r, _)| r.base < range.base);
        self.entries.insert(pos, (range, target));
        self.last_hit.set(0);
    }

    /// Find the range containing `addr`, returning the range and target.
    pub fn decode(&self, addr: u64) -> Option<(&AddrRange, &T)> {
        if let Some((r, t)) = self.entries.get(self.last_hit.get()) {
            if r.contains(addr) {
                return Some((r, t));
            }
        }
        let idx = self.entries.partition_point(|(r, _)| r.base <= addr);
        let (r, t) = self.entries.get(idx.checked_sub(1)?)?;
        if !r.contains(addr) {
            return None;
        }
        self.last_hit.set(idx - 1);
        Some((r, t))
    }

    /// Like [`decode`](Self::decode) but requires the whole `[addr, addr+len)`
    /// span to fall inside one range (no split transactions).
    pub fn decode_span(&self, addr: u64, len: u64) -> Option<(&AddrRange, &T)> {
        let (r, t) = self.decode(addr)?;
        r.contains_span(addr, len).then_some((r, t))
    }

    /// Iterate over `(range, target)` pairs in base order.
    pub fn iter(&self) -> impl Iterator<Item = (&AddrRange, &T)> {
        self.entries.iter().map(|(r, t)| (r, t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn range_basics() {
        let r = AddrRange::new(0x1000, 0x100);
        assert!(r.contains(0x1000));
        assert!(r.contains(0x10ff));
        assert!(!r.contains(0x1100));
        assert_eq!(r.offset_of(0x1080), 0x80);
        assert!(r.contains_span(0x10f0, 0x10));
        assert!(!r.contains_span(0x10f0, 0x11));
        assert!(!r.contains_span(0x1000, 0));
    }

    #[test]
    fn overlap_detection() {
        let a = AddrRange::new(0, 100);
        let b = AddrRange::new(100, 100);
        let c = AddrRange::new(50, 100);
        assert!(!a.overlaps(&b));
        assert!(a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn map_decode() {
        let mut m = AddressMap::new();
        m.insert(AddrRange::new(0x0, 0x1000), "low");
        m.insert(AddrRange::new(0x8000, 0x1000), "high");
        m.insert(AddrRange::new(0x2000, 0x1000), "mid");
        assert_eq!(m.decode(0x0).unwrap().1, &"low");
        assert_eq!(m.decode(0x2fff).unwrap().1, &"mid");
        assert_eq!(m.decode(0x8000).unwrap().1, &"high");
        assert!(m.decode(0x1000).is_none());
        assert!(m.decode(0x9000).is_none());
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn decode_span_rejects_straddle() {
        let mut m = AddressMap::new();
        m.insert(AddrRange::new(0x0, 0x1000), 1u32);
        m.insert(AddrRange::new(0x1000, 0x1000), 2u32);
        // Span crossing the boundary decodes the first range but fails span
        // containment.
        assert!(m.decode_span(0xff0, 0x20).is_none());
        assert!(m.decode_span(0xff0, 0x10).is_some());
    }

    /// The plain binary search `decode` did before it remembered hits.
    fn searched<T>(m: &AddressMap<T>, addr: u64) -> Option<AddrRange> {
        let idx = m.entries.partition_point(|(r, _)| r.base <= addr);
        let (r, _) = m.entries.get(idx.checked_sub(1)?)?;
        r.contains(addr).then_some(*r)
    }

    proptest! {
        /// `decode` and `decode_span` agree with a plain binary search on
        /// random maps and addresses: hits, misses between and beyond the
        /// ranges, spans straddling a boundary, repeated hits on one range,
        /// and lookups after an `insert` moved the ranges' indices.
        #[test]
        fn remembered_hit_matches_binary_search(
            bases in proptest::collection::vec(any::<[u64; 2]>(), 1..24),
            probes in proptest::collection::vec(any::<[u64; 3]>(), 1..300),
        ) {
            let mut m = AddressMap::new();
            let mut pending: Vec<(AddrRange, usize)> = Vec::new();
            for (i, [slot, size]) in bases.into_iter().enumerate() {
                // Ranges on a 64 KiB grid, so neighbours touch or leave gaps.
                let r = AddrRange::new((slot % 64) << 16, 1 + size % (80 << 10));
                let free = m.iter().all(|(e, _)| !e.overlaps(&r))
                    && pending.iter().all(|(e, _)| !e.overlaps(&r));
                if free {
                    // Half the ranges go in up front, half between probes.
                    if i % 2 == 0 { m.insert(r, i) } else { pending.push((r, i)) }
                }
            }
            let mut prev = 0u64;
            for [pick, jitter, len] in probes {
                if pick % 16 == 0 {
                    if let Some((r, i)) = pending.pop() {
                        m.insert(r, i);
                    }
                }
                // Mostly near the previous address (the hint's case).
                let addr = match pick % 4 {
                    0 => jitter % (66 << 16),
                    _ => prev.wrapping_add(jitter % 8192).wrapping_sub(4096) % (66 << 16),
                };
                prev = addr;
                let want = searched(&m, addr);
                prop_assert_eq!(m.decode(addr).map(|(r, _)| *r), want);
                let len = len % (16 << 10);
                let want_span = want.filter(|r| r.contains_span(addr, len));
                prop_assert_eq!(m.decode_span(addr, len).map(|(r, _)| *r), want_span);
                if let Some(r) = want {
                    let t = m.decode(addr).map(|(_, t)| *t);
                    let i = m.iter().find(|(e, _)| **e == r).map(|(_, t)| *t);
                    prop_assert_eq!(t, i);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn map_rejects_overlap() {
        let mut m = AddressMap::new();
        m.insert(AddrRange::new(0x0, 0x1000), ());
        m.insert(AddrRange::new(0x800, 0x1000), ());
    }
}
