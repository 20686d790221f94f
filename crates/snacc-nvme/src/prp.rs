//! Physical Region Page handling (paper Sec 2.2 / 4.4).
//!
//! Two halves:
//!
//! * [`walk_prps`] — the device-side walker: resolve a command's
//!   `(PRP1, PRP2, length)` into the page addresses of its data buffer,
//!   fetching PRP-list pages (and chained lists) through a caller-supplied
//!   reader. The NVMe controller model uses this with a closure that
//!   performs real fabric reads — which is exactly how SNAcc's on-the-fly
//!   PRP computation gets exercised: the "list page" the device reads is
//!   synthesised by the streamer instead of stored in memory.
//! * [`PrpListBuilder`] — the host-side builder used by the SPDK-style
//!   driver: lay out stored PRP lists in memory pages, chaining when a
//!   command needs more than 512 entries.

use crate::spec::NVME_PAGE;
use snacc_sim::Payload;

/// Entries per PRP-list page (4096 / 8).
pub const ENTRIES_PER_LIST: usize = 512;

/// Most segments [`walk_prps`] reserves room for before walking: a
/// 256 MiB transfer, the largest a 16-bit block count of 4 KiB blocks
/// describes.
const MAX_RESERVED_PAGES: u64 = 1 << 16;

/// One contiguous piece of a command's data buffer (≤ one page).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrpSeg {
    /// Fabric address of the segment.
    pub addr: u64,
    /// Length in bytes.
    pub len: u64,
}

/// PRP resolution errors. Format errors (`Misaligned`, `NullEntry`,
/// `EmptyTransfer`, `ChainTooLong`) are host bugs and complete as
/// `Invalid Field`; `FetchFailed` means the *transport* read of a list
/// page failed and completes as `Data Transfer Error` so a retry policy
/// can tell transient from fatal.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrpError {
    /// A non-first PRP entry was not page-aligned.
    Misaligned(u64),
    /// A required entry was zero.
    NullEntry,
    /// Zero-length command.
    EmptyTransfer,
    /// The chained PRP list exceeded the hop budget implied by the
    /// transfer length — a cyclic or runaway chain. Without this bound a
    /// self-referencing chain entry would walk forever.
    ChainTooLong,
    /// The memory read fetching a PRP-list page failed (fabric error), or
    /// returned other than one page of bytes. The walk aborts immediately
    /// rather than parsing a garbage page.
    FetchFailed(u64),
}

/// Resolve the data-buffer layout of a command.
///
/// `read_list_page(addr)` must return the 4096 bytes of the PRP list page
/// at `addr` (the device model backs this with a fabric read, and hands
/// the fetched payload over as it is), or `Err(PrpError::FetchFailed(addr))`
/// if the read itself failed — the walk then stops at once instead of
/// interpreting stale bytes. A page of any other length is a failed fetch
/// too. Each list page is decoded from one borrowed slice, eight bytes per
/// entry, and the result is sized for the transfer up front.
pub fn walk_prps(
    prp1: u64,
    prp2: u64,
    byte_len: u64,
    mut read_list_page: impl FnMut(u64) -> Result<Payload, PrpError>,
) -> Result<Vec<PrpSeg>, PrpError> {
    if byte_len == 0 {
        return Err(PrpError::EmptyTransfer);
    }
    if prp1 == 0 {
        return Err(PrpError::NullEntry);
    }
    let first_off = prp1 % NVME_PAGE;
    let first_len = (NVME_PAGE - first_off).min(byte_len);
    let mut remaining = byte_len - first_len;
    // One segment per page; a malformed length only reserves a bounded
    // amount before the walk refuses it.
    let pages = 1 + snacc_sim::ceil_div(remaining, NVME_PAGE).min(MAX_RESERVED_PAGES);
    let mut segs = Vec::with_capacity(pages as usize);
    segs.push(PrpSeg {
        addr: prp1,
        len: first_len,
    });
    if remaining == 0 {
        return Ok(segs);
    }

    // Exactly one more page → PRP2 is the second data page.
    if remaining <= NVME_PAGE {
        if prp2 == 0 {
            return Err(PrpError::NullEntry);
        }
        if !prp2.is_multiple_of(NVME_PAGE) {
            return Err(PrpError::Misaligned(prp2));
        }
        segs.push(PrpSeg {
            addr: prp2,
            len: remaining,
        });
        return Ok(segs);
    }

    // PRP2 points at a (possibly chained) list.
    if prp2 == 0 {
        return Err(PrpError::NullEntry);
    }
    // List pointers may carry an offset into the list page per spec; we
    // require entry alignment (8 B).
    if !prp2.is_multiple_of(8) {
        return Err(PrpError::Misaligned(prp2));
    }
    let mut list_addr = prp2;
    // Hop budget: a well-formed chain advances ≥ ENTRIES_PER_LIST - 1
    // data entries per full list page; anything beyond this is a cycle.
    let max_hops = snacc_sim::ceil_div(
        snacc_sim::ceil_div(byte_len, NVME_PAGE),
        (ENTRIES_PER_LIST - 1) as u64,
    ) + 2;
    let mut hops = 0u64;
    'outer: loop {
        hops += 1;
        if hops > max_hops {
            return Err(PrpError::ChainTooLong);
        }
        let page_base = list_addr / NVME_PAGE * NVME_PAGE;
        let start_idx = ((list_addr % NVME_PAGE) / 8) as usize;
        let page = read_list_page(page_base)?;
        if page.len() != NVME_PAGE as usize {
            return Err(PrpError::FetchFailed(page_base));
        }
        // A whole page splits into exactly ENTRIES_PER_LIST entries.
        let (entries, _) = page.as_slice().as_chunks::<8>();
        for (idx, raw) in entries.iter().enumerate().skip(start_idx) {
            let entry = u64::from_le_bytes(*raw);
            // If more than one page remains at the list's last entry, that
            // entry chains to the next list page.
            if idx == ENTRIES_PER_LIST - 1 && remaining > NVME_PAGE {
                if entry == 0 {
                    return Err(PrpError::NullEntry);
                }
                if !entry.is_multiple_of(8) {
                    return Err(PrpError::Misaligned(entry));
                }
                list_addr = entry;
                continue 'outer;
            }
            if entry == 0 {
                return Err(PrpError::NullEntry);
            }
            if !entry.is_multiple_of(NVME_PAGE) {
                return Err(PrpError::Misaligned(entry));
            }
            let take = remaining.min(NVME_PAGE);
            segs.push(PrpSeg {
                addr: entry,
                len: take,
            });
            remaining -= take;
            if remaining == 0 {
                break 'outer;
            }
        }
    }
    Ok(segs)
}

/// Host-side PRP construction: produces `(prp1, prp2)` for a command over
/// the given data pages, writing any required list pages through the
/// supplied sink.
pub struct PrpListBuilder {
    /// Allocator for list pages (returns a page-aligned address).
    list_pages: Vec<u64>,
    next: usize,
}

impl PrpListBuilder {
    /// Builder drawing list pages from a pre-allocated pool.
    pub fn new(list_pages: Vec<u64>) -> Self {
        assert!(list_pages.iter().all(|a| a % NVME_PAGE == 0));
        PrpListBuilder {
            list_pages,
            next: 0,
        }
    }

    /// Reset the pool cursor (list pages may be reused across commands
    /// once the previous command completed).
    pub fn reset(&mut self) {
        self.next = 0;
    }

    fn alloc(&mut self) -> u64 {
        let a = self.list_pages[self.next];
        self.next += 1;
        a
    }

    /// Build PRPs for a buffer made of the given data page addresses
    /// (first may be the only partial one). `write_mem(addr, bytes)` stores
    /// list pages. Returns `(prp1, prp2)`.
    pub fn build(
        &mut self,
        data_pages: &[u64],
        mut write_mem: impl FnMut(u64, &[u8]),
    ) -> (u64, u64) {
        assert!(!data_pages.is_empty());
        let prp1 = data_pages[0];
        if data_pages.len() == 1 {
            return (prp1, 0);
        }
        if data_pages.len() == 2 {
            return (prp1, data_pages[1]);
        }
        // List needed for pages[1..].
        let mut remaining = &data_pages[1..];
        let first_list = self.alloc();
        let mut list_addr = first_list;
        loop {
            let mut page = [0u8; NVME_PAGE as usize];
            let chains = remaining.len() > ENTRIES_PER_LIST;
            let take = if chains {
                ENTRIES_PER_LIST - 1
            } else {
                remaining.len()
            };
            for (i, &p) in remaining[..take].iter().enumerate() {
                page[i * 8..i * 8 + 8].copy_from_slice(&p.to_le_bytes());
            }
            if chains {
                let next_list = self.alloc();
                let o = (ENTRIES_PER_LIST - 1) * 8;
                page[o..o + 8].copy_from_slice(&next_list.to_le_bytes());
                write_mem(list_addr, &page);
                list_addr = next_list;
                remaining = &remaining[take..];
            } else {
                write_mem(list_addr, &page);
                break;
            }
        }
        (prp1, first_list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snacc_mem::SegmentMemory;

    fn mem_reader(mem: &mut SegmentMemory) -> impl FnMut(u64) -> Result<Payload, PrpError> + '_ {
        |addr| Ok(mem.read_payload(addr, 4096))
    }

    #[test]
    fn single_page() {
        let segs = walk_prps(0x1000, 0, 4096, |_| unreachable!()).unwrap();
        assert_eq!(
            segs,
            vec![PrpSeg {
                addr: 0x1000,
                len: 4096
            }]
        );
    }

    #[test]
    fn offset_first_page() {
        // PRP1 with an offset: first segment is the page remainder.
        let segs = walk_prps(0x1100, 0x2000, 4096, |_| unreachable!()).unwrap();
        assert_eq!(
            segs[0],
            PrpSeg {
                addr: 0x1100,
                len: 0xf00
            }
        );
        assert_eq!(
            segs[1],
            PrpSeg {
                addr: 0x2000,
                len: 4096 - 0xf00
            }
        );
    }

    #[test]
    fn two_pages_uses_prp2_directly() {
        let segs = walk_prps(0x1000, 0x8000, 8192, |_| unreachable!()).unwrap();
        assert_eq!(segs.len(), 2);
        assert_eq!(
            segs[1],
            PrpSeg {
                addr: 0x8000,
                len: 4096
            }
        );
    }

    #[test]
    fn list_for_one_megabyte() {
        // 1 MiB = 256 pages: PRP1 + list with 255 entries.
        let mut mem = SegmentMemory::new();
        let pages: Vec<u64> = (0..256u64).map(|i| 0x10_0000 + i * 4096).collect();
        let mut b = PrpListBuilder::new(vec![0xA000_0000]);
        let (prp1, prp2) = b.build(&pages, |a, d| mem.write(a, d));
        assert_eq!(prp1, pages[0]);
        assert_eq!(prp2, 0xA000_0000);
        let segs = walk_prps(prp1, prp2, 1 << 20, mem_reader(&mut mem)).unwrap();
        assert_eq!(segs.len(), 256);
        for (i, s) in segs.iter().enumerate() {
            assert_eq!(s.addr, pages[i]);
            assert_eq!(s.len, 4096);
        }
    }

    #[test]
    fn chained_lists_beyond_512_entries() {
        // 3 MiB = 768 pages → PRP1 + 767 list entries → chained lists.
        let mut mem = SegmentMemory::new();
        let pages: Vec<u64> = (0..768u64).map(|i| 0x4000_0000 + i * 4096).collect();
        let mut b = PrpListBuilder::new(vec![0xB000_0000, 0xB000_1000]);
        let (prp1, prp2) = b.build(&pages, |a, d| mem.write(a, d));
        let segs = walk_prps(prp1, prp2, 3 << 20, mem_reader(&mut mem)).unwrap();
        assert_eq!(segs.len(), 768);
        assert_eq!(segs.last().unwrap().addr, *pages.last().unwrap());
    }

    #[test]
    fn misaligned_entry_rejected() {
        let r = walk_prps(0x1000, 0x8001, 8192, |_| unreachable!());
        assert_eq!(r, Err(PrpError::Misaligned(0x8001)));
    }

    #[test]
    fn null_entries_rejected() {
        assert_eq!(
            walk_prps(0, 0, 4096, |_| unreachable!()),
            Err(PrpError::NullEntry)
        );
        assert_eq!(
            walk_prps(0x1000, 0, 8192, |_| unreachable!()),
            Err(PrpError::NullEntry)
        );
        assert_eq!(
            walk_prps(0x1000, 0, 0, |_| unreachable!()),
            Err(PrpError::EmptyTransfer)
        );
    }

    #[test]
    fn cyclic_chain_rejected() {
        // A chain entry pointing back at itself (start offset 511*8 means
        // the only entry in scope is the chain pointer) must terminate
        // with ChainTooLong, not walk forever.
        let mut mem = SegmentMemory::new();
        let self_ref: u64 = 0xD000 + 511 * 8;
        mem.write(self_ref, &self_ref.to_le_bytes());
        let r = walk_prps(0x1000, self_ref, 4 * 4096, mem_reader(&mut mem));
        assert_eq!(r, Err(PrpError::ChainTooLong));
    }

    #[test]
    fn fetch_failure_aborts_walk() {
        // A failed list-page read surfaces as FetchFailed and stops the
        // walk at the first bad fetch — no further reads are attempted.
        let mut calls = 0u32;
        let r = walk_prps(0x1000, 0xd000, 4 * 4096, |a| {
            calls += 1;
            Err(PrpError::FetchFailed(a))
        });
        assert_eq!(r, Err(PrpError::FetchFailed(0xd000)));
        assert_eq!(calls, 1);
    }

    #[test]
    fn short_list_page_is_a_failed_fetch() {
        // A fetch that returns less (or more) than one page is not parsed:
        // the walk fails at that page instead of reading past its end.
        for len in [0usize, 8, 4095, 4097] {
            let r = walk_prps(0x1000, 0xd000, 4 * 4096, |_| {
                Ok(Payload::from_vec(vec![0x10; len]))
            });
            assert_eq!(r, Err(PrpError::FetchFailed(0xd000)), "len {len}");
        }
    }

    #[test]
    fn partial_tail_page() {
        // 10000 bytes from an aligned start: 4096 + 4096 + 1808.
        let mut mem = SegmentMemory::new();
        let pages = vec![0x1000, 0x2000, 0x3000];
        let mut b = PrpListBuilder::new(vec![0xC000_0000]);
        let (prp1, prp2) = b.build(&pages, |a, d| mem.write(a, d));
        let segs = walk_prps(prp1, prp2, 10000, mem_reader(&mut mem)).unwrap();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[2].len, 10000 - 8192);
    }

    /// Byte-wise little-endian read, bytes beyond the page as zero: how
    /// the walk decoded list entries before it read whole slices.
    fn le_u64(page: &[u8], off: usize) -> u64 {
        let mut v = 0u64;
        for i in 0..8 {
            v |= (page.get(off + i).copied().unwrap_or(0) as u64) << (8 * i);
        }
        v
    }

    /// The walk as it was before list pages were decoded from one slice,
    /// kept as the oracle of the parser: entries read byte by byte, the
    /// result grown from one segment.
    fn walk_prps_bytewise(
        prp1: u64,
        prp2: u64,
        byte_len: u64,
        mut read_list_page: impl FnMut(u64) -> Result<Payload, PrpError>,
    ) -> Result<Vec<PrpSeg>, PrpError> {
        if byte_len == 0 {
            return Err(PrpError::EmptyTransfer);
        }
        if prp1 == 0 {
            return Err(PrpError::NullEntry);
        }
        let first_len = (NVME_PAGE - prp1 % NVME_PAGE).min(byte_len);
        let mut segs = vec![PrpSeg {
            addr: prp1,
            len: first_len,
        }];
        let mut remaining = byte_len - first_len;
        if remaining == 0 {
            return Ok(segs);
        }
        if remaining <= NVME_PAGE {
            if prp2 == 0 {
                return Err(PrpError::NullEntry);
            }
            if !prp2.is_multiple_of(NVME_PAGE) {
                return Err(PrpError::Misaligned(prp2));
            }
            segs.push(PrpSeg {
                addr: prp2,
                len: remaining,
            });
            return Ok(segs);
        }
        if prp2 == 0 {
            return Err(PrpError::NullEntry);
        }
        if !prp2.is_multiple_of(8) {
            return Err(PrpError::Misaligned(prp2));
        }
        let mut list_addr = prp2;
        let max_hops = snacc_sim::ceil_div(
            snacc_sim::ceil_div(byte_len, NVME_PAGE),
            (ENTRIES_PER_LIST - 1) as u64,
        ) + 2;
        let mut hops = 0u64;
        'outer: loop {
            hops += 1;
            if hops > max_hops {
                return Err(PrpError::ChainTooLong);
            }
            let page_base = list_addr / NVME_PAGE * NVME_PAGE;
            let start_idx = ((list_addr % NVME_PAGE) / 8) as usize;
            let page = read_list_page(page_base)?;
            if page.len() != NVME_PAGE as usize {
                return Err(PrpError::FetchFailed(page_base));
            }
            for idx in start_idx..ENTRIES_PER_LIST {
                let entry = le_u64(&page, idx * 8);
                let pages_left = snacc_sim::ceil_div(remaining, NVME_PAGE);
                if idx == ENTRIES_PER_LIST - 1 && pages_left > 1 {
                    if entry == 0 {
                        return Err(PrpError::NullEntry);
                    }
                    if !entry.is_multiple_of(8) {
                        return Err(PrpError::Misaligned(entry));
                    }
                    list_addr = entry;
                    continue 'outer;
                }
                if entry == 0 {
                    return Err(PrpError::NullEntry);
                }
                if !entry.is_multiple_of(NVME_PAGE) {
                    return Err(PrpError::Misaligned(entry));
                }
                let take = remaining.min(NVME_PAGE);
                segs.push(PrpSeg {
                    addr: entry,
                    len: take,
                });
                remaining -= take;
                if remaining == 0 {
                    break 'outer;
                }
            }
        }
        Ok(segs)
    }

    /// Four list pages a random PRP chain may point into.
    const LIST_POOL: u64 = 0xF000_0000;

    /// An xorshift step, for deriving list pages from a seed.
    fn mix(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    /// The list page at `base` in the random world `seed`: a pure function
    /// of both, so both walkers read the same bytes. Most pages are whole
    /// and clean (page-aligned data entries, a last entry chaining into
    /// the pool); some carry one null or misaligned entry, come back short
    /// or fail to fetch.
    fn random_list_page(seed: u64, base: u64) -> Result<Payload, PrpError> {
        let mut x = (seed ^ base.wrapping_mul(0x9e37_79b9_7f4a_7c15)) | 1;
        let kind = mix(&mut x) % 16;
        if kind == 0 {
            return Err(PrpError::FetchFailed(base));
        }
        if kind == 1 {
            let len = (mix(&mut x) % (2 * NVME_PAGE)) as usize;
            return Ok(Payload::from_vec(vec![0x10; len]));
        }
        let mut page = vec![0u8; NVME_PAGE as usize];
        for (i, e) in page.chunks_exact_mut(8).enumerate() {
            let v = if i == ENTRIES_PER_LIST - 1 && !mix(&mut x).is_multiple_of(4) {
                let offset = if mix(&mut x).is_multiple_of(4) {
                    mix(&mut x) % 512 * 8
                } else {
                    0
                };
                LIST_POOL + mix(&mut x) % 4 * NVME_PAGE + offset
            } else {
                (1 + mix(&mut x) % (1 << 20)) * NVME_PAGE
            };
            e.copy_from_slice(&v.to_le_bytes());
        }
        if kind < 8 {
            let at = (mix(&mut x) % ENTRIES_PER_LIST as u64) as usize * 8;
            let bad = match mix(&mut x) % 3 {
                0 => 0,
                1 => (1 + mix(&mut x) % (1 << 20)) * NVME_PAGE + 8,
                _ => LIST_POOL + 1,
            };
            page[at..at + 8].copy_from_slice(&bad.to_le_bytes());
        }
        Ok(Payload::from_vec(page))
    }

    proptest! {
        /// The slice parser returns what the byte-wise walk returns, the
        /// same segments or the same error, on random single pages, PRP2
        /// pages, lists and chained lists, and on short, failed, null and
        /// misaligned list pages and entries.
        #[test]
        fn slice_parser_matches_bytewise_walk(worlds in proptest::collection::vec(any::<[u64; 4]>(), 32)) {
            for [seed, p1, p2, len] in worlds {
                let prp1 = match p1 % 8 {
                    0 => 0,
                    1 => (1 + p1 % 4096) * NVME_PAGE + p1 % NVME_PAGE,
                    _ => (1 + p1 % 4096) * NVME_PAGE,
                };
                let prp2 = match p2 % 8 {
                    0 => 0,
                    1 => p2 % (1 << 32),
                    2 => (1 + p2 % 4096) * NVME_PAGE,
                    3 => LIST_POOL + p2 % 4 * NVME_PAGE + 1,
                    _ => LIST_POOL + p2 % 4 * NVME_PAGE + p2 % 8 * 64,
                };
                // Whole data pages the first list page holds from PRP2 on.
                let in_list = ENTRIES_PER_LIST as u64 - prp2 % NVME_PAGE / 8;
                let first_len = NVME_PAGE - prp1 % NVME_PAGE;
                let byte_len = match len % 5 {
                    0 => len % (2 * NVME_PAGE + 1),
                    1 => len % (1 << 20) + 1,
                    // One page short of, exactly at or one past the point
                    // where the list's last entry must chain.
                    2 => first_len + (in_list - 1 + len / 5 % 3) * NVME_PAGE,
                    _ => len % (4 << 20),
                };
                let got = walk_prps(prp1, prp2, byte_len, |a| random_list_page(seed, a));
                let want = walk_prps_bytewise(prp1, prp2, byte_len, |a| random_list_page(seed, a));
                prop_assert_eq!(got, want);
            }
        }
    }

    proptest! {
        /// The builder and the walker are inverses: for arbitrary page
        /// counts and lengths, walking the built PRPs recovers the exact
        /// page sequence and covers exactly `len` bytes.
        #[test]
        fn builder_walker_roundtrip(
            n_pages in 1usize..1400,
            tail in 1u64..=4096,
        ) {
            let mut mem = SegmentMemory::new();
            let pages: Vec<u64> =
                (0..n_pages as u64).map(|i| 0x1_0000_0000 + i * 4096).collect();
            let len = (n_pages as u64 - 1) * 4096 + tail;
            let lists: Vec<u64> = (0..4).map(|i| 0xF000_0000 + i * 4096).collect();
            let mut b = PrpListBuilder::new(lists);
            let (prp1, prp2) = b.build(&pages, |a, d| mem.write(a, d));
            let segs = walk_prps(prp1, prp2, len, mem_reader(&mut mem)).unwrap();
            prop_assert_eq!(segs.len(), n_pages);
            let covered: u64 = segs.iter().map(|s| s.len).sum();
            prop_assert_eq!(covered, len);
            for (s, p) in segs.iter().zip(&pages) {
                prop_assert_eq!(s.addr, *p);
            }
        }
    }
}
