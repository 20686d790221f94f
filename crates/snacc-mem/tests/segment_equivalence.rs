//! Property tests: [`SegmentMemory`] is byte-equivalent to a flat
//! zero-initialised byte vector under arbitrary write / read / overwrite /
//! span / fill / identical-rewrite sequences — the segment store is a pure
//! representation change (zero-copy windows, in-place small writes and
//! CoW coalescing) and must never alter what a read returns. Also checks
//! that `resident_pages` is monotone while no `clear` happens (coverage
//! only ever grows), and that no two neighbouring segments could be one.

use proptest::prelude::*;
use snacc_mem::segment::COALESCE_SEGS;
use snacc_mem::SegmentMemory;
use snacc_sim::bytes::Payload;

/// Keep the models inside a small address space so random ops overlap
/// and straddle each other often.
const SPACE: u64 = 1 << 15;

/// The reference model: flat bytes, zero beyond what was ever written.
#[derive(Default)]
struct Flat(Vec<u8>);

impl Flat {
    fn write(&mut self, addr: u64, data: &[u8]) {
        let (from, to) = (addr as usize, addr as usize + data.len());
        if self.0.len() < to {
            self.0.resize(to, 0);
        }
        self.0[from..to].copy_from_slice(data);
    }

    fn read_vec(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr as usize..addr as usize + len)
            .map(|i| self.0.get(i).copied().unwrap_or(0))
            .collect()
    }
}

fn apply(seg: &mut SegmentMemory, flat: &mut Flat, op: [u64; 4]) {
    let [sel, a, l, s] = op;
    let addr = a % SPACE;
    let len = 1 + l % 5000;
    match sel % 7 {
        0 => {
            // Byte write of deterministic junk.
            let data: Vec<u8> = (0..len).map(|i| (s ^ i) as u8).collect();
            seg.write(addr, &data);
            flat.write(addr, &data);
        }
        1 => {
            // Zero-copy payload write of a lazy pattern window.
            let p = Payload::pattern(s, len as usize);
            seg.write_payload(addr, p.clone());
            flat.write(addr, p.as_slice());
        }
        2 => {
            // A slice of a shared backing (windows that may re-join).
            let big = Payload::pattern(s, 8192);
            let from = (a % 4096) as usize;
            let to = from + (len as usize).min(8192 - from);
            seg.write_payload(addr, big.slice(from..to));
            flat.write(addr, &big.as_slice()[from..to]);
        }
        3 => {
            // Lazy fill vs materialised fill.
            let byte = s as u8;
            seg.fill(addr, len, byte);
            flat.write(addr, &vec![byte; len as usize]);
        }
        4 => {
            // Sub-page writes into an owned page, as bytes or (odd `s`)
            // as fresh payloads nothing else holds: the first lands in
            // place; the second comes while a reader holds a window of the
            // page, which must keep the bytes it saw.
            let page = addr & !0xfff;
            let fresh: Vec<u8> = (0..4096u64).map(|i| (s ^ i ^ 0xa5) as u8).collect();
            let off = page + s % 4000;
            let n = 1 + (l % 96) as usize;
            let write = |seg: &mut SegmentMemory, flat: &mut Flat, at: u64, data: Vec<u8>| {
                flat.write(at, &data);
                match s % 2 {
                    0 => seg.write(at, &data),
                    _ => seg.write_payload(at, Payload::from_vec(data)),
                }
            };
            write(seg, flat, page, fresh);
            write(seg, flat, off, vec![s as u8; n]);
            let held = seg.read_payload(off, n);
            let seen = flat.read_vec(off, n);
            write(seg, flat, off, vec![!s as u8; n]);
            assert_eq!(
                held.as_slice(),
                &seen[..],
                "a held window saw a later write"
            );
        }
        5 => {
            // Identical rewrites: a window the store hands out, written
            // back whole, from its start, up to its end and strictly
            // inside, in an order `s` picks. A window inside one segment
            // is that segment's own bytes (the store may skip the write);
            // one crossing segments is a copy. No byte may change.
            let n = len as usize;
            let held = seg.read_payload(addr, n);
            let cut = (s as usize) % (n + 1);
            let cut2 = cut + (s as usize >> 20) % (n + 1 - cut);
            let windows = [(0, n), (0, cut), (cut, n), (cut, cut2)];
            for k in 0..windows.len() {
                let (from, to) = windows[(k + s as usize) % windows.len()];
                seg.write_payload(addr + from as u64, held.slice(from..to));
            }
            if s % 3 == 0 {
                // Again, now that the writes above may have left the write
                // cursor on the segment.
                seg.write_payload(addr + cut as u64, held.slice(cut..cut2));
            }
        }
        _ => {
            // Scalar writes.
            seg.write_u64(addr, s);
            flat.write(addr, &s.to_le_bytes());
        }
    }
}

/// The address of the first of two neighbouring segments that could be
/// one: contiguous in address and windows of one backing. The parts of a
/// read over the whole space are the stored segments, in order, with the
/// gaps between them as zero-fill parts of their own backing.
fn joinable_neighbours(seg: &mut SegmentMemory) -> Option<u64> {
    let parts = seg.read_payload_parts(0, 2 * SPACE as usize);
    let mut at = 0u64;
    for w in parts.windows(2) {
        at += w[0].len() as u64;
        if w[0].try_join(&w[1]).is_some() {
            return Some(at - w[0].len() as u64);
        }
    }
    None
}

proptest! {
    /// Same bytes out under arbitrary op sequences, through every read
    /// path, and `resident_pages` never shrinks.
    #[test]
    fn segment_store_matches_byte_store(
        ops in proptest::collection::vec(any::<[u64; 4]>(), 1..32),
        probes in proptest::collection::vec(any::<[u64; 2]>(), 1..8),
    ) {
        let mut seg = SegmentMemory::new();
        let mut flat = Flat::default();
        let mut pages_before = 0usize;
        for op in ops {
            apply(&mut seg, &mut flat, op);
            prop_assert_eq!(joinable_neighbours(&mut seg), None);
            let pages = seg.resident_pages();
            prop_assert!(
                pages >= pages_before,
                "resident_pages shrank: {} -> {}", pages_before, pages
            );
            pages_before = pages;
        }
        for [a, l] in probes {
            let addr = a % (SPACE + 4096); // probe past the write space too
            let len = (l % 9000) as usize;
            let want = flat.read_vec(addr, len);
            // Byte path.
            prop_assert_eq!(&seg.read_vec(addr, len), &want);
            // Zero-copy single-payload path.
            let p = seg.read_payload(addr, len);
            prop_assert_eq!(p.as_slice(), &want[..]);
            // Zero-copy parts path: parts tile the span exactly.
            let parts = seg.read_payload_parts(addr, len);
            let mut flat = Vec::with_capacity(len);
            for p in &parts {
                flat.extend_from_slice(p.as_slice());
            }
            prop_assert_eq!(&flat, &want);
        }
    }

    /// Interleaved tiny writes trip CoW coalescing without changing any
    /// byte; fragmentation stays bounded per window. Two to four times the
    /// bound in writes, so every case crosses it at least once.
    #[test]
    fn coalescing_preserves_bytes(
        writes in proptest::collection::vec(any::<[u64; 2]>(), 2 * COALESCE_SEGS..4 * COALESCE_SEGS),
    ) {
        let mut seg = SegmentMemory::new();
        let mut flat = Flat::default();
        for [a, s] in &writes {
            // Dense tiny writes inside one 1 MiB window.
            let addr = a % (1 << 20);
            let data = [(s & 0xff) as u8; 48];
            seg.write(addr, &data);
            flat.write(addr, &data);
        }
        prop_assert!(
            seg.segment_count() <= COALESCE_SEGS + 2,
            "window fragmentation unbounded: {} segments", seg.segment_count()
        );
        let want = flat.read_vec(0, 1 << 20);
        prop_assert_eq!(seg.read_vec(0, 1 << 20), want);
    }
}
