//! Property tests: [`SegmentMemory`] is byte-equivalent to the
//! page-materialising [`SparseMemory`] under arbitrary write / read /
//! overwrite / span / fill / copy sequences — the segment store is a pure
//! representation change (zero-copy windows + CoW coalescing) and must
//! never alter what a read returns. Also checks that `resident_pages` is
//! monotone while no `clear` happens (coverage only ever grows).

use proptest::prelude::*;
use snacc_mem::segment::COALESCE_SEGS;
use snacc_mem::{SegmentMemory, SparseMemory};
use snacc_sim::bytes::Payload;

/// Keep the models inside a small address space so random ops overlap
/// and straddle each other often.
const SPACE: u64 = 1 << 15;

fn apply(seg: &mut SegmentMemory, sparse: &mut SparseMemory, op: [u64; 4]) {
    let [sel, a, l, s] = op;
    let addr = a % SPACE;
    let len = 1 + l % 5000;
    match sel % 6 {
        0 => {
            // Byte write of deterministic junk.
            let data: Vec<u8> = (0..len).map(|i| (s ^ i) as u8).collect();
            seg.write(addr, &data);
            sparse.write(addr, &data);
        }
        1 => {
            // Zero-copy payload write of a lazy pattern window.
            let p = Payload::pattern(s, len as usize);
            seg.write_payload(addr, p.clone());
            sparse.write(addr, p.as_slice());
        }
        2 => {
            // A slice of a shared backing (windows that may re-join).
            let big = Payload::pattern(s, 8192);
            let from = (a % 4096) as usize;
            let to = from + (len as usize).min(8192 - from);
            seg.write_payload(addr, big.slice(from..to));
            sparse.write(addr, &big.as_slice()[from..to]);
        }
        3 => {
            // Lazy fill vs materialised fill.
            let byte = s as u8;
            seg.fill(addr, len, byte);
            sparse.write(addr, &vec![byte; len as usize]);
        }
        4 => {
            // Zero-copy intra-store copy vs read+write.
            let dst = s % SPACE;
            seg.copy_within(addr, dst, len as usize);
            let bytes = sparse.read_vec(addr, len as usize);
            sparse.write(dst, &bytes);
        }
        _ => {
            // Scalar writes.
            seg.write_u64(addr, s);
            sparse.write_u64(addr, s);
        }
    }
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
        let mut sparse = SparseMemory::new();
        let mut pages_before = 0usize;
        for op in ops {
            apply(&mut seg, &mut sparse, op);
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
            let want = sparse.read_vec(addr, len);
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
        let mut sparse = SparseMemory::new();
        for [a, s] in &writes {
            // Dense tiny writes inside one 1 MiB window.
            let addr = a % (1 << 20);
            let data = [(s & 0xff) as u8; 48];
            seg.write(addr, &data);
            sparse.write(addr, &data);
        }
        prop_assert!(
            seg.segment_count() <= COALESCE_SEGS + 2,
            "window fragmentation unbounded: {} segments", seg.segment_count()
        );
        let want = sparse.read_vec(0, 1 << 20);
        prop_assert_eq!(seg.read_vec(0, 1 << 20), want);
    }
}
