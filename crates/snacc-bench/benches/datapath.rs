//! End-to-end datapath benchmarks: simulated bytes moved through the
//! full model stack per wall-clock second.
//!
//! Three shapes cover the hot paths the zero-copy payload work targets:
//! sequential streamer transfers (64 KiB beats → NVMe), random 4 KiB
//! writes (payload reuse across commands), and the Fig 5/6 case study
//! (Ethernet frames → RX bridge → database controller → streamer), which
//! moves every image byte across four model layers.
//!
//! `datapath/prp_walk_1m` times the device-side PRP walk of one 1 MiB
//! command alone: PRP1 plus a 255-entry list page, the walk every NVMe
//! command of the streamer pays.
//!
//! A fourth group, `segment_store`, times the functional byte store alone
//! on the page shapes those paths produce. It tracks the store's per-page
//! cost between changes; end-to-end claims rest on perfbench, not on it.
//!
//! Run with `cargo bench -p snacc-bench --bench datapath`; set
//! `SNACC_QUICK=1` for the CI smoke sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{self, Dir};
use snacc_core::config::StreamerVariant;
use snacc_mem::SegmentMemory;
use snacc_nvme::prp::walk_prps;
use snacc_sim::bytes::Payload;

fn quick() -> bool {
    snacc_bench::size_switch("SNACC_QUICK")
}

fn datapath_benches(c: &mut Criterion) {
    let q = quick();
    let mut g = c.benchmark_group("datapath");
    g.sample_size(if q { 2 } else { 5 });

    let seq_total: u64 = if q { 32 << 20 } else { 256 << 20 };
    g.bench_function("seq_write", |b| {
        b.iter(|| {
            black_box(workloads::snacc_seq_bandwidth(
                SystemConfig::snacc(StreamerVariant::Uram),
                Dir::Write,
                seq_total,
            ))
        })
    });
    g.bench_function("seq_read", |b| {
        b.iter(|| {
            black_box(workloads::snacc_seq_bandwidth(
                SystemConfig::snacc(StreamerVariant::Uram),
                Dir::Read,
                seq_total,
            ))
        })
    });

    let rand_total: u64 = if q { 8 << 20 } else { 64 << 20 };
    g.bench_function("rand_write_4k", |b| {
        b.iter(|| {
            black_box(workloads::snacc_rand_bandwidth(
                SystemConfig::snacc(StreamerVariant::Uram),
                Dir::Write,
                rand_total,
                7,
            ))
        })
    });

    // The paper's case study: images over Ethernet into the database.
    // ~9.4 MB per image traverses net → AXIS → controller → streamer.
    let images: u64 = if q { 4 } else { 16 };
    g.bench_function("case_study", |b| {
        b.iter(|| {
            let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
            let report = run_snacc_case_study(
                &mut sys,
                CaseStudyConfig {
                    images,
                    ..Default::default()
                },
            );
            black_box(report.bandwidth_gbps)
        })
    });

    // 1024 walks per iteration, so ms per iteration reads as about µs per
    // walk.
    let pages: Vec<u64> = (0..256u64).map(|i| 0x10_0000 + i * 4096).collect();
    let mut list = vec![0u8; 4096];
    for (e, p) in list.chunks_exact_mut(8).zip(&pages[1..]) {
        e.copy_from_slice(&p.to_le_bytes());
    }
    let list = Payload::from_vec(list);
    g.bench_function("prp_walk_1m", |b| {
        b.iter(|| {
            for _ in 0..1024 {
                let segs = walk_prps(pages[0], 0xA000_0000, 1 << 20, |_| Ok(list.clone()));
                black_box(segs.map(|s| s.len()).unwrap_or(0));
            }
        })
    });

    g.finish();
}

/// 4 KiB pages into one [`SegmentMemory`]: appends that join (one
/// producer buffer sliced into pages, as a streamer transfer lands), a
/// 4 MiB pattern stream made of 64 KiB beats that are each their own
/// allocation (as the streamer hands beats to NAND; they join by origin),
/// ring overwrite of a 4 MiB region with a stream, rewrites of a 4 MiB
/// ring with the windows it already holds (a read landing in a buffer
/// slot that holds the same NAND window, as `uram_r` does), and random
/// pages scattered over 1 GiB (each its own backing, so none join). A
/// last case writes 64-byte slots around a 16 KiB ring, as SQEs land in
/// an SQ, with an 8-slot burst read after every 8 writes, as the
/// controller fetches them.
fn segment_store_benches(c: &mut Criterion) {
    const PAGE: usize = 4096;
    let pages: usize = if quick() { 4096 } else { 65_536 };
    let stream = Payload::pattern(1, pages * PAGE);
    let page = |i: usize| stream.slice(i * PAGE..(i + 1) * PAGE);
    let mut g = c.benchmark_group("segment_store");
    g.sample_size(10);

    g.bench_function("page_append", |b| {
        b.iter(|| {
            let mut m = SegmentMemory::new();
            for i in 0..pages {
                m.write_payload((i * PAGE) as u64, page(i));
            }
            black_box(m.segment_count())
        })
    });

    const BEAT: usize = 64 << 10;
    g.bench_function("pattern_stream_4m", |b| {
        b.iter(|| {
            let mut m = SegmentMemory::new();
            let mut beat = Payload::empty();
            for addr in (0..4 << 20).step_by(PAGE) {
                let off = addr % BEAT;
                if off == 0 {
                    beat = Payload::pattern(addr as u64, BEAT);
                }
                m.write_payload(addr as u64, beat.slice(off..off + PAGE));
            }
            black_box(m.segment_count())
        })
    });

    const RING_PAGES: usize = (4 << 20) / PAGE;
    let mut ring = SegmentMemory::new();
    g.bench_function("ring_overwrite_4m", |b| {
        b.iter(|| {
            for i in 0..pages {
                ring.write_payload(((i % RING_PAGES) * PAGE) as u64, page(i));
            }
            black_box(ring.segment_count())
        })
    });

    // Prewarmed like NAND (1 MiB fill chunks of one backing), then each
    // page written back with the window the ring holds there.
    let mut held_ring = SegmentMemory::new();
    held_ring.fill(0, (RING_PAGES * PAGE) as u64, 0xa5);
    let held: Vec<Payload> = (0..RING_PAGES)
        .map(|i| held_ring.read_payload((i * PAGE) as u64, PAGE))
        .collect();
    g.bench_function("identical_rewrite_4m", |b| {
        b.iter(|| {
            for i in 0..pages {
                let slot = i % RING_PAGES;
                held_ring.write_payload((slot * PAGE) as u64, held[slot].clone());
            }
            black_box(held_ring.segment_count())
        })
    });

    const SPACE_PAGES: u64 = (1 << 30) / PAGE as u64;
    let mut scattered = SegmentMemory::new();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    g.bench_function("random_4k_1g", |b| {
        b.iter(|| {
            for _ in 0..pages {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let pg = x % SPACE_PAGES;
                scattered.write_payload(pg * PAGE as u64, Payload::pattern(x, PAGE));
            }
            black_box(scattered.segment_count())
        })
    });

    const SLOT: usize = 64;
    const RING_SLOTS: usize = (16 << 10) / SLOT;
    let mut sq = SegmentMemory::new();
    let sqe = [0x5a; SLOT];
    g.bench_function("ring_slots", |b| {
        b.iter(|| {
            for i in 0..8 * pages {
                let slot = i % RING_SLOTS;
                sq.write((slot * SLOT) as u64, &sqe);
                if slot % 8 == 7 {
                    let burst = sq.read_payload(((slot - 7) * SLOT) as u64, 8 * SLOT);
                    black_box(burst.byte_at(0));
                }
            }
            black_box(sq.segment_count())
        })
    });

    g.finish();
}

criterion_group!(benches, datapath_benches, segment_store_benches);
criterion_main!(benches);
