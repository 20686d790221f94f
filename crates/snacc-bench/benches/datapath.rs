//! End-to-end datapath benchmarks: simulated bytes moved through the
//! full model stack per wall-clock second.
//!
//! Three shapes cover the hot paths the zero-copy payload work targets:
//! sequential streamer transfers (64 KiB beats → NVMe), random 4 KiB
//! writes (payload reuse across commands), and the Fig 5/6 case study
//! (Ethernet frames → RX bridge → database controller → streamer), which
//! moves every image byte across four model layers.
//!
//! Run with `cargo bench -p snacc-bench --bench datapath`; set
//! `SNACC_QUICK=1` for the CI smoke sizes.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{self, Dir};
use snacc_core::config::StreamerVariant;

fn quick() -> bool {
    std::env::var_os("SNACC_QUICK").is_some()
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
                StreamerVariant::Uram,
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

    g.finish();
}

criterion_group!(benches, datapath_benches);
criterion_main!(benches);
