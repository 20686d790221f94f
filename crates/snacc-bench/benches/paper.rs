//! Criterion benches over the paper's key workloads.
//!
//! These measure the *simulator's* wall-clock performance on each
//! evaluation scenario (the reproduced figures themselves come from the
//! `fig*`/`ext_*` binaries, which report simulated-time bandwidths).
//! Keeping one Criterion group per paper artifact makes `cargo bench`
//! exercise every experiment path end to end.

use criterion::{criterion_group, criterion_main, Criterion};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{
    snacc_latency_us, snacc_rand_bandwidth, snacc_seq_bandwidth, spdk_bandwidth, Dir,
};
use snacc_core::config::StreamerVariant;

fn fig4a_seq_bandwidth(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4a_seq");
    g.sample_size(10);
    g.bench_function("uram_write_64M", |b| {
        b.iter(|| {
            snacc_seq_bandwidth(
                SystemConfig::snacc(StreamerVariant::Uram),
                Dir::Write,
                64 << 20,
            )
        })
    });
    g.bench_function("uram_read_64M", |b| {
        b.iter(|| {
            snacc_seq_bandwidth(
                SystemConfig::snacc(StreamerVariant::Uram),
                Dir::Read,
                64 << 20,
            )
        })
    });
    g.bench_function("spdk_write_64M", |b| {
        b.iter(|| spdk_bandwidth(Dir::Write, false, 64 << 20, 64, 1))
    });
    g.finish();
}

fn fig4b_rand_bandwidth(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4b_rand");
    g.sample_size(10);
    g.bench_function("uram_rand_read_16M", |b| {
        b.iter(|| snacc_rand_bandwidth(StreamerVariant::Uram, Dir::Read, 16 << 20, 7))
    });
    g.bench_function("spdk_rand_read_16M", |b| {
        b.iter(|| spdk_bandwidth(Dir::Read, true, 16 << 20, 64, 7))
    });
    g.finish();
}

fn fig4c_latency(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig4c_latency");
    g.sample_size(10);
    g.bench_function("uram_read_lat_x10", |b| {
        b.iter(|| snacc_latency_us(StreamerVariant::Uram, Dir::Read, 10, 3))
    });
    g.finish();
}

fn fig6_case_study(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_case_study");
    g.sample_size(10);
    g.bench_function("snacc_uram_16_images", |b| {
        b.iter(|| {
            let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
            run_snacc_case_study(
                &mut sys,
                CaseStudyConfig {
                    images: 16,
                    ..Default::default()
                },
            )
        })
    });
    g.finish();
}

fn table1_resources(c: &mut Criterion) {
    use snacc_core::config::StreamerConfig;
    use snacc_core::resources::streamer_resources;
    let mut g = c.benchmark_group("table1_resources");
    g.bench_function("compose_all_variants", |b| {
        b.iter(|| {
            StreamerVariant::all()
                .iter()
                .map(|&v| streamer_resources(&StreamerConfig::snacc(v)).lut)
                .sum::<u64>()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    fig4a_seq_bandwidth,
    fig4b_rand_bandwidth,
    fig4c_latency,
    fig6_case_study,
    table1_resources
);
criterion_main!(benches);
