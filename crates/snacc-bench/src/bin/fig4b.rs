//! Fig 4b — random 4 KiB bandwidth (1 GB total, SQ depth 64): in-order
//! SNAcc retirement vs SPDK's out-of-order reaping.

use snacc_bench::sweep;
use snacc_bench::workloads::{snacc_rand_bandwidth, spdk_bandwidth, Dir};
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if std::env::var("SNACC_QUICK").is_ok() {
        256 << 20
    } else {
        1 << 30
    };
    let jobs: Vec<(String, Dir, Option<StreamerVariant>, Option<f64>)> = vec![
        (
            "URAM rand-r".into(),
            Dir::Read,
            Some(StreamerVariant::Uram),
            Some(1.6),
        ),
        (
            "On-board DRAM rand-r".into(),
            Dir::Read,
            Some(StreamerVariant::OnboardDram),
            Some(1.6),
        ),
        (
            "Host DRAM rand-r".into(),
            Dir::Read,
            Some(StreamerVariant::HostDram),
            Some(1.6),
        ),
        ("SPDK rand-r".into(), Dir::Read, None, Some(4.5)),
        (
            "URAM rand-w".into(),
            Dir::Write,
            Some(StreamerVariant::Uram),
            Some(4.6),
        ),
        (
            "On-board DRAM rand-w".into(),
            Dir::Write,
            Some(StreamerVariant::OnboardDram),
            Some(4.5),
        ),
        (
            "Host DRAM rand-w".into(),
            Dir::Write,
            Some(StreamerVariant::HostDram),
            Some(4.8),
        ),
        ("SPDK rand-w".into(), Dir::Write, None, Some(5.25)),
    ];
    let work: Vec<sweep::Job<'_, BenchRecord>> = jobs
        .into_iter()
        .map(|(label, dir, variant, paper)| {
            Box::new(move |_: &mut sweep::JobOutput| {
                let gbps = match variant {
                    Some(v) => snacc_rand_bandwidth(v, dir, total, 0xF1B4),
                    None => spdk_bandwidth(dir, true, total, 64, 0xF1B4),
                };
                BenchRecord::new("fig4b", &label, gbps, paper, "GB/s")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    print_table("Fig 4b — random 4 KiB bandwidth, QD 64 (GB/s)", &records);
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
