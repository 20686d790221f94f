//! Fig 4c — single 4 KiB access latency. SNAcc reads target data its own
//! write phase placed in the drive's pSLC region; the SPDK figure matches
//! a cold TLC read (see snacc-nvme::nand for the mechanism).

use snacc_bench::sweep;
use snacc_bench::workloads::{snacc_latency_us, spdk_latency_us, Dir};
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;

fn main() {
    let telemetry = Telemetry::from_args();
    let trials = 100;
    let jobs: Vec<(String, Dir, Option<StreamerVariant>, Option<f64>)> = vec![
        (
            "URAM read".into(),
            Dir::Read,
            Some(StreamerVariant::Uram),
            Some(34.0),
        ),
        (
            "On-board DRAM read".into(),
            Dir::Read,
            Some(StreamerVariant::OnboardDram),
            Some(41.0),
        ),
        (
            "Host DRAM read".into(),
            Dir::Read,
            Some(StreamerVariant::HostDram),
            Some(43.0),
        ),
        ("SPDK read".into(), Dir::Read, None, Some(57.0)),
        (
            "URAM write".into(),
            Dir::Write,
            Some(StreamerVariant::Uram),
            Some(9.0),
        ),
        (
            "On-board DRAM write".into(),
            Dir::Write,
            Some(StreamerVariant::OnboardDram),
            Some(9.0),
        ),
        (
            "Host DRAM write".into(),
            Dir::Write,
            Some(StreamerVariant::HostDram),
            Some(9.0),
        ),
        ("SPDK write".into(), Dir::Write, None, Some(6.0)),
    ];
    let work: Vec<sweep::Job<'_, BenchRecord>> = jobs
        .into_iter()
        .map(|(label, dir, variant, paper)| {
            Box::new(move |_: &mut sweep::JobOutput| {
                let us = match variant {
                    Some(v) => snacc_latency_us(v, dir, trials, 0xC4),
                    None => spdk_latency_us(dir, trials, 0xC4),
                };
                BenchRecord::new("fig4c", &label, us, paper, "us")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    print_table(
        "Fig 4c — single 4 KiB access latency (µs; write rows: paper reports <9 µs)",
        &records,
    );
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
