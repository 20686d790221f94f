//! Fig 4c — single 4 KiB access latency. SNAcc reads target data its own
//! write phase placed in the drive's pSLC region; the SPDK figure matches
//! a cold TLC read (see snacc-nvme::nand for the mechanism).

use snacc_bench::sweep;
use snacc_bench::workloads::{fig4_rows, snacc_latency_us, spdk_latency_us};
use snacc_bench::{publish, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let trials = 100;
    // Paper µs, in `fig4_rows` order.
    let paper = [34.0, 41.0, 43.0, 57.0, 9.0, 9.0, 9.0, 6.0];
    let work: Vec<sweep::Job<'_, BenchRecord>> = fig4_rows(["read", "write"])
        .into_iter()
        .zip(paper)
        .map(|((label, dir, variant), paper)| {
            Box::new(move |_: &mut sweep::JobOutput| {
                let us = match variant {
                    Some(v) => snacc_latency_us(v, dir, trials, 0xC4),
                    None => spdk_latency_us(dir, trials, 0xC4),
                };
                BenchRecord::new("fig4c", &label, us, Some(paper), "us")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    publish(
        "Fig 4c — single 4 KiB access latency (µs; write rows: paper reports <9 µs)",
        &records,
    );
    telemetry.finish();
}
