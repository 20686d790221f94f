//! Fig 4b — random 4 KiB bandwidth (1 GB total, SQ depth 64): in-order
//! SNAcc retirement vs SPDK's out-of-order reaping.

use snacc_apps::system::SystemConfig;
use snacc_bench::sweep;
use snacc_bench::workloads::{fig4_rows, snacc_rand_bandwidth, spdk_bandwidth};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if size_switch("SNACC_QUICK") {
        256 << 20
    } else {
        1 << 30
    };
    // Paper GB/s, in `fig4_rows` order.
    let paper = [1.6, 1.6, 1.6, 4.5, 4.6, 4.5, 4.8, 5.25];
    let work: Vec<sweep::Job<'_, BenchRecord>> = fig4_rows(["rand-r", "rand-w"])
        .into_iter()
        .zip(paper)
        .map(|((label, dir, variant), paper)| {
            Box::new(move |_: &mut sweep::JobOutput| {
                let gbps = match variant {
                    Some(v) => snacc_rand_bandwidth(SystemConfig::snacc(v), dir, total, 0xF1B4),
                    None => spdk_bandwidth(dir, true, total, 64, 0xF1B4),
                };
                BenchRecord::new("fig4b", &label, gbps, Some(paper), "GB/s")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    publish("Fig 4b — random 4 KiB bandwidth, QD 64 (GB/s)", &records);
    telemetry.finish();
}
