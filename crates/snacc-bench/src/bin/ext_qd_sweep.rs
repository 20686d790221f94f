//! Sec 5.2 note — "SPDK can achieve even higher bandwidth when the
//! submission queue size is increased": random-read QD sweep.

use snacc_bench::sweep;
use snacc_bench::workloads::{spdk_bandwidth, Dir};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if size_switch("SNACC_QUICK") {
        128 << 20
    } else {
        512 << 20
    };
    let qds = [8u16, 16, 32, 64, 128, 256];
    let work: Vec<sweep::Job<'_, BenchRecord>> = qds
        .into_iter()
        .map(|qd| {
            Box::new(move |_: &mut sweep::JobOutput| {
                let bw = spdk_bandwidth(Dir::Read, true, total, qd, 31);
                BenchRecord::new("ext_qd_sweep", &format!("QD {qd}"), bw, None, "GB/s")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    publish("SPDK random 4 KiB read vs submission queue depth", &records);
    telemetry.finish();
}
