//! Sec 7 extension — out-of-order retirement: random 4 KiB reads with
//! issue slots recycled at completion instead of in-order retirement.

use snacc_apps::system::SystemConfig;
use snacc_bench::workloads::{snacc_rand_bandwidth, Dir};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if size_switch("SNACC_QUICK") {
        128 << 20
    } else {
        512 << 20
    };
    let in_order = SystemConfig::snacc(StreamerVariant::Uram);
    let ooo = SystemConfig {
        streamer: StreamerConfig::snacc_ooo(StreamerVariant::Uram),
        ..in_order.clone()
    };
    let in_order = snacc_rand_bandwidth(in_order, Dir::Read, total, 0xF1B4);
    let ooo = snacc_rand_bandwidth(ooo, Dir::Read, total, 0xF1B4);
    let records = vec![
        BenchRecord::new(
            "ext_ooo",
            "in-order retirement (paper)",
            in_order,
            Some(1.6),
            "GB/s",
        ),
        BenchRecord::new("ext_ooo", "out-of-order issue (Sec 7)", ooo, None, "GB/s"),
    ];
    println!("OoO speedup on random 4 KiB reads: {:.2}x", ooo / in_order);
    publish(
        "Sec 7 extension — out-of-order retirement, random reads",
        &records,
    );
    telemetry.finish();
}
