//! Sec 7 extension — out-of-order retirement: random 4 KiB reads with
//! issue slots recycled at completion instead of in-order retirement.

use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{snacc_rand_bandwidth, Dir};
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_nvme::NvmeProfile;

fn ooo_rand_read(total: u64) -> f64 {
    let cfg = SystemConfig {
        streamer: StreamerConfig::snacc_ooo(StreamerVariant::Uram),
        nvme: NvmeProfile::samsung_990pro(),
        seed: 0x5aacc,
        faults: None,
    };
    let mut sys = SnaccSystem::bring_up(cfg);
    sys.nvme.with(|d| d.nand_mut().prewarm(0, 1 << 30, 0x3C));
    // Reuse the workload driver by inlining its read loop.
    let ports = sys.streamer.ports();
    let mut rng = snacc_sim::SimRng::new(0xF1B4);
    let count = total / 4096;
    let mut issued = 0u64;
    let mut received = 0u64;
    let t0 = sys.en.now();
    while received < total {
        while issued < count {
            let addr = rng.gen_range((1u64 << 30) / 4096) * 4096;
            let cmd = snacc_core::streamer::encode_read_cmd(addr, 4096);
            if snacc_fpga::axis::push(&ports.rd_cmd, &mut sys.en, cmd) {
                issued += 1;
            } else {
                break;
            }
        }
        match snacc_fpga::axis::pop(&ports.rd_data, &mut sys.en) {
            Some(beat) => received += beat.len() as u64,
            None => assert!(sys.en.step(), "stalled"),
        }
    }
    sys.en.run();
    total as f64 / 1e9 / sys.en.now().since(t0).as_secs_f64()
}

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if std::env::var("SNACC_QUICK").is_ok() {
        128 << 20
    } else {
        512 << 20
    };
    let in_order = snacc_rand_bandwidth(StreamerVariant::Uram, Dir::Read, total, 0xF1B4);
    let ooo = ooo_rand_read(total);
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
    print_table(
        "Sec 7 extension — out-of-order retirement, random reads",
        &records,
    );
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
