//! Sec 7 extension — PCIe Gen5 SSD projection: the same streamer design
//! against a Gen5 ×4 drive with doubled media rates.

use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{fill_byte, streamer_read, streamer_write};
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_nvme::NvmeProfile;

fn run(profile: NvmeProfile, write: bool) -> f64 {
    let cfg = SystemConfig {
        streamer: StreamerConfig::snacc(StreamerVariant::HostDram),
        nvme: profile,
        enforce_iommu: true,
        seed: 0x6e5,
        faults: None,
    };
    let mut sys = SnaccSystem::bring_up(cfg);
    let total: u64 = 1 << 30;
    if !write {
        sys.nvme
            .with(|d| d.nand_mut().prewarm(0, total, fill_byte(7)));
    }
    let t0 = sys.en.now();
    if write {
        streamer_write(&mut sys, 0, total);
    } else {
        streamer_read(&mut sys, 0, total);
    }
    sys.en.run();
    total as f64 / 1e9 / sys.en.now().since(t0).as_secs_f64()
}

fn main() {
    let telemetry = Telemetry::from_args();
    let mut records = Vec::new();
    for (label, profile) in [
        ("Gen4 x4 (990 PRO)", NvmeProfile::samsung_990pro()),
        ("Gen5 x4 projection", NvmeProfile::gen5_projection()),
    ] {
        let r = run(profile.clone(), false);
        let w = run(profile, true);
        println!("{label}: seq-r {r:.2} GB/s, seq-w {w:.2} GB/s");
        records.push(BenchRecord::new(
            "ext_gen5",
            &format!("{label} seq-r"),
            r,
            None,
            "GB/s",
        ));
        records.push(BenchRecord::new(
            "ext_gen5",
            &format!("{label} seq-w"),
            w,
            None,
            "GB/s",
        ));
    }
    print_table(
        "Sec 7 extension — PCIe Gen5 projection (host-DRAM variant)",
        &records,
    );
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
