//! Sec 7 extension — PCIe Gen5 SSD projection: the same streamer design
//! against a Gen5 ×4 drive with doubled media rates.

use snacc_apps::system::SystemConfig;
use snacc_bench::workloads::{snacc_seq_bandwidth, Dir};
use snacc_bench::{publish, BenchRecord, Telemetry};
use snacc_core::config::{StreamerConfig, StreamerVariant};
use snacc_nvme::NvmeProfile;

/// Bandwidth of one 1 GiB transfer in `dir` against `profile`.
fn run(profile: NvmeProfile, dir: Dir) -> f64 {
    let cfg = SystemConfig {
        streamer: StreamerConfig::snacc(StreamerVariant::HostDram),
        nvme: profile,
        seed: 0x6e5,
        faults: None,
    };
    snacc_seq_bandwidth(cfg, dir, 1 << 30).0[0]
}
fn main() {
    let telemetry = Telemetry::from_args();
    let mut records = Vec::new();
    for (label, profile) in [
        ("Gen4 x4 (990 PRO)", NvmeProfile::samsung_990pro()),
        ("Gen5 x4 projection", NvmeProfile::gen5_projection()),
    ] {
        let r = run(profile.clone(), Dir::Read);
        let w = run(profile, Dir::Write);
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
    publish(
        "Sec 7 extension — PCIe Gen5 projection (host-DRAM variant)",
        &records,
    );
    telemetry.finish();
}
