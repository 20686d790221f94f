//! Fig 7 — PCIe data transfers in the case study: bytes on the bus per
//! stored byte, per configuration. URAM / on-board DRAM move the least
//! (one P2P pass); host-DRAM and SPDK stage through host memory (2×);
//! the GPU path adds H2D/D2H on top (most).

use snacc_apps::gpu::{run_gpu_case_study, GpuModel};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::spdk_ref::run_spdk_case_study;
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{record_backing_bytes, share_class_images};
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;

fn main() {
    let telemetry = Telemetry::from_args();
    let images: u64 = if std::env::var("SNACC_FULL").is_ok() {
        16384
    } else {
        384
    };
    let cfg = CaseStudyConfig {
        images,
        ..Default::default()
    };
    enum Cfg {
        Snacc(StreamerVariant),
        Spdk,
        Gpu,
    }
    // Paper reports relative transfer volume; ~1× for the on-card
    // variants, ~2× for host staging, most for the GPU.
    let jobs = vec![
        (
            "FPGA (URAM)".to_string(),
            Cfg::Snacc(StreamerVariant::Uram),
            1.0,
        ),
        (
            "FPGA (On-board DRAM)".to_string(),
            Cfg::Snacc(StreamerVariant::OnboardDram),
            1.0,
        ),
        (
            "FPGA (Host DRAM)".to_string(),
            Cfg::Snacc(StreamerVariant::HostDram),
            2.0,
        ),
        ("SPDK".to_string(), Cfg::Spdk, 2.0),
        ("GPU".to_string(), Cfg::Gpu, 2.1),
    ];
    let work: Vec<sweep::Job<'_, BenchRecord>> = jobs
        .into_iter()
        .map(|(label, job, paper_ratio)| {
            let cfg = cfg.clone();
            Box::new(move |log: &mut JobOutput| {
                share_class_images();
                let report = match job {
                    Cfg::Snacc(v) => {
                        let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(v));
                        run_snacc_case_study(&mut sys, cfg)
                    }
                    Cfg::Spdk => run_spdk_case_study(cfg, 7),
                    Cfg::Gpu => run_gpu_case_study(cfg, GpuModel::default(), 7),
                };
                record_backing_bytes(&label, &report);
                let ratio = report.pcie_bytes as f64 / report.image_bytes as f64;
                log.println(format!(
                    "{label}: {:.2} PCIe bytes per stored byte ({:.1} GB on the bus)",
                    ratio,
                    report.pcie_bytes as f64 / 1e9
                ));
                BenchRecord::new("fig7", &label, ratio, Some(paper_ratio), "x stored")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    print_table("Fig 7 — PCIe transfer volume per stored byte", &records);
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
