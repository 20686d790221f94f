//! Fig 7 — PCIe data transfers in the case study: bytes on the bus per
//! stored byte, per configuration. URAM / on-board DRAM move the least
//! (one P2P pass); host-DRAM and SPDK stage through host memory (2×);
//! the GPU path adds H2D/D2H on top (most).

use snacc_apps::pipeline::CaseStudyConfig;
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{run_case_study, CASE_STUDIES};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let images: u64 = if size_switch("SNACC_FULL") {
        16384
    } else {
        384
    };
    let cfg = CaseStudyConfig {
        images,
        ..Default::default()
    };
    // Paper reports relative transfer volume, in `CASE_STUDIES` order:
    // ~1× for the on-card variants, ~2× for host staging, most for the
    // GPU.
    let paper = [1.0, 1.0, 2.0, 2.0, 2.1];
    let work: Vec<sweep::Job<'_, BenchRecord>> = CASE_STUDIES
        .into_iter()
        .zip(paper)
        .map(|((label, backend), paper_ratio)| {
            let cfg = cfg.clone();
            Box::new(move |log: &mut JobOutput| {
                let (report, _) = run_case_study(label, backend, cfg, None);
                let ratio = report.pcie_bytes as f64 / report.image_bytes as f64;
                log.println(format!(
                    "{label}: {:.2} PCIe bytes per stored byte ({:.1} GB on the bus)",
                    ratio,
                    report.pcie_bytes as f64 / 1e9
                ));
                BenchRecord::new("fig7", label, ratio, Some(paper_ratio), "x stored")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    publish("Fig 7 — PCIe transfer volume per stored byte", &records);
    telemetry.finish();
}
