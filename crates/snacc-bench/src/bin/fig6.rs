//! Fig 6 — case-study bandwidth: image classification on a 100 G stream,
//! five configurations. Default 512 frames (≈ 4.8 GB; steady state well
//! before that); SNACC_FULL=1 streams the paper's 16384 frames.

use snacc_apps::gpu::{run_gpu_case_study, GpuModel};
use snacc_apps::pipeline::{run_snacc_case_study_with, CaseStudyConfig};
use snacc_apps::spdk_ref::run_spdk_case_study;
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::FaultSummary;
use snacc_bench::{print_table, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;

fn main() {
    let telemetry = Telemetry::from_args();
    let images: u64 = if std::env::var("SNACC_FULL").is_ok() {
        16384
    } else {
        512
    };
    let plan = telemetry.fault_plan();
    // A lossy-link campaign desyncs the capture stream; let the
    // DbController resync on the image magic instead of panicking.
    let lossy = plan.is_some_and(|p| {
        p.net
            .as_ref()
            .is_some_and(|n| n.drop_rate > 0.0 || n.corrupt_rate > 0.0)
    });
    let cfg = CaseStudyConfig {
        images,
        tolerate_loss: lossy,
        ..Default::default()
    };
    enum Cfg {
        Snacc(StreamerVariant, f64),
        Spdk(f64),
        Gpu(f64),
    }
    let jobs = vec![
        (
            "FPGA (URAM)".to_string(),
            Cfg::Snacc(StreamerVariant::Uram, 5.6),
        ),
        (
            "FPGA (On-board DRAM)".to_string(),
            Cfg::Snacc(StreamerVariant::OnboardDram, 4.8),
        ),
        (
            "FPGA (Host DRAM)".to_string(),
            Cfg::Snacc(StreamerVariant::HostDram, 6.1),
        ),
        ("SPDK".to_string(), Cfg::Spdk(6.1)),
        ("GPU".to_string(), Cfg::Gpu(5.76)),
    ];
    let work: Vec<sweep::Job<'_, BenchRecord>> = jobs
        .into_iter()
        .map(|(label, job)| {
            let cfg = cfg.clone();
            Box::new(move |log: &mut JobOutput| {
                let (report, paper) = match job {
                    Cfg::Snacc(v, paper) => {
                        let syscfg = match plan {
                            Some(p) => SystemConfig::snacc_faulted(v, p),
                            None => SystemConfig::snacc(v),
                        };
                        let mut sys = SnaccSystem::bring_up(syscfg);
                        let base = plan.map(|_| FaultSummary::from_system(&sys));
                        let r = run_snacc_case_study_with(&mut sys, cfg.clone(), plan);
                        if let Some(base) = base {
                            let s = FaultSummary::from_system(&sys).since(&base);
                            log.eprintln(format!(
                                "[fig6] {label} faults: {s}, resyncs {}, bytes_skipped {}",
                                r.resyncs, r.bytes_skipped
                            ));
                        }
                        // Release functional media (Rc cycles keep the
                        // system alive; GiB-scale stores must not
                        // accumulate).
                        sys.nvme.with(|d| d.nand_mut().media_mut().clear());
                        sys.hostmem.borrow_mut().store_mut().clear();
                        (r, paper)
                    }
                    Cfg::Spdk(paper) => (run_spdk_case_study(cfg.clone(), 7), paper),
                    Cfg::Gpu(paper) => (
                        run_gpu_case_study(cfg.clone(), GpuModel::default(), 7),
                        paper,
                    ),
                };
                log.println(format!(
                    "{label}: {:.2} GB/s, {:.0} frames/s, accuracy {}/{}",
                    report.bandwidth_gbps, report.fps, report.correct, report.classified
                ));
                BenchRecord::new("fig6", &label, report.bandwidth_gbps, Some(paper), "GB/s")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    print_table(
        "Fig 6 — case-study bandwidth (GB/s; paper: 676 f/s at 6.1)",
        &records,
    );
    snacc_bench::report::save_json(&records);
    telemetry.finish();
}
