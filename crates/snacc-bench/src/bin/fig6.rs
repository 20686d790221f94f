//! Fig 6 — case-study bandwidth: image classification on a 100 G stream,
//! five configurations. Default 512 frames (≈ 4.8 GB; steady state well
//! before that); SNACC_FULL=1 streams the paper's 16384 frames.

use snacc_apps::gpu::{run_gpu_case_study, GpuModel};
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::spdk_ref::run_spdk_case_study;
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{record_backing_bytes, share_class_images, FaultSummary};
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
    let cfg = CaseStudyConfig {
        images,
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
                share_class_images();
                let (report, paper) = match job {
                    Cfg::Snacc(v, paper) => {
                        let mut sys = SnaccSystem::bring_up(SystemConfig {
                            faults: plan.cloned(),
                            ..SystemConfig::snacc(v)
                        });
                        let r = run_snacc_case_study(&mut sys, cfg.clone());
                        if plan.is_some() {
                            log.eprintln(format!(
                                "[fig6] {label} faults: {}, resyncs {}, bytes_skipped {}",
                                FaultSummary::from_system(&sys),
                                r.resyncs,
                                r.bytes_skipped
                            ));
                        }
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
                record_backing_bytes(&label, &report);
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
