//! Fig 6 — case-study bandwidth: image classification on a 100 G stream,
//! five configurations. Default 512 frames (≈ 4.8 GB; steady state well
//! before that); SNACC_FULL=1 streams the paper's 16384 frames.

use snacc_apps::pipeline::CaseStudyConfig;
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{run_case_study, CASE_STUDIES};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};

fn main() {
    let telemetry = Telemetry::from_args();
    let images: u64 = if size_switch("SNACC_FULL") {
        16384
    } else {
        512
    };
    let plan = telemetry.fault_plan();
    let cfg = CaseStudyConfig {
        images,
        ..Default::default()
    };
    // Paper bandwidths in GB/s, in `CASE_STUDIES` order.
    let paper = [5.6, 4.8, 6.1, 6.1, 5.76];
    let work: Vec<sweep::Job<'_, BenchRecord>> = CASE_STUDIES
        .into_iter()
        .zip(paper)
        .map(|((label, backend), paper)| {
            let cfg = cfg.clone();
            Box::new(move |log: &mut JobOutput| {
                let (report, faults) = run_case_study(label, backend, cfg, plan);
                if let Some(faults) = faults {
                    log.eprintln(format!(
                        "[fig6] {label} faults: {faults}, resyncs {}, bytes_skipped {}",
                        report.resyncs, report.bytes_skipped
                    ));
                }
                log.println(format!(
                    "{label}: {:.2} GB/s, {:.0} frames/s, accuracy {}/{}",
                    report.bandwidth_gbps, report.fps, report.correct, report.classified
                ));
                BenchRecord::new("fig6", label, report.bandwidth_gbps, Some(paper), "GB/s")
            }) as sweep::Job<'_, BenchRecord>
        })
        .collect();
    let records = sweep::run_jobs(telemetry.jobs(), work);
    publish(
        "Fig 6 — case-study bandwidth (GB/s; paper: 676 f/s at 6.1)",
        &records,
    );
    telemetry.finish();
}
