//! Extension — fault-campaign sweep: sequential reads through the SNAcc
//! streamer under increasing NVMe transient-error rates, reporting
//! bandwidth alongside the full recovery accounting. Checks the
//! subsystem's core invariant on every point: each failure is either
//! retried or given up ([`FaultSummary::accounted`]), so no fault can pass
//! silently.
//!
//! With `--faults <plan.toml>` the sweep is replaced by a single run of
//! the given campaign (any layers: NVMe, PCIe, retry policy all honoured).

use snacc_apps::system::SystemConfig;
use snacc_bench::sweep::{self, JobOutput};
use snacc_bench::workloads::{snacc_seq_bandwidth, Dir, FaultSummary};
use snacc_bench::{publish, size_switch, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;
use snacc_faults::FaultPlan;

fn campaign(
    log: &mut JobOutput,
    label: &str,
    plan: FaultPlan,
    total: u64,
) -> (BenchRecord, FaultSummary) {
    log.eprintln(format!("[ext_faults] running {label}..."));
    let cmd_timeout = plan.retry.cmd_timeout.is_some();
    let cfg = SystemConfig {
        faults: Some(plan),
        ..SystemConfig::snacc(StreamerVariant::Uram)
    };
    let (series, s) = snacc_seq_bandwidth(cfg, Dir::Read, total);
    log.eprintln(format!("[ext_faults] {label}: {s}"));
    assert!(
        s.accounted(cmd_timeout),
        "{label}: every failure must be retried or given up"
    );
    let bw = series.iter().sum::<f64>() / series.len() as f64;
    (BenchRecord::new("ext_faults", label, bw, None, "GB/s"), s)
}

fn main() {
    let telemetry = Telemetry::from_args();
    let total: u64 = if size_switch("SNACC_QUICK") {
        512 << 20
    } else {
        1 << 30
    };

    // Declare the campaign grid, then fan it across the sweep pool.
    let grid: Vec<(String, FaultPlan)> = if let Some(plan) = telemetry.fault_plan() {
        vec![("--faults plan".to_string(), plan.clone())]
    } else {
        // Baseline plus an error-rate sweep under a 3-attempt retry
        // budget. At these rates a command needs 4 consecutive failed
        // attempts to be lost, so recovery should stay total until the
        // highest rates.
        let mut g = vec![(
            "error_rate 0".to_string(),
            FaultPlan::parse("seed = 7").expect("static plan"),
        )];
        for rate in [0.01f64, 0.02, 0.05, 0.10, 0.20] {
            let toml = format!(
                "seed = 7\n[retry]\nmax_retries = 3\nbackoff_us = 10\n\
                 [nvme]\nerror_rate = {rate}\n"
            );
            g.push((
                format!("error_rate {rate}"),
                FaultPlan::parse(&toml).expect("generated plan"),
            ));
        }
        g
    };
    type CampaignResult = (BenchRecord, (String, FaultSummary));
    let work: Vec<sweep::Job<'_, CampaignResult>> = grid
        .into_iter()
        .map(|(label, plan)| {
            Box::new(move |log: &mut JobOutput| {
                let (r, s) = campaign(log, &label, plan, total);
                (r, (label, s))
            }) as sweep::Job<'_, CampaignResult>
        })
        .collect();
    let (records, summaries): (Vec<_>, Vec<_>) =
        sweep::run_jobs(telemetry.jobs(), work).into_iter().unzip();

    publish(
        "Ext — sequential read bandwidth under NVMe fault injection",
        &records,
    );
    println!(
        "{:<16} {:>9} {:>8} {:>10} {:>8}",
        "configuration", "injected", "retries", "recovered", "gave_up"
    );
    for (label, s) in &summaries {
        println!(
            "{:<16} {:>9} {:>8} {:>10} {:>8}",
            label,
            s.injected_failures(),
            s.retries,
            s.recovered,
            s.gave_up
        );
    }
    telemetry.finish();
}
