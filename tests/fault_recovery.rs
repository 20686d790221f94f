//! Full-system fault campaigns: the recovery contract and trace
//! determinism.
//!
//! The contract under test (ISSUE 4 acceptance): for *any* seeded
//! [`FaultPlan`], every injected failure is either retried to recovery or
//! reported in `gave_up` — never silently absorbed — and when nothing
//! gave up, the delivered data is byte-exact. Separately, two runs of the
//! same seeded campaign must export byte-identical traces.

use proptest::prelude::*;
use snacc::prelude::*;
use snacc::trace::{
    export_chrome_trace, install, install_registry, uninstall, MetricsRegistry, Tracer,
};

const FILL: u8 = 0x77;

struct CampaignOutcome {
    injected: u64,
    retries: u64,
    recovered: u64,
    gave_up: u64,
    /// Delivered bytes per PE read.
    reads: Vec<Vec<u8>>,
}

/// Bring up a faulted system in a metrics registry of its own and drive
/// `count` sequential PE reads of `len` bytes over pre-warmed media,
/// returning its accounting.
fn run_campaign(plan: &FaultPlan, count: u64, len: u64) -> CampaignOutcome {
    install_registry(MetricsRegistry::new());
    let mut sys = SnaccSystem::bring_up(SystemConfig {
        faults: Some(plan.clone()),
        ..SystemConfig::snacc(StreamerVariant::Uram)
    });
    sys.nvme
        .with(|d| d.nand_mut().prewarm(0, count * len, FILL));
    let ports = sys.streamer.ports();
    let reads = (0..count)
        .map(|i| Payload::concat(&ports.read(&mut sys.en, i * len, len)).to_vec())
        .collect();
    sys.en.run();
    let m = sys.streamer.metrics();
    CampaignOutcome {
        injected: sys.nvme.fault_stats().errors,
        retries: m.retries.get(),
        recovered: m.recovered.get(),
        gave_up: m.gave_up.get(),
        reads,
    }
}

proptest! {
    /// Any seeded NVMe-error campaign with any retry budget: the
    /// accounting conserves faults, and data loss is impossible without
    /// a matching `gave_up` report.
    #[test]
    fn seeded_campaigns_never_lose_data_silently(
        seed in 1u64..1_000_000,
        rate_pct in 0u32..=40,
        max_retries in 0u32..=3,
    ) {
        let mut toml = format!("seed = {seed}\n");
        if max_retries > 0 {
            toml += &format!("[retry]\nmax_retries = {max_retries}\nbackoff_us = 10\n");
        }
        toml += &format!("[nvme]\nerror_rate = 0.{rate_pct:02}\n");
        let plan = FaultPlan::parse(&toml).expect("generated plan");
        let (count, len) = (8u64, 64u64 * 1024);
        let out = run_campaign(&plan, count, len);

        // Conservation: every injected fault is retried or given up.
        prop_assert_eq!(out.injected, out.retries + out.gave_up);
        prop_assert!(out.recovered <= out.retries);

        // Liveness: the stream always delivers the full byte count.
        for data in &out.reads {
            prop_assert_eq!(data.len() as u64, len);
        }
        // No silent loss: a read not carrying its media bytes must be
        // covered by a gave_up report (given-up reads stream zeros).
        let lossy = out
            .reads
            .iter()
            .filter(|d| !d.iter().all(|&b| b == FILL))
            .count() as u64;
        prop_assert!(
            lossy <= out.gave_up,
            "{} lossy reads but only {} gave_up reports", lossy, out.gave_up
        );
        if out.gave_up == 0 {
            prop_assert_eq!(lossy, 0);
        }
    }
}

/// One faulted case-study-sized run under a fresh tracer.
fn faulted_traced_run() -> String {
    install(Tracer::new());
    let plan = FaultPlan::parse(
        "seed = 1234\n\
         [retry]\nmax_retries = 3\nbackoff_us = 10\n\
         [nvme]\nerror_rate = 0.15\nlatency_spike_rate = 0.05\nlatency_spike_us = 200\n\
         [pcie]\ndegrade_start_us = 0\ndegrade_end_us = 10000\ndegrade_extra_us = 2\n",
    )
    .expect("static plan");
    let out = run_campaign(&plan, 6, 64 * 1024);
    assert!(out.injected > 0, "campaign must inject");
    assert!(out.recovered > 0, "campaign must exercise recovery");
    let tracer = uninstall().expect("tracer was installed");
    export_chrome_trace(&tracer)
}

#[test]
fn same_seed_fault_campaigns_export_identical_traces() {
    let a = faulted_traced_run();
    let b = faulted_traced_run();
    assert!(!a.is_empty());
    // The trace must show the fault story: injections, retries,
    // recoveries, and the degradation window span.
    for needle in [
        "fault.cmd_error",
        "retry.scheduled",
        "retry.reissue",
        "retry.recovered",
        "window.pcie_degrade",
    ] {
        assert!(a.contains(needle), "trace missing {needle}");
    }
    assert_eq!(a, b, "same-seed campaigns must trace identically");
}
