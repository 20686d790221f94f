//! Property test over the fault-plan space: plans drawn from every key's
//! accepted range either fail to parse with a `PlanError` or run to the
//! end on a tiny system, never panicking. Each plan that parses drives an
//! ext_faults-shaped run (a sequential streamer read under the plan), and
//! a plan with a `[net]` section also drives a 4-image case study over
//! the faulted capture link, with its storm and its stalls bounded (see
//! [`bounded_for_case_study`]).

use proptest::prelude::*;
use snacc_apps::pipeline::{run_snacc_case_study, CaseStudyConfig};
use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::workloads::{snacc_seq_bandwidth, Dir};
use snacc_core::config::StreamerVariant;
use snacc_faults::{FaultPlan, PlanError};
use snacc_sim::SimDuration;
use std::fmt::Write as _;

/// Bytes read per run: eight 1 MiB streamer commands.
const READ_BYTES: u64 = 8 << 20;

/// PAUSEs a case study sends at most. A storm may ask for up to
/// `u32::MAX`, and each PAUSE is an event.
const STORM_RUN_CAP: u32 = 32;

/// Longest datapath stall a case study runs, in microseconds. The
/// case-study front keeps its timers running while the sink stalls
/// (about 26 events per simulated millisecond, measured with NVMe
/// latency spikes of 1 ms to 1 s), so a stall near the 1.8e13 µs maximum
/// would cost about 5e11 events.
const STALL_RUN_CAP_US: f64 = 1e5;

/// The largest `*_us` value a plan accepts, just under `SimTime::MAX`.
const MAX_US: f64 = 1.8e13;

/// Draws from the proptest stream, one per plan key.
struct Draws(std::vec::IntoIter<u64>);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0.next().expect("enough draws for every key")
    }

    /// Whether to write an optional key (about half the time).
    fn present(&mut self) -> bool {
        self.next().is_multiple_of(2)
    }

    /// A rate in `[0, 1]`, its ends included.
    fn rate(&mut self) -> f64 {
        match self.next() % 8 {
            0 => 0.0,
            1 => 1.0,
            r => (r as f64 - 1.0) / 100.0,
        }
    }

    /// A time in microseconds from `[0, MAX_US)`: zero, sub-nanosecond,
    /// short, long or close to the end of simulated time.
    fn us(&mut self) -> f64 {
        let x = self.next();
        match x % 6 {
            0 => 0.0,
            1 => 0.0004,
            2 => (x >> 8) as f64 % 1000.0 / 4.0,
            3 => (x >> 8) as f64 % 1e7,
            4 => MAX_US * 0.999,
            _ => (x >> 8) as f64 % MAX_US,
        }
    }

    /// An integer in `[0, max]`, its ends drawn often.
    fn int(&mut self, max: u64) -> u64 {
        let x = self.next();
        match x % 4 {
            0 => 0,
            1 => max,
            _ => (x >> 2) % (max.min(u64::MAX - 1) + 1),
        }
    }
}

/// A plan document: `seed`, then each section with each of its keys
/// present or not. Windows come as a start/end pair or not at all.
fn plan_text(d: &mut Draws) -> String {
    let mut t = format!("seed = {}\n", d.next() >> 1);
    let key = |t: &mut String, name: &str, value: String| {
        writeln!(t, "{name} = {value}").expect("write to a string");
    };
    if d.present() {
        t.push_str("[retry]\n");
        if d.present() {
            key(&mut t, "max_retries", d.int(64).to_string());
        }
        if d.present() {
            key(&mut t, "backoff_us", d.us().to_string());
        }
        if d.present() {
            key(&mut t, "timeout_us", d.us().to_string());
        }
    }
    if d.present() {
        t.push_str("[nvme]\n");
        key(&mut t, "error_rate", d.rate().to_string());
        key(&mut t, "fatal", d.present().to_string());
        key(&mut t, "latency_spike_rate", d.rate().to_string());
        key(&mut t, "latency_spike_us", d.us().to_string());
        if d.present() {
            key(&mut t, "window_start_us", d.us().to_string());
            key(&mut t, "window_end_us", d.us().to_string());
        }
    }
    if d.present() {
        t.push_str("[net]\n");
        key(&mut t, "drop_rate", d.rate().to_string());
        key(&mut t, "corrupt_rate", d.rate().to_string());
        if d.present() {
            key(&mut t, "pause_storm_start_us", d.us().to_string());
            key(
                &mut t,
                "pause_storm_count",
                d.int(u32::MAX.into()).to_string(),
            );
            key(&mut t, "pause_storm_interval_us", d.us().to_string());
            key(&mut t, "pause_storm_quanta", d.int(0xffff).to_string());
        }
    }
    if d.present() {
        t.push_str("[pcie]\n");
        key(&mut t, "timeout_rate", d.rate().to_string());
        if d.present() {
            key(&mut t, "window_start_us", d.us().to_string());
            key(&mut t, "window_end_us", d.us().to_string());
        }
        if d.present() {
            key(&mut t, "degrade_start_us", d.us().to_string());
            key(&mut t, "degrade_end_us", d.us().to_string());
        }
        key(&mut t, "degrade_extra_us", d.us().to_string());
    }
    t
}

/// The plan a case study runs: `plan` with its PAUSE storm and the
/// stalls it injects (NVMe latency spikes, PCIe degradation latency,
/// retry backoff) capped, so that a run costs a bounded number of events.
fn bounded_for_case_study(plan: &FaultPlan) -> FaultPlan {
    let mut plan = plan.clone();
    let cap = |us: &mut f64| *us = us.min(STALL_RUN_CAP_US);
    if let Some(storm) = plan.net.as_mut().and_then(|n| n.pause_storm.as_mut()) {
        storm.count = storm.count.min(STORM_RUN_CAP);
    }
    if let Some(n) = plan.nvme.as_mut() {
        cap(&mut n.latency_spike_us);
    }
    if let Some(p) = plan.pcie.as_mut() {
        cap(&mut p.degrade_extra_us);
    }
    let max_backoff = SimDuration::from_ns(STALL_RUN_CAP_US as u64 * 1000);
    plan.retry.backoff = plan.retry.backoff.min(max_backoff);
    plan
}

fn system(plan: &FaultPlan) -> SystemConfig {
    SystemConfig {
        faults: Some(plan.clone()),
        ..SystemConfig::snacc(StreamerVariant::Uram)
    }
}

proptest! {
    #[test]
    fn drawn_plans_run_or_are_refused(
        draws in proptest::collection::vec(any::<u64>(), 64..65),
    ) {
        let text = plan_text(&mut Draws(draws.into_iter()));
        let plan = match FaultPlan::parse(&text) {
            Ok(plan) => plan,
            Err(PlanError::Invalid(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError(format!("{e}\n{text}"))),
        };
        // Each run counts its faults in a registry of its own.
        snacc_trace::install_registry(snacc_trace::MetricsRegistry::new());
        let (rates, _) = snacc_seq_bandwidth(system(&plan), Dir::Read, READ_BYTES);
        prop_assert_eq!(rates.len(), 1);
        if plan.net.is_some() {
            let mut sys = SnaccSystem::bring_up(system(&bounded_for_case_study(&plan)));
            let cfg = CaseStudyConfig {
                images: 4,
                ..Default::default()
            };
            // Lost frames may cost whole images; none can appear twice.
            let report = run_snacc_case_study(&mut sys, cfg);
            prop_assert!(report.images <= 4, "{} images\n{text}", report.images);
        }
    }
}
