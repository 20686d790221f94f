//! Fault plans: what to break, where, and how hard.
//!
//! A [`FaultPlan`] is the single description of a fault campaign. It is
//! built from a TOML-subset file (see [`FaultPlan::parse`] and the
//! `plans/` directory at the repository root), or from one of the named
//! presets, and then *applied* to the individual layer models — the NVMe
//! device, the PCIe fabric, an Ethernet MAC — by the system bring-up and
//! the case-study front that carry it. All randomness inside the
//! injectors derives from [`FaultPlan::seed`] through per-layer salts,
//! so two runs of the same plan on the same workload are event-for-event
//! identical.

use crate::minitoml::{self, TomlDoc};
use snacc_core::config::RetryPolicy;
use snacc_net::mac::{self, EthMac};
use snacc_nvme::spec::Status;
use snacc_nvme::{IoFaultConfig, NvmeDeviceHandle};
use snacc_pcie::{PcieFabric, PcieFaultConfig};
use snacc_sim::{Engine, SimDuration, SimTime};
use snacc_trace as trace;
use std::cell::RefCell;
use std::fmt;
use std::path::Path;
use std::rc::Rc;

/// Errors from loading or validating a plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The file could not be read.
    Io(String),
    /// The document is not in the supported TOML subset.
    Parse(String),
    /// The document parsed but describes an impossible campaign
    /// (unknown key, rate outside `[0, 1]`, inverted window, a time
    /// outside the simulator's range, …).
    Invalid(String),
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "cannot read fault plan: {e}"),
            PlanError::Parse(e) => write!(f, "fault plan syntax: {e}"),
            PlanError::Invalid(e) => write!(f, "fault plan invalid: {e}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// NVMe-layer faults: command error statuses and latency spikes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NvmeFaultSpec {
    /// Probability that an I/O command completes with an error status.
    pub error_rate: f64,
    /// Inject a *fatal* status (LBA Out of Range) instead of the default
    /// transient Data Transfer Error — retries then give up immediately.
    pub fatal: bool,
    /// Probability that an I/O command is delayed by a latency spike.
    pub latency_spike_rate: f64,
    /// Spike duration in microseconds.
    pub latency_spike_us: f64,
    /// Restrict injection to `[start, end)` microseconds (`None` = all).
    pub window_us: Option<(f64, f64)>,
}

/// Ethernet-layer faults: frame loss, corruption, PAUSE storms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetFaultSpec {
    /// Probability that a delivered data frame is dropped on the wire.
    pub drop_rate: f64,
    /// Probability that a delivered data frame is discarded as corrupt.
    pub corrupt_rate: f64,
    /// Optional PAUSE storm (see [`PauseStormSpec`]).
    pub pause_storm: Option<PauseStormSpec>,
}

/// A scheduled burst of PAUSE frames from a misbehaving peer. Its times
/// count from the moment [`FaultPlan::apply_mac`] installs it, not from
/// time zero: the case-study front does that once its link is up, a few
/// microseconds into the run. The plan refuses a storm whose
/// `start_us + interval_us × count` lies beyond the simulated range.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PauseStormSpec {
    /// First PAUSE, microseconds after the storm is installed.
    pub start_us: f64,
    /// Number of PAUSE frames.
    pub count: u32,
    /// Spacing between PAUSEs in microseconds.
    pub interval_us: f64,
    /// Quanta per PAUSE (0xffff = maximum throttle).
    pub quanta: u16,
}

/// PCIe-layer faults: completion timeouts and link degradation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieFaultSpec {
    /// Probability that a bulk non-posted read times out.
    pub timeout_rate: f64,
    /// Restrict timeout draws to `[start, end)` microseconds.
    pub window_us: Option<(f64, f64)>,
    /// Link-degradation window in microseconds (`None` = off).
    pub degrade_us: Option<(f64, f64)>,
    /// Extra latency per degraded transaction, microseconds.
    pub degrade_extra_us: f64,
}

/// A complete, validated fault campaign.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every injector RNG derives from it.
    pub seed: u64,
    /// Streamer retry policy the campaign runs under.
    pub retry: RetryPolicy,
    /// NVMe-layer faults, if any.
    pub nvme: Option<NvmeFaultSpec>,
    /// Ethernet-layer faults, if any.
    pub net: Option<NetFaultSpec>,
    /// PCIe-layer faults, if any.
    pub pcie: Option<PcieFaultSpec>,
}

fn dur_us(us: f64) -> SimDuration {
    SimDuration::from_ns((us * 1000.0).round() as u64)
}

fn time_us(us: f64) -> SimTime {
    SimTime::ZERO + dur_us(us)
}

/// Derive a per-layer RNG seed from the master seed. SplitMix64-style
/// scramble so layers never share a stream even for small seeds.
fn layer_seed(seed: u64, salt: u64) -> u64 {
    let mut z = seed
        .wrapping_add(salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// Load a plan from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, PlanError> {
        let text = std::fs::read_to_string(path.as_ref())
            .map_err(|e| PlanError::Io(format!("{}: {e}", path.as_ref().display())))?;
        Self::parse(&text)
    }

    /// Parse and validate a plan document.
    pub fn parse(text: &str) -> Result<Self, PlanError> {
        let doc = minitoml::parse(text).map_err(PlanError::Parse)?;
        validate_keys(&doc)?;
        let seed = match doc.get("", "seed") {
            Some(v) => v
                .as_u64()
                .ok_or_else(|| PlanError::Invalid("seed must be a non-negative integer".into()))?,
            None => {
                return Err(PlanError::Invalid(
                    "missing required root key `seed`".into(),
                ))
            }
        };
        let plan = FaultPlan {
            seed,
            retry: parse_retry(&doc)?,
            nvme: parse_nvme(&doc)?,
            net: parse_net(&doc)?,
            pcie: parse_pcie(&doc)?,
        };
        plan.validate()?;
        Ok(plan)
    }

    fn validate(&self) -> Result<(), PlanError> {
        let check_rate = |name: &str, r: f64| {
            if (0.0..=1.0).contains(&r) {
                Ok(())
            } else {
                Err(PlanError::Invalid(format!("{name} = {r} outside [0, 1]")))
            }
        };
        if let Some(n) = &self.nvme {
            check_rate("nvme.error_rate", n.error_rate)?;
            check_rate("nvme.latency_spike_rate", n.latency_spike_rate)?;
            check_window("nvme", n.window_us)?;
        }
        if let Some(n) = &self.net {
            check_rate("net.drop_rate", n.drop_rate)?;
            check_rate("net.corrupt_rate", n.corrupt_rate)?;
        }
        if let Some(p) = &self.pcie {
            check_rate("pcie.timeout_rate", p.timeout_rate)?;
            check_window("pcie", p.window_us)?;
            check_window("pcie degrade", p.degrade_us)?;
        }
        Ok(())
    }

    /// Whether the plan loses data frames on the Ethernet link (a `[net]`
    /// drop or corrupt rate above 0), so the receiver must resynchronise
    /// on a desynced stream instead of treating it as a model bug.
    pub fn loses_frames(&self) -> bool {
        self.net
            .is_some_and(|n| n.drop_rate > 0.0 || n.corrupt_rate > 0.0)
    }

    /// Install the NVMe-layer faults on a device (no-op without a
    /// `[nvme]` section).
    pub fn apply_nvme(&self, nvme: &NvmeDeviceHandle) {
        let Some(n) = &self.nvme else { return };
        let window = n.window_us.map(|(a, b)| (time_us(a), time_us(b)));
        nvme.install_faults(IoFaultConfig {
            error_rate: n.error_rate,
            error_status: if n.fatal {
                Status::LbaOutOfRange
            } else {
                Status::DataTransferError
            },
            latency_spike_rate: n.latency_spike_rate,
            latency_spike: dur_us(n.latency_spike_us),
            window,
            seed: layer_seed(self.seed, 1),
        });
        if let (Some((a, b)), true) = (window, trace::enabled()) {
            trace::span_between("faults", "window.nvme", a, b, &[]);
        }
    }

    /// Install the PCIe-layer faults on the fabric (no-op without a
    /// `[pcie]` section).
    pub fn apply_fabric(&self, fabric: &mut PcieFabric) {
        let Some(p) = &self.pcie else { return };
        let window = p.window_us.map(|(a, b)| (time_us(a), time_us(b)));
        let degrade_window = p.degrade_us.map(|(a, b)| (time_us(a), time_us(b)));
        fabric.install_faults(PcieFaultConfig {
            timeout_rate: p.timeout_rate,
            window,
            degrade_window,
            degrade_extra: dur_us(p.degrade_extra_us),
            seed: layer_seed(self.seed, 2),
        });
        if trace::enabled() {
            if let Some((a, b)) = window {
                trace::span_between("faults", "window.pcie_timeouts", a, b, &[]);
            }
            if let Some((a, b)) = degrade_window {
                trace::span_between("faults", "window.pcie_degrade", a, b, &[]);
            }
        }
    }

    /// Install the Ethernet-layer faults on a MAC: loss/corruption rates
    /// plus the PAUSE storm, if configured (no-op without a `[net]`
    /// section). The storm is emitted *by* `mac` towards its peer.
    pub fn apply_mac(&self, en: &mut Engine, mac_rc: &Rc<RefCell<EthMac>>) {
        let Some(n) = &self.net else { return };
        mac_rc
            .borrow_mut()
            .set_fault_rates(n.drop_rate, n.corrupt_rate);
        if let Some(s) = &n.pause_storm {
            let (delay, interval) = (dur_us(s.start_us), dur_us(s.interval_us));
            mac::schedule_pause_storm(mac_rc, en, delay, s.count, interval, s.quanta);
            if trace::enabled() {
                let start = en.now().saturating_add(delay);
                let span = interval.checked_mul(s.count.into());
                trace::span_between(
                    "faults",
                    "window.pause_storm",
                    start,
                    span.map_or(SimTime::MAX, |d| start.saturating_add(d)),
                    &[("pauses", s.count as u64)],
                );
            }
        }
    }
}

fn check_window(name: &str, w: Option<(f64, f64)>) -> Result<(), PlanError> {
    match w {
        Some((a, b)) if a >= b => Err(PlanError::Invalid(format!(
            "{name} window [{a}, {b}) is empty"
        ))),
        _ => Ok(()),
    }
}

/// Every key the plan format understands, for strict validation.
const KNOWN_KEYS: &[(&str, &str)] = &[
    ("", "seed"),
    ("retry", "max_retries"),
    ("retry", "backoff_us"),
    ("retry", "timeout_us"),
    ("nvme", "error_rate"),
    ("nvme", "fatal"),
    ("nvme", "latency_spike_rate"),
    ("nvme", "latency_spike_us"),
    ("nvme", "window_start_us"),
    ("nvme", "window_end_us"),
    ("net", "drop_rate"),
    ("net", "corrupt_rate"),
    ("net", "pause_storm_start_us"),
    ("net", "pause_storm_count"),
    ("net", "pause_storm_interval_us"),
    ("net", "pause_storm_quanta"),
    ("pcie", "timeout_rate"),
    ("pcie", "window_start_us"),
    ("pcie", "window_end_us"),
    ("pcie", "degrade_start_us"),
    ("pcie", "degrade_end_us"),
    ("pcie", "degrade_extra_us"),
];

fn validate_keys(doc: &TomlDoc) -> Result<(), PlanError> {
    for (section, key) in doc.entries() {
        if !KNOWN_KEYS.iter().any(|(s, k)| *s == section && *k == key) {
            let place = if section.is_empty() {
                "at the root".to_string()
            } else {
                format!("in [{section}]")
            };
            return Err(PlanError::Invalid(format!("unknown key `{key}` {place}")));
        }
    }
    Ok(())
}

fn get_f64(doc: &TomlDoc, section: &str, key: &str, default: f64) -> Result<f64, PlanError> {
    match doc.get(section, key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| PlanError::Invalid(format!("[{section}] {key} must be a number"))),
    }
}

/// A `*_us` value: finite, at least 0 and short of `SimTime::MAX` once
/// [`dur_us`] converts it (whole nanoseconds, then picoseconds).
fn get_us(doc: &TomlDoc, section: &str, key: &str, default: f64) -> Result<f64, PlanError> {
    let us = get_f64(doc, section, key, default)?;
    let ns = (us * 1000.0).round();
    // `!(a && b)` rather than `!a || !b`: NaN fails both comparisons.
    if !(us >= 0.0 && ns < (u64::MAX / 1000) as f64) {
        return Err(PlanError::Invalid(format!(
            "[{section}] {key} = {us} must be finite, at least 0 and below {:e} µs",
            SimTime::MAX.as_us_f64()
        )));
    }
    Ok(us)
}

/// A non-negative integer key, at most `max`.
fn get_u64(
    doc: &TomlDoc,
    section: &str,
    key: &str,
    default: u64,
    max: u64,
) -> Result<u64, PlanError> {
    let v = match doc.get(section, key) {
        None => default,
        Some(v) => v.as_u64().ok_or_else(|| {
            PlanError::Invalid(format!("[{section}] {key} must be a non-negative integer"))
        })?,
    };
    if v > max {
        return Err(PlanError::Invalid(format!(
            "[{section}] {key} = {v} is above its maximum {max}"
        )));
    }
    Ok(v)
}

fn get_window(doc: &TomlDoc, section: &str, prefix: &str) -> Result<Option<(f64, f64)>, PlanError> {
    let start_key = format!("{prefix}start_us");
    let end_key = format!("{prefix}end_us");
    match (doc.get(section, &start_key), doc.get(section, &end_key)) {
        (None, None) => Ok(None),
        (Some(_), None) | (None, Some(_)) => Err(PlanError::Invalid(format!(
            "[{section}] {start_key}/{end_key} must be given together"
        ))),
        (Some(_), Some(_)) => Ok(Some((
            get_us(doc, section, &start_key, 0.0)?,
            get_us(doc, section, &end_key, 0.0)?,
        ))),
    }
}

fn parse_retry(doc: &TomlDoc) -> Result<RetryPolicy, PlanError> {
    if !doc.has_section("retry") {
        return Ok(RetryPolicy::disabled());
    }
    let max_retries = get_u64(doc, "retry", "max_retries", 0, 64)?;
    let cmd_timeout = match doc.get("retry", "timeout_us") {
        None => None,
        Some(_) => {
            let us = get_us(doc, "retry", "timeout_us", 0.0)?;
            let timeout = dur_us(us);
            if timeout == SimDuration::ZERO {
                return Err(PlanError::Invalid(format!(
                    "[retry] timeout_us = {us} must be above 0 (1 ns at least)"
                )));
            }
            Some(timeout)
        }
    };
    Ok(RetryPolicy {
        max_retries: max_retries as u32,
        backoff: dur_us(get_us(doc, "retry", "backoff_us", 10.0)?),
        cmd_timeout,
    })
}

fn parse_nvme(doc: &TomlDoc) -> Result<Option<NvmeFaultSpec>, PlanError> {
    if !doc.has_section("nvme") {
        return Ok(None);
    }
    let fatal = match doc.get("nvme", "fatal") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| PlanError::Invalid("[nvme] fatal must be a boolean".into()))?,
    };
    Ok(Some(NvmeFaultSpec {
        error_rate: get_f64(doc, "nvme", "error_rate", 0.0)?,
        fatal,
        latency_spike_rate: get_f64(doc, "nvme", "latency_spike_rate", 0.0)?,
        latency_spike_us: get_us(doc, "nvme", "latency_spike_us", 100.0)?,
        window_us: get_window(doc, "nvme", "window_")?,
    }))
}

fn parse_net(doc: &TomlDoc) -> Result<Option<NetFaultSpec>, PlanError> {
    if !doc.has_section("net") {
        return Ok(None);
    }
    let count = get_u64(doc, "net", "pause_storm_count", 0, u32::MAX.into())?;
    let pause_storm = if count > 0 {
        let storm = PauseStormSpec {
            start_us: get_us(doc, "net", "pause_storm_start_us", 0.0)?,
            count: count as u32,
            interval_us: get_us(doc, "net", "pause_storm_interval_us", 100.0)?,
            quanta: get_u64(doc, "net", "pause_storm_quanta", 0xffff, 0xffff)? as u16,
        };
        // The times `apply_mac` schedules, in the simulator's own units.
        let end = dur_us(storm.interval_us)
            .checked_mul(count)
            .and_then(|span| (SimTime::ZERO + dur_us(storm.start_us)).checked_add(span));
        if end.is_none() {
            return Err(PlanError::Invalid(format!(
                "[net] pause_storm_start_us + pause_storm_interval_us × pause_storm_count = \
                 {} + {} × {count} µs is beyond the simulated range ({:e} µs)",
                storm.start_us,
                storm.interval_us,
                SimTime::MAX.as_us_f64()
            )));
        }
        Some(storm)
    } else {
        None
    };
    Ok(Some(NetFaultSpec {
        drop_rate: get_f64(doc, "net", "drop_rate", 0.0)?,
        corrupt_rate: get_f64(doc, "net", "corrupt_rate", 0.0)?,
        pause_storm,
    }))
}

fn parse_pcie(doc: &TomlDoc) -> Result<Option<PcieFaultSpec>, PlanError> {
    if !doc.has_section("pcie") {
        return Ok(None);
    }
    Ok(Some(PcieFaultSpec {
        timeout_rate: get_f64(doc, "pcie", "timeout_rate", 0.0)?,
        window_us: get_window(doc, "pcie", "window_")?,
        degrade_us: get_window(doc, "pcie", "degrade_")?,
        degrade_extra_us: get_us(doc, "pcie", "degrade_extra_us", 5.0)?,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A plan shipped in `plans/` at the repository root.
    fn shipped(name: &str) -> FaultPlan {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans");
        FaultPlan::load(format!("{dir}/{name}.toml")).expect("shipped plan parses")
    }

    #[test]
    fn shipped_plans_parse() {
        let flaky = shipped("flaky_ssd");
        assert!(flaky.nvme.is_some());
        assert!(flaky.retry.enabled());
        let lossy = shipped("lossy_link");
        assert!(lossy.net.is_some());
        let degraded = shipped("degraded_pcie");
        let p = degraded.pcie.expect("pcie section");
        assert!(p.degrade_us.is_some());
    }

    #[test]
    fn unknown_keys_rejected() {
        let e = FaultPlan::parse("seed = 1\n[nvme]\nerorr_rate = 0.1").unwrap_err();
        assert!(matches!(e, PlanError::Invalid(_)), "{e}");
        let e = FaultPlan::parse("seed = 1\n[ssd]\nerror_rate = 0.1").unwrap_err();
        assert!(matches!(e, PlanError::Invalid(_)), "{e}");
    }

    #[test]
    fn rates_and_windows_validated() {
        let e = FaultPlan::parse("seed = 1\n[nvme]\nerror_rate = 1.5").unwrap_err();
        assert!(matches!(e, PlanError::Invalid(_)), "{e}");
        let e = FaultPlan::parse("seed = 1\n[pcie]\ndegrade_start_us = 9\ndegrade_end_us = 3")
            .unwrap_err();
        assert!(matches!(e, PlanError::Invalid(_)), "{e}");
        let e = FaultPlan::parse("seed = 1\n[pcie]\ndegrade_start_us = 9").unwrap_err();
        assert!(matches!(e, PlanError::Invalid(_)), "{e}");
    }

    #[test]
    fn seed_is_required_and_layer_seeds_differ() {
        assert!(matches!(
            FaultPlan::parse("[nvme]\nerror_rate = 0.1"),
            Err(PlanError::Invalid(_))
        ));
        assert_ne!(layer_seed(7, 1), layer_seed(7, 2));
        assert_ne!(layer_seed(0, 1), layer_seed(1, 1));
    }

    #[test]
    fn retry_section_maps_to_policy() {
        let p = FaultPlan::parse(
            "seed = 1\n[retry]\nmax_retries = 5\nbackoff_us = 20\ntimeout_us = 500",
        )
        .unwrap();
        assert_eq!(p.retry.max_retries, 5);
        assert_eq!(p.retry.backoff, SimDuration::from_us(20));
        assert_eq!(p.retry.cmd_timeout, Some(SimDuration::from_us(500)));
        let off = FaultPlan::parse("seed = 1").unwrap();
        assert!(!off.retry.enabled());
    }

    /// `text` must be refused as invalid, with `key` named in the error.
    fn refused(text: &str, key: &str) {
        match FaultPlan::parse(text) {
            Err(PlanError::Invalid(e)) => assert!(e.contains(key), "{key} not named in: {e}"),
            other => panic!("{text:?} must be invalid, got {other:?}"),
        }
    }

    #[test]
    fn negative_times_rejected() {
        refused("seed = 1\n[retry]\ntimeout_us = -5", "timeout_us");
        refused("seed = 1\n[retry]\nbackoff_us = -1", "backoff_us");
        refused(
            "seed = 1\n[net]\npause_storm_count = 3\npause_storm_interval_us = -1",
            "pause_storm_interval_us",
        );
    }

    #[test]
    fn times_beyond_the_simulated_range_rejected() {
        refused(
            "seed = 1\n[nvme]\nlatency_spike_us = 1e14",
            "latency_spike_us",
        );
        refused(
            "seed = 1\n[pcie]\ndegrade_start_us = 0\ndegrade_end_us = 2e13",
            "degrade_end_us",
        );
        // A time just inside the range still parses.
        let p = FaultPlan::parse("seed = 1\n[nvme]\nlatency_spike_us = 1.8e13").unwrap();
        assert_eq!(p.nvme.map(|n| n.latency_spike_us), Some(1.8e13));
    }

    #[test]
    fn zero_timeout_rejected() {
        refused("seed = 1\n[retry]\ntimeout_us = 0", "timeout_us");
        refused("seed = 1\n[retry]\ntimeout_us = 0.0001", "timeout_us");
    }

    #[test]
    fn pause_quanta_above_u16_rejected() {
        refused(
            "seed = 1\n[net]\npause_storm_count = 3\npause_storm_quanta = 70000",
            "pause_storm_quanta",
        );
        let p =
            FaultPlan::parse("seed = 1\n[net]\npause_storm_count = 3\npause_storm_quanta = 65535");
        let storm = p.unwrap().net.and_then(|n| n.pause_storm);
        assert_eq!(storm.map(|s| s.quanta), Some(0xffff));
    }

    #[test]
    fn pause_storm_beyond_the_simulated_range_rejected() {
        // Each value is in range; their product is not (it used to wrap).
        refused(
            "seed = 1\n[net]\npause_storm_start_us = 100\npause_storm_interval_us = 1e12\npause_storm_count = 30",
            "pause_storm_interval_us × pause_storm_count",
        );
        // 18 such PAUSEs still fit.
        let p = FaultPlan::parse(
            "seed = 1\n[net]\npause_storm_start_us = 100\npause_storm_interval_us = 1e12\npause_storm_count = 18",
        );
        assert_eq!(
            p.unwrap().net.and_then(|n| n.pause_storm).map(|s| s.count),
            Some(18)
        );
    }

    #[test]
    fn longest_pause_storm_keeps_one_event_pending() {
        // Installed after time zero, with the default start (0): the first
        // PAUSE is due now, not in the past. Not run to completion.
        let p = FaultPlan::parse(&format!(
            "seed = 1\n[net]\npause_storm_count = {}\npause_storm_interval_us = 1",
            u32::MAX
        ))
        .unwrap();
        let mut en = Engine::new();
        en.schedule_at(SimTime::from_ns(9_907), |_| {});
        en.run();
        let mac = EthMac::new(
            "storm",
            snacc_net::MacAddr::from_index(1),
            snacc_net::MacConfig::eth_100g(),
            1,
        );
        p.apply_mac(&mut en, &mac);
        assert_eq!(en.pending(), 1);
    }

    #[test]
    fn pause_count_above_u32_rejected() {
        refused(
            "seed = 1\n[net]\npause_storm_count = 4294967296",
            "pause_storm_count",
        );
    }
}
