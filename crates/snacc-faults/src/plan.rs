//! Fault plans: what to break, where, and how hard.
//!
//! A [`FaultPlan`] is the single description of a fault campaign. It is
//! parsed from a TOML-subset file (see [`FaultPlan::parse`] and the
//! `plans/` directory at the repository root) straight into the
//! injector configs of the layer models — the NVMe device, the PCIe
//! fabric, an Ethernet MAC — which the system bring-up and the
//! case-study front install as they are. Plan times are microseconds,
//! rounded to whole nanoseconds on parsing. All randomness inside the
//! injectors derives from [`FaultPlan::seed`] through per-layer salts,
//! so two runs of the same plan on the same workload are event-for-event
//! identical.

use crate::minitoml::{self, TomlDoc};
use snacc_core::config::RetryPolicy;
use snacc_net::{MacFaultConfig, PauseStorm};
use snacc_nvme::spec::Status;
use snacc_nvme::IoFaultConfig;
use snacc_pcie::PcieFaultConfig;
use snacc_sim::{SimDuration, SimTime};
use std::fmt;
use std::path::Path;

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

/// A complete, validated fault campaign. Each layer's section is the
/// config its injector installs, its seed already derived from `seed`.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every injector RNG derives from it.
    pub seed: u64,
    /// Streamer retry policy the campaign runs under.
    pub retry: RetryPolicy,
    /// `[nvme]`: command errors and latency spikes, if any.
    pub nvme: Option<IoFaultConfig>,
    /// `[net]`: the capture link's frame loss and PAUSE storm, if any.
    /// Storm times count from when the case-study front installs the
    /// faults, once its link is up a few microseconds into the run.
    pub net: Option<MacFaultConfig>,
    /// `[pcie]`: completion timeouts and link degradation, if any.
    pub pcie: Option<PcieFaultConfig>,
}

fn dur_us(us: f64) -> SimDuration {
    SimDuration::from_ns((us * 1000.0).round() as u64)
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
        Ok(FaultPlan {
            seed,
            retry: parse_retry(&doc)?,
            nvme: parse_nvme(&doc, seed)?,
            net: parse_net(&doc, seed)?,
            pcie: parse_pcie(&doc, seed)?,
        })
    }

    /// Whether the plan loses data frames on the Ethernet link (a `[net]`
    /// drop or corrupt rate above 0), so the receiver must resynchronise
    /// on a desynced stream instead of treating it as a model bug.
    pub fn loses_frames(&self) -> bool {
        self.net
            .is_some_and(|n| n.drop_rate > 0.0 || n.corrupt_rate > 0.0)
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

/// A probability in `[0, 1]`, 0 when absent.
fn get_rate(doc: &TomlDoc, section: &str, key: &str) -> Result<f64, PlanError> {
    let r = get_f64(doc, section, key, 0.0)?;
    if !(0.0..=1.0).contains(&r) {
        return Err(PlanError::Invalid(format!(
            "[{section}] {key} = {r} outside [0, 1]"
        )));
    }
    Ok(r)
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

/// A `[start, end)` window given as `<prefix>start_us`/`<prefix>end_us`.
fn get_window(
    doc: &TomlDoc,
    section: &str,
    prefix: &str,
) -> Result<Option<(SimTime, SimTime)>, PlanError> {
    let start_key = format!("{prefix}start_us");
    let end_key = format!("{prefix}end_us");
    match (doc.get(section, &start_key), doc.get(section, &end_key)) {
        (None, None) => Ok(None),
        (Some(_), None) | (None, Some(_)) => Err(PlanError::Invalid(format!(
            "[{section}] {start_key}/{end_key} must be given together"
        ))),
        (Some(_), Some(_)) => {
            let a = get_us(doc, section, &start_key, 0.0)?;
            let b = get_us(doc, section, &end_key, 0.0)?;
            // Compared as the whole-ns times the injector sees: a window
            // that rounds to no nanosecond would inject nothing.
            let (start, end) = (SimTime::ZERO + dur_us(a), SimTime::ZERO + dur_us(b));
            if start >= end {
                return Err(PlanError::Invalid(format!(
                    "[{section}] {start_key}/{end_key} window [{a}, {b}) is empty \
                     in whole nanoseconds"
                )));
            }
            Ok(Some((start, end)))
        }
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

fn parse_nvme(doc: &TomlDoc, seed: u64) -> Result<Option<IoFaultConfig>, PlanError> {
    if !doc.has_section("nvme") {
        return Ok(None);
    }
    let fatal = match doc.get("nvme", "fatal") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| PlanError::Invalid("[nvme] fatal must be a boolean".into()))?,
    };
    Ok(Some(IoFaultConfig {
        error_rate: get_rate(doc, "nvme", "error_rate")?,
        // A fatal status makes retries give up at once.
        error_status: if fatal {
            Status::LbaOutOfRange
        } else {
            Status::DataTransferError
        },
        latency_spike_rate: get_rate(doc, "nvme", "latency_spike_rate")?,
        latency_spike: dur_us(get_us(doc, "nvme", "latency_spike_us", 100.0)?),
        window: get_window(doc, "nvme", "window_")?,
        seed: layer_seed(seed, 1),
    }))
}

/// The storm keys are checked whether or not `pause_storm_count` asks
/// for a storm, and so is the time of its last PAUSE.
fn parse_net(doc: &TomlDoc, seed: u64) -> Result<Option<MacFaultConfig>, PlanError> {
    if !doc.has_section("net") {
        return Ok(None);
    }
    let count = get_u64(doc, "net", "pause_storm_count", 0, u32::MAX.into())?;
    let start_us = get_us(doc, "net", "pause_storm_start_us", 0.0)?;
    let interval_us = get_us(doc, "net", "pause_storm_interval_us", 100.0)?;
    let quanta = get_u64(doc, "net", "pause_storm_quanta", 0xffff, 0xffff)? as u16;
    let (delay, interval) = (dur_us(start_us), dur_us(interval_us));
    let end = interval
        .checked_mul(count)
        .and_then(|span| (SimTime::ZERO + delay).checked_add(span));
    if end.is_none() {
        return Err(PlanError::Invalid(format!(
            "[net] pause_storm_start_us + pause_storm_interval_us × pause_storm_count = \
             {start_us} + {interval_us} × {count} µs is beyond the simulated range ({:e} µs)",
            SimTime::MAX.as_us_f64()
        )));
    }
    Ok(Some(MacFaultConfig {
        drop_rate: get_rate(doc, "net", "drop_rate")?,
        corrupt_rate: get_rate(doc, "net", "corrupt_rate")?,
        pause_storm: (count > 0).then_some(PauseStorm {
            delay,
            count: count as u32,
            interval,
            quanta,
        }),
        seed: layer_seed(seed, 3),
    }))
}

fn parse_pcie(doc: &TomlDoc, seed: u64) -> Result<Option<PcieFaultConfig>, PlanError> {
    if !doc.has_section("pcie") {
        return Ok(None);
    }
    Ok(Some(PcieFaultConfig {
        timeout_rate: get_rate(doc, "pcie", "timeout_rate")?,
        window: get_window(doc, "pcie", "window_")?,
        degrade_window: get_window(doc, "pcie", "degrade_")?,
        degrade_extra: dur_us(get_us(doc, "pcie", "degrade_extra_us", 5.0)?),
        seed: layer_seed(seed, 2),
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

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_us(us)
    }

    /// Each section parses to the config its layer installs.
    #[test]
    fn shipped_plans_parse() {
        let flaky = shipped("flaky_ssd");
        assert!(flaky.retry.enabled());
        let lossy = shipped("lossy_link");
        assert!(lossy.net.is_some());
        let pcie = PcieFaultConfig {
            timeout_rate: 0.25,
            window: Some((SimTime::ZERO, at_us(10_000))),
            degrade_window: Some((at_us(1_000), at_us(3_000))),
            degrade_extra: SimDuration::from_us(5),
            seed: layer_seed(44, 2),
        };
        assert_eq!(shipped("degraded_pcie").pcie, Some(pcie));
        let nvme = IoFaultConfig {
            error_rate: 0.05,
            error_status: Status::DataTransferError,
            latency_spike_rate: 0.0,
            latency_spike: SimDuration::from_us(100),
            window: None,
            seed: layer_seed(42, 1),
        };
        assert_eq!(flaky.nvme, Some(nvme));
    }

    #[test]
    fn times_round_to_whole_nanoseconds() {
        let p = FaultPlan::parse(
            "seed = 42\n[nvme]\nfatal = true\nlatency_spike_us = 0.0016\n\
             window_start_us = 2.0004\nwindow_end_us = 7",
        )
        .unwrap();
        let nvme = p.nvme.unwrap();
        // `fatal` picks the status retries give up on at once.
        assert_eq!(nvme.error_status, Status::LbaOutOfRange);
        assert_eq!(nvme.latency_spike, SimDuration::from_ns(2));
        assert_eq!(nvme.window, Some((SimTime::from_ns(2_000), at_us(7))));
    }

    #[test]
    fn windows_empty_in_whole_nanoseconds_refused() {
        // Both ends round to the same nanosecond: 0 and 0, then 1 and 1.
        for (a, b) in [("0", "0.0004"), ("0.0006", "0.0009")] {
            refused(
                &format!(
                    "seed = 1\n[nvme]\nerror_rate = 1\n\
                     window_start_us = {a}\nwindow_end_us = {b}"
                ),
                "window_start_us/window_end_us",
            );
        }
        // One nanosecond apart once rounded: a window of 1 ns.
        let p = FaultPlan::parse(
            "seed = 1\n[pcie]\ndegrade_start_us = 0.0004\ndegrade_end_us = 0.0006",
        )
        .unwrap();
        assert_eq!(
            p.pcie.unwrap().degrade_window,
            Some((SimTime::ZERO, SimTime::from_ns(1)))
        );
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
        refused("seed = 1\n[net]\ncorrupt_rate = -0.1", "corrupt_rate");
    }

    #[test]
    fn seed_is_required_and_layer_seeds_differ() {
        assert!(matches!(
            FaultPlan::parse("[nvme]\nerror_rate = 0.1"),
            Err(PlanError::Invalid(_))
        ));
        assert_ne!(layer_seed(7, 1), layer_seed(7, 2));
        assert_ne!(layer_seed(7, 2), layer_seed(7, 3));
        assert_ne!(layer_seed(0, 1), layer_seed(1, 1));
        let net = |seed: u64| {
            FaultPlan::parse(&format!("seed = {seed}\n[net]"))
                .unwrap()
                .net
        };
        assert_eq!(net(43).map(|n| n.seed), Some(layer_seed(43, 3)));
        assert_ne!(net(43), net(99));
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
        let max = SimDuration::from_ns(18_000_000_000_000_000);
        assert_eq!(p.nvme.map(|n| n.latency_spike), Some(max));
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
    fn storm_keys_checked_without_a_count() {
        refused(
            "seed = 1\n[net]\npause_storm_quanta = 70000",
            "pause_storm_quanta",
        );
        refused(
            "seed = 1\n[net]\npause_storm_interval_us = -5",
            "pause_storm_interval_us",
        );
        refused(
            "seed = 1\n[net]\npause_storm_start_us = 2e13",
            "pause_storm_start_us",
        );
        let p = FaultPlan::parse("seed = 1\n[net]\npause_storm_quanta = 7").unwrap();
        assert_eq!(p.net.and_then(|n| n.pause_storm), None);
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
        let mut en = snacc_sim::Engine::new();
        en.schedule_at(SimTime::from_ns(9_907), |_| {});
        en.run();
        let mac = snacc_net::EthMac::new(
            "storm",
            snacc_net::MacAddr::from_index(1),
            snacc_net::MacConfig::eth_100g(),
            1,
        );
        snacc_net::mac::install_faults(&mac, &mut en, p.net.unwrap());
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
