//! Host-side measurement: log-bucketed latency histograms, the timed
//! wrappers the workload loops call the simulator through, and the
//! process's resident-set readings.
//!
//! Everything here sits on the benchmark's side of the crate boundary:
//! it times the benchmark's own calls into `Engine::step`, `axis::push`,
//! `axis::pop` and `SpdkNvme::submit_*`, and adds nothing to the model
//! crates. With a [`Probe`] switched off the wrappers make the same calls
//! without reading the clock.

use snacc_fpga::axis::{self, AxisChannel, StreamBeat};
use snacc_sim::Engine;
use std::cell::RefCell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::rc::Rc;
use std::time::Instant;

/// Sub-buckets per power of two: about 6% relative resolution.
const SUB: u64 = 16;
const BUCKETS: usize = 64 * SUB as usize;

/// A latency histogram in nanoseconds: constant memory for any number of
/// samples, exact count and maximum, quantiles interpolated within the
/// bucket that holds the requested rank.
#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            n: 0,
            max: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = 63 - u64::from(v.leading_zeros());
    let mant = (v >> (e - 4)) & (SUB - 1);
    ((e - 3) * SUB + mant) as usize
}

/// `[lo, hi)` value range of bucket `b`.
fn bucket_range(b: usize) -> (f64, f64) {
    let b = b as u64;
    if b < SUB {
        return (b as f64, b as f64 + 1.0);
    }
    let e = b / SUB + 3;
    let mant = b % SUB;
    let lo = (SUB + mant) << (e - 4);
    (lo as f64, (lo + (1 << (e - 4))) as f64)
}

impl Hist {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.max = self.max.max(ns);
    }

    pub fn record_since(&mut self, t: Instant) {
        self.record_ns(t.elapsed().as_nanos() as u64);
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    /// Quantile `q` in nanoseconds (0 when empty).
    pub fn quantile_ns(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = q * (self.n - 1) as f64;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (below + c) as f64 > rank {
                let (lo, hi) = bucket_range(b);
                let frac = (rank - below as f64 + 0.5) / c as f64;
                return (lo + (hi - lo) * frac).min(self.max as f64);
            }
            below += c;
        }
        self.max as f64
    }

    pub fn max_ns(&self) -> f64 {
        self.max as f64
    }
}

/// Timing state for one configuration. Off in untraced rounds.
#[derive(Clone, Default)]
pub struct Probe {
    pub on: bool,
    pub step: Hist,
    pub push: Hist,
    pub pop: Hist,
    pub push_calls: u64,
    pub push_refused: u64,
    /// `SpdkNvme::submit_*` calls made by the benchmark's closed loops;
    /// shared with the completion hook that issues them.
    pub submit: Rc<RefCell<Hist>>,
}

impl Probe {
    pub fn new(on: bool) -> Self {
        Probe {
            on,
            ..Default::default()
        }
    }

    /// One `Engine::step`, timed when the probe is on.
    pub fn step(&mut self, en: &mut Engine) -> bool {
        if !self.on {
            return en.step();
        }
        let t = Instant::now();
        let r = en.step();
        self.step.record_since(t);
        r
    }

    /// Drain the event queue one timed step at a time.
    pub fn run(&mut self, en: &mut Engine) {
        while self.step(en) {}
    }

    pub fn push(
        &mut self,
        ch: &Rc<RefCell<AxisChannel>>,
        en: &mut Engine,
        beat: StreamBeat,
    ) -> bool {
        if !self.on {
            return axis::push(ch, en, beat);
        }
        let t = Instant::now();
        let ok = axis::push(ch, en, beat);
        self.push.record_since(t);
        self.push_calls += 1;
        if !ok {
            self.push_refused += 1;
        }
        ok
    }

    pub fn pop(&mut self, ch: &Rc<RefCell<AxisChannel>>, en: &mut Engine) -> Option<StreamBeat> {
        if !self.on {
            return axis::pop(ch, en);
        }
        let t = Instant::now();
        let b = axis::pop(ch, en);
        self.pop.record_since(t);
        b
    }

    pub fn merge(&mut self, other: &Probe) {
        self.step.merge(&other.step);
        self.push.merge(&other.push);
        self.pop.merge(&other.pop);
        self.push_calls += other.push_calls;
        self.push_refused += other.push_refused;
        self.submit.borrow_mut().merge(&other.submit.borrow());
    }
}

/// Time `f` when `on`, recording into `h`; a plain call otherwise.
pub fn timed<R>(on: bool, h: &RefCell<Hist>, f: impl FnOnce() -> R) -> R {
    if !on {
        return f();
    }
    let t = Instant::now();
    let r = f();
    h.borrow_mut().record_since(t);
    r
}

fn status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

/// Current resident set in MB (10^6 bytes).
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Peak resident set (VmHWM) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb as f64 * 1024.0 / 1e6)
}

/// Host seconds the [`reference_s`] loop takes on an unloaded core of the
/// machine the benchmark was tuned on; only sets the scale of the
/// calibrated times.
pub const REFERENCE_S: f64 = 0.032;

/// Time a fixed reference workload made of the standard library only —
/// an ordered map with an allocation per insert, plus read-modify-writes
/// over a 4 MiB table — so it leans on the allocator, pointer chasing and
/// the cache much as the simulator's event code does, while no change to
/// the simulator can make it faster.
///
/// Host speed on a shared machine drifts by tens of percent over seconds.
/// Each configuration is bracketed by two reference runs, and its times
/// are scaled by `REFERENCE_S / reference time`, which cancels most of
/// that drift (see README: "Calibrated host time").
pub fn reference_s() -> f64 {
    let mut table = vec![0u64; 1 << 19];
    let mask = table.len() - 1;
    let mut map: BTreeMap<u64, Box<[u64; 4]>> = BTreeMap::new();
    let (mut x, mut acc) = (0x9E37_79B9_7F4A_7C15u64, 0u64);
    let t = Instant::now();
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match map.entry(x % 65_536) {
            Entry::Occupied(e) => acc = acc.wrapping_add(e.remove()[1]),
            Entry::Vacant(e) => {
                e.insert(Box::new([x, i, acc, 0]));
            }
        }
        let j = (x >> 20) as usize & mask;
        table[j] = table[j].wrapping_add(acc ^ i);
    }
    std::hint::black_box((acc, table[0]));
    t.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_uniform_samples() {
        let mut h = Hist::default();
        for v in 1..=10_000u64 {
            h.record_ns(v);
        }
        let p50 = h.quantile_ns(0.5);
        assert!((p50 - 5000.0).abs() / 5000.0 < 0.07, "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((p99 - 9900.0).abs() / 9900.0 < 0.07, "p99 {p99}");
        assert_eq!(h.max_ns(), 10_000.0);
        assert_eq!(h.len(), 10_000);
    }

    #[test]
    fn buckets_cover_their_values() {
        for v in [0u64, 1, 15, 16, 17, 31, 32, 1000, 123_456_789, 1 << 40] {
            let (lo, hi) = bucket_range(bucket_of(v));
            assert!(lo <= v as f64 && (v as f64) < hi, "{v} not in [{lo}, {hi})");
        }
    }
}
