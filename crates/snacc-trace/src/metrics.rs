//! The metrics registry: named, hierarchically-scoped counters, meters
//! and histograms.
//!
//! Names use dotted scopes (`streamer.snacc.cmds_issued`,
//! `pcie.payload`); the registry hands out cheap `Rc`-backed handles so
//! hot paths update a `Cell` instead of doing a map lookup. Snapshots
//! iterate a `BTreeMap`, so exported JSON is key-sorted and byte-stable
//! across runs.
//!
//! A thread-local *current* registry is created lazily, which lets model
//! crates register metrics unconditionally — no setup required in tests —
//! while the bench harness can [`install_registry`] a fresh one per run
//! and snapshot it at the end. Every instance on a thread shares the
//! current registry by name, so a count belongs to one system only when
//! that system is built in a registry of its own: the sweep runner gives
//! each job one and [`absorbs`](MetricsRegistry::absorb) its
//! [`values`](MetricsRegistry::take_values) into the caller's.

use serde_json::{Map, Value};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct CounterHandle(Rc<Cell<u64>>);

impl CounterHandle {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// An operation/byte meter (one `record` = one operation of `bytes`).
#[derive(Clone)]
pub struct MeterHandle(Rc<Cell<(u64, u64)>>);

impl MeterHandle {
    /// Record one operation moving `bytes`.
    #[inline]
    pub fn record(&self, bytes: u64) {
        let (ops, total) = self.0.get();
        self.0.set((ops + 1, total + bytes));
    }

    /// Operations recorded.
    #[inline]
    pub fn ops(&self) -> u64 {
        self.0.get().0
    }

    /// Total bytes recorded.
    #[inline]
    pub fn bytes(&self) -> u64 {
        self.0.get().1
    }

    /// Zero the meter (e.g. after a warm-up phase, mirroring the models'
    /// own meter resets).
    #[inline]
    pub fn reset(&self) {
        self.0.set((0, 0));
    }
}

/// A value distribution with nearest-rank quantiles.
#[derive(Clone)]
pub struct HistogramHandle(Rc<RefCell<Vec<f64>>>);

impl HistogramHandle {
    /// Record one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        self.0.borrow_mut().push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// Nearest-rank quantile: for `n` samples the rank is
    /// `clamp(ceil(q·n), 1, n)` and the result is the sample at that rank
    /// in sorted order. `None` on an empty histogram. `q = 0` yields the
    /// minimum, `q = 1` the maximum, and a single sample is returned for
    /// every `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let samples = self.0.borrow();
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample in histogram"));
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(sorted[rank - 1])
    }

    /// Arithmetic mean, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        let samples = self.0.borrow();
        if samples.is_empty() {
            return None;
        }
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// A registry's values as plain data. Handles are `Rc`s bound to their
/// thread; this is the form in which a sweep job run on a worker thread
/// hands its registry back to the caller.
pub struct MetricValues {
    counters: Vec<(String, u64)>,
    meters: Vec<(String, (u64, u64))>,
    histograms: Vec<(String, Vec<f64>)>,
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, CounterHandle>,
    meters: BTreeMap<String, MeterHandle>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// A cloneable handle to one metrics namespace.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get-or-create the counter `name`.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut inner = self.inner.borrow_mut();
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| CounterHandle(Rc::new(Cell::new(0))))
            .clone()
    }

    /// Get-or-create the meter `name`.
    pub fn meter(&self, name: &str) -> MeterHandle {
        let mut inner = self.inner.borrow_mut();
        inner
            .meters
            .entry(name.to_string())
            .or_insert_with(|| MeterHandle(Rc::new(Cell::new((0, 0)))))
            .clone()
    }

    /// Get-or-create the histogram `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| HistogramHandle(Rc::new(RefCell::new(Vec::new()))))
            .clone()
    }

    /// Snapshot every metric into a key-sorted JSON value.
    pub fn snapshot(&self) -> Value {
        let inner = self.inner.borrow();
        let mut counters = Map::new();
        for (name, c) in &inner.counters {
            counters.insert(name.clone(), Value::from(c.get()));
        }
        let mut meters = Map::new();
        for (name, m) in &inner.meters {
            let mut entry = Map::new();
            entry.insert("ops", Value::from(m.ops()));
            entry.insert("bytes", Value::from(m.bytes()));
            meters.insert(name.clone(), Value::Object(entry));
        }
        let mut histograms = Map::new();
        for (name, h) in &inner.histograms {
            let mut entry = Map::new();
            entry.insert("count", Value::from(h.len()));
            if !h.is_empty() {
                entry.insert("min", Value::from(h.quantile(0.0).expect("non-empty")));
                entry.insert("p50", Value::from(h.quantile(0.5).expect("non-empty")));
                entry.insert("p99", Value::from(h.quantile(0.99).expect("non-empty")));
                entry.insert("max", Value::from(h.quantile(1.0).expect("non-empty")));
                entry.insert("mean", Value::from(h.mean().expect("non-empty")));
            }
            histograms.insert(name.clone(), Value::Object(entry));
        }
        let mut root = Map::new();
        root.insert("counters", Value::Object(counters));
        root.insert("meters", Value::Object(meters));
        root.insert("histograms", Value::Object(histograms));
        Value::Object(root)
    }

    /// Snapshot as a compact JSON string.
    pub fn snapshot_json(&self) -> String {
        serde_json::to_string_pretty(&self.snapshot())
    }

    /// Move every metric out, leaving the registry empty.
    pub fn take_values(&self) -> MetricValues {
        let inner = std::mem::take(&mut *self.inner.borrow_mut());
        MetricValues {
            counters: inner
                .counters
                .into_iter()
                .map(|(k, c)| (k, c.get()))
                .collect(),
            meters: inner
                .meters
                .into_iter()
                .map(|(k, m)| (k, m.0.get()))
                .collect(),
            histograms: inner
                .histograms
                .into_iter()
                .map(|(k, h)| (k, h.0.take()))
                .collect(),
        }
    }

    /// Add `values` to this registry: counters and meters add, histogram
    /// samples are appended. Absorbing, in order, the values of registries
    /// that recorded one after another gives the registry they would have
    /// filled together (barring meter resets, which stay in their own).
    pub fn absorb(&self, values: MetricValues) {
        for (name, n) in values.counters {
            self.counter(&name).add(n);
        }
        for (name, (ops, bytes)) in values.meters {
            let m = self.meter(&name);
            let (o, b) = m.0.get();
            m.0.set((o + ops, b + bytes));
        }
        for (name, samples) in values.histograms {
            self.histogram(&name).0.borrow_mut().extend(samples);
        }
    }
}

thread_local! {
    static REGISTRY: RefCell<Option<MetricsRegistry>> = const { RefCell::new(None) };
}

/// The thread's current registry (created lazily on first use).
pub fn registry() -> MetricsRegistry {
    REGISTRY.with(|r| {
        r.borrow_mut()
            .get_or_insert_with(MetricsRegistry::new)
            .clone()
    })
}

/// Replace the thread's current registry — the bench harness installs a
/// fresh one per run so snapshots cover exactly that run.
pub fn install_registry(reg: MetricsRegistry) {
    REGISTRY.with(|r| *r.borrow_mut() = Some(reg));
}

/// Get-or-create a counter in the thread's current registry.
pub fn counter(name: &str) -> CounterHandle {
    registry().counter(name)
}

/// Get-or-create a meter in the thread's current registry.
pub fn meter(name: &str) -> MeterHandle {
    registry().meter(name)
}

/// Get-or-create a histogram in the thread's current registry.
pub fn histogram(name: &str) -> HistogramHandle {
    registry().histogram(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_share_state_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
    }

    #[test]
    fn meters_accumulate_ops_and_bytes() {
        let reg = MetricsRegistry::new();
        let m = reg.meter("link.payload");
        m.record(4096);
        m.record(512);
        assert_eq!(m.ops(), 2);
        assert_eq!(m.bytes(), 4608);
    }

    #[test]
    fn histogram_empty_has_no_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(1.0), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn histogram_single_sample_is_every_quantile() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        h.record(7.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(7.5), "q={q}");
        }
        assert_eq!(h.mean(), Some(7.5));
    }

    #[test]
    fn histogram_exact_boundary_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [10.0, 20.0, 30.0, 40.0] {
            h.record(v);
        }
        // Nearest-rank with n = 4: rank = clamp(ceil(4q), 1, 4).
        assert_eq!(h.quantile(0.0), Some(10.0)); // rank clamps to 1
        assert_eq!(h.quantile(0.25), Some(10.0)); // ceil(1.0) = 1
        assert_eq!(h.quantile(0.5), Some(20.0)); // ceil(2.0) = 2
        assert_eq!(h.quantile(0.51), Some(30.0)); // ceil(2.04) = 3
        assert_eq!(h.quantile(0.75), Some(30.0)); // ceil(3.0) = 3
        assert_eq!(h.quantile(1.0), Some(40.0)); // rank 4
        assert_eq!(h.mean(), Some(25.0));
    }

    #[test]
    fn histogram_unsorted_input_sorts_for_quantiles() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("lat");
        for v in [30.0, 10.0, 20.0] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(30.0));
    }

    #[test]
    fn snapshot_is_key_sorted_json() {
        let reg = MetricsRegistry::new();
        reg.counter("z.late").add(5);
        reg.counter("a.early").add(1);
        reg.meter("link").record(100);
        reg.histogram("lat").record(2.0);
        let snap = reg.snapshot();
        let counters = snap.get("counters").and_then(|v| v.as_object()).unwrap();
        let keys: Vec<&String> = counters.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["a.early", "z.late"]);
        // Round-trips through the parser (valid JSON).
        let text = reg.snapshot_json();
        assert!(serde_json::from_str(&text).is_ok());
    }

    /// Record a counter, a meter and a histogram, scaled by `k`.
    fn fill(reg: &MetricsRegistry, k: u64) {
        reg.counter("c").add(k);
        reg.counter(&format!("only.{k}")).inc();
        reg.meter("m").record(100 * k);
        for v in [3.0, 1.0, 2.0] {
            reg.histogram("h").record(v * k as f64);
        }
    }

    #[test]
    fn absorbed_registries_equal_one_shared_registry() {
        let shared = MetricsRegistry::new();
        fill(&shared, 1);
        fill(&shared, 5);
        let merged = MetricsRegistry::new();
        for k in [1, 5] {
            let job = MetricsRegistry::new();
            fill(&job, k);
            merged.absorb(job.take_values());
            assert_eq!(job.snapshot_json(), MetricsRegistry::new().snapshot_json());
        }
        assert_eq!(merged.snapshot_json(), shared.snapshot_json());
    }
}
