//! The benchmark's metrics: their names, units and the layer each
//! per-layer metric belongs to, and how the parent folds its rounds into
//! them.

use crate::check;
use crate::extras::{Replay, TraceCounts, TRACE_CATEGORIES, TRACE_SPANS};
use crate::probe::Probe;
use crate::workloads::{Size, Spec, Workload};
use serde_json::{Map, Value};
use std::collections::BTreeMap;

const ALL: [Workload; 3] = [Workload::SeqStream, Workload::Rand4k, Workload::CaseStudy];

/// End-to-end metrics: `(name, unit)`. All host-side, all lower-better.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("events", "count"),
];

/// A per-layer metric: its layer (the crate) and the end-to-end metric
/// and workload it should move.
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub layer: &'static str,
    pub moves: String,
}

fn def(name: impl Into<String>, unit: &'static str, layer: &'static str, moves: &str) -> Def {
    Def {
        name: name.into(),
        unit,
        layer,
        moves: moves.into(),
    }
}

/// The crate whose host time a configuration's own wall time reports.
fn wall_layer(spec: &Spec) -> &'static str {
    match spec {
        Spec::Seq(..) | Spec::RandStreamer(..) => "core",
        Spec::RandSpdk(..) => "spdk",
        Spec::CaseStreamer(..) | Spec::CaseHost(..) => "apps",
    }
}

/// Every per-layer metric, in output order. A traced run prints all of
/// them; those of layers its workload does not exercise read 0.
pub fn per_layer_defs() -> Vec<Def> {
    let mut d = Vec::new();
    let configs: Vec<(Workload, Spec)> = ALL
        .iter()
        .flat_map(|&w| w.configs().into_iter().map(move |s| (w, s)))
        .collect();
    for (w, s) in &configs {
        let moves = format!("events on {}", w.name());
        d.push(def(
            format!("sim.events.{}", s.name()),
            "count",
            "snacc-sim",
            &moves,
        ));
    }
    d.push(def(
        "sim.host_ns_per_event",
        "ns",
        "snacc-sim",
        "wall_s on rand_4k, little on seq_stream",
    ));
    for q in ["p50", "p99", "max"] {
        let moves = "wall_s on rand_4k (tail: rand-w coalescing)";
        d.push(def(format!("sim.step_us_{q}"), "us", "snacc-sim", moves));
    }
    let rss = "peak_rss_mb on rand_4k rand-w and case_study, flat on seq_stream";
    d.push(def("mem.nand_segments", "count", "snacc-mem", rss));
    d.push(def("mem.nand_resident_mb", "MB", "snacc-mem", rss));
    d.push(def("mem.host_segments", "count", "snacc-mem", rss));
    d.push(def("mem.host_resident_mb", "MB", "snacc-mem", rss));
    for q in ["write_ns_p50", "write_ns_p99", "read_ns_p50"] {
        d.push(def(
            format!("mem.replay_{q}"),
            "ns",
            "snacc-mem",
            "wall_s on rand_4k",
        ));
    }
    for (w, s) in &configs {
        let moves = format!("peak_rss_mb on {} ({})", w.name(), s.name());
        d.push(def(
            format!("mem.rss_retained_mb.{}", s.name()),
            "MB",
            "snacc-mem",
            &moves,
        ));
    }
    d.push(def("nvme.cmds", "count", "snacc-nvme", "events"));
    d.push(def("nvme.bytes", "B", "snacc-nvme", "events"));
    d.push(def(
        "nvme.errors",
        "count",
        "snacc-nvme",
        "events (must stay 0)",
    ));
    d.push(def("nvme.prewarm_s", "s", "snacc-nvme", "setup_s"));
    let pcie = "events/wall_s on case_study host staging and seq_stream host_w";
    d.push(def("pcie.tlps", "count", "snacc-pcie", pcie));
    d.push(def("pcie.payload_bytes", "B", "snacc-pcie", pcie));
    d.push(def(
        "pcie.bytes_per_stored_byte",
        "ratio",
        "snacc-pcie",
        pcie,
    ));
    let core = "events and wall_s on seq_stream and rand_4k";
    d.push(def("core.cmds_issued", "count", "snacc-core", core));
    d.push(def("core.doorbells", "count", "snacc-core", core));
    d.push(def("core.cqes_per_cq_event", "ratio", "snacc-core", core));
    d.push(def(
        "core.cmd_latency_us_p50",
        "us",
        "snacc-core",
        "simulated-time pin: must not move",
    ));
    d.push(def(
        "core.cmd_latency_us_p99",
        "us",
        "snacc-core",
        "simulated-time pin: must not move",
    ));
    let fpga = "wall_s on rand_4k";
    d.push(def("fpga.push_calls", "count", "snacc-fpga", fpga));
    d.push(def("fpga.push_refused_share", "ratio", "snacc-fpga", fpga));
    d.push(def("fpga.push_ns_p50", "ns", "snacc-fpga", fpga));
    d.push(def("fpga.pop_ns_p50", "ns", "snacc-fpga", fpga));
    let net = "events/wall_s on case_study";
    d.push(def("net.tx_frames", "count", "snacc-net", net));
    d.push(def("net.pauses_sent", "count", "snacc-net", net));
    d.push(def(
        "net.rx_drops",
        "count",
        "snacc-net",
        "check: must stay 0",
    ));
    let spdk = "wall_s on rand_4k SPDK configs";
    d.push(def("spdk.completed", "count", "snacc-spdk", spdk));
    d.push(def(
        "spdk.cpu_busy_share",
        "ratio",
        "snacc-spdk",
        "simulated-time pin: must not move",
    ));
    d.push(def("spdk.submit_ns_p50", "ns", "snacc-spdk", spdk));
    for (w, s) in &configs {
        let layer = wall_layer(s);
        let moves = format!("wall_s on {}", w.name());
        let l = match layer {
            "core" => "snacc-core",
            "spdk" => "snacc-spdk",
            _ => "snacc-apps",
        };
        d.push(def(format!("{layer}.wall_s.{}", s.name()), "s", l, &moves));
    }
    d.push(def(
        "apps.pe_replay_s",
        "s",
        "snacc-apps",
        "fixed share of wall_s on case_study",
    ));
    d.push(def(
        "apps.classified",
        "count",
        "snacc-apps",
        "check: must not move",
    ));
    d.push(def(
        "apps.correct",
        "count",
        "snacc-apps",
        "check: must not move",
    ));
    d.push(def(
        "trace.overhead",
        "ratio",
        "snacc-trace",
        "none: cost of the traced run",
    ));
    for c in TRACE_CATEGORIES {
        let pin = "simulated-time pin: must not move";
        d.push(def(format!("trace.spans.{c}"), "count", "snacc-trace", pin));
    }
    for c in TRACE_SPANS {
        let pin = "simulated-time pin: must not move";
        d.push(def(
            format!("trace.busy_sim_ms.{c}"),
            "ms",
            "snacc-trace",
            pin,
        ));
    }
    d
}

pub fn probe_json(p: &Probe) -> Value {
    let mut m = Map::new();
    m.insert("steps", Value::from(p.step.len()));
    m.insert("step_us_p50", Value::from(p.step.quantile_ns(0.5) / 1e3));
    m.insert("step_us_p99", Value::from(p.step.quantile_ns(0.99) / 1e3));
    m.insert("step_us_max", Value::from(p.step.max_ns() / 1e3));
    m.insert("push_calls", Value::from(p.push_calls));
    m.insert("push_refused", Value::from(p.push_refused));
    m.insert("push_ns_p50", Value::from(p.push.quantile_ns(0.5)));
    m.insert("pop_ns_p50", Value::from(p.pop.quantile_ns(0.5)));
    m.insert(
        "submit_ns_p50",
        Value::from(p.submit.borrow().quantile_ns(0.5)),
    );
    Value::Object(m)
}

pub fn extras_json(w: Workload, seed: u64, t: &TraceCounts, r: &Replay) -> Value {
    let mut m = Map::new();
    for c in TRACE_CATEGORIES {
        let n = t.spans.get(c).copied().unwrap_or(0);
        m.insert(format!("trace.spans.{c}"), Value::from(n));
    }
    for c in TRACE_SPANS {
        let ms = t.busy_ms.get(c).copied().unwrap_or(0.0);
        m.insert(format!("trace.busy_sim_ms.{c}"), Value::from(ms));
    }
    m.insert(
        "mem.replay_write_ns_p50",
        Value::from(r.write.quantile_ns(0.5)),
    );
    m.insert(
        "mem.replay_write_ns_p99",
        Value::from(r.write.quantile_ns(0.99)),
    );
    m.insert(
        "mem.replay_read_ns_p50",
        Value::from(r.read.quantile_ns(0.5)),
    );
    let pe = if w == Workload::CaseStudy {
        crate::workloads::Inputs::new(w, seed, Size::sample()).pe_replay_s
    } else {
        0.0
    };
    m.insert("apps.pe_replay_s", Value::from(pe));
    Value::Object(m)
}

/// One round's child output.
pub struct Round {
    pub traced: bool,
    pub v: Value,
}

fn num(v: &Value, k: &str) -> f64 {
    v.get(k).and_then(Value::as_f64).unwrap_or(0.0)
}

/// A configuration's host time `k`, calibrated by its `speed` factor.
fn secs(v: &Value, k: &str) -> f64 {
    num(v, k) * num(v, "speed")
}

/// Median and the quartiles of Python's `statistics.quantiles(n=4)`
/// (the default "exclusive" method); `(0, 0, 0)` when empty.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let med = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    if n < 2 {
        return (s[0], med, s[0]);
    }
    let q = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (q(0.25), med, q(0.75))
}

/// A named series of per-configuration values.
type Series = (&'static str, fn(&Value) -> f64);

fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// One configuration folded over the rounds.
struct Config {
    spec: Spec,
    /// Its entry in every round, in round order.
    per_round: Vec<Value>,
    errors: Vec<String>,
    ops: u64,
    failed: u64,
}

pub struct Report {
    workload: Workload,
    configs: Vec<Config>,
    untraced: Vec<usize>,
    traced: Vec<usize>,
    rounds: Vec<Value>,
    extras: Option<Value>,
    /// Trace-sample configurations (counted as attempted requests).
    sample: Vec<Value>,
    child_failures: usize,
}

impl Report {
    pub fn build(
        w: Workload,
        seed: u64,
        rounds: &[Round],
        extras: Option<&Value>,
        child_failures: usize,
    ) -> Report {
        let entries = |v: &Value| {
            v.get("configs")
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default()
        };
        let mut configs: Vec<Config> = w
            .configs()
            .into_iter()
            .enumerate()
            .map(|(i, spec)| {
                let per_round: Vec<Value> = rounds
                    .iter()
                    .filter_map(|r| entries(&r.v).get(i).cloned())
                    .collect();
                Config {
                    spec,
                    per_round,
                    errors: Vec::new(),
                    ops: 0,
                    failed: 0,
                }
            })
            .collect();
        for c in &mut configs {
            let name = c.spec.name();
            for (k, e) in c.per_round.iter().enumerate() {
                for err in e
                    .get("errors")
                    .and_then(Value::as_array)
                    .into_iter()
                    .flatten()
                {
                    c.errors
                        .push(format!("round {k}: {}", err.as_str().unwrap_or("?")));
                }
            }
            let sigs: Vec<_> = c
                .per_round
                .iter()
                .map(|e| e.get("sig").and_then(check::from_json).unwrap_or_default())
                .collect();
            if let Some(first) = sigs.first() {
                // Every round simulates the same inputs: its outputs must
                // repeat exactly.
                for (k, s) in sigs.iter().enumerate().skip(1) {
                    for d in check::compare(s, first) {
                        c.errors.push(format!("round {k} not reproducible: {d}"));
                    }
                }
                if let Some(want) = check::reference(w.name(), seed, name) {
                    for d in check::compare(first, &want) {
                        c.errors.push(format!("seed {seed}: {d}"));
                    }
                }
            }
            let ops_per_round = Size::full().ops(w);
            c.ops = ops_per_round * rounds.len() as u64;
            c.failed = if c.errors.is_empty() {
                c.per_round.iter().map(|e| num(e, "failed") as u64).sum()
            } else {
                c.ops
            };
        }
        let sample = extras.map(entries).unwrap_or_default();
        Report {
            workload: w,
            configs,
            untraced: (0..rounds.len()).filter(|&i| !rounds[i].traced).collect(),
            traced: (0..rounds.len()).filter(|&i| rounds[i].traced).collect(),
            rounds: rounds.iter().map(|r| r.v.clone()).collect(),
            extras: extras.and_then(|e| e.get("extras").cloned()),
            sample,
            child_failures,
        }
    }

    /// Requests of child processes that died: attempted, and failed.
    fn lost(&self) -> u64 {
        self.child_failures as u64 * self.configs.len() as u64 * Size::full().ops(self.workload)
    }

    fn attempted(&self) -> u64 {
        let rounds: u64 = self.configs.iter().map(|c| c.ops).sum();
        let sample: u64 = self.sample.iter().map(|e| num(e, "ops") as u64).sum();
        rounds + sample + self.lost()
    }

    fn failed(&self) -> u64 {
        let rounds: u64 = self.configs.iter().map(|c| c.failed).sum();
        let sample: u64 = self.sample.iter().map(|e| num(e, "failed") as u64).sum();
        rounds + sample + self.lost()
    }

    pub fn correct(&self) -> bool {
        let sample_errors = self.sample.iter().any(|e| {
            e.get("errors")
                .and_then(Value::as_array)
                .is_some_and(|a| !a.is_empty())
        });
        self.child_failures == 0
            && !self.rounds.is_empty()
            && self.failed() == 0
            && self.configs.iter().all(|c| c.errors.is_empty())
            && !sample_errors
    }

    /// Per-round sums over the configurations of `f`, for the rounds `idx`.
    fn round_sums(&self, idx: &[usize], f: impl Fn(&Value) -> f64) -> Vec<f64> {
        idx.iter()
            .map(|&r| {
                self.configs
                    .iter()
                    .filter_map(|c| c.per_round.get(r))
                    .map(&f)
                    .sum()
            })
            .collect()
    }

    /// `f` of one configuration over the rounds `idx`.
    fn config_values(&self, c: &Config, idx: &[usize], f: impl Fn(&Value) -> f64) -> Vec<f64> {
        idx.iter()
            .filter_map(|&r| c.per_round.get(r))
            .map(f)
            .collect()
    }

    fn events(&self) -> f64 {
        self.configs
            .iter()
            .filter_map(|c| c.per_round.first())
            .map(|e| e.get("sig").map_or(0.0, |s| num(s, "events")))
            .sum()
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let peaks: Vec<f64> = self
            .untraced
            .iter()
            .map(|&r| num(&self.rounds[r], "peak_rss_mb"))
            .collect();
        BTreeMap::from([
            (
                "wall_s",
                median(&self.round_sums(&self.untraced, |e| secs(e, "wall_s"))),
            ),
            (
                "setup_s",
                median(&self.round_sums(&self.untraced, |e| secs(e, "setup_s"))),
            ),
            ("peak_rss_mb", median(&peaks)),
            ("events", self.events()),
        ])
    }

    fn per_layer(&self) -> BTreeMap<String, f64> {
        let mut v: BTreeMap<String, f64> = BTreeMap::new();
        let first: Vec<&Value> = self
            .configs
            .iter()
            .filter_map(|c| c.per_round.first())
            .collect();
        let sum = |k: &str| first.iter().map(|e| num(e, k)).sum::<f64>();
        let sig_sum = |k: &str| {
            first
                .iter()
                .map(|e| e.get("sig").map_or(0.0, |s| num(s, k)))
                .sum::<f64>()
        };
        let max = |k: &str| first.iter().map(|e| num(e, k)).fold(0.0, f64::max);
        let wall = median(&self.round_sums(&self.untraced, |e| secs(e, "wall_s")));
        let events = self.events();

        for c in &self.configs {
            let name = c.spec.name();
            let e = c.per_round.first();
            v.insert(
                format!("sim.events.{name}"),
                e.and_then(|e| e.get("sig"))
                    .map_or(0.0, |s| num(s, "events")),
            );
            let retained =
                median(&self.config_values(c, &self.untraced, |e| num(e, "rss_retained_mb")));
            v.insert(format!("mem.rss_retained_mb.{name}"), retained);
            let w = median(&self.config_values(c, &self.untraced, |e| secs(e, "wall_s")));
            v.insert(format!("{}.wall_s.{name}", wall_layer(&c.spec)), w);
        }
        v.insert(
            "sim.host_ns_per_event".into(),
            if events > 0.0 {
                wall / events * 1e9
            } else {
                0.0
            },
        );

        let probes: Vec<&Value> = self
            .traced
            .iter()
            .filter_map(|&r| self.rounds[r].get("probe"))
            .collect();
        let probe_median = |k: &str| median(&probes.iter().map(|p| num(p, k)).collect::<Vec<_>>());
        for q in ["p50", "p99", "max"] {
            v.insert(
                format!("sim.step_us_{q}"),
                probe_median(&format!("step_us_{q}")),
            );
        }
        v.insert("fpga.push_ns_p50".into(), probe_median("push_ns_p50"));
        v.insert("fpga.pop_ns_p50".into(), probe_median("pop_ns_p50"));
        v.insert("spdk.submit_ns_p50".into(), probe_median("submit_ns_p50"));
        if let Some(p) = probes.first() {
            let calls = num(p, "push_calls");
            v.insert("fpga.push_calls".into(), calls);
            let refused = if calls > 0.0 {
                num(p, "push_refused") / calls
            } else {
                0.0
            };
            v.insert("fpga.push_refused_share".into(), refused);
        }

        let page_mb = 4096.0 / 1e6;
        v.insert("mem.nand_segments".into(), max("nand_segments"));
        v.insert(
            "mem.nand_resident_mb".into(),
            max("nand_resident_pages") * page_mb,
        );
        v.insert("mem.host_segments".into(), max("host_segments"));
        v.insert(
            "mem.host_resident_mb".into(),
            max("host_resident_pages") * page_mb,
        );

        v.insert("nvme.cmds".into(), sum("nvme_cmds"));
        v.insert("nvme.bytes".into(), sig_sum("nvme_bytes"));
        v.insert("nvme.errors".into(), sum("nvme_errors"));
        v.insert(
            "nvme.prewarm_s".into(),
            median(&self.round_sums(&self.untraced, |e| secs(e, "prewarm_s"))),
        );

        let (pcie, stored) = (sig_sum("pcie_bytes"), sum("stored_bytes"));
        v.insert("pcie.tlps".into(), sum("pcie_tlps"));
        v.insert("pcie.payload_bytes".into(), pcie);
        v.insert(
            "pcie.bytes_per_stored_byte".into(),
            if stored > 0.0 { pcie / stored } else { 0.0 },
        );

        let (cqes, cq_events) = (sum("core_cqes"), sum("core_cq_events"));
        v.insert("core.cmds_issued".into(), sum("core_cmds"));
        v.insert("core.doorbells".into(), sum("core_doorbells"));
        v.insert(
            "core.cqes_per_cq_event".into(),
            if cq_events > 0.0 {
                cqes / cq_events
            } else {
                0.0
            },
        );
        v.insert("core.cmd_latency_us_p50".into(), max("core_lat_p50_us"));
        v.insert("core.cmd_latency_us_p99".into(), max("core_lat_p99_us"));

        v.insert("net.tx_frames".into(), sum("net_tx_frames"));
        v.insert("net.pauses_sent".into(), sum("net_pauses"));
        v.insert("net.rx_drops".into(), sum("net_rx_drops"));

        v.insert("spdk.completed".into(), sum("spdk_completed"));
        let busy: Vec<f64> = first
            .iter()
            .filter_map(|e| e.get("spdk_busy_share")?.as_f64())
            .collect();
        let mean_busy = if busy.is_empty() {
            0.0
        } else {
            busy.iter().sum::<f64>() / busy.len() as f64
        };
        v.insert("spdk.cpu_busy_share".into(), mean_busy);

        v.insert("apps.classified".into(), sig_sum("classified"));
        v.insert("apps.correct".into(), sig_sum("correct"));

        let traced_wall = median(&self.round_sums(&self.traced, |e| secs(e, "wall_s")));
        v.insert(
            "trace.overhead".into(),
            if wall > 0.0 { traced_wall / wall } else { 0.0 },
        );
        if let Some(Value::Object(m)) = &self.extras {
            for (k, x) in m.iter() {
                v.insert(k.clone(), x.as_f64().unwrap_or(0.0));
            }
        }
        v
    }

    /// The last stdout line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result(&self, traced: bool) -> Value {
        let mut metrics = Map::new();
        let entry = |value: f64, unit: &str| {
            let mut m = Map::new();
            m.insert("value", Value::from(value));
            m.insert("unit", Value::from(unit));
            Value::Object(m)
        };
        if traced {
            let values = self.per_layer();
            for d in per_layer_defs() {
                let x = values.get(&d.name).copied().unwrap_or(0.0);
                metrics.insert(d.name.clone(), entry(x, d.unit));
            }
        } else {
            let values = self.end_to_end();
            for (name, unit) in END_TO_END {
                metrics.insert(name, entry(values[name], unit));
            }
        }
        let mut out = Map::new();
        out.insert("correct", Value::from(self.correct()));
        out.insert("attempted", Value::from(self.attempted()));
        out.insert("failed", Value::from(self.failed()));
        out.insert("metrics", Value::Object(metrics));
        Value::Object(out)
    }

    /// Everything behind the result: per-configuration medians and
    /// quartiles, signatures in the `references.json` format, errors, and
    /// the layer map of the per-layer metrics.
    pub fn detail(&self) -> Map {
        let mut configs = Vec::new();
        let mut sigs = Map::new();
        for c in &self.configs {
            let mut m = Map::new();
            m.insert("name", Value::from(c.spec.name()));
            m.insert("ops", Value::from(c.ops));
            m.insert("failed", Value::from(c.failed));
            let series: [Series; 4] = [
                ("wall_s", |e| secs(e, "wall_s")),
                ("wall_s_uncalibrated", |e| num(e, "wall_s")),
                ("setup_s", |e| secs(e, "setup_s")),
                ("rss_retained_mb", |e| num(e, "rss_retained_mb")),
            ];
            for (key, f) in series {
                let (q1, med, q3) = quartiles(&self.config_values(c, &self.untraced, f));
                m.insert(
                    key,
                    Value::Array(vec![Value::from(q1), Value::from(med), Value::from(q3)]),
                );
            }
            if let Some(sig) = c.per_round.first().and_then(|e| e.get("sig")) {
                m.insert("gbps_sim", Value::from(num(sig, "gbps")));
                m.insert("events", Value::from(num(sig, "events") as u64));
                sigs.insert(c.spec.name(), sig.clone());
            }
            let errors = c.errors.iter().map(|e| Value::from(e.as_str())).collect();
            m.insert("errors", Value::Array(errors));
            configs.push(Value::Object(m));
        }
        let mut d = Map::new();
        let sums: [Series; 2] = [
            ("wall_s_quartiles", |e| secs(e, "wall_s")),
            ("wall_s_uncalibrated_quartiles", |e| num(e, "wall_s")),
        ];
        for (key, f) in sums {
            let (q1, med, q3) = quartiles(&self.round_sums(&self.untraced, f));
            d.insert(
                key,
                Value::Array(vec![Value::from(q1), Value::from(med), Value::from(q3)]),
            );
        }
        d.insert("configs", Value::Array(configs));
        d.insert("signatures", Value::Object(sigs));
        if !self.traced.is_empty() {
            let mut layers = Map::new();
            for def in per_layer_defs() {
                let mut m = Map::new();
                m.insert("layer", Value::from(def.layer));
                m.insert("moves", Value::from(def.moves.as_str()));
                layers.insert(def.name.clone(), Value::Object(m));
            }
            d.insert("layer_map", Value::Object(layers));
        }
        d
    }

    /// A human-readable summary (not parsed by anything).
    pub fn print_table(&self) {
        println!(
            "{:<10} {:>9} {:>10} {:>10} {:>10} {:>9}  errors",
            "config", "wall_s", "setup_ms", "events", "sim_GB/s", "kept_MB"
        );
        for c in &self.configs {
            let wall = median(&self.config_values(c, &self.untraced, |e| secs(e, "wall_s")));
            let setup =
                median(&self.config_values(c, &self.untraced, |e| secs(e, "setup_s"))) * 1e3;
            let kept =
                median(&self.config_values(c, &self.untraced, |e| num(e, "rss_retained_mb")));
            let sig = c.per_round.first().and_then(|e| e.get("sig"));
            let (events, gbps) = sig.map_or((0.0, 0.0), |s| (num(s, "events"), num(s, "gbps")));
            println!(
                "{:<10} {wall:>9.3} {setup:>10.3} {events:>10} {gbps:>10.3} {kept:>9.1}  {}",
                c.spec.name(),
                c.errors.len()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn metric_names_are_valid_and_unique() {
        let defs = per_layer_defs();
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        let mut seen = std::collections::BTreeSet::new();
        let names = defs
            .iter()
            .map(|d| d.name.as_str())
            .chain(END_TO_END.iter().map(|e| e.0));
        for n in names {
            assert!(
                n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric(),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(seen.insert(n.to_string()), "duplicate {n}");
        }
    }

    #[test]
    fn benchmark_json_lists_these_metrics() {
        let doc = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |k: &str| -> Vec<String> {
            doc.get(k)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        let defs: Vec<String> = per_layer_defs().into_iter().map(|d| d.name).collect();
        assert_eq!(names("per_layer"), defs);
        let e2e: Vec<String> = END_TO_END.iter().map(|e| e.0.to_string()).collect();
        assert_eq!(names("end_to_end"), e2e);
        let workloads: Vec<String> = ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names("workloads"), workloads);
    }
}
