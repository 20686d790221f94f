//! `--trace` / `--metrics-json` / `--perf-json` support shared by the
//! evaluation binaries.
//!
//! [`Telemetry::from_args`] scans the process arguments; `--trace <path>`
//! installs a fresh [`Tracer`] so every model-crate instrumentation site
//! starts recording, `--metrics-json <path>` snapshots the main thread's
//! metrics registry, which holds the whole run, and `--perf-json <path>`
//! records *wall clock* performance of the process itself — elapsed
//! seconds, simulation events executed, peak RSS. [`Telemetry::finish`]
//! writes the exports: the trace as Chrome `trace_event` JSON (open it in
//! <https://ui.perfetto.dev> or `chrome://tracing`), the metrics as a
//! key-sorted JSON snapshot, and the perf record merged into the given
//! JSON file keyed by binary name (so several figure binaries can append
//! to one `BENCH_*.json`).
//!
//! `--faults <plan.toml>` loads a [`FaultPlan`] (see `snacc-faults` and
//! the shipped `plans/*.toml`); binaries that support fault campaigns
//! take it with [`Telemetry::fault_plan`] and put it into their
//! systems' configuration. A plan that the binary never takes, like any
//! argument not listed here, is an error.
//!
//! `--jobs <N>` sizes the sweep worker pool ([`Telemetry::jobs`]): sweep
//! binaries fan their independent simulation jobs across `N` threads with
//! byte-identical output (see [`crate::sweep`]). Defaults to 1. Each job
//! records in its own registry and tracer, merged into the main thread's
//! in job order, so the exports and the `--perf-json` event count do not
//! depend on `N` either. Like a fault plan, a `--jobs` that the binary
//! never asks for is an error. A flag given twice is an error too.

use serde_json::{Map, Value};
use snacc_faults::FaultPlan;
use snacc_trace::Tracer;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Parsed telemetry flags; holds the export paths while the thread-local
/// tracer/registry record the run.
pub struct Telemetry {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    perf_path: Option<PathBuf>,
    faults: Option<(PathBuf, FaultPlan)>,
    /// Whether [`Telemetry::fault_plan`] handed the plan out.
    faults_taken: Cell<bool>,
    jobs: Option<usize>,
    /// Whether [`Telemetry::jobs`] was asked.
    jobs_taken: Cell<bool>,
    started: Instant,
}

#[derive(Default)]
struct Flags {
    trace_path: Option<PathBuf>,
    metrics_path: Option<PathBuf>,
    perf_path: Option<PathBuf>,
    faults: Option<(PathBuf, FaultPlan)>,
    jobs: Option<usize>,
}

/// Parse the telemetry flags (`--flag value` or `--flag=value`). Any
/// other argument, a flag given twice or without a value, an output path
/// whose directory does not exist, a `--jobs` that is not a positive
/// integer, or a `--faults` plan that cannot be loaded is an error.
fn parse(mut args: impl Iterator<Item = String>) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut seen = Vec::new();
    while let Some(a) = args.next() {
        let (flag, inline) = match a.split_once('=') {
            Some((flag, v)) => (flag.to_string(), Some(v.to_string())),
            None => (a, None),
        };
        let known = [
            "--trace",
            "--metrics-json",
            "--perf-json",
            "--faults",
            "--jobs",
        ];
        if !known.contains(&flag.as_str()) {
            return Err(format!(
                "unknown argument `{flag}` (expected {})",
                known.join(", ")
            ));
        }
        if seen.contains(&flag) {
            return Err(format!("{flag} given twice"));
        }
        let v = inline
            .or_else(|| args.next())
            .ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--trace" => f.trace_path = Some(output_path(&flag, v)?),
            "--metrics-json" => f.metrics_path = Some(output_path(&flag, v)?),
            "--perf-json" => f.perf_path = Some(output_path(&flag, v)?),
            "--faults" => {
                let plan = FaultPlan::load(&v).map_err(|e| format!("--faults {e}"))?;
                f.faults = Some((v.into(), plan));
            }
            _ => {
                let n = v.parse().ok().filter(|&n| n > 0);
                let n = n.ok_or_else(|| format!("--jobs needs a positive integer, got `{v}`"))?;
                f.jobs = Some(n);
            }
        }
        seen.push(flag);
    }
    Ok(f)
}

/// The export path given to `flag`, refused up front when its directory
/// does not exist (the write would only fail after the whole run).
fn output_path(flag: &str, v: String) -> Result<PathBuf, String> {
    let path = PathBuf::from(v);
    match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() && !dir.is_dir() => Err(format!(
            "{flag} {}: directory {} does not exist",
            path.display(),
            dir.display()
        )),
        _ => Ok(path),
    }
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` `VmHWM` (0 where unavailable).
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
    }
    0
}

/// Merge `{key: record}` into the JSON object file at `path`, keeping the
/// other entries and their order (each figure binary writes its own
/// entry; re-running one replaces it in place). A missing or empty file
/// starts a new object; a file that is not a JSON object is an error, not
/// overwritten.
fn merge_json_entry(path: &Path, key: &str, record: Value) -> Result<(), String> {
    let mut doc = match std::fs::read_to_string(path) {
        Ok(text) if text.trim().is_empty() => Map::new(),
        Ok(text) => match serde_json::from_str(&text) {
            Ok(Value::Object(doc)) => doc,
            Ok(_) => return Err("not a JSON object".into()),
            Err(e) => return Err(e.to_string()),
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Map::new(),
        Err(e) => return Err(e.to_string()),
    };
    doc.insert(key, record);
    let text = serde_json::to_string_pretty(&Value::Object(doc)) + "\n";
    std::fs::write(path, text).map_err(|e| e.to_string())
}

impl Telemetry {
    /// Parse `--trace <path>` / `--metrics-json <path>` / `--perf-json
    /// <path>` / `--faults <plan.toml>` / `--jobs <N>` (also the
    /// `--flag=value` spelling) from the process arguments and install the
    /// corresponding sinks. Any other argument, or bad input, prints
    /// `error: …` and exits with status 2.
    pub fn from_args() -> Telemetry {
        let f = parse(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        });
        if f.trace_path.is_some() {
            snacc_trace::install(Tracer::new());
        }
        Telemetry {
            trace_path: f.trace_path,
            metrics_path: f.metrics_path,
            perf_path: f.perf_path,
            faults: f.faults,
            faults_taken: Cell::new(false),
            jobs: f.jobs,
            jobs_taken: Cell::new(false),
            started: Instant::now(),
        }
    }

    /// The fault campaign requested with `--faults <plan.toml>`, if any.
    /// The first call announces the campaign on stderr; a plan that is
    /// never taken fails [`Telemetry::finish`].
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        let (path, plan) = self.faults.as_ref()?;
        if !self.faults_taken.replace(true) {
            eprintln!(
                "(faults: campaign from {}, seed {})",
                path.display(),
                plan.seed
            );
        }
        Some(plan)
    }

    /// Worker count for the sweep pool (`--jobs N`, default 1). The sweep
    /// output and telemetry are byte-identical at any worker count (see
    /// [`crate::sweep`]). A `--jobs` that is never asked for fails
    /// [`Telemetry::finish`].
    pub fn jobs(&self) -> usize {
        self.jobs_taken.set(true);
        self.jobs.unwrap_or(1)
    }

    /// Write the requested export files and stop recording. A file that
    /// cannot be written, a `--faults` plan this binary never took, or a
    /// `--jobs` given to a binary that runs no sweep, prints `error: …`
    /// and exits with status 2.
    pub fn finish(self) {
        if let Err(e) = self.write_exports() {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    }

    fn write_exports(self) -> Result<(), String> {
        if let (Some((path, _)), false) = (&self.faults, self.faults_taken.get()) {
            return Err(format!(
                "--faults {}: this binary runs no fault campaign",
                path.display()
            ));
        }
        if self.jobs.is_some() && !self.jobs_taken.get() {
            return Err("--jobs: this binary runs no sweep".into());
        }
        let failed = |flag: &str, p: &PathBuf, e: &dyn std::fmt::Display| {
            format!("{flag} {}: {e}", p.display())
        };
        if let Some(p) = &self.trace_path {
            let tracer = snacc_trace::uninstall().expect("tracer was installed");
            std::fs::write(p, snacc_trace::export_chrome_trace(&tracer))
                .map_err(|e| failed("--trace", p, &e))?;
            eprintln!(
                "(trace: {} events -> {}; open in https://ui.perfetto.dev)",
                tracer.events_recorded(),
                p.display()
            );
        }
        if let Some(p) = &self.metrics_path {
            std::fs::write(p, snacc_trace::registry().snapshot_json())
                .map_err(|e| failed("--metrics-json", p, &e))?;
            eprintln!("(metrics -> {})", p.display());
        }
        if let Some(p) = &self.perf_path {
            let wall = self.started.elapsed().as_secs_f64();
            let events = snacc_sim::engine::lifetime_events_executed();
            let rss = peak_rss_kb();
            let bin = std::env::args()
                .next()
                .map(|a| {
                    PathBuf::from(a)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "unknown".into())
                })
                .unwrap_or_else(|| "unknown".into());
            let mut record = Map::new();
            record.insert("wall_seconds", Value::from((wall * 1e3).round() / 1e3));
            record.insert("events_executed", Value::from(events));
            record.insert("peak_rss_kb", Value::from(rss));
            merge_json_entry(p, &bin, Value::Object(record))
                .map_err(|e| failed("--perf-json", p, &e))?;
            eprintln!(
                "(perf: {wall:.3} s wall, {events} events, {rss} KiB peak RSS -> {})",
                p.display()
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> impl Iterator<Item = String> {
        v.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    fn ok(v: &[&str]) -> Flags {
        match parse(strings(v)) {
            Ok(f) => f,
            Err(e) => panic!("{v:?} rejected: {e}"),
        }
    }

    fn err(v: &[&str]) -> String {
        match parse(strings(v)) {
            Ok(_) => panic!("{v:?} accepted"),
            Err(e) => e,
        }
    }

    const PLAN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/flaky_ssd.toml");

    #[test]
    fn parses_both_flag_spellings() {
        let f = ok(&["--trace", "a.json", "--metrics-json=m.json"]);
        assert_eq!(f.trace_path, Some(PathBuf::from("a.json")));
        assert_eq!(f.metrics_path, Some(PathBuf::from("m.json")));
        let f = ok(&["--trace=b.json", "--metrics-json", "n.json"]);
        assert_eq!(f.trace_path, Some(PathBuf::from("b.json")));
        assert_eq!(f.metrics_path, Some(PathBuf::from("n.json")));
        let f = ok(&["--perf-json", "p.json"]);
        assert_eq!(f.perf_path, Some(PathBuf::from("p.json")));
        let f = ok(&["--perf-json=q.json"]);
        assert_eq!(f.perf_path, Some(PathBuf::from("q.json")));
        let f = ok(&["--faults", PLAN]);
        assert_eq!(f.faults.map(|(p, _)| p), Some(PathBuf::from(PLAN)));
        let f = ok(&[&format!("--faults={PLAN}")]);
        assert_eq!(f.faults.map(|(p, _)| p), Some(PathBuf::from(PLAN)));
        let f = ok(&["--jobs", "8"]);
        assert_eq!(f.jobs, Some(8));
        let f = ok(&["--jobs=4"]);
        assert_eq!(f.jobs, Some(4));
    }

    #[test]
    fn jobs_defaults_to_one() {
        assert_eq!(ok(&[]).jobs, None);
        assert_eq!(telemetry().jobs(), 1);
    }

    #[test]
    fn unknown_argument_is_an_error() {
        // A typo must not run a clean sweep in place of the campaign.
        let e = err(&["--fault", PLAN]);
        assert!(e.starts_with("unknown argument `--fault`"), "{e}");
        assert!(err(&["--fault=x.toml"]).starts_with("unknown argument `--fault`"));
        assert!(err(&["positional"]).starts_with("unknown argument `positional`"));
    }

    /// A telemetry with no flags set.
    fn telemetry() -> Telemetry {
        Telemetry {
            trace_path: None,
            metrics_path: None,
            perf_path: None,
            faults: None,
            faults_taken: Cell::new(false),
            jobs: None,
            jobs_taken: Cell::new(false),
            started: Instant::now(),
        }
    }

    #[test]
    fn fault_plan_never_taken_is_an_error() {
        let plan = ok(&["--faults", PLAN]).faults;
        let t = Telemetry {
            faults: plan.clone(),
            ..telemetry()
        };
        let e = t.write_exports().expect_err("an unused plan must fail");
        assert_eq!(
            e,
            format!("--faults {PLAN}: this binary runs no fault campaign")
        );
        let t = Telemetry {
            faults: plan,
            ..telemetry()
        };
        assert_eq!(t.fault_plan().map(|p| p.seed), Some(42));
        assert_eq!(t.write_exports(), Ok(()));
    }

    #[test]
    fn jobs_never_asked_for_is_an_error() {
        let jobs = ok(&["--jobs", "2"]).jobs;
        let t = Telemetry {
            jobs,
            ..telemetry()
        };
        let e = t.write_exports().expect_err("an unused --jobs must fail");
        assert_eq!(e, "--jobs: this binary runs no sweep");
        let t = Telemetry {
            jobs,
            ..telemetry()
        };
        assert_eq!(t.jobs(), 2);
        assert_eq!(t.write_exports(), Ok(()));
    }

    #[test]
    fn repeated_flag_is_an_error() {
        // The first value must not be dropped silently.
        let e = err(&["--metrics-json", "a.json", "--metrics-json", "b.json"]);
        assert_eq!(e, "--metrics-json given twice");
        assert_eq!(err(&["--jobs", "2", "--jobs=3"]), "--jobs given twice");
        assert_eq!(
            err(&["--trace=a", "--jobs", "2", "--trace=a"]),
            "--trace given twice"
        );
    }

    #[test]
    fn non_numeric_jobs_is_an_error() {
        assert!(err(&["--jobs", "x"]).contains("`x`"));
        assert!(err(&["--jobs=x"]).contains("`x`"));
    }

    #[test]
    fn zero_jobs_is_an_error() {
        assert!(err(&["--jobs", "0"]).contains("positive integer"));
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        assert_eq!(err(&["--jobs"]), "--jobs needs a value");
        assert_eq!(err(&["--trace"]), "--trace needs a value");
    }

    #[test]
    fn malformed_fault_plan_is_an_error() {
        let path = std::env::temp_dir().join(format!("snacc-bad-plan-{}.toml", std::process::id()));
        std::fs::write(&path, "seed = 1\n[net]\ndrop_rate = lots\n").unwrap();
        let e = err(&["--faults", path.to_str().unwrap()]);
        std::fs::remove_file(&path).unwrap();
        assert!(e.starts_with("--faults "), "{e}");
    }

    #[test]
    fn missing_fault_plan_is_an_error() {
        assert!(err(&["--faults", "no/such/plan.toml"]).contains("no/such/plan.toml"));
    }

    /// `flag` with a path under a missing directory is refused at parse
    /// time; a path that exists but cannot be written (a directory) fails
    /// the export with an error naming the flag instead of panicking.
    fn unwritable_output_is_an_error(flag: &str, set: impl FnOnce(&mut Telemetry, PathBuf)) {
        let e = err(&[flag, "/no/such/dir/t.json"]);
        assert!(e.starts_with(flag) && e.contains("/no/such/dir"), "{e}");
        assert!(err(&[&format!("{flag}=/no/such/dir/t.json")]).starts_with(flag));
        let mut t = telemetry();
        let dir = std::env::temp_dir();
        set(&mut t, dir.clone());
        let e = t
            .write_exports()
            .expect_err("writing to a directory must fail");
        assert!(e.starts_with(&format!("{flag} {}", dir.display())), "{e}");
    }

    #[test]
    fn unwritable_trace_path_is_an_error() {
        snacc_trace::install(Tracer::new());
        unwritable_output_is_an_error("--trace", |t, p| t.trace_path = Some(p));
    }

    #[test]
    fn unwritable_metrics_path_is_an_error() {
        unwritable_output_is_an_error("--metrics-json", |t, p| t.metrics_path = Some(p));
    }

    #[test]
    fn unwritable_perf_path_is_an_error() {
        unwritable_output_is_an_error("--perf-json", |t, p| t.perf_path = Some(p));
    }

    #[test]
    fn output_in_the_working_directory_is_accepted() {
        let f = ok(&["--trace", "t.json", "--perf-json", "./p.json"]);
        assert_eq!(f.trace_path, Some(PathBuf::from("t.json")));
        assert_eq!(f.perf_path, Some(PathBuf::from("./p.json")));
    }

    fn wall(s: f64) -> Value {
        let mut m = Map::new();
        m.insert("wall_seconds", Value::from(s));
        Value::Object(m)
    }

    #[test]
    fn perf_json_merges_by_key() {
        let dir = std::env::temp_dir().join(format!("snacc-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("perf.json");
        merge_json_entry(&path, "fig4a", wall(1.5)).unwrap();
        merge_json_entry(&path, "fig7", wall(2.0)).unwrap();
        // Re-running a binary replaces its entry, keeping the others.
        merge_json_entry(&path, "fig4a", wall(1.0)).unwrap();
        let got = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let keys: Vec<_> = got.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["fig4a", "fig7"]);
        assert_eq!(got.get("fig4a"), Some(&wall(1.0)));
        assert_eq!(got.get("fig7"), Some(&wall(2.0)));
        // A file that is not a JSON object is refused, not overwritten.
        std::fs::write(&path, "[1, 2]").unwrap();
        assert!(merge_json_entry(&path, "fig4a", wall(1.0)).is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "[1, 2]");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn perf_json_merges_into_nested_objects() {
        // The shape of a `BENCH_*.json`: entries nest objects in objects.
        let dir = std::env::temp_dir().join(format!("snacc-perf-nested-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH.json");
        let before =
            r#"{"bench": {"rand_4k": {"wall_s": 0.85}, "seq": {"wall_s": [1, 2]}}, "note": "x"}"#;
        std::fs::write(&path, before).unwrap();
        merge_json_entry(&path, "fig6", wall(7.9)).unwrap();
        let got = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let Value::Object(mut want) = serde_json::from_str(before).unwrap() else {
            unreachable!()
        };
        want.insert("fig6", wall(7.9));
        assert_eq!(got, Value::Object(want));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        // The proc parse itself must not panic anywhere; on Linux the
        // value is real.
        let rss = peak_rss_kb();
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(rss > 0);
        }
    }
}
