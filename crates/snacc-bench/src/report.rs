//! Result records and table printing shared by the evaluation binaries.

use serde_json::{Map, Value};
use std::path::{Path, PathBuf};

/// One measured value with paper reference for side-by-side reporting.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Experiment id (e.g. "fig4a").
    pub experiment: String,
    /// Row label (e.g. "URAM seq-w").
    pub label: String,
    /// Measured value.
    pub measured: f64,
    /// Optional secondary value (e.g. min of an alternating pair).
    pub measured_lo: Option<f64>,
    /// The paper's reported value, if stated.
    pub paper: Option<f64>,
    /// Unit.
    pub unit: String,
}

impl BenchRecord {
    /// Shorthand constructor.
    pub fn new(
        experiment: &str,
        label: &str,
        measured: f64,
        paper: Option<f64>,
        unit: &str,
    ) -> Self {
        BenchRecord {
            experiment: experiment.to_string(),
            label: label.to_string(),
            measured,
            measured_lo: None,
            paper,
            unit: unit.to_string(),
        }
    }

    /// Attach a lower bound (alternating-bandwidth reporting).
    pub fn with_lo(mut self, lo: f64) -> Self {
        self.measured_lo = Some(lo);
        self
    }

    /// Explicit JSON projection (the vendored serde_json has no derive).
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("experiment", Value::from(self.experiment.as_str()));
        m.insert("label", Value::from(self.label.as_str()));
        m.insert("measured", Value::from(self.measured));
        m.insert(
            "measured_lo",
            self.measured_lo.map(Value::from).unwrap_or(Value::Null),
        );
        m.insert("paper", self.paper.map(Value::from).unwrap_or(Value::Null));
        m.insert("unit", Value::from(self.unit.as_str()));
        Value::Object(m)
    }
}

/// Publish an experiment's records: print them as a table with the paper
/// values on stdout, then save them to `results/<experiment>.json`.
pub fn publish(title: &str, records: &[BenchRecord]) {
    print_table(title, records);
    save_json(records);
}

/// Print an experiment's records as an aligned table with paper values.
fn print_table(title: &str, records: &[BenchRecord]) {
    println!("\n=== {title} ===");
    println!(
        "{:<28} {:>18} {:>12} {:>8}",
        "configuration", "measured", "paper", "unit"
    );
    for r in records {
        let measured = match r.measured_lo {
            Some(lo) => format!("{:.2} / {:.2}", lo, r.measured),
            None => format!("{:.2}", r.measured),
        };
        let paper = r
            .paper
            .map(|p| format!("{p:.2}"))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "{:<28} {:>18} {:>12} {:>8}",
            r.label, measured, paper, r.unit
        );
    }
}

/// Append records to `results/<experiment>.json` (machine-readable feed
/// for EXPERIMENTS.md). A directory or file that cannot be written is
/// reported on stderr with its path and the OS error; the run goes on.
fn save_json(records: &[BenchRecord]) {
    if records.is_empty() {
        return;
    }
    match write_json(Path::new("results"), records) {
        Ok(path) => eprintln!("(saved {})", path.display()),
        Err(e) => eprintln!("warning: {e}"),
    }
}

/// Write `records` to `<dir>/<experiment>.json`, creating `dir`. The error
/// names the path that failed and the OS error.
fn write_json(dir: &Path, records: &[BenchRecord]) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", records[0].experiment));
    let doc = Value::Array(records.iter().map(BenchRecord::to_json).collect());
    let text = format!("{}\n", serde_json::to_string_pretty(&doc));
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_builders() {
        let r = BenchRecord::new("fig4a", "URAM seq-w", 5.6, Some(5.6), "GB/s").with_lo(5.32);
        assert_eq!(r.measured_lo, Some(5.32));
        assert_eq!(r.experiment, "fig4a");
    }

    #[test]
    fn unwritable_results_are_reported_with_path_and_os_error() {
        let records = [BenchRecord::new("x", "a", 1.0, None, "GB/s")];
        // The message is `<what> <path>: <OS error>`.
        let names = |e: &str, what: &str, path: &Path| {
            let rest = e.strip_prefix(&format!("{what} {}: ", path.display()));
            assert!(rest.is_some_and(|os| !os.is_empty()), "{e}");
        };
        let root = std::env::temp_dir().join(format!("snacc-report-{}", std::process::id()));
        std::fs::create_dir_all(&root).expect("temp dir");
        // A directory under a regular file cannot be created.
        let file = root.join("plain");
        std::fs::write(&file, b"").expect("temp file");
        let e = write_json(&file.join("results"), &records).unwrap_err();
        names(&e, "cannot create", &file.join("results"));
        // A results file that is a directory cannot be written.
        let dir = root.join("results");
        std::fs::create_dir_all(dir.join("x.json")).expect("blocking dir");
        let e = write_json(&dir, &records).unwrap_err();
        names(&e, "cannot write", &dir.join("x.json"));
        // A writable directory gets the file.
        let ok = root.join("ok");
        assert_eq!(write_json(&ok, &records), Ok(ok.join("x.json")));
        std::fs::remove_dir_all(&root).expect("clean up");
    }

    #[test]
    fn print_does_not_panic() {
        print_table("t", &[BenchRecord::new("x", "a", 1.0, None, "GB/s")]);
    }
}
