//! `snacc-lint`: workspace-wide static analysis for the SNAcc simulator.
//!
//! The compiler cannot see the properties this reproduction lives or dies
//! by: bit-deterministic discrete-event simulation and panic-free,
//! spec-faithful wire decoding. This crate enforces them as a catalog of
//! domain lints with stable IDs (the contract future PRs are reviewed
//! against):
//!
//! | ID    | Invariant |
//! |-------|-----------|
//! | SL001 | no wall-clock (`Instant`/`SystemTime`) in simulation crates |
//! | SL002 | no unseeded randomness outside `snacc-sim::rng` |
//! | SL003 | no threads/locks/atomics in single-threaded DES crates |
//! | SL004 | no panic paths (`unwrap`/`expect`/`panic!`/asserts) in wire-decode modules |
//! | SL005 | no raw `u64` picosecond arithmetic outside `snacc-sim` (use `SimTime`/`SimDuration`) |
//! | SL006 | no `RefCell` borrow guard held across an `Engine::schedule` call |
//! | SL007 | no `println!`/`eprintln!` in model crates — observability goes through `snacc-trace` |
//! | SL008 | no payload-buffer copies in model-crate hot paths |
//! | SL009 | no `let _ = <place>;` hiding dead code |
//! | SL010 | no `pub fn` whose name appears nowhere else in the workspace's non-test code |
//!
//! The analysis is deliberately line/token-level (comments, string
//! literals, and `#[cfg(test)]` modules are masked before matching): it
//! has zero dependencies, runs in milliseconds, and its findings are
//! human-auditable. Triaged exceptions live in a checked-in
//! `lint-allow.toml`, each with a mandatory justification string; an
//! entry that suppresses nothing is stale and fails the check.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod rules;

pub use rules::{scan_source, RULES};

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule ID, e.g. `"SL004"`.
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Why this is a violation.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}:{}: {}\n    | {}",
            self.rule, self.path, self.line, self.message, self.snippet
        )
    }
}

/// A triaged exception from `lint-allow.toml`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule ID the exception applies to.
    pub rule: String,
    /// Workspace-relative path the exception applies to.
    pub path: String,
    /// Optional substring the offending line must contain; an empty
    /// pattern matches any line in the file (discouraged — keep
    /// exceptions narrow).
    pub pattern: Option<String>,
    /// Mandatory human rationale. Parsing fails if missing or empty.
    pub justification: String,
}

impl AllowEntry {
    fn matches(&self, v: &Violation) -> bool {
        self.rule == v.rule
            && self.path == v.path
            && self
                .pattern
                .as_deref()
                .map(|p| v.snippet.contains(p))
                .unwrap_or(true)
    }
}

/// Outcome of a full `check` run.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Findings that survived the allowlist, sorted by (path, line).
    pub violations: Vec<Violation>,
    /// Findings suppressed by `lint-allow.toml` entries.
    pub suppressed: Vec<(Violation, String)>,
    /// Allow entries that suppressed nothing (stale triage).
    pub unused_allow: Vec<AllowEntry>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean and every allow entry is still needed.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.unused_allow.is_empty()
    }
}

/// Parse `lint-allow.toml` (a small TOML subset: `[[allow]]` array
/// entries with `key = "string"` pairs and `#` comments).
pub fn parse_allow_file(text: &str) -> Result<Vec<AllowEntry>, String> {
    struct Partial {
        rule: Option<String>,
        path: Option<String>,
        pattern: Option<String>,
        justification: Option<String>,
        start_line: usize,
    }

    fn finish(p: Partial) -> Result<AllowEntry, String> {
        let at = format!("[[allow]] entry at line {}", p.start_line);
        let rule = p.rule.ok_or_else(|| format!("{at}: missing `rule`"))?;
        let path = p.path.ok_or_else(|| format!("{at}: missing `path`"))?;
        let justification = p
            .justification
            .ok_or_else(|| format!("{at}: missing mandatory `justification`"))?;
        if justification.trim().is_empty() {
            return Err(format!("{at}: `justification` must be non-empty"));
        }
        if !RULES.iter().any(|r| r.id == rule) {
            return Err(format!("{at}: unknown rule `{rule}`"));
        }
        Ok(AllowEntry {
            rule,
            path,
            pattern: p.pattern,
            justification,
        })
    }

    let mut entries = Vec::new();
    let mut current: Option<Partial> = None;
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[allow]]" {
            if let Some(p) = current.take() {
                entries.push(finish(p)?);
            }
            current = Some(Partial {
                rule: None,
                path: None,
                pattern: None,
                justification: None,
                start_line: lineno,
            });
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("line {lineno}: expected `key = \"value\"`"));
        };
        let key = key.trim();
        let value = value.trim();
        let value = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .ok_or_else(|| format!("line {lineno}: `{key}` must be a quoted string"))?
            .replace("\\\"", "\"")
            .replace("\\\\", "\\");
        let Some(p) = current.as_mut() else {
            return Err(format!("line {lineno}: `{key}` outside an [[allow]] entry"));
        };
        match key {
            "rule" => p.rule = Some(value),
            "path" => p.path = Some(value),
            "pattern" => p.pattern = Some(value),
            "justification" => p.justification = Some(value),
            other => return Err(format!("line {lineno}: unknown key `{other}`")),
        }
    }
    if let Some(p) = current.take() {
        entries.push(finish(p)?);
    }
    Ok(entries)
}

/// Collect every workspace `.rs` file under `root` that the lints apply
/// to: `crates/*` plus the root package's `src/`, `tests/`, and
/// `examples/`. Skips `target/`, the vendored offline shims in
/// `vendor/` (third-party stand-ins, not simulation code), and the lint
/// tool's own violation fixtures.
pub fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == "fixtures" || name == ".git" {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Run the full check over a workspace tree.
pub fn run_check(root: &Path, allow: &[AllowEntry]) -> io::Result<Report> {
    let files = collect_rs_files(root)?;
    let read = |file: &PathBuf| -> io::Result<(String, String)> {
        let rel = file.strip_prefix(root).unwrap_or(file).to_string_lossy();
        Ok((rel.replace('\\', "/"), fs::read_to_string(file)?))
    };
    let mut sources = files.iter().map(read).collect::<io::Result<Vec<_>>>()?;
    let mut found: Vec<Violation> = sources
        .iter()
        .flat_map(|(rel, source)| scan_source(rel, source))
        .collect();
    // The benchmark's calls keep a `pub fn` alive (SL010), but its own
    // files are not linted.
    let perfbench = root.join("perfbench/src");
    if perfbench.is_dir() {
        let mut bench_files = Vec::new();
        walk(&perfbench, &mut bench_files)?;
        bench_files.sort();
        for file in &bench_files {
            sources.push(read(file)?);
        }
    }
    found.extend(rules::scan_uncalled(&sources));

    let mut used = vec![false; allow.len()];
    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for v in found {
        match allow.iter().position(|a| a.matches(&v)) {
            Some(i) => {
                used[i] = true;
                report.suppressed.push((v, allow[i].justification.clone()));
            }
            None => report.violations.push(v),
        }
    }
    report.unused_allow = allow
        .iter()
        .zip(&used)
        .filter(|&(_, &u)| !u)
        .map(|(a, _)| a.clone())
        .collect();
    report
        .violations
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(report)
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Machine-readable report (hand-serialized; round-trips through any
/// JSON parser — the integration tests use the workspace `serde_json`).
pub fn to_json(report: &Report) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!(
        "  \"files_scanned\": {},\n  \"violation_count\": {},\n  \"suppressed_count\": {},\n",
        report.files_scanned,
        report.violations.len(),
        report.suppressed.len()
    ));
    out.push_str("  \"violations\": [");
    for (i, v) in report.violations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"message\": \"{}\", \"snippet\": \"{}\"}}",
            v.rule,
            json_escape(&v.path),
            v.line,
            json_escape(&v.message),
            json_escape(&v.snippet)
        ));
    }
    if !report.violations.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"suppressed\": [");
    for (i, (v, why)) in report.suppressed.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"justification\": \"{}\"}}",
            v.rule,
            json_escape(&v.path),
            v.line,
            json_escape(why)
        ));
    }
    if !report.suppressed.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"unused_allow\": [");
    for (i, a) in report.unused_allow.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": \"{}\", \"path\": \"{}\", \"pattern\": \"{}\"}}",
            json_escape(&a.rule),
            json_escape(&a.path),
            json_escape(a.pattern.as_deref().unwrap_or(""))
        ));
    }
    if !report.unused_allow.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Human-readable report.
pub fn render_human(report: &Report) -> String {
    let mut out = String::new();
    for v in &report.violations {
        out.push_str(&format!("{v}\n"));
    }
    if !report.suppressed.is_empty() {
        out.push_str(&format!(
            "\n{} finding(s) suppressed by lint-allow.toml:\n",
            report.suppressed.len()
        ));
        for (v, why) in &report.suppressed {
            out.push_str(&format!("  {} {}:{} -- {}\n", v.rule, v.path, v.line, why));
        }
    }
    for a in &report.unused_allow {
        out.push_str(&format!(
            "\nunused lint-allow.toml entry: {} {} (pattern {:?}) suppresses nothing; delete it\n",
            a.rule,
            a.path,
            a.pattern.as_deref().unwrap_or("")
        ));
    }
    out.push_str(&format!(
        "\nsnacc-lint: {} file(s) scanned, {} violation(s), {} suppressed, {} unused allow entr(ies)\n",
        report.files_scanned,
        report.violations.len(),
        report.suppressed.len(),
        report.unused_allow.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_file_parses_and_requires_justification() {
        let good = r#"
# triaged exceptions
[[allow]]
rule = "SL004"
path = "crates/snacc-net/src/frame.rs"
pattern = "assert!"
justification = "encode-side precondition"
"#;
        let entries = parse_allow_file(good).expect("parses");
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "SL004");

        let missing = "[[allow]]\nrule = \"SL004\"\npath = \"x.rs\"\n";
        let err = parse_allow_file(missing).expect_err("must fail");
        assert!(err.contains("justification"), "{err}");

        let empty = "[[allow]]\nrule = \"SL004\"\npath = \"x.rs\"\njustification = \"  \"\n";
        assert!(parse_allow_file(empty).is_err());

        let unknown = "[[allow]]\nrule = \"SL999\"\npath = \"x.rs\"\njustification = \"y\"\n";
        assert!(parse_allow_file(unknown).is_err());
    }

    #[test]
    fn allow_entry_matching_is_narrow() {
        let entry = AllowEntry {
            rule: "SL004".into(),
            path: "a.rs".into(),
            pattern: Some("assert!".into()),
            justification: "ok".into(),
        };
        let mut v = Violation {
            rule: "SL004",
            path: "a.rs".into(),
            line: 3,
            message: String::new(),
            snippet: "assert!(x)".into(),
        };
        assert!(entry.matches(&v));
        v.snippet = "panic!()".into();
        assert!(!entry.matches(&v));
        v.snippet = "assert!(x)".into();
        v.path = "b.rs".into();
        assert!(!entry.matches(&v));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
