//! End-to-end tests for the lint tool over the checked-in fixture trees
//! in `tests/fixtures/`. The fixtures are deliberately *not* compiled
//! (the workspace walker skips any `fixtures/` directory); they exist
//! only to be scanned here.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

use snacc_lint::{parse_allow_file, render_human, run_check, to_json, AllowEntry};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn every_rule_fires_on_the_bad_tree() {
    let report = run_check(&fixture("bad_tree"), &[]).expect("scan succeeds");
    let fired: BTreeSet<&str> = report.violations.iter().map(|v| v.rule).collect();
    for id in [
        "SL001", "SL002", "SL003", "SL004", "SL005", "SL006", "SL007", "SL009", "SL010",
    ] {
        assert!(
            fired.contains(id),
            "{id} did not fire; got {:?}",
            report.violations
        );
    }
    assert!(!report.is_clean());
    // Deterministic ordering: sorted by (path, line, rule).
    let keys: Vec<_> = report
        .violations
        .iter()
        .map(|v| (v.path.clone(), v.line, v.rule))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn clean_tree_is_clean() {
    let report = run_check(&fixture("clean_tree"), &[]).expect("scan succeeds");
    assert!(
        report.is_clean(),
        "clean tree produced {:?}",
        report.violations
    );
    assert_eq!(report.files_scanned, 1);
}

#[test]
fn uncalled_pub_fns_fire_and_called_ones_do_not() {
    let report = run_check(&fixture("bad_tree"), &[]).expect("scan succeeds");
    let uncalled: Vec<(&str, usize)> = report
        .violations
        .iter()
        .filter(|v| v.rule == "SL010")
        .map(|v| (v.path.as_str(), v.line))
        .collect();
    let at = |line| ("crates/snacc-core/src/uncalled.rs", line);
    // A name in a comment or a string is no use.
    assert!(uncalled.contains(&at(5)), "{uncalled:?}");
    assert!(uncalled.contains(&at(9)), "{uncalled:?}");
    // A call from a `#[cfg(test)]` block is no use either.
    assert!(
        uncalled.contains(&("crates/snacc-core/src/test_only.rs", 5)),
        "{uncalled:?}"
    );
    // A field of the same name, read, initialised or destructured, is
    // no use either.
    assert!(
        uncalled.contains(&("crates/snacc-core/src/field_shadow.rs", 11)),
        "{uncalled:?}"
    );
    // `shrink` is called in its own file, so it is alive.
    assert!(
        !uncalled.contains(&("crates/snacc-core/src/dead_binding.rs", 4)),
        "{uncalled:?}"
    );
}

#[test]
fn benchmark_calls_keep_a_pub_fn_alive() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("sl010_tree");
    let write = |rel: &str, text: &str| {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("has a parent")).expect("mkdir");
        fs::write(path, text).expect("write fixture");
    };
    let uncalled = || {
        let report = run_check(&root, &[]).expect("scan succeeds");
        let n = report
            .violations
            .iter()
            .filter(|v| v.rule == "SL010")
            .count();
        (n, report.files_scanned)
    };
    if root.exists() {
        fs::remove_dir_all(&root).expect("clear the previous run");
    }
    write("crates/snacc-core/src/api.rs", "pub fn only_benched() {}\n");
    assert_eq!(uncalled(), (1, 1));
    // `perfbench/src` counts as a use site but is not linted itself.
    write("perfbench/src/main.rs", "fn main() { only_benched(); }\n");
    assert_eq!(uncalled(), (0, 1));
}

#[test]
fn allowlist_suppresses_with_justification() {
    let no_allow = run_check(&fixture("bad_tree"), &[]).expect("scan succeeds");
    let sl002_before = no_allow
        .violations
        .iter()
        .filter(|v| v.rule == "SL002")
        .count();
    assert!(sl002_before > 0);

    let allow = vec![AllowEntry {
        rule: "SL002".into(),
        path: "crates/snacc-net/src/entropy.rs".into(),
        pattern: Some("thread_rng".into()),
        justification: "fixture exercise of the suppression path".into(),
    }];
    let report = run_check(&fixture("bad_tree"), &allow).expect("scan succeeds");
    assert!(report.violations.iter().all(|v| v.rule != "SL002"));
    assert_eq!(report.suppressed.len(), sl002_before);
    assert_eq!(
        report.violations.len() + report.suppressed.len(),
        no_allow.violations.len()
    );
    for (v, why) in &report.suppressed {
        assert_eq!(v.rule, "SL002");
        assert!(!why.trim().is_empty());
    }
}

#[test]
fn allow_entry_that_suppresses_nothing_fails_by_name() {
    let stale = AllowEntry {
        rule: "SL004".into(),
        path: "crates/snacc-net/src/gone.rs".into(),
        pattern: Some("assert!".into()),
        justification: "triaged code that was since deleted".into(),
    };
    let report =
        run_check(&fixture("clean_tree"), std::slice::from_ref(&stale)).expect("scan succeeds");
    assert!(report.violations.is_empty());
    assert!(
        !report.is_clean(),
        "a stale allow entry must fail the check"
    );
    assert_eq!(report.unused_allow, [stale]);
    assert!(render_human(&report).contains("SL004 crates/snacc-net/src/gone.rs"));
    let doc: serde_json::Value = serde_json::from_str(&to_json(&report)).expect("valid JSON");
    let unused = doc.get("unused_allow").and_then(|v| v.as_array());
    let path = unused.and_then(|a| a.first()).and_then(|e| e.get("path"));
    assert_eq!(
        path.and_then(|p| p.as_str()),
        Some("crates/snacc-net/src/gone.rs")
    );
}

#[test]
fn repo_allow_file_parses_and_every_entry_is_justified() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let text = std::fs::read_to_string(repo_root.join("lint-allow.toml"))
        .expect("checked-in lint-allow.toml");
    let entries = parse_allow_file(&text).expect("allow file parses");
    assert!(!entries.is_empty());
    for e in &entries {
        assert!(!e.justification.trim().is_empty());
        assert!(e.pattern.is_some(), "keep exceptions narrow: {e:?}");
    }
}

#[test]
fn json_report_round_trips_through_serde_json() {
    let report = run_check(&fixture("bad_tree"), &[]).expect("scan succeeds");
    let text = to_json(&report);
    let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
    assert_eq!(
        doc.get("files_scanned").and_then(|v| v.as_u64()),
        Some(report.files_scanned as u64)
    );
    assert_eq!(
        doc.get("violation_count").and_then(|v| v.as_u64()),
        Some(report.violations.len() as u64)
    );
    let arr = doc
        .get("violations")
        .and_then(|v| v.as_array())
        .expect("violations array");
    assert_eq!(arr.len(), report.violations.len());
    for (item, v) in arr.iter().zip(&report.violations) {
        assert_eq!(item.get("rule").and_then(|x| x.as_str()), Some(v.rule));
        assert_eq!(
            item.get("path").and_then(|x| x.as_str()),
            Some(v.path.as_str())
        );
        assert_eq!(
            item.get("line").and_then(|x| x.as_u64()),
            Some(v.line as u64)
        );
        assert!(item.get("message").and_then(|x| x.as_str()).is_some());
        assert!(item.get("snippet").and_then(|x| x.as_str()).is_some());
    }
}

#[test]
fn cli_exit_codes_and_json_output() {
    let bin = env!("CARGO_BIN_EXE_snacc-lint");

    let bad = Command::new(bin)
        .args(["check", "--root"])
        .arg(fixture("bad_tree"))
        .output()
        .expect("run lint binary");
    assert_eq!(bad.status.code(), Some(1), "bad tree must fail the check");

    let clean = Command::new(bin)
        .args(["check", "--json", "--root"])
        .arg(fixture("clean_tree"))
        .output()
        .expect("run lint binary");
    assert_eq!(
        clean.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&clean.stderr)
    );
    let doc: serde_json::Value =
        serde_json::from_str(&String::from_utf8_lossy(&clean.stdout)).expect("valid JSON");
    assert_eq!(doc.get("violation_count").and_then(|v| v.as_u64()), Some(0));

    let usage = Command::new(bin)
        .arg("bogus")
        .output()
        .expect("run lint binary");
    assert_eq!(usage.status.code(), Some(2));
}
