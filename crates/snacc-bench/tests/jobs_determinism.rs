//! CI gate: a `--jobs N` sweep must be byte-identical to `--jobs 1`.
//!
//! Runs three sweep binaries twice each in quick mode and compares both
//! console streams byte for byte: the `ext_faults` campaign sweep (6
//! independent faulted simulations), the `ext_qd_sweep` queue-depth
//! sweep (6 SPDK runs) and `fig7`'s five case-study configurations. The
//! sweep pool buffers each job's output and flushes in job order (see
//! `snacc_bench::sweep`), so worker count must not leak into anything
//! observable. The same holds for telemetry: each job records into its
//! own tracer and metrics registry, merged in job order, so the
//! `--trace` and `--metrics-json` files of `ext_qd_sweep` and of an
//! `ext_faults` campaign, the `--metrics-json` file of `fig7`, and the
//! `--perf-json` event count, do not depend on the worker count either.
//! fig7's metrics include each configuration's
//! `mem.*.nand_backing_bytes`: the seam copies its NAND holds, never the
//! class bodies, which are lazy windows in every worker's table. A binary
//! that runs no sweep refuses `--jobs`.

use std::path::Path;
use std::process::Command;

/// Stdout and stderr of `exe <args> --jobs <jobs>` in quick mode, run in
/// `dir`.
fn run(exe: &str, jobs: &str, args: &[&str], dir: &Path) -> (String, String) {
    let out = Command::new(exe)
        .args(args)
        .args(["--jobs", jobs])
        .env("SNACC_QUICK", "1")
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    assert!(out.status.success(), "{exe} --jobs {jobs} failed");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn check(exe: &str, table_marker: &str) {
    let (out1, err1) = run(exe, "1", &[], Path::new("."));
    let (out4, err4) = run(exe, "4", &[], Path::new("."));
    assert!(
        out1.contains(table_marker),
        "sweep produced no table:\n{out1}"
    );
    assert_eq!(out1, out4, "stdout differs between --jobs 1 and --jobs 4");
    assert_eq!(err1, err4, "stderr differs between --jobs 1 and --jobs 4");
}

/// Stdout, the `--metrics-json` file, the `--perf-json` `events_executed`
/// and, when `traced`, the `--trace` file of `exe <args> --jobs <jobs>`,
/// each with its name.
fn recorded(exe: &str, jobs: &str, args: &[&str], traced: bool) -> Vec<(&'static str, String)> {
    let bin = Path::new(exe).file_name().unwrap().to_string_lossy();
    let dir = std::env::temp_dir().join(format!("snacc-jobs-{bin}-{jobs}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = if traced { "--trace t.json" } else { "" };
    let sinks = format!("{trace} --metrics-json m.json --perf-json p.json");
    let args: Vec<&str> = args
        .iter()
        .copied()
        .chain(sinks.split_whitespace())
        .collect();
    let (stdout, _) = run(exe, jobs, &args, &dir);
    let read = |f: &str| std::fs::read_to_string(dir.join(f)).expect("export written");
    let perf = serde_json::from_str(&read("p.json")).expect("perf json");
    let events = perf
        .get(&bin)
        .and_then(|r| r.get("events_executed")?.as_u64());
    let mut out = vec![
        ("stdout", stdout),
        ("--metrics-json", read("m.json")),
        ("events_executed", events.expect("events").to_string()),
    ];
    if traced {
        out.push(("--trace", read("t.json")));
    }
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    out
}

fn check_recorded(exe: &str, args: &[&str], traced: bool) {
    let one = recorded(exe, "1", args, traced);
    assert!(one[2].1 != "0" && (!traced || one[3].1.contains("traceEvents")));
    for ((what, a), (_, b)) in one.iter().zip(recorded(exe, "4", args, traced)) {
        // `assert!`, not `assert_eq!`: the exports are megabytes.
        assert!(*a == b, "{what} differs between --jobs 1 and --jobs 4");
    }
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_sweep_output_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_ext_faults"), "error_rate");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_qd_sweep_output_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_ext_qd_sweep"), "QD 256");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_case_study_output_is_byte_identical() {
    check(env!("CARGO_BIN_EXE_fig7"), "Fig 7");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_qd_sweep_telemetry_is_byte_identical() {
    check_recorded(env!("CARGO_BIN_EXE_ext_qd_sweep"), &[], true);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_campaign_telemetry_is_byte_identical() {
    let plan = concat!(env!("CARGO_MANIFEST_DIR"), "/../../plans/flaky_ssd.toml");
    check_recorded(env!("CARGO_BIN_EXE_ext_faults"), &["--faults", plan], true);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs GiB-scale sweeps; use --release (CI does)"
)]
fn parallel_case_study_telemetry_is_byte_identical() {
    // Untraced: a quick fig7 `--trace` run peaks near 10 GB of RSS.
    check_recorded(env!("CARGO_BIN_EXE_fig7"), &[], false);
}

#[test]
fn jobs_without_a_sweep_is_an_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_ext_gen5"))
        .args(["--jobs", "2"])
        .env("SNACC_QUICK", "1")
        .output()
        .expect("run ext_gen5");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(
        err.contains("error: --jobs: this binary runs no sweep"),
        "{err}"
    );
}
