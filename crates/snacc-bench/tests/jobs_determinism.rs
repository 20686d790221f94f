//! CI gate: a `--jobs N` sweep must be byte-identical to `--jobs 1`.
//!
//! Runs three sweep binaries twice each in quick mode and compares both
//! console streams byte for byte: the `ext_faults` campaign sweep (6
//! independent faulted simulations), the `ext_qd_sweep` queue-depth
//! sweep (6 SPDK runs) and `fig7`'s five case-study configurations. The
//! sweep pool buffers each job's output and flushes in job order (see
//! `snacc_bench::sweep`), so worker count must not leak into anything
//! observable. A binary that runs no sweep refuses `--jobs`.

use std::process::Command;

fn run(exe: &str, jobs: &str) -> (String, String) {
    let out = Command::new(exe)
        .args(["--jobs", jobs])
        .env("SNACC_QUICK", "1")
        .output()
        .unwrap_or_else(|e| panic!("run {exe}: {e}"));
    assert!(out.status.success(), "{exe} --jobs {jobs} failed");
    (
        String::from_utf8(out.stdout).expect("utf8 stdout"),
        String::from_utf8(out.stderr).expect("utf8 stderr"),
    )
}

fn check(exe: &str, table_marker: &str) {
    let (out1, err1) = run(exe, "1");
    let (out4, err4) = run(exe, "4");
    assert!(
        out1.contains(table_marker),
        "sweep produced no table:\n{out1}"
    );
    assert_eq!(out1, out4, "stdout differs between --jobs 1 and --jobs 4");
    assert_eq!(err1, err4, "stderr differs between --jobs 1 and --jobs 4");
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
