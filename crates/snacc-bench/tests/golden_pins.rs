//! CI gate: every evaluation binary's quick-mode results are pinned.
//!
//! Each binary runs in its own temporary directory (several write
//! `results/*.json` relative to the working directory) with
//! `SNACC_QUICK=1 --perf-json perf.json`. Its stdout must equal
//! `tests/golden/<bin>.stdout` byte for byte, and the `events_executed`
//! it records must equal the pin in `tests/golden/events_executed.txt`.
//! A refactor that moves a simulated result, or the number of events it
//! took to get there, fails here. Every binary must also keep the
//! `peak_rss_kb` it records within its [`RSS_BUDGETS_KIB`] entry, which
//! guards the zero-copy media and the systems freeing themselves on drop.
//!
//! The fault campaigns in `campaign_pins!` are pinned the same way, plus
//! the stderr lines carrying their fault accounting (`faults:`), which is
//! printed only on stderr: `tests/golden/<bin>_<plan>.faults`. Each has a
//! peak-RSS budget of its own under its pin name; a lossy fig6 campaign
//! peaks above fig6's.
//!
//! A change that moves results on purpose re-pins in the same commit: run
//! each binary as [`run`] does and check in its stdout and event count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Quick-mode peak-RSS budgets, in KiB, one per binary and one per fault
/// campaign. The budgets of all but fig6 and fig7 are a few times the
/// measured peak, so a store that grows with the address space rather
/// than with the bytes written fails here. fig6 and fig7 peak near
/// 105 MB, most of it the ten 9.4 MB class bodies of the process's one
/// class-image table; their 192 MiB budgets fail once the host-staging
/// configurations keep a copy of each staged extent again (about 1 MB per
/// frame). Under frame loss NAND keeps more copies: the lossy fig6
/// campaign peaked at 196,764 KiB. fig6 as a five-worker sweep
/// (`fig6_jobs5`) peaked at 602 MB while each worker generated a body set
/// of its own; its 260 MiB budget fails if that comes back.
const RSS_BUDGETS_KIB: &[(&str, u64)] = &[
    ("ext_faults_flaky_ssd", 16 << 10),
    ("ext_faults", 16 << 10),
    ("ext_flowctl", 16 << 10),
    ("ext_gen5", 16 << 10),
    ("ext_multi_ssd", 64 << 10),
    ("ext_ooo", 16 << 10),
    ("ext_qd_sweep", 16 << 10),
    ("fig4a", 64 << 10),
    ("fig4b", 64 << 10),
    ("fig4c", 16 << 10),
    ("fig6", 192 << 10),
    ("fig6_degraded_pcie", 192 << 10),
    ("fig6_jobs5", 260 << 10),
    ("fig6_lossy_link", 256 << 10),
    ("fig7", 192 << 10),
    ("table1", 16 << 10),
];

fn golden_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn pinned_events(bin: &str) -> Option<u64> {
    let pins = std::fs::read_to_string(golden_dir().join("events_executed.txt")).ok()?;
    pins.lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(b, _)| *b == bin)
        .and_then(|(_, n)| n.trim().parse().ok())
}

/// The integer `field` of a `--perf-json` record.
fn perf_field(perf: &str, field: &str) -> u64 {
    perf.split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|s| s.trim_start().split([',', '}']).next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} in perf record: {perf}"))
}

/// What one quick-mode run printed and recorded.
struct Output {
    stdout: String,
    stderr: String,
    /// The `--perf-json` record.
    perf: String,
}

/// Run `exe <args>` in quick mode in a fresh directory named after `pin`.
/// With a `plan`, `plans/<plan>.toml` is copied in and passed as
/// `--faults`, so the campaign line on stderr names a path that is the
/// same everywhere.
fn run(pin: &str, exe: &str, plan: Option<&str>, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("snacc-golden-{pin}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cmd = Command::new(exe);
    cmd.args(["--perf-json", "perf.json"]).args(args);
    if let Some(plan) = plan {
        let file = format!("{plan}.toml");
        let src = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../plans")
            .join(&file);
        std::fs::copy(&src, dir.join(&file)).unwrap_or_else(|e| panic!("{}: {e}", src.display()));
        cmd.args(["--faults", &file]);
    }
    let out = cmd
        .env("SNACC_QUICK", "1")
        .env_remove("SNACC_FULL")
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("run {pin}: {e}"));
    let stderr = String::from_utf8(out.stderr).expect("utf8 stderr");
    assert!(out.status.success(), "{pin} failed:\n{stderr}");
    let perf = std::fs::read_to_string(dir.join("perf.json")).expect("perf json written");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    Output {
        stdout: String::from_utf8(out.stdout).expect("utf8 stdout"),
        stderr,
        perf,
    }
}

/// The golden file `tests/golden/<name>`.
fn golden(name: &str) -> String {
    let path = golden_dir().join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `out`'s stdout and `events_executed` against the pins of `pin`, and
/// its peak RSS against the budget of `budget`.
fn check_pinned(pin: &str, budget: &str, out: &Output) {
    assert_eq!(
        out.stdout,
        golden(&format!("{pin}.stdout")),
        "{pin} stdout differs from its golden pin"
    );
    assert_eq!(
        Some(perf_field(&out.perf, "events_executed")),
        pinned_events(pin),
        "{pin} events_executed differs from its golden pin"
    );
    let &(_, kib) = RSS_BUDGETS_KIB
        .iter()
        .find(|(b, _)| *b == budget)
        .unwrap_or_else(|| panic!("{budget} has no peak-RSS budget"));
    let rss = perf_field(&out.perf, "peak_rss_kb");
    assert!(
        rss <= kib,
        "{budget} quick peak RSS {rss} KiB exceeds its budget of {kib} KiB"
    );
}

fn check(bin: &str, exe: &str) {
    check_pinned(bin, bin, &run(bin, exe, None, &[]));
}

fn check_campaign(bin: &str, plan: &str, exe: &str) {
    let pin = format!("{bin}_{plan}");
    let out = run(&pin, exe, Some(plan), &[]);
    check_pinned(&pin, &pin, &out);
    let faults: String = out
        .stderr
        .lines()
        .filter(|l| l.contains("faults:"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(
        faults,
        golden(&format!("{pin}.faults")),
        "{pin} fault accounting on stderr differs from its golden pin"
    );
}

macro_rules! pins {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "runs every figure in quick mode; use --release (CI does)"
        )]
        fn $bin() {
            check(stringify!($bin), env!(concat!("CARGO_BIN_EXE_", stringify!($bin))));
        }
    )*};
}

pins!(
    ext_faults,
    ext_flowctl,
    ext_gen5,
    ext_multi_ssd,
    ext_ooo,
    ext_qd_sweep,
    fig4a,
    fig4b,
    fig4c,
    fig6,
    fig7,
    table1,
);

/// Pins each `<bin> --faults plans/<plan>.toml` campaign as `<bin>_<plan>`.
macro_rules! campaign_pins {
    ($($bin:ident --faults $plan:ident => $pin:ident),* $(,)?) => {$(
        #[test]
        #[cfg_attr(
            debug_assertions,
            ignore = "runs fault campaigns in quick mode; use --release (CI does)"
        )]
        fn $pin() {
            check_campaign(
                stringify!($bin),
                stringify!($plan),
                env!(concat!("CARGO_BIN_EXE_", stringify!($bin))),
            );
        }
    )*};
}

// Ethernet faults with loss tolerance; retry policy and PCIe injector
// through the case-study runner; NVMe injector through the seq workload.
campaign_pins!(
    fig6 --faults lossy_link => fig6_lossy_link,
    fig6 --faults degraded_pcie => fig6_degraded_pcie,
    ext_faults --faults flaky_ssd => ext_faults_flaky_ssd,
);

/// fig6 with a worker per configuration prints fig6's pinned stdout and
/// retires its pinned events. Every worker fills its class-image table
/// from the process's one set of bodies, so the sweep stays within a
/// budget of its own (`fig6_jobs5`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs fig6 in quick mode; use --release (CI does)"
)]
fn fig6_jobs5() {
    let out = run(
        "fig6_jobs5",
        env!("CARGO_BIN_EXE_fig6"),
        None,
        &["--jobs", "5"],
    );
    check_pinned("fig6", "fig6_jobs5", &out);
}
