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
//! A change that moves results on purpose re-pins in the same commit: run
//! each binary as [`run`] does and check in its stdout and event count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Quick-mode peak-RSS budgets, in KiB, one per binary. The budgets of
/// all but fig6 and fig7 are a few times the measured peak, so a store
/// that grows with the address space rather than with the bytes written
/// fails here. fig6 and fig7 peak near 128 MB, set by the sender's cached
/// class bodies; their 192 MiB budgets fail once the host-staging
/// configurations keep a copy of each staged extent again (about 1 MB
/// per frame).
const RSS_BUDGETS_KIB: &[(&str, u64)] = &[
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

/// Run `bin` in quick mode; its stdout and its `--perf-json` record.
fn run(bin: &str, exe: &str) -> (String, String) {
    let dir = std::env::temp_dir().join(format!("snacc-golden-{bin}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = Command::new(exe)
        .args(["--perf-json", "perf.json"])
        .env("SNACC_QUICK", "1")
        .env_remove("SNACC_FULL")
        .current_dir(&dir)
        .output()
        .unwrap_or_else(|e| panic!("run {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let perf = std::fs::read_to_string(dir.join("perf.json")).expect("perf json written");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    (String::from_utf8(out.stdout).expect("utf8 stdout"), perf)
}

fn check(bin: &str, exe: &str) {
    let (stdout, perf) = run(bin, exe);
    let pin = golden_dir().join(format!("{bin}.stdout"));
    let want = std::fs::read_to_string(&pin).unwrap_or_else(|e| panic!("{}: {e}", pin.display()));
    assert_eq!(stdout, want, "{bin} stdout differs from its golden pin");
    assert_eq!(
        Some(perf_field(&perf, "events_executed")),
        pinned_events(bin),
        "{bin} events_executed differs from its golden pin"
    );
    let &(_, budget) = RSS_BUDGETS_KIB
        .iter()
        .find(|(b, _)| *b == bin)
        .unwrap_or_else(|| panic!("{bin} has no peak-RSS budget"));
    let rss = perf_field(&perf, "peak_rss_kb");
    assert!(
        rss <= budget,
        "{bin} quick peak RSS {rss} KiB exceeds its budget of {budget} KiB"
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
