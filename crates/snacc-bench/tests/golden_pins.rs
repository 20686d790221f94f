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
//! guards the zero-copy media and the systems freeing themselves on drop,
//! and the `wall_seconds` it records within its [`WALL_BUDGETS_S`] entry.
//!
//! The fault campaigns in `campaign_pins!` are pinned the same way, plus
//! the stderr lines carrying their fault accounting (`faults:`), which is
//! printed only on stderr: `tests/golden/<bin>_<plan>.faults`. Each has a
//! peak-RSS and a wall-time budget of its own under its pin name; a lossy
//! fig6 campaign peaks above fig6's. `fig6_zero_rates` checks that a plan
//! injecting nothing changes nothing.
//!
//! A change that moves results on purpose re-pins in the same commit: run
//! each binary as [`run`] does and check in its stdout and event count.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Quick-mode peak-RSS budgets, in KiB, one per binary and one per fault
/// campaign. The budgets are a few times the measured peak, so a store
/// that grows with the address space rather than with the bytes written
/// fails here. fig4a peaks near 5.6 MB since its pattern beats join into
/// one NAND segment per 1 MiB (7.0 MB with one segment per 64 KiB beat);
/// its 16 MiB budget is about 3× that. The class bodies are lazily
/// generated, so fig6, fig7 and the degraded-PCIe campaign peak near
/// 10–13 MB; their 32 MiB budgets
/// fail if a fault-free run materialises the ten 9.4 MB bodies again
/// (they peaked near 105 MB while every thread held them), or if the
/// host-staging configurations keep a copy of each staged extent again
/// (about 1 MB per frame). fig6 as a five-worker sweep (`fig6_jobs5`)
/// peaks near 40 MB; its 96 MiB budget fails if each worker holds a body
/// set of its own again (602 MB once, 133 MB with one shared set). Under
/// frame loss each thread materialises the bodies of the damaged images'
/// classes once, and NAND keeps more copies: the lossy fig6 campaign
/// peaked at 171,332 KiB.
const RSS_BUDGETS_KIB: &[(&str, u64)] = &[
    ("ext_faults_flaky_ssd", 16 << 10),
    ("ext_faults", 16 << 10),
    ("ext_flowctl", 16 << 10),
    ("ext_gen5", 16 << 10),
    ("ext_multi_ssd", 64 << 10),
    ("ext_ooo", 16 << 10),
    ("ext_qd_sweep", 16 << 10),
    ("fig4a", 16 << 10),
    ("fig4b", 64 << 10),
    ("fig4c", 16 << 10),
    ("fig6", 32 << 10),
    ("fig6_degraded_pcie", 32 << 10),
    ("fig6_jobs5", 96 << 10),
    ("fig6_lossy_link", 256 << 10),
    ("fig6_zero_rates", 32 << 10),
    ("fig7", 32 << 10),
    ("table1", 16 << 10),
];

/// Quick-mode wall-time budgets, in seconds, one per binary and one per
/// fault campaign: 3× the slowest of five quick runs, one binary at a
/// time, on a 2-core VM whose wall times drift by ±25 %, and 0.5 s at
/// least. ext_flowctl's 1.7 s fails the byte-by-byte stream it used to
/// build and check (2.8–3.3 s quick).
const WALL_BUDGETS_S: &[(&str, f64)] = &[
    ("ext_faults_flaky_ssd", 0.5),
    ("ext_faults", 0.5),
    ("ext_flowctl", 1.7),
    ("ext_gen5", 1.0),
    ("ext_multi_ssd", 1.0),
    ("ext_ooo", 1.0),
    ("ext_qd_sweep", 1.6),
    ("fig4a", 2.5),
    ("fig4b", 6.0),
    ("fig4c", 0.5),
    ("fig6", 21.0),
    ("fig6_degraded_pcie", 21.0),
    ("fig6_jobs5", 15.0),
    ("fig6_lossy_link", 91.0),
    ("fig6_zero_rates", 21.0),
    ("fig7", 15.0),
    ("table1", 0.5),
];

/// The entry of `name` in a budget table.
fn budget<T: Copy>(table: &[(&str, T)], name: &str) -> T {
    table
        .iter()
        .find(|(b, _)| *b == name)
        .unwrap_or_else(|| panic!("{name} has no budget"))
        .1
}

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

/// The number `field` of a `--perf-json` record.
fn perf_field<T: std::str::FromStr>(perf: &str, field: &str) -> T {
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
/// With a `plan`, given as `(file name, TOML)`, the plan is written into
/// the directory and passed as `--faults`, so the campaign line on stderr
/// names a path that is the same everywhere.
fn run(pin: &str, exe: &str, plan: Option<(&str, &str)>, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("snacc-golden-{pin}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let mut cmd = Command::new(exe);
    cmd.args(["--perf-json", "perf.json"]).args(args);
    if let Some((file, toml)) = plan {
        std::fs::write(dir.join(file), toml).expect("write plan");
        cmd.args(["--faults", file]);
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
/// its peak RSS and wall time against the budgets of `name`.
fn check_pinned(pin: &str, name: &str, out: &Output) {
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
    let rss: u64 = perf_field(&out.perf, "peak_rss_kb");
    let kib = budget(RSS_BUDGETS_KIB, name);
    assert!(
        rss <= kib,
        "{name} quick peak RSS {rss} KiB exceeds its budget of {kib} KiB"
    );
    let wall: f64 = perf_field(&out.perf, "wall_seconds");
    let secs = budget(WALL_BUDGETS_S, name);
    assert!(
        wall <= secs,
        "{name} quick wall time {wall} s exceeds its budget of {secs} s"
    );
}

fn check(bin: &str, exe: &str) {
    check_pinned(bin, bin, &run(bin, exe, None, &[]));
}

fn check_campaign(bin: &str, plan: &str, exe: &str) {
    let pin = format!("{bin}_{plan}");
    let file = format!("{plan}.toml");
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../plans")
        .join(&file);
    let toml = std::fs::read_to_string(&src).unwrap_or_else(|e| panic!("{}: {e}", src.display()));
    let out = run(&pin, exe, Some((&file, &toml)), &[]);
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

/// Injectors whose rates are all 0 draw nothing: quick fig6 under a plan
/// with `[nvme]`, `[pcie]` and `[net]` sections, every rate 0, no window
/// and no storm, prints fig6's pinned stdout, retires its pinned events
/// and accounts no fault, within budgets of its own (`fig6_zero_rates`).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs fig6 in quick mode; use --release (CI does)"
)]
fn fig6_zero_rates() {
    let plan = "seed = 7\n[nvme]\nerror_rate = 0\nlatency_spike_rate = 0\n\
                [pcie]\ntimeout_rate = 0\n[net]\ndrop_rate = 0\ncorrupt_rate = 0\n";
    let out = run(
        "fig6_zero_rates",
        env!("CARGO_BIN_EXE_fig6"),
        Some(("zero_rates.toml", plan)),
        &[],
    );
    check_pinned("fig6", "fig6_zero_rates", &out);
    let accounting: Vec<&str> = out
        .stderr
        .lines()
        .filter_map(|l| l.strip_prefix("[fig6] "))
        .filter_map(|l| l.split_once("faults:"))
        .map(|(_, counts)| counts)
        .collect();
    assert_eq!(accounting.len(), 3, "{}", out.stderr);
    for counts in accounting {
        let mut numbers = counts.split(|c: char| !c.is_ascii_digit());
        assert!(numbers.all(|n| n.is_empty() || n == "0"), "{counts}");
    }
}

/// fig6 with a worker per configuration prints fig6's pinned stdout and
/// retires its pinned events. Every worker's class-image table holds
/// lazy bodies only, so the sweep stays within a budget of its own
/// (`fig6_jobs5`).
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

/// A `[retry] timeout_us` shorter than a healthy command times out every
/// command and injects nothing; ext_faults must account for that, not panic.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "runs ext_faults in quick mode; use --release (CI does)"
)]
fn ext_faults_accounts_for_timeouts() {
    let plan = Some(("timeout.toml", "seed = 5\n[retry]\ntimeout_us = 123\n"));
    let out = run(
        "ext_faults_timeout",
        env!("CARGO_BIN_EXE_ext_faults"),
        plan,
        &[],
    );
    let accounting = "seen 512, timeouts 512, retries 0, recovered 0, gave_up 512";
    assert!(out.stderr.contains(accounting), "{}", out.stderr);
}
