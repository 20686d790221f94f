//! Host-time and host-memory benchmark of the SNAcc simulator.
//!
//! ```text
//! snacc-perfbench --workload <seq_stream|rand_4k|case_study>
//!                 [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The parent process measures for `--seconds`: it runs the workload in
//! rounds, each round one child process that runs every configuration
//! one after another on one thread, and reports medians over the rounds.
//! A fresh process per round keeps each round's peak RSS and retained
//! memory its own (a dropped system's `Rc` graph is never freed). With
//! `--trace 1` the rounds alternate untraced and traced (the benchmark
//! times its own calls into the simulator), and one more child runs the
//! simulated-time trace sample and the media replay. The last line of
//! stdout is the result: `correct`, `attempted`, `failed`, `metrics`.
//! See `perfbench/README.md`.

mod check;
mod extras;
mod metrics;
mod probe;
mod workloads;

use serde_json::{Map, Value};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{measure_config, Inputs, Outcome, Size, Workload};

const USAGE: &str = "usage: snacc-perfbench --workload <seq_stream|rand_4k|case_study> \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// The work a child process does.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Part {
    Round,
    TracedRound,
    Extras,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    part: Option<Part>,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut part) =
        (None, check::DEFAULT_SEED, 40, false, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=3600).contains(&seconds) {
                    return Err("--seconds must be 1..=3600".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--part" => {
                part = Some(match value()?.as_str() {
                    "round" => Part::Round,
                    "traced-round" => Part::TracedRound,
                    "extras" => Part::Extras,
                    v => return Err(format!("unknown --part {v:?}")),
                })
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        part,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.part {
        Some(part) => {
            println!("{}", serde_json::to_string(&child(&args, part)));
            ExitCode::SUCCESS
        }
        None => parent(&args),
    }
}

fn outcome_json(o: &Outcome) -> Value {
    let l = &o.layer;
    let mut m = Map::new();
    m.insert("name", Value::from(o.name));
    m.insert("ops", Value::from(o.ops));
    m.insert("failed", Value::from(o.failed()));
    m.insert("wall_s", Value::from(o.wall_s));
    m.insert("setup_s", Value::from(o.setup_s));
    m.insert("prewarm_s", Value::from(o.prewarm_s));
    m.insert("speed", Value::from(o.speed));
    m.insert("rss_retained_mb", Value::from(o.rss_retained_mb));
    let errors = o.errors.iter().map(|e| Value::from(e.as_str())).collect();
    m.insert("errors", Value::Array(errors));
    m.insert("sig", check::to_json(&o.sig));
    for (k, v) in [
        ("nvme_cmds", l.nvme_cmds),
        ("nvme_errors", l.nvme_errors),
        ("pcie_tlps", l.pcie_tlps),
        ("stored_bytes", l.stored_bytes),
        ("core_cmds", l.core_cmds),
        ("core_doorbells", l.core_doorbells),
        ("core_cqes", l.core_cqes),
        ("core_cq_events", l.core_cq_events),
        ("net_tx_frames", l.net_tx_frames),
        ("net_pauses", l.net_pauses),
        ("net_rx_drops", l.net_rx_drops),
        ("spdk_completed", l.spdk_completed),
        ("nand_segments", l.nand_segments),
        ("nand_resident_pages", l.nand_resident_pages),
        ("host_segments", l.host_segments),
        ("host_resident_pages", l.host_resident_pages),
    ] {
        m.insert(k, Value::from(v));
    }
    m.insert("core_lat_p50_us", Value::from(l.core_lat_p50_us));
    m.insert("core_lat_p99_us", Value::from(l.core_lat_p99_us));
    if let Some(share) = l.spdk_busy_share {
        m.insert("spdk_busy_share", Value::from(share));
    }
    Value::Object(m)
}

/// One child process: a measured round, or the trace sample plus replay.
fn child(a: &Args, part: Part) -> Value {
    let w = a.workload;
    let mut m = Map::new();
    let outcomes: Vec<Outcome> = match part {
        Part::Round | Part::TracedRound => {
            let size = Size::full();
            let inputs = Inputs::new(w, a.seed, size);
            let traced = part == Part::TracedRound;
            let outs: Vec<Outcome> = w
                .configs()
                .into_iter()
                .map(|spec| measure_config(spec, &inputs, size, traced))
                .collect();
            if traced {
                let mut p = probe::Probe::new(true);
                for o in &outs {
                    p.merge(&o.probe);
                }
                m.insert("probe", metrics::probe_json(&p));
            }
            outs
        }
        Part::Extras => {
            let (counts, outs) = extras::trace_sample(w, a.seed);
            let replay = extras::replay_media(w, a.seed);
            m.insert("extras", metrics::extras_json(w, a.seed, &counts, &replay));
            outs
        }
    };
    let configs = outcomes.iter().map(outcome_json).collect();
    m.insert("configs", Value::Array(configs));
    m.insert("peak_rss_mb", Value::from(probe::peak_rss_mb()));
    Value::Object(m)
}

/// Run one child and parse its result line; `None` if it failed.
fn spawn(a: &Args, part: &str) -> Option<Value> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args([
            "--workload",
            a.workload.name(),
            "--seed",
            &a.seed.to_string(),
        ])
        .args(["--part", part])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!("perfbench: {part} child exited with {}", out.status);
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(text.lines().last()?).ok()
}

/// Best-effort commit id of the checkout (no git process is spawned).
fn commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => read(&format!(".git/{r}"))
            .or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next().map(String::from))
            })
            .unwrap_or_else(|| "unknown".into()),
    }
}

fn parent(a: &Args) -> ExitCode {
    let start = Instant::now();
    let mut rounds: Vec<metrics::Round> = Vec::new();
    let mut child_failures = 0;
    // Untraced rounds, or untraced and traced in turn, while another
    // round of average length still fits in the run length; a traced run
    // has at least one traced round.
    loop {
        let traced = a.trace && rounds.len() % 2 == 1;
        match spawn(a, if traced { "traced-round" } else { "round" }) {
            Some(v) => rounds.push(metrics::Round { traced, v }),
            None => child_failures += 1,
        }
        if child_failures > 0 {
            break;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let next = elapsed / rounds.len() as f64;
        let need_traced = a.trace && !rounds.iter().any(|r| r.traced);
        if !need_traced && elapsed + next > a.seconds as f64 {
            break;
        }
    }
    let extras = if a.trace && child_failures == 0 {
        let e = spawn(a, "extras");
        child_failures += usize::from(e.is_none());
        e
    } else {
        None
    };
    let report =
        metrics::Report::build(a.workload, a.seed, &rounds, extras.as_ref(), child_failures);

    let mut manifest = Map::new();
    manifest.insert("workload", Value::from(a.workload.name()));
    manifest.insert("seed", Value::from(a.seed));
    let configs = a
        .workload
        .configs()
        .iter()
        .map(|s| Value::from(s.name()))
        .collect();
    manifest.insert("configurations", Value::Array(configs));
    manifest.insert("request", Value::from(a.workload.op_unit()));
    manifest.insert(
        "requests_per_config",
        Value::from(Size::full().ops(a.workload)),
    );
    manifest.insert("seconds", Value::from(a.seconds));
    manifest.insert("rounds", Value::from(rounds.len()));
    manifest.insert("elapsed_s", Value::from(start.elapsed().as_secs_f64()));
    manifest.insert("commit", Value::from(commit()));
    manifest.insert(
        "mode",
        Value::from(if a.trace { "traced" } else { "untraced" }),
    );
    manifest.insert("threads", Value::from(1u64));
    let recorded = [check::DEFAULT_SEED, check::HELD_OUT_SEED].map(Value::from);
    manifest.insert("reference_seeds", Value::Array(recorded.to_vec()));

    report.print_table();
    let mut detail = report.detail();
    detail.insert("manifest", Value::Object(manifest));
    println!("{}", serde_json::to_string(&Value::Object(detail)));
    println!("{}", serde_json::to_string(&report.result(a.trace)));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_are_checked() {
        let a = args("--workload rand_4k --seed 9 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::Rand4k, 9, 12, true)
        );
        let d = args("--workload case_study").unwrap();
        assert_eq!(
            (d.seed, d.seconds, d.trace),
            (check::DEFAULT_SEED, 40, false)
        );
        for bad in [
            "",
            "--workload nope",
            "--workload rand_4k --trace 2",
            "--workload rand_4k --seconds 0",
            "--workload rand_4k --seed x",
            "--workload rand_4k --bogus",
            "--workload rand_4k --seed",
        ] {
            assert!(args(bad).is_err(), "{bad:?} must be rejected");
        }
    }
}
