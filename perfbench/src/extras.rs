//! Per-layer measurements that need their own pass: the simulated-time
//! trace sample and the replay of the workload's media stream.

use crate::probe::Hist;
use crate::workloads::{run_config, Dir, Inputs, Outcome, Size, Spec, Workload};
use snacc_apps::images::{generate_image, ImageFormat, NUM_CLASSES};
use snacc_apps::pipeline::image_slot_bytes;
use snacc_mem::SegmentMemory;
use snacc_sim::Payload;
use std::collections::BTreeMap;
use std::time::Instant;

/// Trace categories pinned by the benchmark. Spans count begin events,
/// instants count marks; busy time sums span durations.
pub const TRACE_CATEGORIES: [&str; 6] = [
    "tlp.write",
    "nvme.read",
    "nand.read",
    "db.sq",
    "cqe",
    "eth.pause_tx",
];
/// The categories above that are spans (the rest are instants).
pub const TRACE_SPANS: [&str; 4] = ["tlp.write", "nvme.read", "nand.read", "eth.pause_tx"];

#[derive(Default)]
pub struct TraceCounts {
    pub spans: BTreeMap<String, u64>,
    /// Summed span durations in simulated ms.
    pub busy_ms: BTreeMap<String, f64>,
}

/// Run every configuration at [`Size::sample`] with the simulated-time
/// tracer installed and count the pinned categories in its export.
pub fn trace_sample(w: Workload, seed: u64) -> (TraceCounts, Vec<Outcome>) {
    let size = Size::sample();
    let inputs = Inputs::new(w, seed, size);
    let mut counts = TraceCounts::default();
    let mut outcomes = Vec::new();
    for spec in w.configs() {
        let tracer = snacc_trace::Tracer::new();
        snacc_trace::install(tracer.clone());
        outcomes.push(run_config(spec, &inputs, size, false));
        snacc_trace::uninstall();
        let text = snacc_trace::export_chrome_trace(&tracer);
        drop(tracer);
        let mut open: BTreeMap<String, f64> = BTreeMap::new();
        for ev in trace_events(&text) {
            let (Some(ph), Some(name)) = (
                ev.get("ph").and_then(|v| v.as_str()),
                ev.get("name").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            if !TRACE_CATEGORIES.contains(&name) || !matches!(ph, "b" | "e" | "i") {
                continue;
            }
            let ts = ev.get("ts").and_then(|v| v.as_f64()).unwrap_or(0.0);
            let id = ev.get("id").and_then(|v| v.as_str()).unwrap_or("");
            match ph {
                "b" | "i" => {
                    *counts.spans.entry(name.to_string()).or_default() += 1;
                    if ph == "b" {
                        open.insert(id.to_string(), ts);
                    }
                }
                _ => {
                    if let Some(t0) = open.remove(id) {
                        *counts.busy_ms.entry(name.to_string()).or_default() += (ts - t0) / 1e3;
                    }
                }
            }
        }
    }
    (counts, outcomes)
}

/// The objects of the export's `traceEvents` array, parsed one by one:
/// each event is small, while parsing the whole document at once is
/// slow for a trace of this size.
fn trace_events(text: &str) -> impl Iterator<Item = serde_json::Value> + '_ {
    let body = text
        .find("\"traceEvents\":[")
        .map_or("", |i| &text[i + "\"traceEvents\":[".len()..]);
    let (mut depth, mut in_str, mut escaped, mut start) = (0usize, false, false, 0usize);
    let mut spans = Vec::new();
    for (i, b) in body.bytes().enumerate() {
        if in_str {
            match b {
                _ if escaped => escaped = false,
                b'\\' => escaped = true,
                b'"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match b {
            b'"' => in_str = true,
            b'{' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    spans.push((start, i + 1));
                }
            }
            b']' if depth == 0 => break,
            _ => {}
        }
    }
    spans
        .into_iter()
        .map(move |(a, b)| serde_json::from_str(&body[a..b]).expect("trace event is valid JSON"))
}

/// Host-time of `SegmentMemory::write_payload` / `read_payload` calls.
#[derive(Default)]
pub struct Replay {
    pub write: Hist,
    pub read: Hist,
}

/// Replay each configuration's media stream into a fresh
/// `SegmentMemory`, timing every call. Write configurations replay their
/// writes; read configurations pre-fill and replay their reads; the
/// case study's configurations write the image stream and read it back.
pub fn replay_media(w: Workload, seed: u64) -> Replay {
    let size = Size::full();
    let inputs = Inputs::new(w, seed, size);
    let (mut write_hist, mut read_hist) = (Hist::default(), Hist::default());
    let mut write = |m: &mut SegmentMemory, addr: u64, p: Payload| {
        let t = Instant::now();
        m.write_payload(addr, p);
        write_hist.record_since(t);
    };
    let mut reads: Vec<(u64, usize)> = Vec::new();
    let mut fills: Vec<(u64, u64, u8)> = Vec::new();
    for spec in w.configs() {
        let mut m = SegmentMemory::new();
        reads.clear();
        fills.clear();
        match spec {
            Spec::Seq(_, _, dir) => {
                let (base, total, chunk) = (inputs.seq_base, size.seq_bytes, 64u64 << 10);
                for off in (0..total).step_by(chunk as usize) {
                    match dir {
                        Dir::Write => write(
                            &mut m,
                            base + off,
                            Payload::pattern(base + off, chunk as usize),
                        ),
                        Dir::Read => reads.push((base + off, chunk as usize)),
                    }
                }
                if dir == Dir::Read {
                    fills.push((base, total, 0xA5));
                }
            }
            Spec::RandStreamer(_, _, dir) | Spec::RandSpdk(_, dir) => {
                for &a in &inputs.rand_addrs {
                    match dir {
                        Dir::Write => write(&mut m, a, Payload::pattern(a, 4096)),
                        Dir::Read => reads.push((a, 4096)),
                    }
                }
                if dir == Dir::Read {
                    fills.push((0, 1 << 30, 0x3C));
                }
            }
            Spec::CaseStreamer(..) | Spec::CaseHost(..) => {
                let fmt = ImageFormat::capture();
                let slot = image_slot_bytes(fmt);
                let bodies: Vec<Payload> = (0..u64::from(NUM_CLASSES))
                    .map(|c| Payload::from_vec(generate_image(fmt, c).1))
                    .collect();
                let chunk = 16 << 10;
                for id in 0..size.images {
                    let body = &bodies[(id % u64::from(NUM_CLASSES)) as usize];
                    for off in (0..body.len()).step_by(chunk) {
                        let n = chunk.min(body.len() - off);
                        let addr = id * slot + off as u64;
                        write(&mut m, addr, body.slice(off..off + n));
                        reads.push((addr, n));
                    }
                }
            }
        }
        for &(a, len, byte) in &fills {
            m.fill(a, len, byte);
        }
        for &(a, len) in &reads {
            let t = Instant::now();
            let p = m.read_payload(a, len);
            read_hist.record_since(t);
            std::hint::black_box(p);
        }
    }
    Replay {
        write: write_hist,
        read: read_hist,
    }
}
