//! Trace determinism: the same seed and configuration must produce a
//! byte-identical exported trace across independent runs. This is the
//! contract that makes traces diffable — a perf regression shows up as a
//! trace diff, not as noise.

use snacc::prelude::*;
use snacc::trace::{export_chrome_trace, install, uninstall, Tracer};

/// One small full-system workload (URAM variant): an 8 KiB write followed
/// by a 64 KiB read, recorded under a fresh tracer.
fn traced_run() -> String {
    install(Tracer::new());
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();
    ports.write(&mut sys.en, 0, [vec![0x5a; 8192]]);
    sys.en.run();
    assert!(ports.poll_response(&mut sys.en).is_some());
    ports.push_read(&mut sys.en, 0, 64 << 10);
    assert_eq!(ports.receive_with(&mut sys.en, drop), 64 << 10);
    sys.en.run();
    let tracer = uninstall().expect("tracer was installed");
    export_chrome_trace(&tracer)
}

#[test]
fn identical_runs_export_byte_identical_traces() {
    let a = traced_run();
    let b = traced_run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + config must yield identical traces");
}

#[test]
fn trace_covers_the_whole_datapath() {
    let json = traced_run();
    // Spans from at least four model crates must appear: streamer
    // (snacc-core), TLPs (snacc-pcie), NVMe command + NAND (snacc-nvme).
    for needle in [
        "cmd.read",
        "cmd.write",
        "tlp.write",
        "nvme.read",
        "nand.read",
    ] {
        assert!(json.contains(needle), "trace missing {needle}");
    }
    // And it parses as Chrome trace_event JSON.
    let doc = serde_json::from_str(&json).expect("valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty());
}
