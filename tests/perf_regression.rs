//! Perf-refactor regression guard: the zero-copy payload datapath and the
//! engine fast path are *wall-clock* optimisations — they must not change
//! anything observable inside the simulation. A fig4a-style workload
//! (sequential streamer writes and reads of pattern data) is run twice;
//! both runs must produce identical `StreamerMetrics` totals, identical
//! simulated end times, and byte-identical exported traces.

use snacc::prelude::*;
use snacc::trace::{
    export_chrome_trace, install, install_registry, uninstall, MetricsRegistry, Tracer,
};

const CHUNK: u64 = 64 << 10;
const TOTAL: u64 = 1 << 20; // 1 MiB, fig4a shape at test scale

/// Sequential pattern writes through the streamer ports, then a read of
/// the same extent — the shape of `snacc_seq_bandwidth` (Fig 4a) at a
/// size a unit test can afford. Payloads are lazily generated
/// [`Payload::pattern`] segments, exercising the zero-copy path the
/// PR 3 refactor introduced.
fn fig4a_style_run() -> (String, Vec<(&'static str, u64)>, u64) {
    install(Tracer::new());
    install_registry(MetricsRegistry::new());
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();

    // Write TOTAL bytes in CHUNK beats.
    let beats = (0..TOTAL)
        .step_by(CHUNK as usize)
        .map(|off| Payload::pattern(off, CHUNK.min(TOTAL - off) as usize));
    ports.write(&mut sys.en, 0, beats);
    sys.en.run();
    assert!(ports.poll_response(&mut sys.en).is_some());

    // Read the extent back, discarding data.
    ports.push_read(&mut sys.en, 0, TOTAL);
    assert_eq!(ports.receive_with(&mut sys.en, drop), TOTAL);
    sys.en.run();

    let m = sys.streamer.metrics();
    let totals = vec![
        ("cmds_issued", m.cmds_issued.get()),
        ("read_cmds", m.read_cmds.get()),
        ("write_cmds", m.write_cmds.get()),
        ("bytes_to_pe", m.bytes_to_pe.get()),
        ("bytes_from_pe", m.bytes_from_pe.get()),
        ("errors", m.errors.get()),
        ("doorbells", m.doorbells.get()),
        ("responses", m.responses.get()),
    ];
    let end_ps = sys.en.now().as_ps();
    let tracer = uninstall().expect("tracer was installed");
    (export_chrome_trace(&tracer), totals, end_ps)
}

#[test]
fn fig4a_style_totals_and_trace_are_reproducible() {
    let (trace_a, totals_a, end_a) = fig4a_style_run();
    let (trace_b, totals_b, end_b) = fig4a_style_run();

    assert_eq!(totals_a, totals_b, "StreamerMetrics totals must not drift");
    assert_eq!(end_a, end_b, "simulated end time must not drift");
    assert!(!trace_a.is_empty());
    assert_eq!(
        trace_a, trace_b,
        "same seed + config must yield byte-identical traces"
    );

    // Sanity: the workload really moved the bytes it claims.
    let by_name: std::collections::HashMap<_, _> = totals_a.into_iter().collect();
    assert_eq!(by_name["bytes_from_pe"], TOTAL);
    assert_eq!(by_name["bytes_to_pe"], TOTAL);
    assert!(by_name["write_cmds"] >= 1);
    assert!(by_name["read_cmds"] >= 1);
    assert_eq!(by_name["errors"], 0);
}
