//! Streamer retry/recovery under deterministic NVMe fault injection:
//! in-order delivery survives replays, the retry budget is honoured, and
//! the accounting never loses a fault
//! (`injected == retries + gave_up` for command-error campaigns).

use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_core::config::{RetryPolicy, StreamerVariant};
use snacc_core::streamer::StreamerHandle;
use snacc_nvme::IoFaultConfig;
use snacc_sim::bytes::pattern_byte;
use snacc_sim::{Engine, Payload, SimDuration};

/// A system in a metrics registry of its own, so its streamer and fault
/// counters count this system only.
fn build(variant: StreamerVariant, retry: RetryPolicy) -> SnaccSystem {
    snacc_trace::install_registry(snacc_trace::MetricsRegistry::new());
    let mut cfg = SystemConfig::snacc(variant);
    cfg.streamer.retry = retry;
    cfg.seed = 3;
    SnaccSystem::bring_up(cfg)
}

fn policy(max_retries: u32) -> RetryPolicy {
    RetryPolicy {
        max_retries,
        backoff: SimDuration::from_us(10),
        cmd_timeout: None,
    }
}

/// Drive `count` sequential reads of `len` bytes and return the delivered
/// bytes per read (delivery order == issue order by construction of the
/// single data stream).
fn read_all(en: &mut Engine, streamer: &StreamerHandle, count: u64, len: u64) -> Vec<Vec<u8>> {
    let ports = streamer.ports();
    for i in 0..count {
        ports.push_read(en, i * len, len);
    }
    let out = (0..count)
        .map(|_| Payload::concat(&ports.receive(en)).to_vec())
        .collect();
    en.run();
    out
}

#[test]
fn transient_errors_recover_with_exact_data() {
    // Distinct media bytes per address: a replay that fetched the wrong
    // page, or into the wrong buffer page, cannot pass for the right one.
    const SEED: u64 = 0x5eed;
    for variant in StreamerVariant::all() {
        let mut sys = build(variant, policy(3));
        let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
        let (count, len) = (24u64, 128u64 * 1024);
        let media = Payload::pattern(SEED, (count * len) as usize);
        nvme.with(|d| d.nand_mut().media_mut().write_payload(0, media));
        nvme.install_faults(IoFaultConfig::error_only(0.2, 77));
        let reads = read_all(en, streamer, count, len);
        let m = streamer.metrics();
        let injected = nvme.fault_stats().errors;
        assert!(
            injected > 0,
            "{variant:?}: campaign must inject at this rate"
        );
        assert!(m.recovered.get() > 0, "{variant:?}: retries must recover");
        assert_eq!(m.gave_up.get(), 0, "{variant:?}: budget covers 20% errors");
        // Recovery is invisible to the consumer: every read delivers its
        // exact media bytes, in issue order.
        for (i, data) in reads.iter().enumerate() {
            assert_eq!(data.len() as u64, len, "{variant:?}: read {i} length");
            let base = i as u64 * len;
            assert!(
                (0..len).all(|j| data[j as usize] == pattern_byte(SEED, base + j)),
                "{variant:?}: read {i} must carry its media bytes"
            );
        }
    }
}

#[test]
fn fault_accounting_is_conserved() {
    for variant in StreamerVariant::all() {
        let mut sys = build(variant, policy(2));
        let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
        let (count, len) = (16u64, 64u64 * 1024);
        nvme.with(|d| d.nand_mut().prewarm(0, count * len, 0x11));
        nvme.install_faults(IoFaultConfig::error_only(0.25, 5));
        let _ = read_all(en, streamer, count, len);
        let m = streamer.metrics();
        let injected = nvme.fault_stats().errors;
        let errors = m.errors.get();
        let retries = m.retries.get();
        let gave_up = m.gave_up.get();
        assert!(injected > 0, "{variant:?}: campaign must inject");
        assert_eq!(errors, injected, "{variant:?}: every fault surfaces");
        assert_eq!(
            injected,
            retries + gave_up,
            "{variant:?}: every fault is retried or given up"
        );
    }
}

#[test]
fn exhausted_budget_gives_up_without_wedging() {
    // Rate 1.0: every attempt fails, so each command burns its full
    // budget (2 retries) and then gives up; reads still deliver a full
    // (zeroed) stream so the PE protocol never stalls.
    let mut sys = build(StreamerVariant::Uram, policy(2));
    let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
    let (count, len) = (4u64, 64u64 * 1024);
    nvme.install_faults(IoFaultConfig::error_only(1.0, 1));
    let reads = read_all(en, streamer, count, len);
    let m = streamer.metrics();
    let gave_up = m.gave_up.get();
    let retries = m.retries.get();
    assert!(gave_up > 0, "nothing can survive rate 1.0");
    assert_eq!(retries, 2 * gave_up, "full budget spent before giving up");
    assert_eq!(m.recovered.get(), 0);
    for data in &reads {
        assert_eq!(data.len() as u64, len, "stream stays live");
        assert!(data.iter().all(|&b| b == 0), "given-up reads stream zeros");
    }
}

#[test]
fn given_up_reads_stream_zeros_over_used_buffers() {
    // 64 reads of 64 KiB fill the whole 4 MiB URAM ring with media bytes;
    // the next reads reuse those regions and give up. What they stream
    // must be zeros, not the region's previous contents.
    let mut sys = build(StreamerVariant::Uram, policy(1));
    let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
    let len = 64u64 * 1024;
    nvme.with(|d| d.nand_mut().prewarm(0, 64 * len, 0xC3));
    let warm = read_all(en, streamer, 64, len);
    assert!(warm.iter().flatten().all(|&b| b == 0xC3));
    nvme.install_faults(IoFaultConfig::error_only(1.0, 1));
    let reads = read_all(en, streamer, 8, len);
    assert_eq!(streamer.metrics().gave_up.get(), 8);
    for (i, data) in reads.iter().enumerate() {
        assert_eq!(data.len() as u64, len, "read {i} stream stays live");
        assert!(
            data.iter().all(|&b| b == 0),
            "given-up read {i} streams zeros"
        );
    }
}

#[test]
fn retries_disabled_fail_fast() {
    // The default policy pre-dates the fault subsystem: transient errors
    // are terminal, counted as gave_up, and cost no retry traffic.
    let mut sys = build(StreamerVariant::Uram, RetryPolicy::disabled());
    let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
    nvme.install_faults(IoFaultConfig::error_only(0.5, 3));
    let _ = read_all(en, streamer, 8, 64 * 1024);
    let m = streamer.metrics();
    let injected = nvme.fault_stats().errors;
    assert!(injected > 0);
    assert_eq!(m.retries.get(), 0);
    assert_eq!(m.gave_up.get(), injected);
}

#[test]
fn latency_spikes_trigger_timeout_replay() {
    // A spike stalls the command past the timeout; the streamer declares
    // it lost and replays it. The spiked original eventually completes
    // under its stale cid and must be ignored (no double retirement).
    let mut cfg = policy(3);
    cfg.cmd_timeout = Some(SimDuration::from_us(900));
    let mut sys = build(StreamerVariant::Uram, cfg);
    let (en, streamer, nvme) = (&mut sys.en, &sys.streamer, &sys.nvme);
    let (count, len) = (8u64, 64u64 * 1024);
    nvme.with(|d| d.nand_mut().prewarm(0, count * len, 0x3C));
    nvme.install_faults(IoFaultConfig {
        error_rate: 0.0,
        error_status: snacc_nvme::spec::Status::DataTransferError,
        latency_spike_rate: 0.3,
        latency_spike: SimDuration::from_us(5_000),
        window: None,
        seed: 21,
    });
    let reads = read_all(en, streamer, count, len);
    let m = streamer.metrics();
    assert!(nvme.fault_stats().spikes > 0, "campaign must spike");
    assert!(m.timeouts.get() > 0, "spikes must time out");
    assert!(m.recovered.get() > 0, "replays recover");
    assert_eq!(m.gave_up.get(), 0);
    for (i, data) in reads.iter().enumerate() {
        assert_eq!(data.len() as u64, len);
        assert!(data.iter().all(|&b| b == 0x3C), "read {i} intact");
    }
}
