//! End-to-end streamer tests: full system bring-up (shell + SSD + host
//! driver) and data roundtrips through the user-PE stream interfaces for
//! all three buffer variants.

use snacc_apps::system::{HostSystem, SnaccSystem as System, SystemConfig};
use snacc_core::config::StreamerVariant;
use snacc_core::hostinit::SnaccHostDriver;
use snacc_mem::fnv1a;
use snacc_nvme::NvmeProfile;
use snacc_sim::{Payload, SimRng};

/// The full simulated node: host memory on the fabric, TaPaSCo shell with
/// the SNAcc plugin, NVMe SSD, enforcing IOMMU, host bring-up.
fn build_system(variant: StreamerVariant) -> System {
    let mut cfg = SystemConfig::snacc(variant);
    cfg.seed = 42;
    System::bring_up(cfg)
}

/// The host driver's Identify parsing: capacity and LBA size of the
/// 990 PRO-class namespace.
#[test]
fn identify_reports_namespace_geometry() {
    let mut host = HostSystem::bring_up(NvmeProfile::samsung_990pro(), 42);
    let mut driver = SnaccHostDriver::new(host.fabric, host.hostmem, host.nvme);
    driver
        .init_controller(&mut host.en)
        .expect("controller ready");
    let info = driver.identify(&mut host.en).expect("identify");
    assert_eq!(info.capacity_bytes, 2_000_000_000_000);
    assert_eq!(info.lba_bytes, 512);
}

/// Write `data` through `wr_in` in 8 KiB beats and check the response
/// token, then run the system idle.
fn do_write(sys: &mut System, addr: u64, data: &[u8]) {
    let ports = sys.streamer.ports();
    ports.write(&mut sys.en, addr, data.chunks(8192));
    assert_eq!(ports.response(&mut sys.en), data.len() as u64);
    sys.en.run();
}

/// Issue a read and collect the full transfer from `rd_data`.
fn do_read(sys: &mut System, addr: u64, len: u64) -> Vec<u8> {
    let beats = sys.streamer.ports().read(&mut sys.en, addr, len);
    sys.en.run();
    Payload::concat(&beats).to_vec()
}

fn patterned(len: usize, seed: u64) -> Vec<u8> {
    let mut rng = SimRng::new(seed);
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

fn roundtrip(variant: StreamerVariant, len: usize, addr: u64) {
    let mut sys = build_system(variant);
    let data = patterned(len, 0xABCD ^ len as u64);
    do_write(&mut sys, addr, &data);
    // The data must really be on the SSD's media.
    let media = sys
        .nvme
        .with(|d| d.nand_mut().media_mut().read_vec(addr, len));
    assert_eq!(fnv1a(&media), fnv1a(&data), "media contents differ");
    // And read back through the streamer.
    let back = do_read(&mut sys, addr, len as u64);
    assert_eq!(back.len(), len);
    assert_eq!(fnv1a(&back), fnv1a(&data), "readback differs");
}

#[test]
fn uram_small_roundtrip() {
    roundtrip(StreamerVariant::Uram, 4096, 0);
}

#[test]
fn uram_multi_megabyte_roundtrip() {
    // 3 MB: splits into 3 commands, exercises PRP-list synthesis.
    roundtrip(StreamerVariant::Uram, 3 << 20, 1 << 30);
}

#[test]
fn uram_unaligned_length_roundtrip() {
    // 6000 B pads to 12 LBAs on the wire; readback covers the request.
    let mut sys = build_system(StreamerVariant::Uram);
    let data = patterned(6144, 99);
    do_write(&mut sys, 8192, &data);
    let back = do_read(&mut sys, 8192, 6144);
    assert_eq!(back, data);
}

#[test]
fn onboard_dram_roundtrip() {
    roundtrip(StreamerVariant::OnboardDram, 2 << 20, 4096);
}

#[test]
fn host_dram_roundtrip() {
    roundtrip(StreamerVariant::HostDram, 2 << 20, 1 << 20);
}

#[test]
fn host_dram_large_crosses_pinned_segments() {
    // 6 MB spans two 4 MB pinned segments in the stitched host buffer.
    roundtrip(StreamerVariant::HostDram, 6 << 20, 0);
}

#[test]
fn multiple_sequential_writes_reuse_buffers() {
    let mut sys = build_system(StreamerVariant::Uram);
    // 10 × 1 MB writes cycle the 4 MB URAM buffer multiple times.
    for i in 0..10u64 {
        let data = patterned(1 << 20, i);
        do_write(&mut sys, i << 20, &data);
    }
    let m = sys.streamer.metrics();
    assert_eq!(m.write_cmds.get(), 10);
    assert_eq!(m.responses.get(), 10);
    assert_eq!(m.errors.get(), 0);
    // Verify a couple of extents on media.
    for i in [0u64, 7] {
        let expect = patterned(1 << 20, i);
        let got = sys
            .nvme
            .with(|d| d.nand_mut().media_mut().read_vec(i << 20, 1 << 20));
        assert_eq!(fnv1a(&got), fnv1a(&expect), "extent {i}");
    }
}

#[test]
fn interleaved_reads_and_writes() {
    let mut sys = build_system(StreamerVariant::Uram);
    let a = patterned(512 << 10, 1);
    let b = patterned(256 << 10, 2);
    do_write(&mut sys, 0, &a);
    do_write(&mut sys, 1 << 20, &b);
    let ra = do_read(&mut sys, 0, a.len() as u64);
    let rb = do_read(&mut sys, 1 << 20, b.len() as u64);
    assert_eq!(fnv1a(&ra), fnv1a(&a));
    assert_eq!(fnv1a(&rb), fnv1a(&b));
}

#[test]
fn read_of_unwritten_extent_returns_zeroes() {
    let mut sys = build_system(StreamerVariant::Uram);
    let back = do_read(&mut sys, 500 << 20, 8192);
    assert_eq!(back, vec![0u8; 8192]);
}

#[test]
fn write_latency_shape_under_9us() {
    // Fig 4c: a single 4 KiB write completes in < 9 µs end to end.
    let mut sys = build_system(StreamerVariant::Uram);
    let data = patterned(4096, 3);
    let start = sys.en.now();
    do_write(&mut sys, 0, &data);
    let us = sys.en.now().since(start).as_us_f64();
    assert!(us < 9.0, "4 KiB PE write took {us} µs");
}

#[test]
fn read_latency_shape_tens_of_us() {
    // Fig 4c: a single 4 KiB read is tR-bound (tens of µs).
    let mut sys = build_system(StreamerVariant::Uram);
    let data = patterned(4096, 4);
    do_write(&mut sys, 0, &data);
    let start = sys.en.now();
    let _ = do_read(&mut sys, 0, 4096);
    let us = sys.en.now().since(start).as_us_f64();
    assert!(us > 25.0 && us < 45.0, "4 KiB PE read took {us} µs");
}

#[test]
fn autonomy_no_host_traffic_during_steady_state() {
    // After bring-up, data movement must not involve the host: for the
    // URAM variant the host-facing byte counters stay flat while 2 MB
    // flows PE → SSD (the paper's headline autonomy property).
    let mut sys = build_system(StreamerVariant::Uram);
    let before = sys.hostmem.borrow().bytes_transferred();
    let data = patterned(2 << 20, 5);
    do_write(&mut sys, 0, &data);
    let after = sys.hostmem.borrow().bytes_transferred();
    assert_eq!(before, after, "URAM variant must not touch host memory");
}

#[test]
fn sim_time_advances_realistically() {
    // 8 MB sequential write at ~6 GB/s should take ~1.3 ms of simulated
    // time — sanity that timing is wired through (not functional-only).
    let mut sys = build_system(StreamerVariant::HostDram);
    let data = patterned(8 << 20, 6);
    let start = sys.en.now();
    do_write(&mut sys, 0, &data);
    let secs = sys.en.now().since(start).as_secs_f64();
    let gbps = data.len() as f64 / 1e9 / secs;
    assert!(gbps > 2.0 && gbps < 8.0, "write bandwidth {gbps} GB/s");
}
