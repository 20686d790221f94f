//! Key-value store snapshotting: a third scenario on the public API.
//! An in-fabric KV table periodically snapshots itself to the SSD through
//! the streamer, then restores and verifies — exercising both write and
//! read directions plus the paper's Sec 7 out-of-order extension for the
//! scattered read-back.
//!
//! Run with: `cargo run --release --example kv_snapshot`

use snacc::nvme::NvmeProfile;
use snacc::prelude::*;
use snacc::sim::SimRng;
use std::collections::HashMap;

const SLOT: u64 = 4096; // one bucket per 4 KiB page

fn bucket_bytes(k: u64, v: &[u8]) -> Vec<u8> {
    let mut b = vec![0u8; SLOT as usize];
    b[0..8].copy_from_slice(&k.to_le_bytes());
    b[8..16].copy_from_slice(&(v.len() as u64).to_le_bytes());
    b[16..16 + v.len()].copy_from_slice(v);
    b
}

fn main() {
    // Out-of-order issue (Sec 7) helps the scattered restore path.
    let cfg = SystemConfig {
        streamer: StreamerConfig::snacc_ooo(StreamerVariant::Uram),
        nvme: NvmeProfile::samsung_990pro(),
        seed: 0x6b76,
        faults: None,
    };
    let mut sys = SnaccSystem::bring_up(cfg);
    let ports = sys.streamer.ports();

    // Build a KV table with 4096 buckets.
    let mut rng = SimRng::new(99);
    let mut table: HashMap<u64, Vec<u8>> = HashMap::new();
    for i in 0..4096u64 {
        let mut v = vec![0u8; 64 + (rng.gen_range(1024) as usize)];
        rng.fill_bytes(&mut v);
        table.insert(i, v);
    }

    // Snapshot: write each bucket to its slot (bucketed layout).
    let t0 = sys.en.now();
    let mut written = 0u64;
    for (&k, v) in &table {
        let addr = k * SLOT;
        ports.write(&mut sys.en, addr, [bucket_bytes(k, v)]);
        written += 1;
        while ports.poll_response(&mut sys.en).is_some() {}
    }
    sys.en.run();
    while ports.poll_response(&mut sys.en).is_some() {}
    let snap_dt = sys.en.now().since(t0).as_secs_f64();
    println!(
        "snapshot: {written} buckets ({} MiB) in {:.2} ms simulated ({:.2} GB/s)",
        (written * SLOT) >> 20,
        snap_dt * 1e3,
        (written * SLOT) as f64 / 1e9 / snap_dt
    );

    // Restore: scattered reads of 512 random buckets, verify contents.
    let t1 = sys.en.now();
    let mut checked = 0;
    for _ in 0..512 {
        let k = rng.gen_range(4096);
        let page = Payload::concat(&ports.read(&mut sys.en, k * SLOT, SLOT));
        let rk = u64::from_le_bytes(page[0..8].try_into().unwrap());
        let rlen = u64::from_le_bytes(page[8..16].try_into().unwrap()) as usize;
        assert_eq!(rk, k);
        assert_eq!(&page[16..16 + rlen], &table[&k][..], "bucket {k} corrupt");
        checked += 1;
    }
    let rest_dt = sys.en.now().since(t1).as_secs_f64();
    println!(
        "restore: verified {checked} random buckets in {:.2} ms simulated ({:.2} GB/s scattered)",
        rest_dt * 1e3,
        (checked as u64 * SLOT) as f64 / 1e9 / rest_dt
    );
}
