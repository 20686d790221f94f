//! Sec 7 extension — multi-SSD scaling: aggregate sequential write
//! bandwidth over 1–4 SSDs, one streamer instance per drive, with a
//! striping layer fanning one logical stream across them.

use snacc_apps::system::{SnaccSystem, SystemConfig};
use snacc_bench::{publish, BenchRecord, Telemetry};
use snacc_core::config::StreamerVariant;
use snacc_core::multi::MultiSsd;
use snacc_sim::Payload;

fn aggregate_write_bw(n_ssds: usize) -> f64 {
    let mut cfg = SystemConfig::snacc(StreamerVariant::Uram);
    cfg.seed = 100;
    let mut sys = SnaccSystem::bring_up(cfg);
    let mut streamers = vec![sys.streamer.clone()];
    streamers.extend((1..n_ssds).map(|_| sys.attach_ssd().0));
    let multi = MultiSsd::new(streamers.clone(), 1 << 20);

    // Stream 1 GiB of striped writes, paced by responses.
    let total: u64 = 1 << 30;
    let stripe_batch: u64 = (n_ssds as u64) << 20;
    // One shared batch: every striped write slices windows out of it.
    let data = Payload::from_vec((0..stripe_batch).map(|i| i as u8).collect());
    let en = &mut sys.en;
    let t0 = en.now();
    let mut off = 0u64;
    while off < total {
        multi.write_striped(en, off, &data);
        en.run();
        off += stripe_batch;
    }
    // Drain responses.
    for s in &streamers {
        let ports = s.ports();
        while ports.poll_response(en).is_some() {}
    }
    let dt = en.now().since(t0).as_secs_f64();
    total as f64 / 1e9 / dt
}

fn main() {
    let telemetry = Telemetry::from_args();
    let mut records = Vec::new();
    for n in 1..=4usize {
        let bw = aggregate_write_bw(n);
        println!("{n} SSD(s): {bw:.2} GB/s aggregate sequential write");
        records.push(BenchRecord::new(
            "ext_multi_ssd",
            &format!("{n} SSD"),
            bw,
            None,
            "GB/s",
        ));
    }
    publish("Sec 7 extension — multi-SSD write scaling", &records);
    telemetry.finish();
}
