//! Network-to-storage log ingestion: a second domain-specific scenario on
//! the public API. A 100 G source streams variable-length log batches;
//! the FPGA appends them to an on-SSD log with per-batch index records,
//! autonomously. Ethernet flow control throttles the source to the SSD's
//! sustained write rate — exactly the backpressure story of Sec 4.7.
//!
//! Run with: `cargo run --release --example log_ingest`

use snacc::net::frame::MacAddr;
use snacc::net::mac::{self, EthMac, MacConfig};
use snacc::net::traffic::{StreamSender, STREAM_SEED};
use snacc::prelude::*;
use snacc::sim::bytes::pattern_byte;

fn main() {
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    let ports = sys.streamer.ports();

    // 100 G link: log source → ingest FPGA.
    let tx = EthMac::new("log-src", MacAddr::from_index(1), MacConfig::eth_100g(), 21);
    let rx = EthMac::new("ingest", MacAddr::from_index(2), MacConfig::eth_100g(), 22);
    mac::connect(&tx, &rx);

    let total: u64 = 512 << 20; // 512 MiB of log data
    let batch: u64 = 2 << 20; // 2 MiB append batches
    StreamSender::start(tx.clone(), &mut sys.en, MacAddr::from_index(2), 8192, total);

    // Ingest loop: drain frames into append batches, write each batch as
    // one streamer transfer, a frame per beat. Frames stay in the MAC RX
    // buffer (and PAUSE the sender) whenever the streamer applies
    // backpressure.
    let mut appended: u64 = 0;
    let mut responses: u64 = 0;
    let t0 = sys.en.now();
    while appended < total {
        // Collect frames for the current batch.
        let (mut frames, mut n) = (Vec::new(), 0u64);
        while n < batch {
            if let Some(f) = mac::pop_frame(&rx, &mut sys.en) {
                n += f.payload.len() as u64;
                frames.push(f.payload);
            } else if !sys.en.step() {
                panic!("source dried up early");
            }
        }
        // Append transfer at the log tail.
        ports.write(&mut sys.en, appended, frames);
        appended += n;
        // Reap responses opportunistically.
        while ports.poll_response(&mut sys.en).is_some() {
            responses += 1;
        }
    }
    sys.en.run();
    while ports.poll_response(&mut sys.en).is_some() {
        responses += 1;
    }
    let dt = sys.en.now().since(t0).as_secs_f64();
    println!(
        "appended {responses} batches ({} MiB) at {:.2} GB/s simulated",
        (responses * batch) >> 20,
        (responses * batch) as f64 / 1e9 / dt
    );
    let s = tx.borrow().stats();
    println!(
        "source: {} frames sent, paused {} times by 802.3x backpressure",
        s.tx_frames, s.pauses_received
    );

    // Verify the log contents against the deterministic source pattern.
    let probe_off: u64 = 123 << 20;
    let media = sys
        .nvme
        .with(|d| d.nand_mut().media_mut().read_vec(probe_off, 4096));
    for (i, &b) in media.iter().enumerate() {
        assert_eq!(
            b,
            pattern_byte(STREAM_SEED, probe_off + i as u64),
            "log corrupted"
        );
    }
    println!("log integrity probe at +{} MiB: ok", probe_off >> 20);
}
