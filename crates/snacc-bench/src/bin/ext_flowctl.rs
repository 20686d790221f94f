//! Sec 4.7 — Ethernet flow control: a 100 G source against a slow sink,
//! directly and through a switch. Losslessness and goodput throttling.

use snacc_bench::{publish, BenchRecord, Telemetry};
use snacc_net::frame::MacAddr;
use snacc_net::mac::{self, EthMac, MacConfig};
use snacc_net::switch::EthSwitch;
use snacc_net::traffic::{RateSink, StreamSender};
use snacc_sim::{Bandwidth, Engine};

fn run(through_switch: bool, sink_gbps: f64, fc: bool) -> (f64, u64, u64) {
    let mut en = Engine::new();
    let cfg = if fc {
        MacConfig::eth_100g()
    } else {
        MacConfig::eth_100g_no_fc()
    };
    let a = EthMac::new("src", MacAddr::from_index(1), cfg.clone(), 1);
    let b = EthMac::new("dst", MacAddr::from_index(2), cfg.clone(), 2);
    let _sw = if through_switch {
        let sw = EthSwitch::new(cfg.clone());
        mac::connect(&a, &sw.port(0));
        mac::connect(&b, &sw.port(1));
        Some(sw)
    } else {
        mac::connect(&a, &b);
        None
    };
    let total: u64 = 256 << 20;
    let sink = RateSink::attach(b.clone(), Some(Bandwidth::gb_per_s(sink_gbps)));
    StreamSender::start(a.clone(), &mut en, MacAddr::from_index(2), 8192, total);
    en.run();
    let (received, mismatches, last_at) = {
        let s = sink.borrow();
        (s.received_bytes, s.mismatches, s.last_byte_at)
    };
    let bw = received as f64 / 1e9 / last_at.as_secs_f64().max(1e-12);
    let drops = b.borrow().stats().rx_drops;
    (bw, drops, mismatches)
}

fn main() {
    let telemetry = Telemetry::from_args();
    let mut records = Vec::new();
    for (label, sw, gbps, fc) in [
        ("direct, 6 GB/s sink, FC on", false, 6.0, true),
        ("via switch, 6 GB/s sink, FC on", true, 6.0, true),
        ("direct, 2 GB/s sink, FC on", false, 2.0, true),
        ("direct, 6 GB/s sink, FC OFF", false, 6.0, false),
    ] {
        let (bw, drops, mismatches) = run(sw, gbps, fc);
        println!("{label}: goodput {bw:.2} GB/s, drops {drops}, corrupt {mismatches}");
        records.push(BenchRecord::new("ext_flowctl", label, bw, None, "GB/s"));
        records.push(BenchRecord::new(
            "ext_flowctl",
            &format!("{label} drops"),
            drops as f64,
            Some(if fc { 0.0 } else { 1.0 }),
            "frames",
        ));
    }
    publish("Sec 4.7 — 802.3x flow control under a slow sink", &records);
    telemetry.finish();
}
