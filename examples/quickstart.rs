//! Quickstart: bring up the full simulated node, write data to the SSD
//! through the streamer's AXI4-Stream interfaces, read it back, and
//! verify integrity — the minimal "hello, SNAcc" flow.
//!
//! Run with: `cargo run --release --example quickstart`

use snacc::prelude::*;

fn main() {
    // One call builds the whole testbed: host memory + IOMMU, TaPaSCo
    // shell with the SNAcc NVMe plugin, a 990 PRO-class SSD, and runs the
    // paper's host-side bring-up (admin queue, identify, I/O queues into
    // the FPGA BAR, doorbell programming, IOMMU grants).
    let mut sys = SnaccSystem::bring_up(SystemConfig::snacc(StreamerVariant::Uram));
    println!("bring-up complete: variant = {:?}", sys.streamer.variant());

    let ports = sys.streamer.ports();

    // Write 1 MiB at byte address 0: header beat carries the address,
    // data beats follow, TLAST closes the transfer (paper Sec 4.1, ①b).
    let payload: Vec<u8> = (0..1 << 20).map(|i| (i * 31 % 251) as u8).collect();
    ports.write(&mut sys.en, 0, payload.chunks(64 << 10));
    let written = ports.response(&mut sys.en);
    sys.en.run();
    println!(
        "write response: {written} bytes persisted at t = {}",
        sys.en.now()
    );

    // Read it back (①a → ⑥a).
    let back = Payload::concat(&ports.read(&mut sys.en, 0, 1 << 20));
    assert_eq!(back, payload, "readback must match");
    println!(
        "readback verified: {} bytes, simulated time {}",
        back.len(),
        sys.en.now()
    );

    // No host involvement after bring-up: that's the paper's headline.
    let m = sys.streamer.metrics();
    println!(
        "streamer: {} commands ({} writes, {} reads), {} doorbells, {} errors",
        m.cmds_issued.get(),
        m.write_cmds.get(),
        m.read_cmds.get(),
        m.doorbells.get(),
        m.errors.get()
    );
}
