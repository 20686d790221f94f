//! On-die UltraRAM model.
//!
//! The URAM streamer variant buffers NVMe payload data in 4 MB of on-die
//! UltraRAM (Sec 4.3). URAM blocks are true dual-port: the ingress datapath
//! and the PCIe-facing port can move data concurrently, each at the fabric
//! datapath rate (512 bit × 300 MHz = 19.2 GB/s), with only a few cycles of
//! access latency. URAM is therefore never the bandwidth bottleneck — the
//! paper confirms the 4 MB URAM buffer "poses no limitation on bandwidth
//! compared to the 64 MB DRAM buffer".

use crate::segment::SegmentMemory;
use snacc_sim::bytes::Payload;
use snacc_sim::{Bandwidth, SharedLink, SimDuration, SimTime};

/// Buffer capacity in bytes: the paper's 4 MiB.
pub const URAM_BYTES: u64 = 4 << 20;
/// Per-port bandwidth: the 512-bit datapath at the 300 MHz
/// memory-controller clock.
pub const PORT_BANDWIDTH: Bandwidth = Bandwidth::gb_per_s(19.2);
/// Access latency: about 4 fabric cycles at 300 MHz.
pub const ACCESS_LATENCY: SimDuration = SimDuration::from_ns(13);

/// A dual-ported URAM buffer: independent read and write ports over one
/// functional store.
pub struct UramModel {
    store: SegmentMemory,
    read_port: SharedLink,
    write_port: SharedLink,
}

impl UramModel {
    /// Create a URAM buffer.
    pub fn new(name: &str) -> Self {
        let read_port = SharedLink::new(format!("{name}.rd"), PORT_BANDWIDTH, ACCESS_LATENCY);
        let write_port = SharedLink::new(format!("{name}.wr"), PORT_BANDWIDTH, ACCESS_LATENCY);
        UramModel {
            store: SegmentMemory::new(),
            read_port,
            write_port,
        }
    }

    /// Total bytes read out of the buffer.
    pub fn bytes_read(&self) -> u64 {
        self.read_port.bytes_transferred()
    }

    /// Total bytes written into the buffer.
    pub fn bytes_written(&self) -> u64 {
        self.write_port.bytes_transferred()
    }

    /// Direct functional access (no timing).
    pub fn store_mut(&mut self) -> &mut SegmentMemory {
        &mut self.store
    }

    fn check_bounds(&self, addr: u64, len: u64) {
        assert!(
            addr + len <= URAM_BYTES,
            "URAM access out of bounds: {addr:#x}+{len} > {URAM_BYTES:#x}"
        );
    }

    /// Timed + functional zero-copy write: the store retains the payload
    /// window (or copies a payload nothing else holds in place).
    pub fn write_payload(&mut self, now: SimTime, addr: u64, data: Payload) -> SimTime {
        let len = data.len() as u64;
        self.check_bounds(addr, len);
        self.store.write_payload(addr, data);
        self.write_port.transfer(now, len)
    }

    /// Timed + functional zero-copy read: returns the stored bytes as a
    /// payload view.
    pub fn read_payload(&mut self, now: SimTime, addr: u64, len: usize) -> (Payload, SimTime) {
        self.check_bounds(addr, len as u64);
        let p = self.store.read_payload(addr, len);
        (p, self.read_port.transfer(now, len as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> UramModel {
        UramModel::new("uram")
    }

    #[test]
    fn roundtrip() {
        let mut u = model();
        u.write_payload(SimTime::ZERO, 4096, Payload::from(b"payload"));
        let (out, _) = u.read_payload(SimTime::ZERO, 4096, 7);
        assert_eq!(out, b"payload"[..]);
    }

    #[test]
    fn dual_port_concurrency() {
        // A read and a write at the same instant do not serialise against
        // each other (separate ports).
        let mut u = model();
        let n = 1 << 20; // 1 MiB
        let w_done = u.write_payload(SimTime::ZERO, 0, Payload::fill(0, n));
        let (_, r_done) = u.read_payload(SimTime::ZERO, 0, n);
        assert_eq!(w_done, r_done);
        // But two reads do serialise.
        let (_, r2) = u.read_payload(SimTime::ZERO, 0, n);
        assert!(r2 > r_done);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn bounds_enforced() {
        let mut u = model();
        u.read_payload(SimTime::ZERO, URAM_BYTES - 10, 11);
    }

    #[test]
    fn bandwidth_is_fabric_rate() {
        let mut u = model();
        let n = 192_000; // bytes
        let (_, done) = u.read_payload(SimTime::ZERO, 0, n);
        // 19.2 GB/s → 10 µs for 192 kB (+13 ns latency).
        let expect_ns = 10_000 + 13;
        assert_eq!(done.as_ns(), expect_ns);
    }

    #[test]
    fn meters_accumulate() {
        let mut u = model();
        u.write_payload(SimTime::ZERO, 0, Payload::from([0u8; 100]));
        u.read_payload(SimTime::ZERO, 0, 50);
        assert_eq!(u.bytes_written(), 100);
        assert_eq!(u.bytes_read(), 50);
    }
}
