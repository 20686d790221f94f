//! Off-chip DRAM channel model.
//!
//! The Alveo U280's TaPaSCo shell exposes a single DDR4 memory controller
//! (the paper notes this limitation explicitly in Sec 5.2). DDR data buses
//! are half-duplex: switching between reads and writes costs a turnaround
//! penalty, and under the on-board-DRAM streamer the ingress stream *writes*
//! while the NVMe controller *reads* the same channel, so the bus ping-pongs.
//! That is the mechanism behind the paper's reduced 4.6–4.8 GB/s on-board
//! write bandwidth, and it is what this model reproduces.

use crate::segment::SegmentMemory;
use snacc_sim::bytes::Payload;
use snacc_sim::{Bandwidth, SharedLink, SimDuration, SimTime};

/// Direction of a memory access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemDir {
    /// Data flows out of the memory.
    Read,
    /// Data flows into the memory.
    Write,
}

// One DDR4-2400 72-bit channel, as on the Alveo U280 shell.

/// Peak data-bus bandwidth.
pub const BANDWIDTH: Bandwidth = Bandwidth::gb_per_s(19.2);
/// Fixed access latency (activate + CAS + controller pipeline).
pub const ACCESS_LATENCY: SimDuration = SimDuration::from_ns(110);
/// Bus turnaround penalty paid when the access direction flips.
pub const TURNAROUND: SimDuration = SimDuration::from_ns(30);
/// Per-burst command overhead.
pub const BURST_OVERHEAD: SimDuration = SimDuration::from_ns(5);
/// Maximum burst size; larger accesses are split into bursts of this size
/// (the paper's streamer combines NVMe-controller beats into 4 KiB bursts,
/// Sec 4.3).
pub const BURST_BYTES: u64 = 4096;

/// A single DRAM channel: functional segment store + half-duplex timing.
pub struct DramController {
    store: SegmentMemory,
    bus: SharedLink,
    last_dir: Option<MemDir>,
    direction_switches: u64,
}

impl DramController {
    /// Create a channel.
    pub fn new(name: impl Into<String>) -> Self {
        let bus = SharedLink::new(name, BANDWIDTH, SimDuration::ZERO);
        DramController {
            store: SegmentMemory::new(),
            bus,
            last_dir: None,
            direction_switches: 0,
        }
    }

    /// Number of bus-direction switches incurred.
    pub fn direction_switches(&self) -> u64 {
        self.direction_switches
    }

    /// Total bytes moved over the data bus.
    pub fn bytes_transferred(&self) -> u64 {
        self.bus.bytes_transferred()
    }

    /// Direct functional access to the backing store (no timing) — used by
    /// initialisation code and by tests that verify datapath integrity.
    pub fn store_mut(&mut self) -> &mut SegmentMemory {
        &mut self.store
    }

    /// Book bus time for an access of `bytes` in direction `dir`, starting
    /// no earlier than `now`. Returns the completion time (when the last
    /// byte is available / absorbed). This is the timing half; the
    /// functional half is done by [`read_payload`](Self::read_payload) /
    /// [`write_payload`](Self::write_payload) which call it.
    pub fn access(&mut self, now: SimTime, dir: MemDir, bytes: u64) -> SimTime {
        let mut penalty = SimDuration::ZERO;
        if let Some(last) = self.last_dir {
            if last != dir {
                penalty += TURNAROUND;
                self.direction_switches += 1;
            }
        }
        self.last_dir = Some(dir);
        // Split into bursts: each pays command overhead; the data occupies
        // the bus back-to-back.
        let bursts = snacc_sim::ceil_div(bytes.max(1), BURST_BYTES);
        let overhead = penalty + BURST_OVERHEAD * bursts;
        let bus_done = self.bus.transfer_with_overhead(now, bytes, overhead);
        bus_done + ACCESS_LATENCY
    }

    /// Timed + functional zero-copy write: the store retains the payload
    /// window (or copies a payload nothing else holds in place).
    pub fn write_payload(&mut self, now: SimTime, addr: u64, data: Payload) -> SimTime {
        let len = data.len() as u64;
        self.store.write_payload(addr, data);
        self.access(now, MemDir::Write, len)
    }

    /// Timed + functional zero-copy read: returns the stored bytes as a
    /// payload view.
    pub fn read_payload(&mut self, now: SimTime, addr: u64, len: usize) -> (Payload, SimTime) {
        let p = self.store.read_payload(addr, len);
        (p, self.access(now, MemDir::Read, len as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> DramController {
        DramController::new("dram")
    }

    /// Completion of a bus that is busy for `busy` from time zero.
    fn at(busy: SimDuration) -> SimTime {
        SimTime::ZERO + busy + ACCESS_LATENCY
    }

    #[test]
    fn functional_roundtrip() {
        let mut d = dram();
        let data: Vec<u8> = (0..100).collect();
        d.write_payload(SimTime::ZERO, 0x10_0000, Payload::from(&data[..]));
        let (out, _) = d.read_payload(SimTime::ZERO, 0x10_0000, 100);
        assert_eq!(out, data);
    }

    #[test]
    fn same_direction_no_turnaround() {
        let mut d = dram();
        // Two one-burst writes: each = burst overhead + data time.
        let one = BURST_OVERHEAD + BANDWIDTH.time_for(BURST_BYTES);
        assert_eq!(d.access(SimTime::ZERO, MemDir::Write, BURST_BYTES), at(one));
        assert_eq!(
            d.access(SimTime::ZERO, MemDir::Write, BURST_BYTES),
            at(one * 2)
        );
        assert_eq!(d.direction_switches(), 0);
    }

    #[test]
    fn direction_switch_pays_turnaround() {
        let mut d = dram();
        let one = BURST_OVERHEAD + BANDWIDTH.time_for(BURST_BYTES);
        d.access(SimTime::ZERO, MemDir::Write, BURST_BYTES);
        let t = d.access(SimTime::ZERO, MemDir::Read, BURST_BYTES);
        assert_eq!(t, at(one * 2 + TURNAROUND));
        assert_eq!(d.direction_switches(), 1);
    }

    #[test]
    fn burst_splitting_charges_overhead() {
        let mut d = dram();
        // 2.5 bursts → 3 burst overheads.
        let bytes = BURST_BYTES * 5 / 2;
        let t = d.access(SimTime::ZERO, MemDir::Write, bytes);
        assert_eq!(t, at(BURST_OVERHEAD * 3 + BANDWIDTH.time_for(bytes)));
    }

    #[test]
    fn interleaved_traffic_loses_bandwidth() {
        // Ping-pong read/write costs turnarounds that same-direction
        // streams do not pay: the interleaved schedule must finish later.
        let mut a = dram();
        let mut b = dram();
        let mut t_a = SimTime::ZERO;
        for i in 0..100 {
            let dir = if i % 2 == 0 {
                MemDir::Write
            } else {
                MemDir::Read
            };
            t_a = a.access(SimTime::ZERO, dir, 1000);
        }
        let mut t_b = SimTime::ZERO;
        for _ in 0..100 {
            t_b = b.access(SimTime::ZERO, MemDir::Write, 1000);
        }
        assert!(t_a > t_b, "interleaved {t_a} vs streamed {t_b}");
        assert_eq!(a.direction_switches(), 99);
    }

    #[test]
    fn bus_counts_bytes_of_every_access() {
        let mut d = dram();
        d.access(SimTime::ZERO, MemDir::Read, 10);
        d.access(SimTime::ZERO, MemDir::Read, 10);
        d.access(SimTime::ZERO, MemDir::Write, 10);
        assert_eq!(d.bytes_transferred(), 30);
    }
}
