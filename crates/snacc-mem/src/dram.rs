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

/// DRAM channel parameters.
#[derive(Clone, Debug)]
pub struct DramConfig {
    /// Peak data-bus bandwidth.
    pub bandwidth: Bandwidth,
    /// Fixed access latency (activate + CAS + controller pipeline).
    pub access_latency: SimDuration,
    /// Bus turnaround penalty paid when the access direction flips.
    pub turnaround: SimDuration,
    /// Per-burst command overhead.
    pub burst_overhead: SimDuration,
    /// Maximum burst size; larger accesses are split into bursts of this
    /// size (the paper's streamer combines NVMe-controller beats into 4 KiB
    /// bursts, Sec 4.3).
    pub burst_bytes: u64,
}

impl DramConfig {
    /// One DDR4-2400 72-bit channel as found on the Alveo U280 shell.
    pub fn ddr4_u280() -> Self {
        DramConfig {
            bandwidth: Bandwidth::gb_per_s(19.2),
            access_latency: SimDuration::from_ns(110),
            turnaround: SimDuration::from_ns(30),
            burst_overhead: SimDuration::from_ns(5),
            burst_bytes: 4096,
        }
    }
}

/// A single DRAM channel: functional segment store + half-duplex timing.
pub struct DramController {
    cfg: DramConfig,
    store: SegmentMemory,
    bus: SharedLink,
    last_dir: Option<MemDir>,
    direction_switches: u64,
}

impl DramController {
    /// Create a channel with the given config.
    pub fn new(name: impl Into<String>, cfg: DramConfig) -> Self {
        let bus = SharedLink::new(name, cfg.bandwidth, SimDuration::ZERO);
        DramController {
            cfg,
            store: SegmentMemory::new(),
            bus,
            last_dir: None,
            direction_switches: 0,
        }
    }

    /// The channel configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
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
                penalty += self.cfg.turnaround;
                self.direction_switches += 1;
            }
        }
        self.last_dir = Some(dir);
        // Split into bursts: each pays command overhead; the data occupies
        // the bus back-to-back.
        let bursts = snacc_sim::ceil_div(bytes.max(1), self.cfg.burst_bytes);
        let overhead = penalty + self.cfg.burst_overhead * bursts;
        let bus_done = self.bus.transfer_with_overhead(now, bytes, overhead);
        bus_done + self.cfg.access_latency
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

    fn quick_cfg() -> DramConfig {
        DramConfig {
            bandwidth: Bandwidth::gb_per_s(1.0), // 1 B/ns, easy math
            access_latency: SimDuration::from_ns(100),
            turnaround: SimDuration::from_ns(50),
            burst_overhead: SimDuration::from_ns(10),
            burst_bytes: 1000,
        }
    }

    #[test]
    fn functional_roundtrip() {
        let mut d = DramController::new("dram", DramConfig::ddr4_u280());
        let data: Vec<u8> = (0..100).collect();
        d.write_payload(SimTime::ZERO, 0x10_0000, Payload::from(&data[..]));
        let (out, _) = d.read_payload(SimTime::ZERO, 0x10_0000, 100);
        assert_eq!(out, data);
    }

    #[test]
    fn same_direction_no_turnaround() {
        let mut d = DramController::new("dram", quick_cfg());
        // Two 1000 B writes: each = 10 ns overhead + 1000 ns data.
        let t1 = d.access(SimTime::ZERO, MemDir::Write, 1000);
        assert_eq!(t1.as_ns(), 10 + 1000 + 100);
        let t2 = d.access(SimTime::ZERO, MemDir::Write, 1000);
        assert_eq!(t2.as_ns(), 2 * (10 + 1000) + 100);
        assert_eq!(d.direction_switches(), 0);
    }

    #[test]
    fn direction_switch_pays_turnaround() {
        let mut d = DramController::new("dram", quick_cfg());
        d.access(SimTime::ZERO, MemDir::Write, 1000); // busy till 1010
        let t = d.access(SimTime::ZERO, MemDir::Read, 1000);
        // 1010 + 50 (turnaround) + 10 + 1000 + 100
        assert_eq!(t.as_ns(), 1010 + 50 + 10 + 1000 + 100);
        assert_eq!(d.direction_switches(), 1);
    }

    #[test]
    fn burst_splitting_charges_overhead() {
        let mut d = DramController::new("dram", quick_cfg());
        // 2500 B → 3 bursts → 30 ns overhead + 2500 ns data + 100 latency.
        let t = d.access(SimTime::ZERO, MemDir::Write, 2500);
        assert_eq!(t.as_ns(), 30 + 2500 + 100);
    }

    #[test]
    fn interleaved_traffic_loses_bandwidth() {
        // Ping-pong read/write costs turnarounds that same-direction
        // streams do not pay: the interleaved schedule must finish later.
        let mut a = DramController::new("a", quick_cfg());
        let mut b = DramController::new("b", quick_cfg());
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
        let mut d = DramController::new("dram", quick_cfg());
        d.access(SimTime::ZERO, MemDir::Read, 10);
        d.access(SimTime::ZERO, MemDir::Read, 10);
        d.access(SimTime::ZERO, MemDir::Write, 10);
        assert_eq!(d.bytes_transferred(), 30);
    }
}
