//! Bandwidth-serialising resources.
//!
//! A [`SharedLink`] models anything with a finite byte rate that serves one
//! transfer at a time: a PCIe direction, a DRAM data port, a NAND channel,
//! an Ethernet wire. Transfers *occupy* the link back-to-back and then pay a
//! fixed propagation latency, so contention between concurrent users falls
//! out naturally from `free_at` bookkeeping instead of explicit queues.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// A byte rate. Stored as bytes/second in `f64`; conversions to event times
/// round to the nearest picosecond, which is deterministic across runs.
#[derive(Clone, Copy, PartialEq)]
pub struct Bandwidth {
    bytes_per_sec: f64,
}

impl Bandwidth {
    /// From decimal gigabytes per second (the unit the SNAcc paper reports).
    pub fn gb_per_s(gb: f64) -> Self {
        assert!(gb > 0.0, "bandwidth must be positive");
        Bandwidth {
            bytes_per_sec: gb * 1e9,
        }
    }

    /// From decimal megabytes per second.
    pub fn mb_per_s(mb: f64) -> Self {
        Bandwidth::gb_per_s(mb / 1e3)
    }

    /// From a line rate in gigabits per second (network convention),
    /// e.g. `Bandwidth::gbit_per_s(100.0)` = 12.5 GB/s.
    pub fn gbit_per_s(gbit: f64) -> Self {
        Bandwidth::gb_per_s(gbit / 8.0)
    }

    /// Raw bytes per second.
    #[inline]
    pub fn bytes_per_sec(self) -> f64 {
        self.bytes_per_sec
    }

    /// Decimal GB/s.
    #[inline]
    pub fn as_gb_per_s(self) -> f64 {
        self.bytes_per_sec / 1e9
    }

    /// Time to move `bytes` at this rate (rounded to nearest picosecond,
    /// but never zero for a non-empty transfer).
    #[inline]
    pub fn time_for(self, bytes: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        let ps = (bytes as f64) * 1e12 / self.bytes_per_sec;
        SimDuration::from_ps((ps.round() as u64).max(1))
    }

    /// Scale the rate by a factor (e.g. efficiency derating).
    pub fn scaled(self, factor: f64) -> Bandwidth {
        assert!(factor > 0.0);
        Bandwidth {
            bytes_per_sec: self.bytes_per_sec * factor,
        }
    }
}

impl fmt::Debug for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} GB/s", self.as_gb_per_s())
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} GB/s", self.as_gb_per_s())
    }
}

/// A serialising bandwidth resource with fixed propagation latency.
///
/// `transfer(now, bytes)` books the link for `bytes / bandwidth` starting at
/// `max(now, free_at)` and returns the time the last byte *arrives*
/// (occupancy end + latency). Callers schedule their completion events at
/// the returned time.
pub struct SharedLink {
    name: String,
    bandwidth: Bandwidth,
    latency: SimDuration,
    free_at: SimTime,
    bytes: u64,
}

impl SharedLink {
    /// Create a link with the given rate and propagation latency.
    pub fn new(name: impl Into<String>, bandwidth: Bandwidth, latency: SimDuration) -> Self {
        SharedLink {
            name: name.into(),
            bandwidth,
            latency,
            free_at: SimTime::ZERO,
            bytes: 0,
        }
    }

    /// The link's display name (used in traces and bandwidth reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Configured byte rate.
    pub fn bandwidth(&self) -> Bandwidth {
        self.bandwidth
    }

    /// Configured propagation latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// When the link next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Total bytes ever moved across this link.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Book a transfer of `bytes` requested at `now`; returns arrival time
    /// of the last byte.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let occupy = self.bandwidth.time_for(bytes);
        self.free_at = start + occupy;
        self.bytes += bytes;
        self.free_at + self.latency
    }

    /// Book a small transfer that interleaves into gaps between bulk
    /// packets instead of queueing behind them: pays its serialisation
    /// time and latency but does not advance `free_at`. PCIe control
    /// traffic (doorbells, completions, descriptor fetches) rides between
    /// large TLPs this way; modelling it as queued would let a single
    /// megabyte data window add hundreds of microseconds to a 16-byte
    /// completion.
    pub fn transfer_interleaved(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let occupy = self.bandwidth.time_for(bytes);
        self.bytes += bytes;
        now + occupy + self.latency
    }

    /// Book a transfer that additionally pays a fixed per-operation
    /// overhead on the wire (e.g. packet headers expressed in time).
    pub fn transfer_with_overhead(
        &mut self,
        now: SimTime,
        bytes: u64,
        overhead: SimDuration,
    ) -> SimTime {
        let start = now.max(self.free_at);
        let occupy = self.bandwidth.time_for(bytes) + overhead;
        self.free_at = start + occupy;
        self.bytes += bytes;
        self.free_at + self.latency
    }

    /// Reset byte accounting (keeps timing state).
    pub fn reset_meter(&mut self) {
        self.bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::gbit_per_s(100.0);
        assert!((b.as_gb_per_s() - 12.5).abs() < 1e-9);
        let b = Bandwidth::mb_per_s(500.0);
        assert!((b.as_gb_per_s() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn time_for_bytes() {
        // 1 GB/s → 1 byte per ns.
        let b = Bandwidth::gb_per_s(1.0);
        assert_eq!(b.time_for(1000).as_ns(), 1000);
        assert_eq!(b.time_for(0), SimDuration::ZERO);
        // Non-empty transfers always take at least 1 ps.
        let fast = Bandwidth::gb_per_s(1e6);
        assert!(fast.time_for(1).as_ps() >= 1);
    }

    #[test]
    fn link_serialises_transfers() {
        // 1 GB/s, 100 ns latency.
        let mut l = SharedLink::new("test", Bandwidth::gb_per_s(1.0), SimDuration::from_ns(100));
        let t0 = SimTime::ZERO;
        // First transfer of 1000 B: occupies [0,1000) ns, arrives 1100 ns.
        let a1 = l.transfer(t0, 1000);
        assert_eq!(a1.as_ns(), 1100);
        // Second transfer requested at t=0 must wait: occupies [1000,2000),
        // arrives 2100 ns.
        let a2 = l.transfer(t0, 1000);
        assert_eq!(a2.as_ns(), 2100);
        assert_eq!(l.bytes_transferred(), 2000);
    }

    #[test]
    fn link_idle_gap_not_charged() {
        let mut l = SharedLink::new("test", Bandwidth::gb_per_s(1.0), SimDuration::ZERO);
        l.transfer(SimTime::ZERO, 100); // busy until 100 ns
        let a = l.transfer(SimTime::from_ns(500), 100); // starts at 500
        assert_eq!(a.as_ns(), 600);
    }

    #[test]
    fn overhead_applied_per_op() {
        let mut l = SharedLink::new("test", Bandwidth::gb_per_s(1.0), SimDuration::ZERO);
        let a = l.transfer_with_overhead(SimTime::ZERO, 100, SimDuration::from_ns(20));
        assert_eq!(a.as_ns(), 120);
        assert_eq!(l.free_at().as_ns(), 120);
    }
}
