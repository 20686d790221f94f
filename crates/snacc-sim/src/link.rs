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
    pub const fn gb_per_s(gb: f64) -> Self {
        assert!(gb > 0.0, "bandwidth must be positive");
        Bandwidth {
            bytes_per_sec: gb * 1e9,
        }
    }

    /// From a line rate in gigabits per second (network convention),
    /// e.g. `Bandwidth::gbit_per_s(100.0)` = 12.5 GB/s.
    pub const fn gbit_per_s(gbit: f64) -> Self {
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
///
/// The link remembers the last `(bytes, occupancy)` pair it computed: bulk
/// traffic books the same TLP size over and over, and each
/// [`Bandwidth::time_for`] costs a float divide and a rounding call. The
/// bandwidth never changes after construction, so the remembered value is
/// always the one `time_for` would return.
pub struct SharedLink {
    name: String,
    bandwidth: Bandwidth,
    latency: SimDuration,
    free_at: SimTime,
    bytes: u64,
    last_occupancy: (u64, SimDuration),
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
            last_occupancy: (0, SimDuration::ZERO),
        }
    }

    /// `bandwidth.time_for(bytes)`, recomputed only when `bytes` differs
    /// from the previous call's.
    #[inline]
    fn occupancy(&mut self, bytes: u64) -> SimDuration {
        if self.last_occupancy.0 != bytes {
            self.last_occupancy = (bytes, self.bandwidth.time_for(bytes));
        }
        self.last_occupancy.1
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

    /// Total bytes ever moved across this link.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes
    }

    /// Book a transfer of `bytes` requested at `now`; returns arrival time
    /// of the last byte.
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let occupy = self.occupancy(bytes);
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
        let occupy = self.occupancy(bytes);
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
        let occupy = self.occupancy(bytes) + overhead;
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
    use proptest::prelude::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::gbit_per_s(100.0);
        assert!((b.as_gb_per_s() - 12.5).abs() < 1e-9);
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
        assert_eq!(l.free_at.as_ns(), 120);
    }

    proptest! {
        /// The remembered occupancy never changes a result: random sizes
        /// (0 and repeats included) booked through all three entry points
        /// return, and leave `free_at`, exactly what recomputing
        /// `time_for` on every call gives.
        #[test]
        fn remembered_occupancy_matches_time_for(
            mb_per_s in 100u64..64_000,
            latency_ns in 0u64..1000,
            ops in proptest::collection::vec(any::<[u64; 4]>(), 1..200),
        ) {
            const SIZES: [u64; 5] = [0, 1, 16, 4096, 4120];
            let bw = Bandwidth::gb_per_s(mb_per_s as f64 / 1e3);
            let latency = SimDuration::from_ns(latency_ns);
            let mut link = SharedLink::new("prop", bw, latency);
            let mut free_at = SimTime::ZERO;
            let mut now = SimTime::ZERO;
            for [kind, pick, odd, step] in ops {
                let (kind, odd) = (kind % 3, odd % 5000);
                now += SimDuration::from_ns(step % 200);
                // Repeats of a few TLP sizes, with arbitrary sizes between.
                let bytes = SIZES.get((pick % 6) as usize).copied().unwrap_or(odd);
                let got = match kind {
                    0 => link.transfer(now, bytes),
                    1 => link.transfer_interleaved(now, bytes),
                    _ => link.transfer_with_overhead(now, bytes, SimDuration::from_ns(odd % 64)),
                };
                let want = match kind {
                    0 => {
                        free_at = now.max(free_at) + bw.time_for(bytes);
                        free_at + latency
                    }
                    1 => now + bw.time_for(bytes) + latency,
                    _ => {
                        free_at = now.max(free_at) + bw.time_for(bytes) + SimDuration::from_ns(odd % 64);
                        free_at + latency
                    }
                };
                prop_assert_eq!(got, want);
                prop_assert_eq!(link.free_at, free_at);
            }
        }
    }
}
