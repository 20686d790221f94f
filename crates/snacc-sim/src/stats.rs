//! Measurement primitives: counters and byte meters.
//!
//! Every number the benchmark harness reports comes out of these types, so
//! they are deliberately simple and exactly reproducible.

use crate::time::SimTime;

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New counter at zero.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub fn get(self) -> u64 {
        self.0
    }
}

/// Byte/operation accounting for a data path.
#[derive(Clone, Copy, Debug, Default)]
pub struct ByteMeter {
    bytes: u64,
    ops: u64,
}

impl ByteMeter {
    /// New meter at zero.
    pub const fn new() -> Self {
        ByteMeter { bytes: 0, ops: 0 }
    }

    /// Record one operation moving `bytes`.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.ops += 1;
    }

    /// Total bytes recorded.
    #[inline]
    pub fn bytes(self) -> u64 {
        self.bytes
    }

    /// Total operations recorded.
    #[inline]
    pub fn ops(self) -> u64 {
        self.ops
    }

    /// Average decimal GB/s over the window `[start, end]`.
    pub fn gb_per_s(self, start: SimTime, end: SimTime) -> f64 {
        let secs = end.since(start).as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.bytes as f64 / 1e9 / secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn byte_meter_bandwidth() {
        let mut m = ByteMeter::new();
        m.record(500_000_000);
        m.record(500_000_000);
        assert_eq!(m.bytes(), 1_000_000_000);
        assert_eq!(m.ops(), 2);
        let bw = m.gb_per_s(SimTime::ZERO, SimTime::ZERO + SimDuration::from_ms(500));
        assert!((bw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn byte_meter_zero_window() {
        let m = ByteMeter::new();
        assert_eq!(m.gb_per_s(SimTime::ZERO, SimTime::ZERO), 0.0);
    }
}
