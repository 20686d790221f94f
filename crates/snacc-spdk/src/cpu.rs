//! Host CPU core model.
//!
//! SPDK's reactor pegs one core at 100 %: it spins polling the completion
//! queue even when no work arrives (paper Sec 6.3: "one CPU thread
//! running at 100 % capacity, doing nothing but moving data around").
//! We track when the core is next free of *useful* work (submission and
//! reap work, which serialises driver operations) and the polling
//! occupancy (wall time the core is claimed).

use snacc_sim::{SimDuration, SimTime};

/// A single host core running a polling reactor.
#[derive(Debug, Clone)]
pub struct CpuCore {
    name: String,
    busy_until: SimTime,
    claimed_from: Option<SimTime>,
}

impl CpuCore {
    /// A fresh, idle core.
    pub fn new(name: impl Into<String>) -> Self {
        CpuCore {
            name: name.into(),
            busy_until: SimTime::ZERO,
            claimed_from: None,
        }
    }

    /// Core name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Serialise a unit of driver work costing `cost`; returns when it
    /// finishes.
    pub fn book(&mut self, now: SimTime, cost: SimDuration) -> SimTime {
        let start = now.max(self.busy_until);
        self.busy_until = start + cost;
        self.busy_until
    }

    /// Mark the reactor started (core claimed at 100 %).
    pub fn claim(&mut self, now: SimTime) {
        if self.claimed_from.is_none() {
            self.claimed_from = Some(now);
        }
    }

    /// Wall time the core has been claimed by the reactor so far.
    pub fn claimed_total(&self, now: SimTime) -> SimDuration {
        self.claimed_from
            .map_or(SimDuration::ZERO, |from| now.since(from))
    }

    /// Occupancy over `[start, now]`: 1.0 while the reactor polls
    /// (SPDK's defining cost), regardless of useful work.
    pub fn occupancy(&self, start: SimTime, now: SimTime) -> f64 {
        let window = now.since(start).as_secs_f64();
        if window <= 0.0 {
            return 0.0;
        }
        (self.claimed_total(now).as_secs_f64() / window).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booking_serialises() {
        let mut c = CpuCore::new("core0");
        let t1 = c.book(SimTime::ZERO, SimDuration::from_ns(100));
        assert_eq!(t1.as_ns(), 100);
        // Second op at t=0 queues behind the first.
        let t2 = c.book(SimTime::ZERO, SimDuration::from_ns(50));
        assert_eq!(t2.as_ns(), 150);
        // An op after an idle gap starts immediately.
        let t3 = c.book(SimTime::from_ns(1000), SimDuration::from_ns(10));
        assert_eq!(t3.as_ns(), 1010);
    }

    #[test]
    fn occupancy_is_full_while_claimed() {
        let mut c = CpuCore::new("core0");
        c.claim(SimTime::ZERO);
        let now = SimTime::from_ns(1_000_000);
        assert!((c.occupancy(SimTime::ZERO, now) - 1.0).abs() < 1e-9);
        // Claimed from halfway through the window: half occupied.
        let mut late = CpuCore::new("core1");
        late.claim(SimTime::from_ns(500_000));
        assert!((late.occupancy(SimTime::ZERO, now) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn double_claim_is_idempotent() {
        let mut c = CpuCore::new("core0");
        c.claim(SimTime::ZERO);
        c.claim(SimTime::from_ns(500));
        assert_eq!(c.claimed_total(SimTime::from_ns(1000)).as_ns(), 1000);
    }
}
