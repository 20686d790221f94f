//! # snacc-sim — discrete-event simulation kernel
//!
//! This crate is the foundation of the SNAcc reproduction: a small,
//! deterministic discrete-event simulation (DES) engine with a picosecond
//! clock, plus the shared building blocks every hardware model in the
//! workspace uses:
//!
//! * [`SimTime`] / [`SimDuration`] — 64-bit picosecond simulated time,
//! * [`Engine`] — the event queue and scheduler,
//! * [`link::SharedLink`] — a serialising bandwidth resource used to model
//!   PCIe links, DRAM ports and NAND channels,
//! * [`rng::SimRng`] — a deterministic, seedable PRNG so that every
//!   simulation run is exactly reproducible.
//!
//! The engine is intentionally single-threaded: determinism of event order
//! is a correctness property for the models built on top (the experiment
//! harness parallelises across *independent simulations* instead, see
//! `snacc-bench`).
//!
//! ## Example
//!
//! ```
//! use snacc_sim::{Engine, SimDuration};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut engine = Engine::new();
//! let hits = Rc::new(Cell::new(0u32));
//! let h = hits.clone();
//! engine.schedule_in(SimDuration::from_ns(5), move |en| {
//!     h.set(h.get() + 1);
//!     let h2 = h.clone();
//!     en.schedule_in(SimDuration::from_ns(5), move |_| h2.set(h2.get() + 1));
//! });
//! engine.run();
//! assert_eq!(hits.get(), 2);
//! assert_eq!(engine.now().as_ns(), 10);
//! ```

pub mod bytes;
pub mod engine;
pub mod link;
pub mod rng;
pub mod time;

pub use bytes::{Payload, PayloadQueue};
pub use engine::Engine;
pub use link::{Bandwidth, SharedLink};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};

/// Integer ceiling division, used throughout the models for sizing
/// page/beat/burst counts.
#[inline]
pub fn ceil_div(a: u64, b: u64) -> u64 {
    debug_assert!(b > 0);
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_div_basics() {
        assert_eq!(ceil_div(0, 4), 0);
        assert_eq!(ceil_div(1, 4), 1);
        assert_eq!(ceil_div(4, 4), 1);
        assert_eq!(ceil_div(5, 4), 2);
        assert_eq!(ceil_div(8192, 4096), 2);
    }
}
