//! Deterministic simulation PRNG.
//!
//! Simulations must replay exactly: the same seed yields the same event
//! trace, the same addresses, the same latencies. We use SplitMix64 —
//! tiny, fast, and with well-understood statistical quality that is more
//! than sufficient for workload generation and latency jitter.

/// SplitMix64's state increment: the state after `n` draws is
/// `seed + n·GAMMA`.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// A seedable SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SimRng {
    state: u64,
}

impl SimRng {
    /// Create a generator from a seed. Two generators with the same seed
    /// produce identical streams.
    pub fn new(seed: u64) -> Self {
        SimRng { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Advance past the next `n` draws in O(1), exactly as `n` calls of
    /// [`next_u64`](SimRng::next_u64) would: the generator is counter-based.
    #[inline]
    pub fn skip(&mut self, n: u64) {
        self.state = self.state.wrapping_add(n.wrapping_mul(GAMMA));
    }

    /// Uniform in `[0, n)` via Lemire's multiply-shift reduction.
    /// Panics if `n == 0`.
    #[inline]
    pub fn gen_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "gen_range(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn gen_between(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.gen_range(hi - lo)
    }

    /// Uniform duration in `[lo, hi]` (inclusive). Keeps component
    /// latency jitter inside the SimDuration domain (lint SL005) while
    /// drawing exactly one value from the stream — byte-for-byte the
    /// same draw as `gen_between(lo_ps, hi_ps + 1)`.
    #[inline]
    pub fn gen_duration_between(
        &mut self,
        lo: crate::time::SimDuration,
        hi: crate::time::SimDuration,
    ) -> crate::time::SimDuration {
        crate::time::SimDuration::from_ps(self.gen_between(lo.as_ps(), hi.as_ps() + 1))
    }

    /// Uniform f64 in `[0, 1)`.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p
    }

    /// A fault injector's Bernoulli trial: [`gen_bool`](SimRng::gen_bool)
    /// when `p > 0`, and `false` without a draw otherwise, so a rate of 0
    /// leaves the stream as if the injector were not there.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.gen_bool(p)
    }

    /// Fill a byte slice with pseudorandom data (used to build payloads
    /// whose integrity is later checksummed).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&w[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_replay() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn skip_equals_drawing() {
        for n in [0u64, 1, 2, 63, 1000] {
            let mut drawn = SimRng::new(0x1417_beef);
            for _ in 0..n {
                drawn.next_u64();
            }
            let mut skipped = SimRng::new(0x1417_beef);
            skipped.skip(n);
            assert_eq!(skipped.next_u64(), drawn.next_u64(), "skip({n})");
        }
    }

    #[test]
    fn chance_draws_only_above_zero() {
        let mut r = SimRng::new(9);
        for _ in 0..100 {
            assert!(!r.chance(0.0));
            assert!(!r.chance(-1.0));
        }
        let mut untouched = SimRng::new(9);
        assert_eq!(r.next_u64(), untouched.next_u64(), "chance(0) drew");
        let mut by_gen_bool = untouched;
        for p in [1e-9, 0.01, 0.5, 0.99, 1.0] {
            for _ in 0..200 {
                assert_eq!(r.chance(p), by_gen_bool.gen_bool(p), "p = {p}");
            }
        }
        assert_eq!(r.next_u64(), by_gen_bool.next_u64());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn range_bounds_hold() {
        let mut r = SimRng::new(7);
        for _ in 0..10_000 {
            let x = r.gen_between(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let x = r.gen_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_covers_values() {
        let mut r = SimRng::new(5);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            seen[r.gen_range(8) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = SimRng::new(11);
        let mut buf = [0u8; 13];
        r.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
        // Deterministic.
        let mut r2 = SimRng::new(11);
        let mut buf2 = [0u8; 13];
        r2.fill_bytes(&mut buf2);
        assert_eq!(buf, buf2);
    }

    #[test]
    fn mean_of_unit_uniform_near_half() {
        let mut r = SimRng::new(1234);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| r.gen_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }
}
