//! Simulated time.
//!
//! All models in the workspace share one clock: a 64-bit count of
//! **picoseconds** since simulation start. Picosecond resolution lets byte
//! times on fast links (100 G Ethernet moves a byte every 80 ps) be
//! represented without rounding collapse, while still covering ~213 days of
//! simulated time before overflow — more than any experiment needs.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Picoseconds per nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds per microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds per millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds per second.
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

/// An absolute point in simulated time (picoseconds since t = 0).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (picoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch, t = 0.
    pub const ZERO: SimTime = SimTime(0);
    /// The far future; useful as an "infinity" sentinel for idle resources.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Time as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`. Panics in debug builds if
    /// `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(self >= earlier, "SimTime::since: earlier is later");
        SimDuration(self.0 - earlier.0)
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Saturating addition of a duration (clamps at [`SimTime::MAX`]).
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// Addition of a duration, `None` past [`SimTime::MAX`].
    #[inline]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// `self * n`, `None` if it does not fit.
    #[inline]
    pub fn checked_mul(self, n: u64) -> Option<SimDuration> {
        self.0.checked_mul(n).map(SimDuration)
    }

    /// Construct from raw picoseconds.
    #[inline]
    pub const fn from_ps(ps: u64) -> Self {
        SimDuration(ps)
    }

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns * PS_PER_NS)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * PS_PER_US)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        SimDuration(ms * PS_PER_MS)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * PS_PER_SEC)
    }

    /// Construct from fractional microseconds (rounds to nearest ps).
    #[inline]
    pub fn from_us_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0);
        SimDuration((us * PS_PER_US as f64).round() as u64)
    }

    /// Construct from fractional nanoseconds (rounds to nearest ps).
    #[inline]
    pub fn from_ns_f64(ns: f64) -> Self {
        debug_assert!(ns >= 0.0);
        SimDuration((ns * PS_PER_NS as f64).round() as u64)
    }

    /// Raw picosecond count.
    #[inline]
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Duration as fractional microseconds.
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Duration as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// True if the duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The larger of two durations.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_ps(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_ps(self.0))
    }
}

/// Human-readable rendering of a picosecond count, choosing the largest
/// unit that keeps the value ≥ 1.
fn format_ps(ps: u64) -> String {
    if ps >= PS_PER_SEC {
        format!("{:.3}s", ps as f64 / PS_PER_SEC as f64)
    } else if ps >= PS_PER_MS {
        format!("{:.3}ms", ps as f64 / PS_PER_MS as f64)
    } else if ps >= PS_PER_US {
        format!("{:.3}us", ps as f64 / PS_PER_US as f64)
    } else if ps >= PS_PER_NS {
        format!("{:.3}ns", ps as f64 / PS_PER_NS as f64)
    } else {
        format!("{ps}ps")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_conversion() {
        assert_eq!(SimTime::from_ns(3).as_ps(), 3_000);
        assert_eq!(SimDuration::from_us(2).as_ns(), 2_000);
        assert_eq!(SimDuration::from_ms(1).as_ps(), PS_PER_MS);
        assert_eq!(SimDuration::from_secs(1).as_ps(), PS_PER_SEC);
        assert!((SimDuration::from_us(5).as_us_f64() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_ns(10) + SimDuration::from_ns(5);
        assert_eq!(t.as_ns(), 15);
        assert_eq!((t - SimTime::from_ns(10)).as_ns(), 5);
        assert_eq!(t.since(SimTime::from_ns(12)).as_ns(), 3);
        assert_eq!((SimDuration::from_ns(4) * 3).as_ns(), 12);
        assert_eq!((SimDuration::from_ns(12) / 4).as_ns(), 3);
    }

    #[test]
    fn ordering_and_max() {
        let a = SimTime::from_ns(1);
        let b = SimTime::from_ns(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(b.max(a), b);
        assert_eq!(
            SimDuration::from_ns(1).max(SimDuration::from_ns(9)),
            SimDuration::from_ns(9)
        );
    }

    #[test]
    fn fractional_constructors_round() {
        assert_eq!(SimDuration::from_ns_f64(0.0801).as_ps(), 80);
        assert_eq!(SimDuration::from_us_f64(1.5).as_ns(), 1500);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", SimDuration::from_ps(5)), "5ps");
        assert_eq!(format!("{}", SimDuration::from_ns(5)), "5.000ns");
        assert_eq!(format!("{}", SimDuration::from_us(5)), "5.000us");
        assert_eq!(format!("{}", SimDuration::from_ms(5)), "5.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.000s");
    }

    #[test]
    fn saturating_add_clamps() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_ns(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn checked_arithmetic_refuses_overflow() {
        let ns = SimDuration::from_ns(1);
        assert_eq!(SimTime::MAX.checked_add(ns), None);
        assert_eq!(SimTime::ZERO.checked_add(ns), Some(SimTime::from_ns(1)));
        assert_eq!(ns.checked_mul(3), Some(SimDuration::from_ns(3)));
        assert_eq!(SimDuration::from_secs(1).checked_mul(u64::MAX), None);
    }
}
