//! Simulation time.
//!
//! Time is an integer count of **nanoseconds** since simulation start.
//! At the paper's 1 Gbps link speed one bit takes exactly one nanosecond
//! on the wire, so every serialization delay in the evaluation is an exact
//! integer — no floating-point drift, bit-for-bit reproducible runs.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in simulated time (nanoseconds since start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// Largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference (`self - earlier`), useful for durations.
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;
    fn add(self, ns: u64) -> SimTime {
        SimTime(self.0 + ns)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, ns: u64) {
        self.0 += ns;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = u64;
    fn sub(self, rhs: SimTime) -> u64 {
        self.0
            .checked_sub(rhs.0)
            .expect("SimTime subtraction underflow: rhs is later than lhs")
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// Serialization delay of `bytes` at `rate_bps`, in nanoseconds
/// (rounded up so a packet never finishes "early").
pub const fn serialization_ns(bytes: u32, rate_bps: u64) -> u64 {
    let bits = bytes as u64 * 8;
    // ns = bits / (rate / 1e9) = bits * 1e9 / rate, rounding up.
    (bits * 1_000_000_000).div_ceil(rate_bps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_consistent() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
        assert_eq!(SimTime::from_micros(1), SimTime::from_nanos(1000));
    }

    #[test]
    fn one_gbps_is_one_bit_per_ns() {
        // The property the whole evaluation's integer arithmetic rests on.
        assert_eq!(serialization_ns(1500, 1_000_000_000), 12_000);
        assert_eq!(serialization_ns(64, 1_000_000_000), 512);
    }

    #[test]
    fn serialization_rounds_up() {
        // 1 byte at 3 bps → 8/3e-9... enormous; check a crisp case:
        // 10 Gbps: 1500 B = 1200 ns exactly; 1501 B = 1200.8 → 1201.
        assert_eq!(serialization_ns(1500, 10_000_000_000), 1_200);
        assert_eq!(serialization_ns(1501, 10_000_000_000), 1_201);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimTime::from_nanos(5).to_string(), "5ns");
        assert_eq!(SimTime::from_micros(10).to_string(), "10.000µs");
        assert_eq!(SimTime::from_millis(3).to_string(), "3.000ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000000s");
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn since_saturates() {
        assert_eq!(SimTime::from_nanos(1).since(SimTime::from_nanos(5)), 0);
        assert_eq!(SimTime::from_nanos(9).since(SimTime::from_nanos(5)), 4);
    }
}
