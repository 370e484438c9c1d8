//! Physical (recorded) time.
//!
//! Trace timestamps are nanoseconds since the start of the traced run,
//! stored as `u64`. The absolute scale is immaterial to the ordering
//! algorithm; only comparisons and durations matter.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in physical time, in nanoseconds since run start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Time(pub u64);

/// A span of physical time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
#[serde(transparent)]
pub struct Dur(pub u64);

impl Time {
    /// Time zero: the start of the traced run.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time.
    pub const MAX: Time = Time(u64::MAX);

    /// Nanoseconds since run start.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Builds a time from microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Duration from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Dur {
        Dur(self.0.saturating_sub(earlier.0))
    }
}

impl Dur {
    /// The empty duration.
    pub const ZERO: Dur = Dur(0);

    /// Nanoseconds in this span.
    #[inline]
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Builds a duration from microseconds.
    #[inline]
    pub fn from_micros(us: u64) -> Dur {
        Dur(us * 1_000)
    }

    /// This duration as (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction of durations.
    #[inline]
    pub fn saturating_sub(self, rhs: Dur) -> Dur {
        Dur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<Dur> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Dur) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Dur;
    /// Exact duration between two times.
    ///
    /// # Panics
    /// Panics in debug builds if `rhs > self`.
    #[inline]
    fn sub(self, rhs: Time) -> Dur {
        debug_assert!(rhs <= self, "negative duration: {rhs} > {self}");
        Dur(self.0 - rhs.0)
    }
}

impl Add<Dur> for Dur {
    type Output = Dur;
    #[inline]
    fn add(self, rhs: Dur) -> Dur {
        Dur(self.0 + rhs.0)
    }
}

impl AddAssign<Dur> for Dur {
    #[inline]
    fn add_assign(&mut self, rhs: Dur) {
        self.0 += rhs.0;
    }
}

impl std::iter::Sum for Dur {
    fn sum<I: Iterator<Item = Dur>>(iter: I) -> Dur {
        iter.fold(Dur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Dur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = Time::from_micros(5);
        let d = Dur::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!(t + d, Time(8_000));
    }

    #[test]
    fn saturating_since_clamps() {
        assert_eq!(Time(5).saturating_since(Time(10)), Dur::ZERO);
        assert_eq!(Time(10).saturating_since(Time(4)), Dur(6));
    }

    #[test]
    fn sum_of_durations() {
        let total: Dur = [Dur(1), Dur(2), Dur(3)].into_iter().sum();
        assert_eq!(total, Dur(6));
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Dur(999).to_string(), "999ns");
        assert_eq!(Dur(1_500).to_string(), "1.500us");
        assert_eq!(Dur(2_000_000).to_string(), "2.000ms");
        assert_eq!(Time(7).to_string(), "7ns");
    }

    #[test]
    fn add_assign_accumulates() {
        let mut t = Time::ZERO;
        t += Dur(10);
        t += Dur(5);
        assert_eq!(t, Time(15));
        let mut d = Dur::ZERO;
        d += Dur(4);
        assert_eq!(d, Dur(4));
    }
}
