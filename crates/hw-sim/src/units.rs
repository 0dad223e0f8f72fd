//! Strongly typed physical quantities: energy, power, time and cycles.
//!
//! The evaluation constantly mixes microjoules, millijoules, milliseconds and
//! clock cycles; newtypes keep the arithmetic honest (`Energy = Power × Time`)
//! and make the experiment output self-describing.

use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use serde::{Deserialize, Serialize};

/// An amount of energy, stored internally in microjoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Energy {
    microjoules: f64,
}

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy { microjoules: 0.0 };

    /// Creates an energy from microjoules.
    pub fn from_microjoules(uj: f64) -> Self {
        Self { microjoules: uj }
    }

    /// Creates an energy from millijoules.
    pub fn from_millijoules(mj: f64) -> Self {
        Self {
            microjoules: mj * 1e3,
        }
    }

    /// Creates an energy from joules.
    pub fn from_joules(j: f64) -> Self {
        Self {
            microjoules: j * 1e6,
        }
    }

    /// Value in microjoules.
    pub fn as_microjoules(self) -> f64 {
        self.microjoules
    }

    /// Value in millijoules.
    pub fn as_millijoules(self) -> f64 {
        self.microjoules / 1e3
    }

    /// Value in joules.
    pub fn as_joules(self) -> f64 {
        self.microjoules / 1e6
    }
}

impl Add for Energy {
    type Output = Energy;
    fn add(self, rhs: Energy) -> Energy {
        Energy {
            microjoules: self.microjoules + rhs.microjoules,
        }
    }
}

impl AddAssign for Energy {
    fn add_assign(&mut self, rhs: Energy) {
        self.microjoules += rhs.microjoules;
    }
}

impl Sub for Energy {
    type Output = Energy;
    fn sub(self, rhs: Energy) -> Energy {
        Energy {
            microjoules: self.microjoules - rhs.microjoules,
        }
    }
}

impl Mul<f64> for Energy {
    type Output = Energy;
    fn mul(self, rhs: f64) -> Energy {
        Energy {
            microjoules: self.microjoules * rhs,
        }
    }
}

impl Div<f64> for Energy {
    type Output = Energy;
    fn div(self, rhs: f64) -> Energy {
        Energy {
            microjoules: self.microjoules / rhs,
        }
    }
}

impl Div<Energy> for Energy {
    type Output = f64;
    fn div(self, rhs: Energy) -> f64 {
        self.microjoules / rhs.microjoules
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |acc, e| acc + e)
    }
}

impl std::fmt::Display for Energy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.microjoules.abs() >= 1e3 {
            write!(f, "{:.3} mJ", self.as_millijoules())
        } else {
            write!(f, "{:.1} uJ", self.microjoules)
        }
    }
}

/// Electrical power, stored internally in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Power {
    milliwatts: f64,
}

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power { milliwatts: 0.0 };

    /// Creates a power from milliwatts.
    pub fn from_milliwatts(mw: f64) -> Self {
        Self { milliwatts: mw }
    }

    /// Value in milliwatts.
    pub fn as_milliwatts(self) -> f64 {
        self.milliwatts
    }

    /// Energy spent at this power level for the given duration.
    pub fn for_duration(self, duration: TimeSpan) -> Energy {
        // mW * s = mJ
        Energy::from_millijoules(self.milliwatts * duration.as_seconds())
    }
}

impl Mul<TimeSpan> for Power {
    type Output = Energy;
    fn mul(self, rhs: TimeSpan) -> Energy {
        self.for_duration(rhs)
    }
}

impl std::fmt::Display for Power {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} mW", self.milliwatts)
    }
}

/// A duration, stored internally in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct TimeSpan {
    microseconds: f64,
}

impl TimeSpan {
    /// Zero duration.
    pub const ZERO: TimeSpan = TimeSpan { microseconds: 0.0 };

    /// Creates a duration from milliseconds.
    pub fn from_millis(ms: f64) -> Self {
        Self {
            microseconds: ms * 1e3,
        }
    }

    /// Creates a duration from seconds.
    pub fn from_seconds(s: f64) -> Self {
        Self {
            microseconds: s * 1e6,
        }
    }

    /// Value in milliseconds.
    pub fn as_millis(self) -> f64 {
        self.microseconds / 1e3
    }

    /// Value in seconds.
    pub fn as_seconds(self) -> f64 {
        self.microseconds / 1e6
    }

    /// Clamps negative durations to zero (used when computing residual idle
    /// time in a prediction period).
    pub fn max_zero(self) -> Self {
        Self {
            microseconds: self.microseconds.max(0.0),
        }
    }
}

impl Add for TimeSpan {
    type Output = TimeSpan;
    fn add(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan {
            microseconds: self.microseconds + rhs.microseconds,
        }
    }
}

impl AddAssign for TimeSpan {
    fn add_assign(&mut self, rhs: TimeSpan) {
        self.microseconds += rhs.microseconds;
    }
}

impl Sub for TimeSpan {
    type Output = TimeSpan;
    fn sub(self, rhs: TimeSpan) -> TimeSpan {
        TimeSpan {
            microseconds: self.microseconds - rhs.microseconds,
        }
    }
}

impl Mul<f64> for TimeSpan {
    type Output = TimeSpan;
    fn mul(self, rhs: f64) -> TimeSpan {
        TimeSpan {
            microseconds: self.microseconds * rhs,
        }
    }
}

impl Sum for TimeSpan {
    fn sum<I: Iterator<Item = TimeSpan>>(iter: I) -> TimeSpan {
        iter.fold(TimeSpan::ZERO, |acc, t| acc + t)
    }
}

impl std::fmt::Display for TimeSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.3} ms", self.as_millis())
    }
}

/// A number of processor clock cycles.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Cycles(pub u64);

impl Cycles {
    /// Duration of these cycles at the given clock frequency.
    pub fn at_clock(self, clock_hz: f64) -> TimeSpan {
        TimeSpan::from_seconds(self.0 as f64 / clock_hz)
    }
}

impl Add for Cycles {
    type Output = Cycles;
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl std::fmt::Display for Cycles {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} Mcycles", self.0 as f64 / 1e6)
        } else {
            write!(f, "{} cycles", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_conversions() {
        let e = Energy::from_millijoules(1.5);
        assert!((e.as_microjoules() - 1500.0).abs() < 1e-9);
        assert!((e.as_joules() - 0.0015).abs() < 1e-12);
        assert_eq!(Energy::from_joules(1.0).as_millijoules(), 1000.0);
    }

    #[test]
    fn energy_arithmetic() {
        let a = Energy::from_millijoules(1.0);
        let b = Energy::from_millijoules(0.5);
        assert!(((a + b).as_millijoules() - 1.5).abs() < 1e-12);
        assert!(((a - b).as_millijoules() - 0.5).abs() < 1e-12);
        assert!(((a * 2.0).as_millijoules() - 2.0).abs() < 1e-12);
        assert!(((a / 4.0).as_millijoules() - 0.25).abs() < 1e-12);
        assert!((a / b - 2.0).abs() < 1e-12);
        let mut c = Energy::ZERO;
        c += a;
        assert_eq!(c, a);
        let total: Energy = vec![a, b, b].into_iter().sum();
        assert!((total.as_millijoules() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn power_times_time_is_energy() {
        let p = Power::from_milliwatts(25.0);
        let t = TimeSpan::from_millis(20.0);
        let e = p * t;
        assert!((e.as_millijoules() - 0.5).abs() < 1e-9);
        assert_eq!(p.for_duration(t), e);
    }

    #[test]
    fn timespan_conversions_and_arithmetic() {
        let t = TimeSpan::from_millis(2.5);
        assert!((t.as_seconds() - 0.0025).abs() < 1e-12);
        let sum = t + TimeSpan::from_millis(1.5);
        assert!((sum.as_millis() - 4.0).abs() < 1e-9);
        let diff = TimeSpan::from_millis(1.0) - TimeSpan::from_millis(3.0);
        assert!(diff.as_millis() < 0.0);
        assert_eq!(diff.max_zero(), TimeSpan::ZERO);
        assert!(((t * 2.0).as_millis() - 5.0).abs() < 1e-9);
        let total: TimeSpan = vec![t, t].into_iter().sum();
        assert!((total.as_millis() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn cycles_at_clock() {
        // 100k cycles at 64 MHz -> 1.5625 ms, the paper's AT entry.
        let t = Cycles(100_000).at_clock(64e6);
        assert!((t.as_millis() - 1.5625).abs() < 1e-6);
        assert_eq!(Cycles(1) + Cycles(2), Cycles(3));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Energy::from_microjoules(179.0)), "179.0 uJ");
        assert_eq!(format!("{}", Energy::from_millijoules(41.11)), "41.110 mJ");
        assert_eq!(format!("{}", Power::from_milliwatts(25.5)), "25.500 mW");
        assert_eq!(format!("{}", TimeSpan::from_millis(21.326)), "21.326 ms");
        assert_eq!(format!("{}", Cycles(100_000)), "100000 cycles");
        assert_eq!(format!("{}", Cycles(103_160_000)), "103.16 Mcycles");
    }

    #[test]
    fn ordering_works() {
        assert!(Energy::from_microjoules(179.0) < Energy::from_millijoules(0.5));
        assert!(TimeSpan::from_millis(1.0) < TimeSpan::from_seconds(1.0));
        assert!(Cycles(5) < Cycles(10));
    }
}
