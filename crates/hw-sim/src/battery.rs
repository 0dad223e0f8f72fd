//! Li-Ion battery model for smartwatch-lifetime projections.
//!
//! The HWatch carries a 370 mAh @ 3.7 V Li-Ion cell behind a buck-boost
//! converter with roughly 90 % efficiency. The battery model converts the
//! per-prediction energies produced by the rest of the crate into battery life
//! estimates — the quantity the paper's introduction ultimately cares about.

use serde::{Deserialize, Serialize};

use crate::error::HwError;
use crate::units::{Energy, Power, TimeSpan};

/// Capacity of the HWatch battery in milliamp-hours.
pub const HWATCH_BATTERY_MAH: f64 = 370.0;
/// Nominal voltage of the HWatch battery.
pub const HWATCH_BATTERY_VOLTAGE: f64 = 3.7;
/// Efficiency of the TPS63031 buck-boost converter during acquisition and
/// processing, as reported by the HWatch paper.
pub const HWATCH_CONVERTER_EFFICIENCY: f64 = 0.90;

/// A rechargeable battery with a fixed usable energy budget.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Battery {
    capacity: Energy,
    remaining: Energy,
    converter_efficiency: f64,
}

impl Battery {
    /// Creates a battery from a capacity in mAh and a nominal voltage, with a
    /// DC-DC converter efficiency applied to every drain.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidParameter`] for non-positive capacity or
    /// voltage, or an efficiency outside `(0, 1]`.
    pub fn new(
        capacity_mah: f64,
        voltage_v: f64,
        converter_efficiency: f64,
    ) -> Result<Self, HwError> {
        if capacity_mah <= 0.0 || voltage_v <= 0.0 {
            return Err(HwError::InvalidParameter {
                name: "capacity",
                requirement: "capacity and voltage must be positive",
            });
        }
        if !(converter_efficiency > 0.0 && converter_efficiency <= 1.0) {
            return Err(HwError::InvalidParameter {
                name: "converter_efficiency",
                requirement: "must be within (0, 1]",
            });
        }
        // mAh * V = mWh; 1 mWh = 3.6 J.
        let capacity = Energy::from_joules(capacity_mah * voltage_v * 3.6);
        Ok(Self {
            capacity,
            remaining: capacity,
            converter_efficiency,
        })
    }

    /// The HWatch battery (370 mAh @ 3.7 V, 90 % converter efficiency).
    pub fn hwatch() -> Self {
        Self::new(
            HWATCH_BATTERY_MAH,
            HWATCH_BATTERY_VOLTAGE,
            HWATCH_CONVERTER_EFFICIENCY,
        )
        .expect("constants are valid")
    }

    /// Total usable capacity.
    pub fn capacity(&self) -> Energy {
        self.capacity
    }

    /// Remaining energy.
    pub fn remaining(&self) -> Energy {
        self.remaining
    }

    /// State of charge in `[0, 1]`.
    pub fn state_of_charge(&self) -> f64 {
        self.remaining / self.capacity
    }

    /// Drains the battery by a load-side energy amount (converter losses are
    /// added on top).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::BatteryDepleted`] if not enough charge remains; the
    /// battery is left untouched in that case.
    pub fn drain(&mut self, load_energy: Energy) -> Result<(), HwError> {
        let from_battery = load_energy / self.converter_efficiency;
        if from_battery > self.remaining {
            return Err(HwError::BatteryDepleted {
                remaining_mj: self.remaining.as_millijoules(),
                requested_mj: from_battery.as_millijoules(),
            });
        }
        self.remaining = self.remaining - from_battery;
        Ok(())
    }

    /// Battery lifetime under a constant average load-side power draw.
    pub fn lifetime(&self, average_load_power: Power) -> TimeSpan {
        let battery_power = average_load_power.as_milliwatts() / self.converter_efficiency;
        if battery_power <= 0.0 {
            return TimeSpan::from_seconds(f64::INFINITY);
        }
        TimeSpan::from_seconds(self.remaining.as_millijoules() / battery_power)
    }
}

impl Default for Battery {
    fn default() -> Self {
        Self::hwatch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hwatch_capacity_is_about_4900_joules() {
        let b = Battery::hwatch();
        // 370 mAh * 3.7 V = 1369 mWh = 4928.4 J.
        assert!((b.capacity().as_joules() - 4928.4).abs() < 1.0);
        assert_eq!(b.state_of_charge(), 1.0);
        assert_eq!(Battery::default(), Battery::hwatch());
    }

    #[test]
    fn new_rejects_bad_parameters() {
        assert!(Battery::new(0.0, 3.7, 0.9).is_err());
        assert!(Battery::new(370.0, 0.0, 0.9).is_err());
        assert!(Battery::new(370.0, 3.7, 0.0).is_err());
        assert!(Battery::new(370.0, 3.7, 1.5).is_err());
    }

    #[test]
    fn drain_accounts_for_converter_efficiency() {
        let mut b = Battery::new(1.0, 1.0, 0.5).unwrap(); // 3.6 J capacity
        b.drain(Energy::from_joules(1.0)).unwrap(); // takes 2 J from the cell
        assert!((b.remaining().as_joules() - 1.6).abs() < 1e-9);
        assert!((b.state_of_charge() - 1.6 / 3.6).abs() < 1e-9);
    }

    #[test]
    fn drain_fails_when_depleted_and_leaves_state_unchanged() {
        let mut b = Battery::new(1.0, 1.0, 1.0).unwrap(); // 3.6 J
        let before = b.remaining();
        assert!(b.drain(Energy::from_joules(10.0)).is_err());
        assert_eq!(b.remaining(), before);
        b.drain(Energy::from_joules(3.0)).unwrap();
    }

    #[test]
    fn lifetime_scales_inversely_with_power() {
        let b = Battery::hwatch();
        let life_low = b.lifetime(Power::from_milliwatts(0.2));
        let life_high = b.lifetime(Power::from_milliwatts(2.0));
        assert!((life_low.as_seconds() / life_high.as_seconds() - 10.0).abs() < 1e-6);
        assert!(b.lifetime(Power::ZERO).as_seconds().is_infinite());
    }

    #[test]
    fn smartwatch_lifetime_is_days_for_chris_like_loads() {
        // At ~0.36 mJ per 2 s prediction (the paper's Sel. Model 1), the
        // average power is ~0.18 mW -> the 370 mAh battery lasts many days.
        let b = Battery::hwatch();
        let avg_power = Power::from_milliwatts(0.36 / 2.0);
        let days = b.lifetime(avg_power).as_seconds() / 86_400.0;
        assert!(
            days > 100.0,
            "expected >100 days of HR tracking alone, got {days:.1}"
        );
    }
}
