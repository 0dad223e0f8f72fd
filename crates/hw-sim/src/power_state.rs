//! Smartwatch power states.
//!
//! The paper's Fig. 3 decomposes the smartwatch cost of one prediction into
//! compute energy (including idle between predictions), phone compute energy
//! and BLE transmission energy. [`PowerState`] names the states of the MCU
//! and radio in that decomposition (sensor acquisition, local compute, radio
//! transmission, sleep); the CHRIS runtime sums the smartwatch energy of a
//! run per state.

use serde::{Deserialize, Serialize};

/// The power states the smartwatch MCU/radio can be in during one prediction
/// period.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Sensor acquisition (PPG + IMU sampling and buffering).
    Acquire,
    /// Local model execution on the MCU.
    Compute,
    /// BLE transmission of an offloaded window.
    RadioTx,
    /// Low-power sleep between predictions.
    Sleep,
}

impl PowerState {
    /// All states in a stable order.
    pub const ALL: [PowerState; 4] = [
        PowerState::Acquire,
        PowerState::Compute,
        PowerState::RadioTx,
        PowerState::Sleep,
    ];

    /// Stable zero-based index, in the order of [`PowerState::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            PowerState::Acquire => "acquire",
            PowerState::Compute => "compute",
            PowerState::RadioTx => "radio_tx",
            PowerState::Sleep => "sleep",
        }
    }
}

impl std::fmt::Display for PowerState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_names_are_unique() {
        let mut names: Vec<_> = PowerState::ALL.iter().map(|s| s.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 4);
        assert_eq!(PowerState::RadioTx.to_string(), "radio_tx");
    }

    #[test]
    fn index_follows_the_all_order() {
        for (index, state) in PowerState::ALL.into_iter().enumerate() {
            assert_eq!(state.index(), index);
        }
    }
}
