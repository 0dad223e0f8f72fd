//! # hw-sim — hardware and energy simulation substrate
//!
//! The CHRIS paper measures its models on a real two-device system: the
//! HWatch prototype (STM32WB55 MCU, BLE 5.0 radio, MAX30101 PPG sensor,
//! LSM6DSM IMU, Li-Ion battery) and a Raspberry Pi3 (Cortex-A53) standing in
//! for the smartphone. That hardware is not available here, so this crate
//! provides analytical models calibrated to the numbers the paper reports in
//! its Table III:
//!
//! * [`units`] — strongly typed energy / power / time / cycles quantities so
//!   millijoules and microjoules cannot be silently mixed,
//! * [`platform`] — compute-platform models (clock, cycles-per-MAC, active and
//!   sleep power) for the STM32WB55 and the Raspberry Pi3,
//! * [`ble`] — the BLE link: per-window transfer latency and smartwatch-side
//!   transmission energy, plus a connection-availability schedule used to
//!   emulate link drops,
//! * [`battery`] — a simple Li-Ion battery for lifetime projections,
//! * [`power_state`] — the smartwatch power states (acquire / compute /
//!   radio / sleep) whose energy totals are what the paper plots in Fig. 3,
//! * [`profile`] — turning a workload (MACs or raw cycles) into cycles, time
//!   and energy on a given platform.
//!
//! ## Calibration
//!
//! Solving the paper's Table III for the two unknown STM32WB55 power levels
//! gives an active power of ≈25.5 mW and a sleep power of ≈0.097 mW over the
//! 2-second prediction period; the Raspberry Pi3 numbers are consistent with a
//! constant ≈1.6 W active power. Cycle counts follow a linear
//! `overhead + cycles_per_mac × MACs` model fitted to the two TimePPG points.
//! The resulting model reproduces every entry of Table III to within ~1 %
//! (see the `table3` experiment binary in `chris-bench`).
//!
//! ## Example
//!
//! ```
//! use hw_sim::platform::Platform;
//! use hw_sim::profile::Workload;
//!
//! let watch = Platform::stm32wb55();
//! let profile = watch.profile(&Workload::Macs(77_630));
//! // TimePPG-Small takes ~21 ms and ~0.5 mJ of pure compute on the MCU.
//! assert!(profile.time.as_millis() > 15.0 && profile.time.as_millis() < 30.0);
//! assert!(profile.energy.as_millijoules() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod battery;
pub mod ble;
pub mod error;
pub mod platform;
pub mod power_state;
pub mod profile;
pub mod units;

pub use ble::{BleLink, ConnectionSchedule};
pub use error::HwError;
pub use platform::Platform;
pub use power_state::PowerState;
pub use profile::{ExecutionProfile, Workload};
pub use units::{Cycles, Energy, Power, TimeSpan};

/// Interval between two consecutive HR predictions (the 2-second window
/// stride), which is also the period the idle/sleep energy is accounted over.
pub const PREDICTION_PERIOD_S: f64 = 2.0;

/// Payload transmitted to the phone per offloaded window: 256 samples × 4
/// channels (PPG + 3-axis accelerometer) × 2 bytes.
pub const WINDOW_PAYLOAD_BYTES: usize = 256 * 4 * 2;
