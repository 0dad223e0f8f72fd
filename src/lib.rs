//! # chris — Collaborative Heart-Rate Inference System
//!
//! A Rust reproduction of *"Energy-efficient Wearable-to-Mobile Offload of ML
//! Inference for PPG-based Heart-Rate Estimation"* (DATE 2023). This facade
//! crate re-exports the whole workspace so applications can depend on a single
//! crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`dsp`] | `ppg-dsp` | filters, FFT, peak detection, features, error metrics |
//! | [`data`] | `ppg-data` | synthetic PPGDalia-like dataset generator |
//! | [`dl`] | `tinydl` | tiny deep-learning engine (TCNs, int8 quantization) |
//! | [`hw`] | `hw-sim` | STM32WB55 / Raspberry Pi3 / BLE / battery models |
//! | [`models`] | `ppg-models` | AT, spectral, TimePPG, random forest, model zoo |
//! | [`core`] | `chris-core` | configurations, profiling, decision engine, runtime |
//!
//! ## Quick start
//!
//! ```
//! use chris::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // 1. Generate a small synthetic dataset (stand-in for PPGDalia).
//! let dataset = DatasetBuilder::new()
//!     .subjects(2)
//!     .seconds_per_activity(20.0)
//!     .seed(7)
//!     .build()?;
//!
//! // 2. Profile every CHRIS configuration on it.
//! let zoo = ModelZoo::paper_setup();
//! let profiler = Profiler::new(&zoo);
//! let table = profiler.profile_all(&dataset.windows(), ProfilingOptions::default())?;
//!
//! // 3. Run CHRIS under a 6-BPM error constraint with the phone reachable.
//! //    `run` takes anything convertible into a window source — here an
//! //    eager slice of windows.
//! let engine = DecisionEngine::new(table);
//! let mut runtime = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
//! let report = runtime.run(
//!     &dataset.windows(),
//!     &UserConstraint::MaxMae(6.0),
//!     &ConnectionSchedule::AlwaysConnected,
//! )?;
//! assert!(report.mae_bpm < 7.0);
//!
//! // 4. Or stream the windows straight out of the synthesizer — same
//! //    report, but peak memory is one window instead of the session.
//! let stream = DatasetBuilder::new()
//!     .subjects(2)
//!     .seconds_per_activity(20.0)
//!     .seed(7)
//!     .window_stream()?;
//! let mut fresh = ChrisRuntime::new(zoo, engine, RuntimeOptions::default());
//! let streamed = fresh.run(
//!     stream,
//!     &UserConstraint::MaxMae(6.0),
//!     &ConnectionSchedule::AlwaysConnected,
//! )?;
//! assert_eq!(report, streamed);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Signal-processing substrate (re-export of `ppg-dsp`).
pub mod dsp {
    pub use ppg_dsp::*;
}

/// Synthetic dataset generation (re-export of `ppg-data`).
pub mod data {
    pub use ppg_data::*;
}

/// Minimal deep-learning engine (re-export of `tinydl`).
pub mod dl {
    pub use tinydl::*;
}

/// Hardware and energy models (re-export of `hw-sim`).
pub mod hw {
    pub use hw_sim::*;
}

/// HR predictors and activity recognition (re-export of `ppg-models`).
pub mod models {
    pub use ppg_models::*;
}

/// The CHRIS runtime itself (re-export of `chris-core`).
pub mod core {
    pub use chris_core::*;
}

/// Fleet-scale parallel simulation (re-export of `fleet`).
pub mod fleet {
    pub use ::fleet::*;
}

/// Fleet-as-a-service daemon: HTTP job scheduling, live telemetry serving
/// and checkpoint/resume (re-export of `fleetd`).
pub mod daemon {
    pub use ::fleetd::*;
}

/// Metrics registry, snapshots and Prometheus-text exposition (re-export of
/// `telemetry`).
pub mod telemetry {
    pub use ::telemetry::*;
}

/// One-stop imports for applications and examples.
pub mod prelude {
    pub use ::fleet::{
        merge, DeviceScenario, FleetReport, FleetSimulation, ProgressSink, ScenarioGenerator,
        ScenarioMix, ShardReport, ShardSpec,
    };
    pub use chris_core::prelude::*;
    pub use hw_sim::battery::Battery;
    pub use hw_sim::ble::{BleLink, ConnectionSchedule};
    pub use hw_sim::platform::Platform;
    pub use hw_sim::units::{Cycles, Energy, Power, TimeSpan};
    pub use ppg_data::{
        Activity, Dataset, DatasetBuilder, IntoWindowSource, LabeledWindow, SliceSource, SubjectId,
        SynthWindows, WindowSource,
    };
    pub use ppg_models::adaptive_threshold::AdaptiveThreshold;
    pub use ppg_models::random_forest::{RandomForest, RandomForestConfig};
    pub use ppg_models::traits::{ActivityClassifier, HrEstimator};
    pub use ppg_models::zoo::{ModelCharacterization, ModelKind, ModelZoo};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_exposes_the_main_types() {
        use crate::prelude::*;
        let _ = ModelZoo::paper_setup();
        let _ = Platform::stm32wb55();
        let _ = BleLink::paper_calibrated();
        let _ = Battery::hwatch();
        let _ = ShardSpec::single(8);
        assert_eq!(ModelKind::ALL.len(), 3);
        assert_eq!(Activity::ALL.len(), 9);
    }
}
