//! # chris-core — the Collaborative Heart Rate Inference System
//!
//! CHRIS is the paper's contribution: a lightweight runtime executing on the
//! smartwatch that, for every incoming 8-second window, decides **which** HR
//! model to run and **where** (locally on the MCU or offloaded to the phone
//! over BLE) so that a user-supplied constraint — a maximum tracking error or
//! a maximum smartwatch energy — is met at minimum cost.
//!
//! The crate mirrors the structure of the paper's Section III:
//!
//! * [`config`] — *CHRIS configurations*: pairs of HR models plus a difficulty
//!   threshold and an execution target (fully local or hybrid); 60
//!   configurations exist for the 3-model zoo,
//! * [`profiling`] — offline profiling of every configuration on a profiling
//!   dataset, producing the table stored in the smartwatch MCU memory
//!   (Table II of the paper),
//! * [`pareto`] — extraction of the Pareto-optimal configurations in the
//!   (MAE, smartwatch-energy) plane (Fig. 4),
//! * [`decision`] — the Decision Engine: constraint- and connectivity-driven
//!   configuration selection plus the per-window model choice driven by the
//!   activity-recognition classifier (Fig. 2),
//! * [`runtime`] — the window-by-window collaborative-inference simulator,
//!   which dispatches each window to the smartwatch or the phone, sums the
//!   smartwatch energy per `hw-sim` power state and accumulates the error,
//! * [`report`] — run totals and reports (MAE, energy breakdown, offload
//!   statistics).
//!
//! ## Example
//!
//! ```
//! use chris_core::prelude::*;
//! use ppg_data::DatasetBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Profile all configurations on a small profiling split...
//! let dataset = DatasetBuilder::new().subjects(2).seconds_per_activity(20.0).seed(1).build()?;
//! let zoo = ModelZoo::paper_setup();
//! let profiler = Profiler::new(&zoo);
//! let table = profiler.profile_all(&dataset.windows(), ProfilingOptions::default())?;
//!
//! // ...then ask the decision engine for the cheapest configuration that
//! // keeps the MAE under 6 BPM while the phone is reachable.
//! let engine = DecisionEngine::new(table);
//! let selected = engine
//!     .select(&UserConstraint::MaxMae(6.0), ConnectionStatus::Connected)
//!     .expect("a feasible configuration exists");
//! assert!(selected.mae_bpm <= 6.0 + 1.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod decision;
pub mod error;
pub mod metrics;
pub mod pareto;
pub mod profiling;
pub mod report;
pub mod runtime;

pub use config::{Configuration, DifficultyThreshold, EnergyAccounting, ExecutionTarget};
pub use decision::{ConnectionStatus, DecisionEngine, LinkPlan, UserConstraint};
pub use error::ChrisError;
pub use profiling::{ConfigurationProfile, Profiler, ProfilingOptions};
pub use report::{RunReport, RunTotals};
pub use runtime::{ChrisRuntime, RuntimeOptions};

/// Convenient re-exports for downstream binaries and examples.
pub mod prelude {
    pub use crate::config::{
        Configuration, DifficultyThreshold, EnergyAccounting, ExecutionTarget,
    };
    pub use crate::decision::{ConnectionStatus, DecisionEngine, LinkPlan, UserConstraint};
    pub use crate::error::ChrisError;
    pub use crate::pareto::pareto_front;
    pub use crate::profiling::{ConfigurationProfile, Profiler, ProfilingOptions};
    pub use crate::report::{RunReport, RunTotals};
    pub use crate::runtime::{ChrisRuntime, RuntimeOptions};
    pub use ppg_data::{IntoWindowSource, SliceSource, WindowSource};
    pub use ppg_models::zoo::{ModelKind, ModelZoo};
}
