//! # ppg-models — heart-rate predictors and the activity-recognition classifier
//!
//! This crate implements every model the CHRIS paper combines:
//!
//! * [`adaptive_threshold`] — the Adaptive-Threshold (AT) peak-tracking HR
//!   estimator (Shin et al.), the cheap classical model of the pair,
//! * [`spectral`] — an FFT peak-tracking baseline (TROIKA-style spectral
//!   estimator without signal decomposition), used by the extended analyses,
//! * [`timeppg`] — the TimePPG-Small and TimePPG-Big temporal convolutional
//!   networks built on [`tinydl`], with the paper's block structure and
//!   approximate parameter / MAC budgets, trainable and quantizable,
//! * [`random_forest`] — a CART decision-tree ensemble for activity
//!   recognition from accelerometer features (8 trees, depth 5 in the paper),
//! * [`surrogate`] — accuracy-calibrated HR estimators whose per-activity
//!   error distributions match the MAEs the paper reports; these stand in for
//!   the authors' trained weights (see `DESIGN.md` §4),
//! * [`zoo`] — the Models Zoo: per-model characterization (error, MACs/cycles,
//!   on-watch / on-phone / BLE energy) that CHRIS profiles its configurations
//!   from.
//!
//! ## Example
//!
//! ```
//! use ppg_data::DatasetBuilder;
//! use ppg_models::adaptive_threshold::AdaptiveThreshold;
//! use ppg_models::traits::HrEstimator;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let dataset = DatasetBuilder::new().subjects(1).seconds_per_activity(16.0).seed(3).build()?;
//! let window = &dataset.windows()[0];
//! let mut at = AdaptiveThreshold::new();
//! let bpm = at.predict(window)?;
//! assert!(bpm > 30.0 && bpm < 220.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive_threshold;
pub mod error;
pub mod random_forest;
pub mod spectral;
pub mod surrogate;
pub mod timeppg;
pub mod traits;
pub mod zoo;

pub use error::ModelError;
pub use traits::{ActivityClassifier, HrEstimator};
pub use zoo::{ModelCharacterization, ModelKind, ModelZoo};
