//! # ppg-data — synthetic PPGDalia-like dataset
//!
//! The CHRIS paper evaluates on **PPGDalia** (Reiss et al., 2019): 37.5 hours
//! of wrist PPG, 3-axis accelerometer and ECG-derived ground-truth heart rate
//! recorded from 15 subjects performing 8 daily activities plus rest.  The
//! real dataset cannot be redistributed here, so this crate generates a
//! **synthetic substitute** that preserves the properties CHRIS actually
//! consumes:
//!
//! * 15 subjects × 9 activities with *equal representation* (the paper points
//!   out Fig. 5 depends on this),
//! * a monotone relationship between an activity's difficulty rank and the
//!   amount of motion artifacts (MAs) corrupting the PPG,
//! * accelerometer signals whose statistical features separate the activities
//!   (so a small random forest reaches > 90 % easy/hard accuracy, as reported),
//! * 32 Hz sampling, 256-sample (8 s) windows with a 64-sample (2 s) stride.
//!
//! The generative model is intentionally simple and fully documented in
//! [`ppg_synth`]: a pulse train driven by a smooth heart-rate trajectory, plus
//! baseline wander, sensor noise and motion artifacts that are *correlated
//! with the synthetic accelerometer*, exactly the coupling the paper's
//! difficulty proxy exploits.
//!
//! ## Example
//!
//! ```
//! use ppg_data::{DatasetBuilder, Activity};
//!
//! // A small dataset: 3 subjects, 30 s per activity, deterministic seed.
//! let dataset = DatasetBuilder::new()
//!     .subjects(3)
//!     .seconds_per_activity(30.0)
//!     .seed(7)
//!     .build()?;
//!
//! assert_eq!(dataset.subject_count(), 3);
//! let windows = dataset.windows();
//! assert!(!windows.is_empty());
//! assert!(windows.iter().any(|w| w.activity == Activity::Walking));
//!
//! // The same windows, streamed lazily without materializing the dataset:
//! use ppg_data::WindowSource;
//! let stream = DatasetBuilder::new()
//!     .subjects(3)
//!     .seconds_per_activity(30.0)
//!     .seed(7)
//!     .window_stream()?;
//! assert_eq!(stream.len(), windows.len());
//! # Ok::<(), ppg_data::DataError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accel_synth;
pub mod activity;
pub mod dataset;
pub mod error;
pub mod hr_profile;
pub mod noise;
pub mod ppg_synth;
pub mod stream;
pub mod subject;
pub mod window;

pub use activity::{Activity, DifficultyLevel};
pub use dataset::{Dataset, DatasetBuilder, SessionRecording, Synthesis};
pub use error::DataError;
pub use stream::cache::{drain_shared, CachedWindows, WindowCache, WindowCacheKey};
pub use stream::{
    collect_windows, BufferWindows, IntoWindowSource, RecordingWindows, SliceSource, SynthWindows,
    WindowSource,
};
pub use subject::{SubjectId, SubjectProfile};
pub use window::LabeledWindow;

/// Sampling rate of every synthesized stream, matching the paper's 32 Hz.
pub const SAMPLE_RATE_HZ: f32 = ppg_dsp::SAMPLE_RATE_HZ;

/// Samples per analysis window (8 s at 32 Hz).
pub const WINDOW_SAMPLES: usize = ppg_dsp::WINDOW_SAMPLES;

/// Stride between windows (2 s at 32 Hz).
pub const WINDOW_STRIDE: usize = ppg_dsp::WINDOW_STRIDE;

/// Number of subjects in the full synthetic dataset (as in PPGDalia).
pub const FULL_SUBJECT_COUNT: usize = 15;
