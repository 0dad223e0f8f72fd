//! # ppg-dsp — signal-processing substrate for PPG / accelerometer pipelines
//!
//! This crate provides the low-level digital-signal-processing building blocks
//! used throughout the CHRIS reproduction:
//!
//! * [`window`] — fixed-size sliding-window extraction (the paper slices the
//!   32 Hz streams into 256-sample / 8 s windows with a 64-sample / 2 s stride),
//! * [`filter`] — moving averages and biquad IIR band-pass/low-pass filters used
//!   to clean the raw PPG before peak detection,
//! * [`fft`] — an in-place radix-2 FFT, power spectra and Welch periodograms,
//! * [`peaks`] — local-maximum and adaptive peak detection plus
//!   derivative-sign-change counting (one of the four activity-recognition
//!   features of the paper),
//! * [`features`] — per-axis statistical features (mean, energy, standard
//!   deviation, number of peaks) for the activity-recognition random forest,
//! * [`stats`] — error metrics (MAE, RMSE, bias) and summary statistics used by
//!   the evaluation harness.
//!
//! The crate has no dependencies besides `serde` (for persisting feature
//! vectors and metric reports) and records no telemetry, and is deliberately
//! `f32`-centric: the deployed smartwatch pipeline of the paper operates on
//! single-precision or quantized data.
//!
//! ## Example
//!
//! ```
//! use ppg_dsp::{filter::MovingAverage, peaks::count_sign_changes, stats::mae};
//!
//! let signal: Vec<f32> = (0..256).map(|i| (i as f32 * 0.1).sin()).collect();
//! let mut ma = MovingAverage::new(24);
//! let smoothed: Vec<f32> = signal.iter().map(|&x| ma.push(x)).collect();
//! assert_eq!(smoothed.len(), signal.len());
//!
//! let changes = count_sign_changes(&signal);
//! assert!(changes > 0);
//!
//! let err = mae(&[60.0, 70.0], &[62.0, 69.0]).unwrap();
//! assert!((err - 1.5).abs() < 1e-6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod features;
pub mod fft;
pub mod filter;
pub mod peaks;
pub mod stats;
pub mod window;

pub use error::DspError;
pub use features::{AccelFeatures, FeatureVector};
pub use stats::{mae, rmse};
pub use window::SlidingWindows;

/// Sampling frequency of the PPG and accelerometer streams used by the paper
/// (PPGDalia is resampled to 32 Hz before windowing).
pub const SAMPLE_RATE_HZ: f32 = 32.0;

/// Number of samples per analysis window (8 seconds at 32 Hz).
pub const WINDOW_SAMPLES: usize = 256;

/// Stride between consecutive windows (2 seconds at 32 Hz).
pub const WINDOW_STRIDE: usize = 64;
