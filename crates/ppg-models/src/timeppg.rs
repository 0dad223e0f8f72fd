//! The TimePPG temporal convolutional networks.
//!
//! TimePPG-Small and TimePPG-Big (the paper's refs. [1], [19]) are 1-D
//! dilated convolutional networks with a modular structure of 3 blocks, each
//! made of three convolutional layers: two with dilation larger than one and
//! one with stride 2. The two variants differ only in the number of filters
//! per layer (chosen by a NAS in the original work): Small has ≈5.09 k
//! parameters and ≈77.6 k MACs per prediction, Big ≈232.6 k parameters and
//! ≈12.27 M MACs.
//!
//! This module reproduces those architectures on top of [`tinydl`]. The layer
//! widths were chosen to land close to the published parameter / MAC budgets
//! (see the tests); exact NAS-found widths are not public. The networks are
//! fully trainable (`tinydl` SGD) and quantizable (`tinydl::quant`), and the
//! [`TimePpg`] wrapper exposes them as [`HrEstimator`]s whose input is the
//! normalized 4-channel window (PPG + 3-axis accelerometer).
//!
//! **Accuracy note** — the experiments in `chris-bench` use the calibrated
//! surrogates of [`crate::surrogate`] for MAE numbers, because reproducing the
//! authors' trained weights is not possible without the original dataset; the
//! networks here characterize computational cost, quantization behaviour and
//! trainability. See `DESIGN.md` §4.

use hw_sim::profile::Workload;
use ppg_data::LabeledWindow;
use tinydl::layers::{Conv1d, Dense, Flatten, GlobalAvgPool, Relu};
use tinydl::network::Sequential;
use tinydl::tensor::Tensor;

use crate::error::ModelError;
use crate::traits::{clamp_bpm, HrEstimator};
use crate::zoo::ModelKind;

/// Number of input channels: PPG plus the three accelerometer axes.
pub const INPUT_CHANNELS: usize = 4;
/// Temporal length of the input window.
pub const INPUT_LENGTH: usize = ppg_data::WINDOW_SAMPLES;

/// Published MAC count of TimePPG-Small (used for energy characterization).
pub const SMALL_NOMINAL_MACS: u64 = 77_630;
/// Published parameter count of TimePPG-Small.
pub const SMALL_NOMINAL_PARAMS: u64 = 5_090;
/// Published MAC count of TimePPG-Big.
pub const BIG_NOMINAL_MACS: u64 = 12_270_000;
/// Published parameter count of TimePPG-Big.
pub const BIG_NOMINAL_PARAMS: u64 = 232_600;

/// Which of the two TimePPG variants to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimePpgVariant {
    /// The ≈5 k-parameter network.
    Small,
    /// The ≈233 k-parameter network.
    Big,
}

impl TimePpgVariant {
    /// Channel widths of the three blocks.
    fn block_channels(self) -> [usize; 3] {
        match self {
            TimePpgVariant::Small => [4, 6, 8],
            TimePpgVariant::Big => [32, 64, 128],
        }
    }

    /// Hidden width of the regression head.
    fn head_hidden(self) -> usize {
        16
    }

    /// Published MAC count used for hardware characterization.
    pub fn nominal_macs(self) -> u64 {
        match self {
            TimePpgVariant::Small => SMALL_NOMINAL_MACS,
            TimePpgVariant::Big => BIG_NOMINAL_MACS,
        }
    }

    /// Published parameter count.
    pub fn nominal_params(self) -> u64 {
        match self {
            TimePpgVariant::Small => SMALL_NOMINAL_PARAMS,
            TimePpgVariant::Big => BIG_NOMINAL_PARAMS,
        }
    }

    /// The corresponding zoo entry.
    pub fn model_kind(self) -> ModelKind {
        match self {
            TimePpgVariant::Small => ModelKind::TimePpgSmall,
            TimePpgVariant::Big => ModelKind::TimePpgBig,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            TimePpgVariant::Small => "TimePPG-Small",
            TimePpgVariant::Big => "TimePPG-Big",
        }
    }
}

/// Builds the TimePPG network of the requested variant.
///
/// The structure follows the paper: three blocks of
/// `[dilated conv, dilated conv, strided conv]` followed by a regression head.
/// The Small variant uses a flattened dense head (most of its parameters live
/// there, as in the published network); the Big variant uses global average
/// pooling plus a dense head.
///
/// # Errors
///
/// Propagates [`tinydl::TinyDlError`] if a layer rejects its hyper-parameters
/// (which cannot happen for the fixed variants, but the error is surfaced
/// rather than unwrapped).
pub fn build_network(variant: TimePpgVariant) -> Result<Sequential, ModelError> {
    let [c1, c2, c3] = variant.block_channels();
    let mut net = Sequential::new();
    let mut in_ch = INPUT_CHANNELS;
    for (block, &out_ch) in [c1, c2, c3].iter().enumerate() {
        let dilation = 1 << (block + 1); // 2, 4, 8
        net.push(Conv1d::new(in_ch, out_ch, 3, 1, dilation, true)?);
        net.push(Relu::new());
        net.push(Conv1d::new(out_ch, out_ch, 3, 1, dilation, true)?);
        net.push(Relu::new());
        net.push(Conv1d::new(out_ch, out_ch, 3, 2, 1, true)?);
        net.push(Relu::new());
        in_ch = out_ch;
    }
    match variant {
        TimePpgVariant::Small => {
            // After three stride-2 blocks the length is 256 / 8 = 32.
            net.push(Flatten::new());
            net.push(Dense::new(c3 * (INPUT_LENGTH / 8), variant.head_hidden())?);
            net.push(Relu::new());
            net.push(Dense::new(variant.head_hidden(), 1)?);
        }
        TimePpgVariant::Big => {
            net.push(Flatten::new());
            net.push(Dense::new(c3 * (INPUT_LENGTH / 8), variant.head_hidden())?);
            net.push(Relu::new());
            net.push(Dense::new(variant.head_hidden(), 1)?);
        }
    }
    Ok(net)
}

/// Builds a variant of the network with a global-average-pooling head instead
/// of the flattened dense head; used by the architecture-ablation bench.
///
/// # Errors
///
/// Propagates [`tinydl::TinyDlError`] construction errors.
pub fn build_network_gap_head(variant: TimePpgVariant) -> Result<Sequential, ModelError> {
    let [c1, c2, c3] = variant.block_channels();
    let mut net = Sequential::new();
    let mut in_ch = INPUT_CHANNELS;
    for (block, &out_ch) in [c1, c2, c3].iter().enumerate() {
        let dilation = 1 << (block + 1);
        net.push(Conv1d::new(in_ch, out_ch, 3, 1, dilation, true)?);
        net.push(Relu::new());
        net.push(Conv1d::new(out_ch, out_ch, 3, 1, dilation, true)?);
        net.push(Relu::new());
        net.push(Conv1d::new(out_ch, out_ch, 3, 2, 1, true)?);
        net.push(Relu::new());
        in_ch = out_ch;
    }
    net.push(GlobalAvgPool::new());
    net.push(Dense::new(c3, 1)?);
    Ok(net)
}

/// Converts a labeled window into the network input tensor: 4 channels
/// (PPG, accel x, y, z), each normalized to zero mean and unit variance.
///
/// # Errors
///
/// Returns [`ModelError::InvalidWindow`] when the channels differ in length.
pub fn window_to_tensor(window: &LabeledWindow) -> Result<Tensor, ModelError> {
    let len = window.ppg.len();
    if !window.channels_agree() {
        return Err(ModelError::InvalidWindow {
            model: "TimePPG",
            reason: "ppg and accelerometer channels must have the same length".to_string(),
        });
    }
    if len == 0 {
        return Err(ModelError::InvalidWindow {
            model: "TimePPG",
            reason: "window is empty".to_string(),
        });
    }
    let mut data = Vec::with_capacity(4 * len);
    for channel in [
        &window.ppg,
        &window.accel_x,
        &window.accel_y,
        &window.accel_z,
    ] {
        let mean = channel.iter().sum::<f32>() / len as f32;
        let var = channel
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / len as f32;
        let std = var.sqrt().max(1e-6);
        data.extend(channel.iter().map(|&x| (x - mean) / std));
    }
    Ok(Tensor::from_vec(data, &[4, len])?)
}

/// A TimePPG network wrapped as an [`HrEstimator`].
///
/// The raw network output is interpreted as an offset in BPM from a 75 BPM
/// prior, which keeps untrained networks inside the physiological range and
/// matches how the training targets are encoded by
/// [`TimePpg::training_target`].
#[derive(Debug)]
pub struct TimePpg {
    variant: TimePpgVariant,
    network: Sequential,
}

impl TimePpg {
    /// Builds the estimator with freshly initialized (untrained) weights.
    ///
    /// # Errors
    ///
    /// Propagates network-construction errors.
    pub fn new(variant: TimePpgVariant) -> Result<Self, ModelError> {
        Ok(Self {
            variant,
            network: build_network(variant)?,
        })
    }

    /// The wrapped variant.
    pub fn variant(&self) -> TimePpgVariant {
        self.variant
    }

    /// Read-only access to the underlying network.
    pub fn network(&self) -> &Sequential {
        &self.network
    }

    /// Mutable access to the underlying network (for training or quantizing).
    pub fn network_mut(&mut self) -> &mut Sequential {
        &mut self.network
    }

    /// Encodes a ground-truth heart rate as the network's regression target.
    pub fn training_target(hr_bpm: f32) -> Tensor {
        Tensor::from_slice(&[(hr_bpm - 75.0) / 25.0])
    }

    /// Decodes the network output back into BPM.
    pub fn decode_output(raw: f32) -> f32 {
        clamp_bpm(75.0 + 25.0 * raw)
    }
}

impl HrEstimator for TimePpg {
    fn name(&self) -> &str {
        self.variant.name()
    }

    fn predict(&mut self, window: &LabeledWindow) -> Result<f32, ModelError> {
        let input = window_to_tensor(window)?;
        let out = self.network.forward(&input)?;
        Ok(Self::decode_output(out.as_slice()[0]))
    }

    fn workload(&self) -> Workload {
        Workload::Macs(self.variant.nominal_macs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::DatasetBuilder;

    #[test]
    fn small_budget_is_close_to_published_numbers() {
        let net = build_network(TimePpgVariant::Small).unwrap();
        let params = net.parameter_count() as f64;
        let macs = net.macs(&[4, 256]).unwrap() as f64;
        let p_ratio = params / SMALL_NOMINAL_PARAMS as f64;
        let m_ratio = macs / SMALL_NOMINAL_MACS as f64;
        assert!(
            (0.6..=1.6).contains(&p_ratio),
            "params {params} vs 5.09k (ratio {p_ratio:.2})"
        );
        assert!(
            (0.6..=1.6).contains(&m_ratio),
            "macs {macs} vs 77.6k (ratio {m_ratio:.2})"
        );
    }

    #[test]
    fn big_budget_is_close_to_published_numbers() {
        let net = build_network(TimePpgVariant::Big).unwrap();
        let params = net.parameter_count() as f64;
        let macs = net.macs(&[4, 256]).unwrap() as f64;
        let p_ratio = params / BIG_NOMINAL_PARAMS as f64;
        let m_ratio = macs / BIG_NOMINAL_MACS as f64;
        assert!(
            (0.6..=1.6).contains(&p_ratio),
            "params {params} vs 232.6k (ratio {p_ratio:.2})"
        );
        assert!(
            (0.6..=1.6).contains(&m_ratio),
            "macs {macs} vs 12.27M (ratio {m_ratio:.2})"
        );
    }

    #[test]
    fn big_is_much_larger_than_small() {
        let small = build_network(TimePpgVariant::Small).unwrap();
        let big = build_network(TimePpgVariant::Big).unwrap();
        assert!(big.parameter_count() > small.parameter_count() * 20);
        assert!(big.macs(&[4, 256]).unwrap() > small.macs(&[4, 256]).unwrap() * 20);
    }

    #[test]
    fn networks_have_nine_conv_layers() {
        for variant in [TimePpgVariant::Small, TimePpgVariant::Big] {
            let net = build_network(variant).unwrap();
            let convs = net.layers().iter().filter(|l| l.name() == "conv1d").count();
            assert_eq!(
                convs, 9,
                "{:?} should have 3 blocks x 3 conv layers",
                variant
            );
        }
    }

    #[test]
    fn forward_pass_produces_plausible_bpm() {
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(2)
            .build()
            .unwrap();
        let w = &d.windows()[0];
        let mut model = TimePpg::new(TimePpgVariant::Small).unwrap();
        let bpm = model.predict(w).unwrap();
        assert!((40.0..=190.0).contains(&bpm));
        assert_eq!(model.name(), "TimePPG-Small");
        assert_eq!(model.workload(), Workload::Macs(SMALL_NOMINAL_MACS));
        assert_eq!(model.variant(), TimePpgVariant::Small);
    }

    #[test]
    fn window_to_tensor_normalizes_channels() {
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(3)
            .build()
            .unwrap();
        let w = &d.windows()[0];
        let t = window_to_tensor(w).unwrap();
        assert_eq!(t.shape(), &[4, 256]);
        // Every channel should be ~zero-mean, ~unit-std after normalization.
        for c in 0..4 {
            let row: Vec<f32> = (0..256).map(|i| t.at(c, i)).collect();
            let mean = row.iter().sum::<f32>() / 256.0;
            let var = row.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 256.0;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "channel {c} var {var}");
        }
    }

    #[test]
    fn window_to_tensor_rejects_malformed_windows() {
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(4)
            .build()
            .unwrap();
        let mut w = d.windows()[0].clone();
        w.accel_x.truncate(100);
        assert!(window_to_tensor(&w).is_err());
        let mut empty = d.windows()[0].clone();
        empty.ppg.clear();
        empty.accel_x.clear();
        empty.accel_y.clear();
        empty.accel_z.clear();
        assert!(window_to_tensor(&empty).is_err());
    }

    #[test]
    fn target_encoding_round_trips() {
        for hr in [45.0f32, 75.0, 120.0, 180.0] {
            let t = TimePpg::training_target(hr);
            let decoded = TimePpg::decode_output(t.as_slice()[0]);
            assert!((decoded - hr).abs() < 1e-3);
        }
        // Decoding clamps to the physiological range.
        assert_eq!(TimePpg::decode_output(100.0), 190.0);
    }

    #[test]
    fn gap_head_variant_builds_and_runs() {
        let mut net = build_network_gap_head(TimePpgVariant::Small).unwrap();
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(5)
            .build()
            .unwrap();
        let input = window_to_tensor(&d.windows()[0]).unwrap();
        let out = net.forward(&input).unwrap();
        assert_eq!(out.len(), 1);
        assert!(
            net.parameter_count()
                < build_network(TimePpgVariant::Small)
                    .unwrap()
                    .parameter_count()
        );
    }

    #[test]
    fn small_network_is_quantizable() {
        let net = build_network(TimePpgVariant::Small).unwrap();
        let q = tinydl::quant::QuantizedNetwork::from_sequential(&net).unwrap();
        let d = DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(16.0)
            .seed(6)
            .build()
            .unwrap();
        let input = window_to_tensor(&d.windows()[0]).unwrap();
        let out = q.forward(&input).unwrap();
        assert_eq!(out.len(), 1);
        // int8 weights should be roughly 4x smaller than the f32 parameters.
        assert!(q.weight_bytes() < net.parameter_count() * 4 / 2);
    }
}
