//! Aggregate fleet reporting.
//!
//! [`DeviceReport`] is the distilled outcome of one device's run;
//! [`FleetReport`] folds a fleet of them into the population statistics an
//! operator watches: MAE percentiles, energy and projected battery-life
//! distributions, the offload-fraction histogram (how much work the phones
//! absorb) and constraint-violation counts. Aggregation is *incremental*:
//! [`FleetAccumulator`] folds device reports one at a time (in id order, with
//! fixed-order floating-point reductions) and
//! [`FleetReport::from_devices`] is just that fold over a slice — so a
//! fleet's report is byte-identical no matter how many threads produced the
//! device reports, and, because [`crate::merge`](mod@crate::merge) feeds
//! id-ordered shard artifacts through the same accumulator, no matter how
//! many *processes or hosts* produced them either.
//!
//! Each quantity streams into a deterministic
//! [`crate::sketch::QuantileSketch`]; the [`ReportMode`] only picks its
//! capacity:
//!
//! * [`ReportMode::Exact`] (the default): a sketch of unbounded capacity,
//!   which never compacts, so percentiles are exact nearest-rank order
//!   statistics with the rank computed in integer arithmetic
//!   ([`DistributionSummary::nearest_rank_index`]), at the cost of three raw
//!   `f64` values retained per device — O(devices) memory. There is no
//!   separate sample vector,
//! * [`ReportMode::Sketch`]: a sketch of
//!   [`crate::sketch::DEFAULT_SKETCH_CAPACITY`], so the accumulator retains
//!   O(capacity · log devices) samples and the report's percentiles carry a
//!   surfaced worst-case rank-error bound ([`SketchInfo`]). Sketch-mode
//!   reports keep the same byte-identity guarantee: the merge layer folds
//!   any tiling of the fleet in id order from id 0, so the sketches see the
//!   same sequence as a single-process run.

use std::collections::BTreeMap;

use chris_core::config::EnergyAccounting;
use chris_core::decision::UserConstraint;
use hw_sim::units::Energy;
use serde::{Deserialize, Serialize};
use telemetry::Stability;

use crate::sketch::{
    QuantileSketch, DEFAULT_SKETCH_CAPACITY, SKETCH_COMPACTIONS_HELP, SKETCH_COMPACTIONS_SERIES,
    SKETCH_RETAINED_HELP, SKETCH_RETAINED_SERIES,
};

/// Number of bins of the offload-fraction histogram (equal width over
/// `[0, 1]`).
pub const OFFLOAD_HISTOGRAM_BINS: usize = 10;

/// How fleet-level distributions are aggregated (see the [module
/// docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReportMode {
    /// Exact nearest-rank order statistics: a [`QuantileSketch`] of
    /// unbounded capacity, which never compacts and keeps three raw `f64`
    /// values per device (no separate sample vector). The default.
    #[default]
    Exact,
    /// Deterministic quantile sketches; O(log devices) retained
    /// samples, percentiles within a surfaced worst-case rank-error bound.
    Sketch,
}

impl std::str::FromStr for ReportMode {
    type Err = String;

    /// Looks a mode up by CLI name (`exact`, `sketch`); the error names the
    /// accepted ones, as every CLI and the daemon's job spec print it.
    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "exact" => Ok(Self::Exact),
            "sketch" => Ok(Self::Sketch),
            _ => Err(format!(
                "unknown report mode `{name}`; expected one of {}",
                Self::NAMES.join(", ")
            )),
        }
    }
}

impl ReportMode {
    /// The CLI name of the mode.
    pub fn name(&self) -> &'static str {
        match self {
            Self::Exact => "exact",
            Self::Sketch => "sketch",
        }
    }

    /// The names [`ReportMode`]'s `FromStr` accepts.
    pub const NAMES: [&'static str; 2] = ["exact", "sketch"];
}

/// Accuracy and footprint annotation of a sketch-mode aggregation: one
/// record covers all three sketched quantities (MAE, watch energy, battery
/// life), whose compaction schedules are identical because they see the same
/// device-id sequence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SketchInfo {
    /// Worst-case absolute rank error of any reported percentile, in device
    /// ranks: the value reported as the `p`th percentile has true rank
    /// within `max_rank_error` of the exact nearest rank.
    pub max_rank_error: u64,
    /// [`SketchInfo::max_rank_error`] as a fraction of the fleet (zero for
    /// an empty fleet).
    pub rank_error_fraction: f64,
    /// Samples retained across the three sketches — the aggregation's
    /// memory footprint, O(log devices) instead of the exact mode's
    /// O(devices).
    pub retained_samples: usize,
    /// Sketch compactions performed while aggregating.
    pub compactions: u64,
}

/// Sketch-mode report envelope: what `fleet --report-mode sketch --json` and
/// a sketch-mode `fleet-merge --json` print — the aggregate report together
/// with the sketch's error-bound annotation, so a consumer can never mistake
/// sketched percentiles for exact ones. (Exact-mode output stays a bare
/// [`FleetReport`], byte-identical to every previous release.)
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SketchedReport {
    /// Accuracy and footprint of the sketch aggregation.
    pub sketch: SketchInfo,
    /// The aggregate report; its three [`DistributionSummary`] percentiles
    /// are sketch estimates within [`SketchInfo::max_rank_error`] ranks.
    pub report: FleetReport,
}

/// Distilled outcome of one device's simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceReport {
    /// Device id within the fleet.
    pub device_id: u64,
    /// Number of windows the device processed.
    pub windows: usize,
    /// Realized MAE over the device's windows, in BPM.
    pub mae_bpm: f32,
    /// Average smartwatch energy per prediction.
    pub avg_watch_energy: Energy,
    /// Average phone energy per prediction.
    pub avg_phone_energy: Energy,
    /// Fraction of windows offloaded to the phone.
    pub offload_fraction: f32,
    /// Fraction of windows handled by the simple model.
    pub simple_fraction: f32,
    /// Fraction of windows processed while the link was down.
    pub disconnected_fraction: f32,
    /// Projected battery life at the device's average power, in hours.
    pub battery_life_hours: f64,
    /// The constraint the device ran under.
    pub constraint: UserConstraint,
    /// The energy accounting the device ran under.
    pub accounting: EnergyAccounting,
    /// Whether the realized MAE/energy exceeded the (soft) constraint.
    pub constraint_violated: bool,
}

/// Order statistics of one per-device quantity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionSummary {
    /// Smallest value.
    pub min: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest value.
    pub max: f64,
}

impl DistributionSummary {
    /// Zero-based index of the nearest-rank `p`th percentile in a sorted
    /// sample of `n` values, computed exactly: `ceil(p * n / 100) - 1`. The
    /// one rank formula: [`QuantileSketch`] percentiles use it in both
    /// report modes.
    ///
    /// The arithmetic is pure integer math (`div_ceil`), never floating
    /// point. The previous `(p / 100.0 * n as f64).ceil()` formulation is an
    /// off-by-one trap: whenever the inexact double `p / 100.0` rounds *up*
    /// (e.g. `7.0 / 100.0`), the product for an exact-rank sample size lands
    /// epsilon above the true integer (`0.07 * 100 == 7.000000000000001`)
    /// and `ceil` overshoots the rank by one whole sample.
    ///
    /// # Panics
    ///
    /// Debug-asserts `1 <= p <= 100` and `n > 0`; in release builds the
    /// result is clamped into `0..n`.
    pub fn nearest_rank_index(p: u32, n: usize) -> usize {
        debug_assert!((1..=100).contains(&p), "percentile {p} outside 1..=100");
        debug_assert!(n > 0, "nearest rank of an empty sample");
        let rank = (u128::from(p) * n as u128).div_ceil(100).max(1);
        usize::try_from(rank - 1)
            .unwrap_or(usize::MAX)
            .min(n.saturating_sub(1))
    }
}

/// The all-zero summary reported for quantities of an empty fleet.
const EMPTY_SUMMARY: DistributionSummary = DistributionSummary {
    min: 0.0,
    mean: 0.0,
    p50: 0.0,
    p90: 0.0,
    p99: 0.0,
    max: 0.0,
};

/// Offload-histogram bin of one device's offload fraction.
///
/// Every non-fraction is handled explicitly instead of relying on the silent
/// `as usize` saturation: a fraction outside `[0, 1]` — NaN, negative, or
/// infinite (impossible for reports produced by the executor, whose
/// fractions are ratios of window counts) — trips a debug assertion, and in
/// release builds is deterministically clamped: NaN and negatives into bin
/// 0, values at or above 1 into the last bin — the same "make bad floats a
/// loud, deterministic policy" treatment the decision engine applies with
/// `total_cmp`.
fn offload_bin(fraction: f32) -> usize {
    debug_assert!(
        fraction.is_finite() && (0.0..=1.0).contains(&fraction),
        "device offload_fraction {fraction} outside [0, 1]; \
         upstream fraction accounting is broken"
    );
    if fraction.is_nan() || fraction < 0.0 {
        return 0;
    }
    if fraction >= 1.0 {
        return OFFLOAD_HISTOGRAM_BINS - 1;
    }
    ((f64::from(fraction) * OFFLOAD_HISTOGRAM_BINS as f64) as usize).min(OFFLOAD_HISTOGRAM_BINS - 1)
}

/// Streaming fleet aggregation: folds [`DeviceReport`]s one at a time — in
/// device-id order — and finalizes into a [`FleetReport`] **byte-identical**
/// to [`FleetReport::from_devices`] over the same sequence (which is itself
/// implemented as a fold through this type, so the two can never drift).
///
/// The accumulator keeps only what the final report needs — three
/// [`QuantileSketch`]es (MAE, watch energy, battery life), holding every raw
/// value in [`ReportMode::Exact`] and O(log devices) samples in
/// [`ReportMode::Sketch`] — plus fixed-size running reductions,
/// never the `DeviceReport`s themselves. That is what lets
/// [`crate::merge`](mod@crate::merge) consume shard artifacts incrementally:
/// each artifact is folded and dropped, and peak memory is one artifact plus
/// the retained samples instead of every artifact at once.
///
/// All floating-point reductions and sketch inserts happen in push order,
/// so feeding devices in id order reproduces the fixed fold order the
/// byte-identity guarantee of sharded execution rests on, in both modes
/// (see [`crate::sketch`]).
#[derive(Debug, Clone)]
pub struct FleetAccumulator {
    mode: ReportMode,
    maes: QuantileSketch,
    watch_energies: QuantileSketch,
    battery_lives: QuantileSketch,
    total_windows: usize,
    offloaded_windows: f64,
    disconnected_windows: f64,
    phone_energy_sum: f64,
    offloading_devices: usize,
    offload_histogram: Vec<usize>,
    constraint_violations: usize,
    /// Devices per constraint kind, indexed like [`CONSTRAINT_KEYS`].
    constraint_mix: [usize; CONSTRAINT_KEYS.len()],
    /// Devices per accounting mode, indexed by [`EnergyAccounting`] variant.
    accounting_mix: [usize; EnergyAccounting::ALL.len()],
}

/// Report keys of the constraint kinds, indexed like
/// [`FleetAccumulator`]'s tally.
const CONSTRAINT_KEYS: [&str; 2] = ["max_mae", "max_energy"];

/// The report's map form of a fixed tally: one entry per non-zero count.
fn tally_map<K: ToString>(keys: &[K], counts: &[usize]) -> BTreeMap<String, usize> {
    keys.iter()
        .zip(counts)
        .filter(|&(_, &count)| count > 0)
        .map(|(key, &count)| (key.to_string(), count))
        .collect()
}

impl FleetAccumulator {
    /// Creates an empty exact-mode accumulator; finalizing it immediately
    /// yields the same all-zero report as `FleetReport::from_devices(&[])`.
    pub fn new() -> Self {
        Self::with_mode(ReportMode::Exact)
    }

    /// Creates an empty accumulator in the given [`ReportMode`]: sketches
    /// of unbounded capacity in exact mode, of [`DEFAULT_SKETCH_CAPACITY`]
    /// in sketch mode.
    pub fn with_mode(mode: ReportMode) -> Self {
        let capacity = match mode {
            ReportMode::Exact => usize::MAX,
            ReportMode::Sketch => DEFAULT_SKETCH_CAPACITY,
        };
        Self {
            mode,
            maes: QuantileSketch::with_capacity(capacity),
            watch_energies: QuantileSketch::with_capacity(capacity),
            battery_lives: QuantileSketch::with_capacity(capacity),
            total_windows: 0,
            offloaded_windows: 0.0,
            disconnected_windows: 0.0,
            phone_energy_sum: 0.0,
            offloading_devices: 0,
            offload_histogram: vec![0; OFFLOAD_HISTOGRAM_BINS],
            constraint_violations: 0,
            constraint_mix: [0; CONSTRAINT_KEYS.len()],
            accounting_mix: [0; EnergyAccounting::ALL.len()],
        }
    }

    /// The aggregation mode the accumulator was created in.
    pub fn mode(&self) -> ReportMode {
        self.mode
    }

    /// The sketch annotation of the devices folded so far; `None` in exact
    /// mode. Read it before [`FleetAccumulator::finalize`], which consumes
    /// the accumulator.
    pub fn sketch_info(&self) -> Option<SketchInfo> {
        if self.mode == ReportMode::Exact {
            return None;
        }
        let sketches = [&self.maes, &self.watch_energies, &self.battery_lives];
        let max_rank_error = sketches.iter().map(|s| s.rank_error_bound()).max();
        let max_rank_error = max_rank_error.unwrap_or(0);
        let count = self.maes.count();
        Some(SketchInfo {
            max_rank_error,
            rank_error_fraction: if count == 0 {
                0.0
            } else {
                max_rank_error as f64 / count as f64
            },
            retained_samples: sketches.iter().map(|s| s.retained()).sum(),
            compactions: sketches.iter().map(|s| s.compactions()).sum(),
        })
    }

    /// Number of devices folded so far.
    pub fn devices(&self) -> usize {
        usize::try_from(self.maes.count()).unwrap_or(usize::MAX)
    }

    /// Total windows across the devices folded so far.
    pub fn total_windows(&self) -> usize {
        self.total_windows
    }

    /// Folds one device into the aggregate. Callers must push devices in
    /// id order to preserve the byte-identity of the finalized report.
    pub fn push(&mut self, device: &DeviceReport) {
        self.maes.insert(f64::from(device.mae_bpm));
        self.watch_energies
            .insert(device.avg_watch_energy.as_microjoules());
        self.battery_lives.insert(device.battery_life_hours);
        self.total_windows += device.windows;
        self.offloaded_windows += f64::from(device.offload_fraction) * device.windows as f64;
        self.disconnected_windows +=
            f64::from(device.disconnected_fraction) * device.windows as f64;
        if device.offload_fraction > 0.0 {
            self.offloading_devices += 1;
            self.phone_energy_sum += device.avg_phone_energy.as_microjoules();
        }
        self.offload_histogram[offload_bin(device.offload_fraction)] += 1;
        if device.constraint_violated {
            self.constraint_violations += 1;
        }
        let constraint_index = match device.constraint {
            UserConstraint::MaxMae(_) => 0,
            UserConstraint::MaxEnergy(_) => 1,
        };
        self.constraint_mix[constraint_index] += 1;
        self.accounting_mix[device.accounting as usize] += 1;
    }

    /// Finalizes the aggregate into the population report.
    ///
    /// In sketch mode the three [`DistributionSummary`] percentiles are
    /// sketch estimates (exact `min`/`max`, push-ordered `mean`) within the
    /// rank-error bound surfaced by [`FleetAccumulator::sketch_info`], and
    /// the sketches' compaction/footprint telemetry is emitted to the active
    /// registry. Both modes time the aggregation into the shared
    /// [`telemetry::STAGE_DURATION_SERIES`] family (`stage="aggregate"`,
    /// observational — never embedded in byte-stable artifacts).
    pub fn finalize(self) -> FleetReport {
        let registry = telemetry::active();
        let _timer = registry
            .histogram(
                telemetry::STAGE_DURATION_SERIES,
                &[("stage", "aggregate")],
                telemetry::STAGE_DURATION_HELP,
                Stability::Observational,
                &telemetry::DURATION_NS_BOUNDS,
            )
            .expect("aggregate stage histogram registration cannot fail")
            .start_timer();
        if let Some(info) = self.sketch_info() {
            registry
                .counter(
                    SKETCH_COMPACTIONS_SERIES,
                    &[],
                    SKETCH_COMPACTIONS_HELP,
                    Stability::Observational,
                )
                .expect("sketch counter registration cannot fail")
                .add(info.compactions);
            registry
                .gauge(
                    SKETCH_RETAINED_SERIES,
                    &[],
                    SKETCH_RETAINED_HELP,
                    Stability::Observational,
                )
                .expect("sketch gauge registration cannot fail")
                .set_max(i64::try_from(info.retained_samples).unwrap_or(i64::MAX));
        }
        let summary = |sketch: &QuantileSketch| sketch.summary().unwrap_or(EMPTY_SUMMARY);
        let mut report = FleetReport {
            devices: self.devices(),
            total_windows: self.total_windows,
            mae_bpm: summary(&self.maes),
            watch_energy_uj: summary(&self.watch_energies),
            battery_life_hours: summary(&self.battery_lives),
            offload_histogram: self.offload_histogram,
            offloaded_window_share: 0.0,
            disconnected_window_share: 0.0,
            avg_phone_energy_uj: 0.0,
            constraint_violations: self.constraint_violations,
            constraint_mix: tally_map(&CONSTRAINT_KEYS, &self.constraint_mix),
            accounting_mix: tally_map(
                &EnergyAccounting::ALL.map(|accounting| format!("{accounting:?}")),
                &self.accounting_mix,
            ),
        };
        if report.total_windows > 0 {
            report.offloaded_window_share = self.offloaded_windows / report.total_windows as f64;
            report.disconnected_window_share =
                self.disconnected_windows / report.total_windows as f64;
        }
        if self.offloading_devices > 0 {
            report.avg_phone_energy_uj = self.phone_energy_sum / self.offloading_devices as f64;
        }
        report
    }
}

impl Default for FleetAccumulator {
    fn default() -> Self {
        Self::new()
    }
}

/// Population-level statistics of one fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Number of simulated devices.
    pub devices: usize,
    /// Total windows processed across the fleet.
    pub total_windows: usize,
    /// Distribution of per-device MAE, in BPM.
    pub mae_bpm: DistributionSummary,
    /// Distribution of per-device average smartwatch energy, in µJ per
    /// prediction.
    pub watch_energy_uj: DistributionSummary,
    /// Distribution of per-device projected battery life, in hours.
    pub battery_life_hours: DistributionSummary,
    /// Histogram of per-device offload fractions over
    /// [`OFFLOAD_HISTOGRAM_BINS`] equal-width bins spanning `[0, 1]`.
    pub offload_histogram: Vec<usize>,
    /// Window-weighted share of all fleet windows that were offloaded.
    pub offloaded_window_share: f64,
    /// Window-weighted share of all fleet windows with the link down.
    pub disconnected_window_share: f64,
    /// Average phone energy among devices that offloaded at least one
    /// window, in µJ per prediction (zero when no device offloads).
    pub avg_phone_energy_uj: f64,
    /// Devices whose realized behaviour exceeded their soft constraint.
    pub constraint_violations: usize,
    /// Device counts by constraint kind (`"max_mae"` / `"max_energy"`).
    pub constraint_mix: BTreeMap<String, usize>,
    /// Device counts by energy-accounting mode.
    pub accounting_mix: BTreeMap<String, usize>,
}

impl FleetReport {
    /// Aggregates device reports (assumed sorted by device id, as produced by
    /// the executor). Returns an all-zero report for an empty slice.
    ///
    /// Implemented as a fold through [`FleetAccumulator`]: the batch and the
    /// streaming aggregation paths are one code path, so their reports are
    /// byte-identical by construction (and locked in by the
    /// `tests/accumulator.rs` property suite).
    pub fn from_devices(devices: &[DeviceReport]) -> Self {
        Self::from_devices_with_mode(devices, ReportMode::Exact)
    }

    /// [`FleetReport::from_devices`] in an explicit [`ReportMode`]; sketch
    /// mode aggregates through [`QuantileSketch`]es at the default capacity,
    /// so its summaries match any sharded sketch-mode aggregation of the
    /// same devices byte for byte.
    pub fn from_devices_with_mode(devices: &[DeviceReport], mode: ReportMode) -> Self {
        let mut accumulator = FleetAccumulator::with_mode(mode);
        for device in devices {
            accumulator.push(device);
        }
        accumulator.finalize()
    }
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet of {} devices, {} windows",
            self.devices, self.total_windows
        )?;
        let row = |name: &str, d: &DistributionSummary, unit: &str| {
            format!(
                "  {name:<22} p50 {:>9.2} {unit}  p90 {:>9.2} {unit}  p99 {:>9.2} {unit}  \
                 (min {:.2}, mean {:.2}, max {:.2})",
                d.p50, d.p90, d.p99, d.min, d.mean, d.max
            )
        };
        writeln!(f, "{}", row("MAE", &self.mae_bpm, "BPM"))?;
        writeln!(f, "{}", row("watch energy", &self.watch_energy_uj, "uJ"))?;
        writeln!(f, "{}", row("battery life", &self.battery_life_hours, "h"))?;
        writeln!(
            f,
            "  offloaded / link-down  {:.1} % / {:.1} % of windows; phone avg {:.1} uJ/pred",
            self.offloaded_window_share * 100.0,
            self.disconnected_window_share * 100.0,
            self.avg_phone_energy_uj
        )?;
        write!(f, "  offload histogram      ")?;
        for count in &self.offload_histogram {
            write!(f, "{count:>6}")?;
        }
        writeln!(f)?;
        writeln!(
            f,
            "  constraints            {:?} ({} violated)",
            self.constraint_mix, self.constraint_violations
        )?;
        write!(f, "  accounting             {:?}", self.accounting_mix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(id: u64, mae: f32, energy_uj: f64, offload: f32, violated: bool) -> DeviceReport {
        DeviceReport {
            device_id: id,
            windows: 50,
            mae_bpm: mae,
            avg_watch_energy: Energy::from_microjoules(energy_uj),
            avg_phone_energy: Energy::from_microjoules(energy_uj * 10.0),
            offload_fraction: offload,
            simple_fraction: 0.5,
            disconnected_fraction: 0.1,
            battery_life_hours: 400.0 / (1.0 + f64::from(mae)),
            constraint: UserConstraint::MaxMae(6.0),
            accounting: EnergyAccounting::BleOnly,
            constraint_violated: violated,
        }
    }

    /// The exact-mode summary of `values`: an unbounded sketch's.
    fn exact_summary(values: &[f64]) -> Option<DistributionSummary> {
        let mut sketch = QuantileSketch::with_capacity(usize::MAX);
        values.iter().for_each(|&v| sketch.insert(v));
        sketch.summary()
    }

    #[test]
    fn distribution_summary_orders_percentiles() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = exact_summary(&values).unwrap();
        assert_eq!(d.min, 1.0);
        assert_eq!(d.max, 100.0);
        assert_eq!(d.p50, 50.0);
        assert_eq!(d.p90, 90.0);
        assert_eq!(d.p99, 99.0);
        assert!((d.mean - 50.5).abs() < 1e-12);
        assert!(exact_summary(&[]).is_none());
    }

    #[test]
    fn p90_of_10_and_20_devices_is_the_nearest_rank_not_the_max() {
        // Exact-rank regression: ceil(90 * 10 / 100) = 9 -> the 9th sorted
        // value, never the max. A float formulation that rounds the product
        // up by one epsilon would return 10.0 (n=10) / 20.0 (n=20) here.
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let d = exact_summary(&values).unwrap();
        assert_eq!(d.p90, 9.0);
        assert_eq!(d.p50, 5.0);
        assert_eq!(d.p99, 10.0);
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        let d = exact_summary(&values).unwrap();
        assert_eq!(d.p90, 18.0);
        assert_eq!(d.p50, 10.0);
        assert_eq!(d.p99, 20.0);
    }

    #[test]
    fn nearest_rank_never_overshoots_where_the_float_formula_does() {
        // The old `(p / 100.0 * n as f64).ceil()` rank overshoots whenever
        // `p / 100.0` rounds up and `p * n / 100` is an exact integer:
        // 0.07 * 100 evaluates to 7.000000000000001, so ceil() lands on
        // rank 8 instead of 7. The integer rank must not.
        for (p, n, expected_index) in [(7u32, 100usize, 6usize), (7, 200, 13), (14, 50, 6)] {
            let float_index = ((f64::from(p) / 100.0 * n as f64).ceil() as usize).max(1) - 1;
            assert_eq!(
                float_index,
                expected_index + 1,
                "case ({p}, {n}) no longer exhibits the float overshoot"
            );
            assert_eq!(
                DistributionSummary::nearest_rank_index(p, n),
                expected_index
            );
        }
        // Sanity across the summary's own percentiles.
        assert_eq!(DistributionSummary::nearest_rank_index(50, 10), 4);
        assert_eq!(DistributionSummary::nearest_rank_index(90, 10), 8);
        assert_eq!(DistributionSummary::nearest_rank_index(99, 10), 9);
        assert_eq!(DistributionSummary::nearest_rank_index(100, 10), 9);
        assert_eq!(DistributionSummary::nearest_rank_index(1, 1), 0);
    }

    #[test]
    fn nan_offload_fraction_is_handled_explicitly() {
        // Real fractions bin as before.
        assert_eq!(offload_bin(0.0), 0);
        assert_eq!(offload_bin(0.05), 0);
        assert_eq!(offload_bin(0.95), 9);
        assert_eq!(offload_bin(1.0), OFFLOAD_HISTOGRAM_BINS - 1);
        // Any non-fraction is a loud debug assertion; the release-mode
        // policy clamps deterministically (NaN and negatives into bin 0,
        // overshoots into the last bin) instead of the silent `as usize`
        // cast.
        for (bad, release_bin) in [
            (f32::NAN, 0),
            (-0.5, 0),
            (f32::NEG_INFINITY, 0),
            (f32::INFINITY, OFFLOAD_HISTOGRAM_BINS - 1),
            (1.5, OFFLOAD_HISTOGRAM_BINS - 1),
        ] {
            let bin = std::panic::catch_unwind(|| offload_bin(bad));
            if cfg!(debug_assertions) {
                assert!(
                    bin.is_err(),
                    "offload fraction {bad} must trip the debug assertion"
                );
            } else {
                assert_eq!(bin.unwrap(), release_bin, "offload fraction {bad}");
            }
        }
    }

    #[test]
    fn report_mode_names_round_trip() {
        for name in ReportMode::NAMES {
            assert_eq!(name.parse::<ReportMode>().unwrap().name(), name);
        }
        assert_eq!(
            "nope".parse::<ReportMode>(),
            Err("unknown report mode `nope`; expected one of exact, sketch".to_string())
        );
        assert_eq!(ReportMode::default(), ReportMode::Exact);
        // The CLI-facing serde form is the plain variant name.
        let json = serde_json::to_string(&ReportMode::Sketch).unwrap();
        assert_eq!(json, "\"Sketch\"");
        let back: ReportMode = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ReportMode::Sketch);
    }

    #[test]
    fn sketch_mode_accumulator_matches_its_batch_fold_byte_for_byte() {
        let devices: Vec<DeviceReport> = (0..600)
            .map(|i| {
                device(
                    i,
                    3.0 + (i % 37) as f32,
                    250.0 + i as f64,
                    (i % 10) as f32 / 10.0,
                    i % 5 == 0,
                )
            })
            .collect();
        let batch = FleetReport::from_devices_with_mode(&devices, ReportMode::Sketch);
        let mut accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
        assert_eq!(accumulator.mode(), ReportMode::Sketch);
        for d in &devices {
            accumulator.push(d);
        }
        assert_eq!(accumulator.devices(), devices.len());
        let info = accumulator.sketch_info().unwrap();
        // 600 devices over capacity-256 blocks: two full blocks compacted
        // once, the rest raw.
        assert_eq!(info.compactions, 3);
        assert!(info.retained_samples < 3 * devices.len());
        let streamed = accumulator.finalize();
        assert_eq!(streamed, batch);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
        // Everything outside the sketched percentiles is exact and
        // identical to exact mode.
        let exact = FleetReport::from_devices(&devices);
        assert_eq!(streamed.total_windows, exact.total_windows);
        assert_eq!(streamed.offload_histogram, exact.offload_histogram);
        assert_eq!(streamed.constraint_mix, exact.constraint_mix);
        assert_eq!(streamed.mae_bpm.min, exact.mae_bpm.min);
        assert_eq!(streamed.mae_bpm.max, exact.mae_bpm.max);
    }

    #[test]
    fn mix_tallies_list_only_the_kinds_that_occur() {
        let mut accumulator = FleetAccumulator::new();
        for (i, accounting) in EnergyAccounting::ALL.into_iter().enumerate() {
            let mut d = device(i as u64, 5.0, 300.0, 0.5, false);
            d.accounting = accounting;
            accumulator.push(&d);
        }
        let mut d = device(3, 5.0, 300.0, 0.5, false);
        d.accounting = EnergyAccounting::BleWithSleep;
        accumulator.push(&d);
        let report = accumulator.finalize();
        let accounting: Vec<(&str, usize)> = report
            .accounting_mix
            .iter()
            .map(|(k, &v)| (k.as_str(), v))
            .collect();
        assert_eq!(
            accounting,
            [
                ("BleOnly", 1),
                ("BleWithSleep", 2),
                ("IncrementalPayload", 1)
            ]
        );
        // Every test device runs under `MaxMae`: no zero `max_energy` entry.
        assert_eq!(
            report.constraint_mix,
            BTreeMap::from([("max_mae".to_string(), 4)])
        );
    }

    #[test]
    fn exact_mode_reports_no_sketch_info() {
        let accumulator = FleetAccumulator::new();
        assert_eq!(accumulator.mode(), ReportMode::Exact);
        assert_eq!(accumulator.sketch_info(), None);
    }

    #[test]
    fn empty_sketch_accumulator_finalizes_to_the_all_zero_report() {
        let accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
        let info = accumulator.sketch_info().unwrap();
        assert_eq!(info.max_rank_error, 0);
        assert_eq!(info.rank_error_fraction, 0.0);
        assert_eq!(info.retained_samples, 0);
        let report = accumulator.finalize();
        assert_eq!(report, FleetReport::from_devices(&[]));
    }

    #[test]
    fn sketched_report_envelope_round_trips() {
        let devices = vec![device(0, 5.0, 400.0, 0.5, false)];
        let mut accumulator = FleetAccumulator::with_mode(ReportMode::Sketch);
        for d in &devices {
            accumulator.push(d);
        }
        let envelope = SketchedReport {
            sketch: accumulator.sketch_info().unwrap(),
            report: accumulator.finalize(),
        };
        let json = serde_json::to_string(&envelope).unwrap();
        let back: SketchedReport = serde_json::from_str(&json).unwrap();
        assert_eq!(envelope, back);
    }

    #[test]
    fn accumulator_matches_from_devices_byte_for_byte() {
        let devices: Vec<DeviceReport> = (0..23)
            .map(|i| {
                device(
                    i,
                    3.0 + i as f32,
                    250.0 + i as f64,
                    i as f32 / 23.0,
                    i % 5 == 0,
                )
            })
            .collect();
        let batch = FleetReport::from_devices(&devices);
        let mut accumulator = FleetAccumulator::new();
        for d in &devices {
            accumulator.push(d);
        }
        assert_eq!(accumulator.devices(), devices.len());
        assert_eq!(accumulator.total_windows(), batch.total_windows);
        let streamed = accumulator.finalize();
        assert_eq!(streamed, batch);
        assert_eq!(
            serde_json::to_string(&streamed).unwrap(),
            serde_json::to_string(&batch).unwrap()
        );
    }

    #[test]
    fn empty_accumulator_finalizes_to_the_all_zero_report() {
        let report = FleetAccumulator::default().finalize();
        assert_eq!(report, FleetReport::from_devices(&[]));
        assert_eq!(report.devices, 0);
        assert_eq!(report.offload_histogram, vec![0; OFFLOAD_HISTOGRAM_BINS]);
    }

    #[test]
    fn fleet_report_aggregates_devices() {
        let devices: Vec<DeviceReport> = (0..10)
            .map(|i| device(i, 4.0 + i as f32, 300.0 + i as f64, i as f32 / 10.0, i == 9))
            .collect();
        let report = FleetReport::from_devices(&devices);
        assert_eq!(report.devices, 10);
        assert_eq!(report.total_windows, 500);
        assert_eq!(report.constraint_violations, 1);
        assert_eq!(report.offload_histogram.iter().sum::<usize>(), 10);
        assert_eq!(report.constraint_mix.get("max_mae"), Some(&10));
        assert!(report.mae_bpm.p50 >= report.mae_bpm.min);
        assert!(report.mae_bpm.p99 <= report.mae_bpm.max);
        assert!((report.disconnected_window_share - 0.1).abs() < 1e-6);
    }

    #[test]
    fn empty_fleet_reports_zeros() {
        let report = FleetReport::from_devices(&[]);
        assert_eq!(report.devices, 0);
        assert_eq!(report.total_windows, 0);
        assert_eq!(report.offload_histogram.len(), OFFLOAD_HISTOGRAM_BINS);
    }

    #[test]
    fn display_mentions_key_quantities() {
        let devices = vec![device(0, 5.0, 400.0, 0.5, false)];
        let text = FleetReport::from_devices(&devices).to_string();
        assert!(text.contains("MAE"));
        assert!(text.contains("battery life"));
        assert!(text.contains("offload histogram"));
    }

    #[test]
    fn serde_round_trip() {
        let devices = vec![
            device(0, 5.0, 400.0, 0.5, true),
            device(1, 6.0, 500.0, 0.9, false),
        ];
        let report = FleetReport::from_devices(&devices);
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
        let device_json = serde_json::to_string(&devices).unwrap();
        let back: Vec<DeviceReport> = serde_json::from_str(&device_json).unwrap();
        assert_eq!(devices, back);
    }
}
