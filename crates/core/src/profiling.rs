//! Offline profiling of CHRIS configurations.
//!
//! Before deployment, every configuration is profiled on a profiling dataset:
//! its average MAE, average smartwatch energy per prediction, average phone
//! energy and offload statistics are measured and stored in the smartwatch MCU
//! memory, ordered by energy (the paper's Table II). At runtime the decision
//! engine only reads this table; no model is ever re-profiled on-line.

use serde::{Deserialize, Serialize};

use hw_sim::units::Energy;
use ppg_data::{IntoWindowSource, LabeledWindow, WindowSource};
use ppg_dsp::stats::ErrorAccumulator;
use ppg_models::surrogate::{CalibratedEstimator, NoiseTape};
use ppg_models::traits::{ActivityClassifier, HrEstimator, OracleActivityClassifier};
use ppg_models::zoo::{ModelKind, ModelZoo};

use crate::config::{enumerate_configurations, Configuration, EnergyAccounting};
use crate::error::ChrisError;
use crate::metrics::add_invocations;

/// Options controlling a profiling pass.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilingOptions {
    /// How offloaded windows are charged to the smartwatch.
    pub accounting: EnergyAccounting,
    /// Seed of the calibrated estimators' error sequences: a pass seeds the
    /// simple model's estimator `seed` and the complex model's `seed + 1`.
    pub seed: u64,
}

impl Default for ProfilingOptions {
    fn default() -> Self {
        Self {
            accounting: EnergyAccounting::default(),
            seed: 0xC4215,
        }
    }
}

/// The profiled behaviour of one configuration — one row of the table stored
/// in the MCU memory (Table II of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConfigurationProfile {
    /// The configuration this row describes.
    pub configuration: Configuration,
    /// Average MAE over the profiling windows, in BPM.
    pub mae_bpm: f32,
    /// Average smartwatch energy per prediction.
    pub watch_energy: Energy,
    /// Average phone energy per prediction (zero for local configurations).
    pub phone_energy: Energy,
    /// Fraction of windows offloaded to the phone.
    pub offload_fraction: f32,
    /// Fraction of windows handled by the simple model of the pair.
    pub simple_fraction: f32,
    /// Number of profiling windows this row was measured on.
    pub windows: usize,
}

/// Profiles configurations against a [`ModelZoo`] on a profiling dataset.
#[derive(Debug, Clone)]
pub struct Profiler<'a> {
    zoo: &'a ModelZoo,
}

impl<'a> Profiler<'a> {
    /// Creates a profiler for the given zoo (platforms + BLE link).
    pub fn new(zoo: &'a ModelZoo) -> Self {
        Self { zoo }
    }

    /// Smartwatch energy charged for one window handled by `model`, either
    /// locally or offloaded, under the selected accounting.
    pub fn window_watch_energy(
        &self,
        model: ModelKind,
        offloaded: bool,
        accounting: EnergyAccounting,
    ) -> Energy {
        if !offloaded {
            return self
                .zoo
                .watch()
                .energy_per_prediction(&model.workload_watch());
        }
        let ble = self.zoo.ble();
        match accounting {
            EnergyAccounting::BleOnly => ble.transfer_energy(hw_sim::WINDOW_PAYLOAD_BYTES),
            EnergyAccounting::BleWithSleep => {
                let tx_time = ble.transfer_time(hw_sim::WINDOW_PAYLOAD_BYTES);
                let sleep_time =
                    (hw_sim::units::TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S) - tx_time)
                        .max_zero();
                ble.transfer_energy(hw_sim::WINDOW_PAYLOAD_BYTES)
                    + self.zoo.watch().sleep_power * sleep_time
            }
            EnergyAccounting::IncrementalPayload => {
                let payload = hw_sim::WINDOW_PAYLOAD_BYTES / 4;
                let tx_time = ble.transfer_time(payload);
                let sleep_time =
                    (hw_sim::units::TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S) - tx_time)
                        .max_zero();
                ble.transfer_energy(payload) + self.zoo.watch().sleep_power * sleep_time
            }
        }
    }

    /// Phone energy charged for one window handled by `model` when offloaded.
    pub fn window_phone_energy(&self, model: ModelKind) -> Energy {
        self.zoo.phone().compute_energy(&model.workload_phone())
    }

    /// Profiles one configuration on the given windows with the oracle
    /// activity classifier.
    ///
    /// Like every profiling entry point, `windows` accepts both eager
    /// buffers and lazy [`WindowSource`] streams (see
    /// [`Profiler::profile_all`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::EmptyWorkload`] when `windows` yields nothing
    /// and propagates model errors.
    pub fn profile<S: IntoWindowSource>(
        &self,
        configuration: Configuration,
        windows: S,
        options: ProfilingOptions,
    ) -> Result<ConfigurationProfile, ChrisError> {
        self.profile_with(
            configuration,
            windows,
            &OracleActivityClassifier::new(),
            options,
        )
    }

    /// Profiles one configuration using an explicit activity classifier, so
    /// that classifier mispredictions are reflected in the profile (as in the
    /// paper's evaluation).
    ///
    /// A single pass: windows are pulled from the source one at a time, so a
    /// lazy stream is profiled in O(1 window) memory. The predictions of each
    /// model of the pair are added to its `chris_model_invocations_total`
    /// counter on the thread's active telemetry registry once, after the
    /// pass; a failed pass publishes nothing.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::EmptyWorkload`] when `windows` yields nothing
    /// and propagates model errors.
    pub fn profile_with<S: IntoWindowSource>(
        &self,
        configuration: Configuration,
        windows: S,
        classifier: &dyn ActivityClassifier,
        options: ProfilingOptions,
    ) -> Result<ConfigurationProfile, ChrisError> {
        self.pass(configuration, windows, classifier, options, &[])
    }

    /// The pass behind [`Profiler::profile_with`]. Each estimator replays
    /// the tape of its RNG seed in `tapes`, if there is one, and draws live
    /// past it; the profile is the same with or without tapes.
    fn pass<S: IntoWindowSource>(
        &self,
        configuration: Configuration,
        windows: S,
        classifier: &dyn ActivityClassifier,
        options: ProfilingOptions,
        tapes: &[NoiseTape],
    ) -> Result<ConfigurationProfile, ChrisError> {
        let mut source = windows.into_window_source();
        let estimator = |kind, seed| {
            let rng_seed = CalibratedEstimator::rng_seed(kind, seed);
            let tape = tapes
                .iter()
                .find(|tape| tape.rng_seed() == rng_seed)
                .cloned()
                .unwrap_or_else(|| NoiseTape::empty(rng_seed));
            CalibratedEstimator::with_tape(kind, seed, tape)
        };
        let (simple_seed, complex_seed) = pass_seeds(options);
        let mut simple_est = estimator(configuration.simple, simple_seed);
        let mut complex_est = estimator(configuration.complex, complex_seed);

        let mut errors = ErrorAccumulator::new();
        let mut watch_energy = Energy::ZERO;
        let mut phone_energy = Energy::ZERO;
        let mut offloaded_count = 0usize;
        let mut simple_count = 0usize;
        // By-reference internal iteration: slices profile with zero copies,
        // lazy sources materialize one window at a time.
        let n = source.try_for_each_window(|window| -> Result<(), ChrisError> {
            let predicted_activity = classifier.classify(window)?;
            let difficulty = predicted_activity.difficulty();
            let model = configuration.model_for(difficulty);
            let offloaded = configuration.offloads(difficulty);

            let estimator = if model == configuration.simple {
                simple_count += 1;
                &mut simple_est
            } else {
                &mut complex_est
            };
            let prediction = estimator.predict(window)?;
            errors.record(prediction, window.hr_bpm);

            watch_energy += self.window_watch_energy(model, offloaded, options.accounting);
            if offloaded {
                offloaded_count += 1;
                phone_energy += self.window_phone_energy(model);
            }
            Ok(())
        })?;

        if n == 0 {
            return Err(ChrisError::EmptyWorkload);
        }
        add_invocations(configuration.simple, simple_count as u64);
        add_invocations(configuration.complex, (n - simple_count) as u64);
        Ok(ConfigurationProfile {
            configuration,
            mae_bpm: errors.mae().unwrap_or(0.0),
            watch_energy: watch_energy / n as f64,
            phone_energy: phone_energy / n as f64,
            offload_fraction: offloaded_count as f32 / n as f32,
            simple_fraction: simple_count as f32 / n as f32,
            windows: n,
        })
    }

    /// Profiles every one of the 60 configurations with the oracle classifier,
    /// returning the table sorted by increasing smartwatch energy (the
    /// ordering the paper stores in MCU memory).
    ///
    /// `windows` accepts both eager buffers and lazy
    /// [`WindowSource`] streams. Profiling every configuration is inherently
    /// multi-pass, so a one-shot stream is drained into a buffer once up
    /// front — profiling is the offline, once-per-fleet step where that is
    /// the right trade. For the same reason, the passes' error sequences are
    /// drawn once: the 60 passes seed their estimators from at most six
    /// distinct RNG seeds, so each seed's sequence is recorded once, as a
    /// [`NoiseTape`] as long as the workload, and every pass replays it. The
    /// table equals the one of 60 [`Profiler::profile`] calls.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Profiler::profile`], plus [`ChrisError::Data`]
    /// when a streaming source fails.
    pub fn profile_all<S: IntoWindowSource>(
        &self,
        windows: S,
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        let source = windows.into_window_source();
        // Buffer-backed sources are profiled in place; only genuinely lazy
        // streams are drained into a buffer for the multi-pass table build.
        if let Some(slice) = source.as_slice() {
            return self.profile_each(slice, options);
        }
        let buffered: Vec<LabeledWindow> = source.iter().collect::<Result<_, _>>()?;
        self.profile_each(&buffered, options)
    }

    /// The multi-pass core of [`Profiler::profile_all`]: one
    /// [`Profiler::profile`] pass per configuration over a shared, borrowed
    /// workload, replaying one noise tape per distinct estimator RNG seed.
    fn profile_each(
        &self,
        windows: &[LabeledWindow],
        options: ProfilingOptions,
    ) -> Result<Vec<ConfigurationProfile>, ChrisError> {
        let configurations = enumerate_configurations();
        let (simple_seed, complex_seed) = pass_seeds(options);
        let mut tapes: Vec<NoiseTape> = Vec::new();
        for configuration in &configurations {
            for (kind, seed) in [
                (configuration.simple, simple_seed),
                (configuration.complex, complex_seed),
            ] {
                let rng_seed = CalibratedEstimator::rng_seed(kind, seed);
                if tapes.iter().all(|tape| tape.rng_seed() != rng_seed) {
                    tapes.push(NoiseTape::record(rng_seed, windows.len()));
                }
            }
        }
        let oracle = OracleActivityClassifier::new();
        let mut table: Vec<ConfigurationProfile> = configurations
            .into_iter()
            .map(|c| self.pass(c, windows, &oracle, options, &tapes))
            .collect::<Result<_, _>>()?;
        // Same NaN-safe ordering as `DecisionEngine::new`, which re-sorts the
        // table it is given: keep the two in lockstep so direct consumers of
        // this table see the same order the engine stores.
        table.sort_by(|a, b| {
            a.watch_energy
                .as_microjoules()
                .total_cmp(&b.watch_energy.as_microjoules())
                .then(a.mae_bpm.total_cmp(&b.mae_bpm))
        });
        Ok(table)
    }
}

/// The seeds of a pass's simple-model and complex-model estimators.
fn pass_seeds(options: ProfilingOptions) -> (u64, u64) {
    (options.seed, options.seed.wrapping_add(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DifficultyThreshold, ExecutionTarget};
    use ppg_data::{DatasetBuilder, WindowCache};

    fn windows() -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(21)
            .build()
            .unwrap()
            .windows()
    }

    fn config(
        simple: ModelKind,
        complex: ModelKind,
        thr: u8,
        target: ExecutionTarget,
    ) -> Configuration {
        Configuration::new(
            simple,
            complex,
            DifficultyThreshold::new(thr).unwrap(),
            target,
        )
        .unwrap()
    }

    #[test]
    fn empty_windows_are_rejected() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            5,
            ExecutionTarget::Hybrid,
        );
        assert!(matches!(
            profiler.profile(c, &[], ProfilingOptions::default()),
            Err(ChrisError::EmptyWorkload)
        ));
    }

    #[test]
    fn a_profile_publishes_each_models_predictions_once() {
        let zoo = ModelZoo::paper_setup();
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            4,
            ExecutionTarget::Hybrid,
        );
        let registry = telemetry::Registry::new();
        let p = {
            let _scope = telemetry::scoped(&registry);
            Profiler::new(&zoo)
                .profile(c, &ws, ProfilingOptions::default())
                .unwrap()
        };
        let snap = registry.snapshot();
        let invocations = |model: ModelKind| {
            snap.counter_value(
                crate::metrics::MODEL_INVOCATIONS_SERIES,
                &[("model", model.name())],
            )
        };
        let simple = (p.simple_fraction * ws.len() as f32).round() as u64;
        assert!(simple > 0 && simple < ws.len() as u64);
        assert_eq!(invocations(ModelKind::AdaptiveThreshold), Some(simple));
        assert_eq!(
            invocations(ModelKind::TimePpgSmall),
            Some(ws.len() as u64 - simple)
        );
        assert_eq!(invocations(ModelKind::TimePpgBig), None);
    }

    #[test]
    fn always_simple_local_matches_single_model_characterization() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            9,
            ExecutionTarget::Local,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(p.simple_fraction, 1.0);
        assert_eq!(p.offload_fraction, 0.0);
        assert_eq!(p.phone_energy, Energy::ZERO);
        let at = zoo.characterize(ModelKind::AdaptiveThreshold);
        assert!((p.watch_energy.as_millijoules() - at.watch_energy.as_millijoules()).abs() < 1e-6);
        // MAE close to the AT calibration (equal activity representation).
        assert!((p.mae_bpm - 10.99).abs() < 2.0, "AT-only MAE {}", p.mae_bpm);
    }

    #[test]
    fn always_complex_hybrid_offloads_everything() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Hybrid,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(p.offload_fraction, 1.0);
        assert_eq!(p.simple_fraction, 0.0);
        assert!(
            p.phone_energy.as_millijoules() > 20.0,
            "Big on phone per prediction"
        );
        // With the BleOnly accounting, each offloaded window costs ~0.52 mJ.
        assert!((p.watch_energy.as_millijoules() - 0.52).abs() < 0.01);
    }

    #[test]
    fn intermediate_threshold_mixes_models() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            4,
            ExecutionTarget::Hybrid,
        );
        let p = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        // With equal activity representation, 4/9 of windows are easy.
        assert!((p.simple_fraction - 4.0 / 9.0).abs() < 0.05);
        assert!((p.offload_fraction - 5.0 / 9.0).abs() < 0.05);
        // Energy sits between the two extremes.
        let at_only = profiler
            .profile(
                config(
                    ModelKind::AdaptiveThreshold,
                    ModelKind::TimePpgBig,
                    9,
                    ExecutionTarget::Hybrid,
                ),
                &ws,
                ProfilingOptions::default(),
            )
            .unwrap();
        let big_only = profiler
            .profile(
                config(
                    ModelKind::AdaptiveThreshold,
                    ModelKind::TimePpgBig,
                    0,
                    ExecutionTarget::Hybrid,
                ),
                &ws,
                ProfilingOptions::default(),
            )
            .unwrap();
        assert!(p.watch_energy > at_only.watch_energy);
        assert!(p.watch_energy < big_only.watch_energy);
        assert!(p.mae_bpm < at_only.mae_bpm);
        assert!(p.mae_bpm > big_only.mae_bpm);
    }

    #[test]
    fn local_big_execution_is_extremely_expensive() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let local = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Local,
        );
        let hybrid = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            0,
            ExecutionTarget::Hybrid,
        );
        let p_local = profiler
            .profile(local, &ws, ProfilingOptions::default())
            .unwrap();
        let p_hybrid = profiler
            .profile(hybrid, &ws, ProfilingOptions::default())
            .unwrap();
        assert!(
            p_local.watch_energy.as_millijoules() > p_hybrid.watch_energy.as_millijoules() * 10.0,
            "local Big should dwarf offloaded Big on the watch"
        );
    }

    #[test]
    fn accounting_modes_order_offload_cost() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ble_only =
            profiler.window_watch_energy(ModelKind::TimePpgBig, true, EnergyAccounting::BleOnly);
        let with_sleep = profiler.window_watch_energy(
            ModelKind::TimePpgBig,
            true,
            EnergyAccounting::BleWithSleep,
        );
        let incremental = profiler.window_watch_energy(
            ModelKind::TimePpgBig,
            true,
            EnergyAccounting::IncrementalPayload,
        );
        assert!(with_sleep > ble_only);
        assert!(incremental < ble_only + Energy::from_millijoules(0.2));
        // Local energy is independent of the accounting mode.
        let local_a =
            profiler.window_watch_energy(ModelKind::TimePpgSmall, false, EnergyAccounting::BleOnly);
        let local_b = profiler.window_watch_energy(
            ModelKind::TimePpgSmall,
            false,
            EnergyAccounting::BleWithSleep,
        );
        assert_eq!(local_a, local_b);
    }

    #[test]
    fn profile_all_returns_sixty_rows_sorted_by_energy() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let table = profiler
            .profile_all(&ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(table.len(), 60);
        for pair in table.windows(2) {
            assert!(pair[0].watch_energy <= pair[1].watch_energy);
        }
        // The cheapest row must be an always-simple AT configuration and the
        // most expensive ones local TimePPG-Big.
        assert_eq!(table[0].configuration.simple, ModelKind::AdaptiveThreshold);
        assert_eq!(table[0].simple_fraction, 1.0);
        let last = table.last().unwrap();
        assert_eq!(last.configuration.complex, ModelKind::TimePpgBig);
        assert_eq!(last.configuration.target, ExecutionTarget::Local);
    }

    #[test]
    fn profile_all_replays_tapes_into_the_table_of_live_passes() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        // An even and an odd seed: for an even seed, `seed + 1` XOR TimePPG-
        // Small's index is the seed itself, so two estimators share a tape.
        for seed in [0xC4215, 0xC4214] {
            let options = ProfilingOptions {
                seed,
                ..ProfilingOptions::default()
            };
            let table = profiler.profile_all(&ws, options).unwrap();
            let mut live: Vec<ConfigurationProfile> = enumerate_configurations()
                .into_iter()
                .map(|c| profiler.profile(c, &ws, options).unwrap())
                .collect();
            live.sort_by(|a, b| {
                a.watch_energy
                    .as_microjoules()
                    .total_cmp(&b.watch_energy.as_microjoules())
                    .then(a.mae_bpm.total_cmp(&b.mae_bpm))
            });
            let bits = |table: &[ConfigurationProfile]| -> Vec<(u32, u32)> {
                table
                    .iter()
                    .map(|p| (p.mae_bpm.to_bits(), p.simple_fraction.to_bits()))
                    .collect()
            };
            assert_eq!(table, live, "seed {seed:#x}");
            assert_eq!(bits(&table), bits(&live), "seed {seed:#x}");
        }
    }

    #[test]
    fn cached_profiling_matches_uncached_and_reuses_the_stream() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let builder = || {
            DatasetBuilder::new()
                .subjects(2)
                .seconds_per_activity(24.0)
                .seed(21)
        };
        let uncached = profiler
            .profile_all(
                builder().window_stream().unwrap(),
                ProfilingOptions::default(),
            )
            .unwrap();
        let mut cache = WindowCache::new(4);
        let mut cached = || builder().cached_window_stream(&mut cache).unwrap();
        let first = profiler
            .profile_all(cached(), ProfilingOptions::default())
            .unwrap();
        let second = profiler
            .profile_all(cached(), ProfilingOptions::default())
            .unwrap();
        assert_eq!(first, uncached);
        assert_eq!(second, uncached);

        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            5,
            ExecutionTarget::Hybrid,
        );
        let cached_one = profiler
            .profile(c, cached(), ProfilingOptions::default())
            .unwrap();
        let eager_one = profiler
            .profile(c, &windows(), ProfilingOptions::default())
            .unwrap();
        assert_eq!(cached_one, eager_one);
        // One synthesis, two replays.
        assert_eq!((cache.hits(), cache.misses()), (2, 1));
    }

    #[test]
    fn profiles_are_deterministic_for_a_seed() {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        let ws = windows();
        let c = config(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            5,
            ExecutionTarget::Hybrid,
        );
        let a = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        let b = profiler
            .profile(c, &ws, ProfilingOptions::default())
            .unwrap();
        assert_eq!(a, b);
    }
}
