//! The CHRIS runtime: window-by-window collaborative inference.
//!
//! The runtime ties everything together. For every incoming window it:
//!
//! 1. reads the BLE connection status from the [`ConnectionSchedule`],
//! 2. switches to the configuration its [`LinkPlan`] holds for that status,
//!    which is how CHRIS reacts to link drops (the constraint is fixed for a
//!    run, so [`DecisionEngine::plan`] looks each status up in the engine's
//!    selection index once, before the first window),
//! 3. runs the activity classifier (on the IMU's ML core in the real system,
//!    so at zero MCU energy cost by default) to estimate the window
//!    difficulty,
//! 4. routes the window to the simple or the complex model of the pair and
//!    executes it locally or offloads it over BLE,
//! 5. charges the smartwatch (and, for offloaded windows, the phone) with the
//!    corresponding energy, computed once per model before the first
//!    window, and records the error.
//!
//! The loop keeps every tally in locals — windows, offloads, predictions per
//! model — and touches no telemetry handle; the run's counters are published
//! once, after the last window (see [`crate::metrics`]).

use hw_sim::ble::ConnectionSchedule;
use hw_sim::power_state::PowerState;
use hw_sim::units::{Energy, TimeSpan};
use ppg_data::{Activity, IntoWindowSource, WindowSource};
use ppg_dsp::stats::ErrorAccumulator;
use ppg_models::surrogate::{CalibratedEstimator, NoiseTape};
use ppg_models::traits::{ActivityClassifier, HrEstimator, OracleActivityClassifier};
use ppg_models::zoo::{ModelKind, ModelZoo};
use serde::{Deserialize, Serialize};

use crate::config::EnergyAccounting;
use crate::decision::{ConnectionStatus, DecisionEngine, LinkPlan, UserConstraint};
use crate::error::ChrisError;
use crate::metrics::RunInstruments;
use crate::profiling::Profiler;
use crate::report::{RunReport, RunTotals};

/// Options controlling a runtime simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RuntimeOptions {
    /// How offloaded windows are charged to the smartwatch.
    pub accounting: EnergyAccounting,
    /// Seed of the calibrated estimators' error sequences. Each estimator is
    /// seeded `seed ^ kind`, which [`CalibratedEstimator`] XORs with `kind`
    /// again, so all three draw the sequence of RNG seed `seed` (see
    /// [`ChrisRuntime::with_noise_tape`]).
    pub seed: u64,
    /// Energy charged to the MCU for running the activity classifier. Zero by
    /// default because the LSM6DSM ML core executes it in the real system.
    pub classifier_energy: Energy,
}

impl Default for RuntimeOptions {
    fn default() -> Self {
        Self {
            accounting: EnergyAccounting::default(),
            seed: 0xC4215,
            classifier_energy: Energy::ZERO,
        }
    }
}

/// The CHRIS runtime simulator.
///
/// A runtime is cheap to construct from clones of a shared [`ModelZoo`] and
/// [`DecisionEngine`] and is `Send`, so fleet-scale simulators can build one
/// per device inside worker threads (see the `fleet` crate). Its estimators
/// are calibrated surrogates, one per model; they keep their place in the
/// error sequence from one run to the next.
pub struct ChrisRuntime {
    zoo: ModelZoo,
    engine: DecisionEngine,
    classifier: Box<dyn ActivityClassifier>,
    /// Indexed by [`ModelKind::index`].
    estimators: [CalibratedEstimator; ModelKind::ALL.len()],
    options: RuntimeOptions,
}

// Parallel executors move runtimes across threads; a non-`Send` classifier
// or estimator sneaking into the trait objects must fail to compile here,
// not in downstream crates.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<ChrisRuntime>()
};

impl std::fmt::Debug for ChrisRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChrisRuntime")
            .field("configurations", &self.engine.len())
            .field("classifier", &self.classifier.name())
            .field("options", &self.options)
            .finish()
    }
}

impl ChrisRuntime {
    /// Creates a runtime with the oracle activity classifier (no
    /// misprediction effects).
    pub fn new(zoo: ModelZoo, engine: DecisionEngine, options: RuntimeOptions) -> Self {
        Self::with_classifier(
            zoo,
            engine,
            Box::new(OracleActivityClassifier::new()),
            options,
        )
    }

    /// Creates a runtime with an explicit activity classifier (for example a
    /// trained [`ppg_models::random_forest::RandomForest`]).
    pub fn with_classifier(
        zoo: ModelZoo,
        engine: DecisionEngine,
        classifier: Box<dyn ActivityClassifier>,
        options: RuntimeOptions,
    ) -> Self {
        let tape = NoiseTape::empty(options.seed);
        Self::build(zoo, engine, classifier, options, &tape)
    }

    /// [`ChrisRuntime::new`] whose estimators replay `tape`, a recording of
    /// their error sequence, before they draw live. The runtime seeds each
    /// estimator `options.seed ^ kind` and the estimator XORs `kind` in
    /// again, so all three share the sequence of RNG seed `options.seed`:
    /// one tape of that seed serves them all, each with its own cursor. The
    /// runtime's results are bit-identical to [`ChrisRuntime::new`]'s at any
    /// tape length; a tape as long as a session spares every run over it the
    /// draws. The runtime never records a tape itself.
    ///
    /// # Panics
    ///
    /// Panics when `tape` records another seed than `options.seed`.
    pub fn with_noise_tape(
        zoo: ModelZoo,
        engine: DecisionEngine,
        options: RuntimeOptions,
        tape: &NoiseTape,
    ) -> Self {
        Self::build(
            zoo,
            engine,
            Box::new(OracleActivityClassifier::new()),
            options,
            tape,
        )
    }

    fn build(
        zoo: ModelZoo,
        engine: DecisionEngine,
        classifier: Box<dyn ActivityClassifier>,
        options: RuntimeOptions,
        tape: &NoiseTape,
    ) -> Self {
        let estimators = ModelKind::ALL.map(|kind| {
            CalibratedEstimator::with_tape(kind, options.seed ^ kind as u64, tape.clone())
        });
        Self {
            zoo,
            engine,
            classifier,
            estimators,
            options,
        }
    }

    /// The decision engine backing this runtime.
    pub fn engine(&self) -> &DecisionEngine {
        &self.engine
    }

    /// The runtime options.
    pub fn options(&self) -> RuntimeOptions {
        self.options
    }

    /// Runs CHRIS over a sequence of windows under a user constraint and a
    /// BLE connection schedule, returning the aggregated report.
    ///
    /// Plans the run with the runtime's engine ([`DecisionEngine::plan`]),
    /// then runs the plan: the report is [`RunReport::from`] the
    /// [`RunTotals`] of [`ChrisRuntime::run_totals`], which documents the
    /// sources accepted, the telemetry published and the errors. Callers
    /// that read only the scalars can call `run_totals` directly and skip
    /// building the report's label-keyed maps.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN or negative
    /// constraint bound (rejected before any window is pulled), otherwise
    /// the errors of [`ChrisRuntime::run_totals`].
    pub fn run<S: IntoWindowSource>(
        &mut self,
        windows: S,
        constraint: &UserConstraint,
        schedule: &ConnectionSchedule,
    ) -> Result<RunReport, ChrisError> {
        let plan = self.engine.plan(constraint)?;
        self.run_totals(windows, &plan, schedule)
            .map(RunReport::from)
    }

    /// Runs a [`LinkPlan`] over a sequence of windows and a BLE connection
    /// schedule, returning the run's totals: a fixed-size value that, once
    /// the thread's telemetry handles are cached, the run builds without
    /// touching the heap.
    ///
    /// Each window runs the plan's configuration for its link status; the
    /// totals' [`selections`](RunTotals::selections) are the plan's, for the
    /// statuses the windows had.
    ///
    /// `windows` is anything convertible into a
    /// [`WindowSource`]: an eager buffer
    /// (`&[LabeledWindow]`, `&Vec<LabeledWindow>`) or a lazy stream such as
    /// [`ppg_data::DatasetBuilder::window_stream`]. The runtime pulls one
    /// window at a time and never buffers the workload — with a synthesis
    /// stream, peak memory is O(1 window) instead of O(session) — and the
    /// totals are identical either way.
    ///
    /// The run's Stable counters — windows, offload decisions by backend and
    /// predictions by model — are registered on the thread's active
    /// telemetry registry at run start (the handles are cached once per
    /// registry per thread, see [`crate::metrics`]) and published once,
    /// after the last window. A run that returns an error publishes zeros,
    /// even if some of its windows were processed.
    ///
    /// # Errors
    ///
    /// Returns the plan's selection error for a link status —
    /// [`ChrisError::EmptyProfileTable`] when the decision engine had no
    /// configurations, [`ChrisError::NoFeasibleConfiguration`] when it had
    /// none for that status — on the first window with that status,
    /// [`ChrisError::EmptyWorkload`] when `windows` yields nothing,
    /// [`ChrisError::Data`] when a streaming source fails mid-synthesis, and
    /// propagates model errors.
    pub fn run_totals<S: IntoWindowSource>(
        &mut self,
        windows: S,
        plan: &LinkPlan,
        schedule: &ConnectionSchedule,
    ) -> Result<RunTotals, ChrisError> {
        let mut source = windows.into_window_source();
        let profiler = Profiler::new(&self.zoo);
        let period = TimeSpan::from_seconds(hw_sim::PREDICTION_PERIOD_S);

        let mut errors = ErrorAccumulator::new();
        // Per-window bookkeeping without per-window allocation. The windows
        // of each link status (index 0 connected, 1 disconnected), one error
        // accumulator per activity that folds its windows in order, and the
        // watch energy per power state.
        let mut per_status = [0usize; 2];
        let mut per_activity: [ErrorAccumulator; Activity::COUNT] =
            std::array::from_fn(|_| ErrorAccumulator::new());
        let mut watch = WatchEnergy::default();
        let mut phone_energy = Energy::ZERO;
        let mut offloaded = 0usize;
        let mut simple = 0usize;
        let mut invocations = [0u64; ModelKind::ALL.len()];

        // Each window's energy depends only on its model and whether it is
        // offloaded, so it is computed once per model here. The loop charges
        // these same values in the same order as computing them per window
        // would, so every sum is bit-identical to that.
        let accounting = self.options.accounting;
        let offload_watch =
            ModelKind::ALL.map(|model| profiler.window_watch_energy(model, true, accounting));
        let offload_phone = ModelKind::ALL.map(|model| profiler.window_phone_energy(model));
        let watch_platform = self.zoo.watch();
        let local = ModelKind::ALL.map(|model| {
            let workload = model.workload_watch();
            let sleep_time = (period - watch_platform.execution_time(&workload)).max_zero();
            (
                watch_platform.compute_energy(&workload),
                watch_platform.sleep_power * sleep_time,
            )
        });
        // A zoo whose link is down rejects every offload.
        let link = self.zoo.ble().offload_window().map(drop);

        let mut index = 0usize;
        // Resolves the series, registering them, on this thread's first run
        // under the active registry; the loop below counts into locals and
        // publishes nothing until it has finished.
        let timer = RunInstruments::with_active(RunInstruments::time_run);
        // By-reference internal iteration: buffer-backed sources visit their
        // windows without cloning, lazy sources materialize one at a time.
        let n = source.try_for_each_window(|window| -> Result<(), ChrisError> {
            let status = ConnectionStatus::from_connected(schedule.is_connected(index));
            let configuration = plan.selection(status).map_err(ChrisError::clone)?;
            per_status[status.index()] += 1;
            let connected = status == ConnectionStatus::Connected;

            let predicted_activity = self.classifier.classify(window)?;
            let difficulty = predicted_activity.difficulty();
            let model = configuration.model_for(difficulty);
            let offload = configuration.offloads(difficulty) && connected;

            if model == configuration.simple {
                simple += 1;
            }

            invocations[model.index()] += 1;
            let prediction = self.estimators[model.index()].predict(window)?;
            errors.record(prediction, window.hr_bpm);
            per_activity[window.activity.index()].record(prediction, window.hr_bpm);

            // Energy accounting for this window.
            if self.options.classifier_energy > Energy::ZERO {
                watch.charge(PowerState::Acquire, self.options.classifier_energy);
            }
            if offload {
                offloaded += 1;
                link.clone()?;
                watch.charge(PowerState::RadioTx, offload_watch[model.index()]);
                phone_energy += offload_phone[model.index()];
            } else {
                let (compute, sleep) = local[model.index()];
                watch.charge(PowerState::Compute, compute);
                watch.charge(PowerState::Sleep, sleep);
            }
            index += 1;
            Ok(())
        })?;
        drop(timer);

        if n == 0 {
            return Err(ChrisError::EmptyWorkload);
        }
        crate::metrics::record_run(n, offloaded, invocations);
        Ok(RunTotals {
            windows: n,
            mae_bpm: errors.mae().unwrap_or(0.0),
            rmse_bpm: errors.rmse().unwrap_or(0.0),
            total_watch_energy: watch.total,
            avg_watch_energy: watch.total / n as f64,
            total_phone_energy: phone_energy,
            avg_phone_energy: phone_energy / n as f64,
            offload_fraction: offloaded as f32 / n as f32,
            simple_fraction: simple as f32 / n as f32,
            disconnected_fraction: per_status[1] as f32 / n as f32,
            watch_energy_by_state: watch.by_state,
            per_activity,
            selections: ConnectionStatus::ALL.map(|status| {
                let count = per_status[status.index()];
                let configuration = plan.selection(status).ok()?;
                (count > 0).then_some((configuration, count))
            }),
            offloaded,
            invocations,
        })
    }
}

/// Smartwatch energy of a run, summed per power state and in total.
///
/// Both sums fold from zero in charge order, the order a per-phase trace
/// summed them in, so they are bit-identical to it without storing a phase
/// per window.
#[derive(Debug, Default)]
struct WatchEnergy {
    /// Energy per state, indexed by [`PowerState::index`]; `None` for a state
    /// never entered, so a state entered at zero energy still shows up in
    /// the breakdown.
    by_state: [Option<Energy>; PowerState::ALL.len()],
    total: Energy,
}

impl WatchEnergy {
    fn charge(&mut self, state: PowerState, energy: Energy) {
        *self.by_state[state.index()].get_or_insert(Energy::ZERO) += energy;
        self.total += energy;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutionTarget;
    use crate::profiling::ProfilingOptions;
    use ppg_data::{DatasetBuilder, LabeledWindow};
    use ppg_models::random_forest::{RandomForest, RandomForestConfig};
    use std::collections::BTreeMap;

    fn dataset_windows(subjects: usize, seed: u64) -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(24.0)
            .seed(seed)
            .build()
            .unwrap()
            .windows()
    }

    fn engine_for(windows: &[LabeledWindow]) -> DecisionEngine {
        let zoo = ModelZoo::paper_setup();
        let profiler = Profiler::new(&zoo);
        DecisionEngine::new(
            profiler
                .profile_all(windows, ProfilingOptions::default())
                .unwrap(),
        )
    }

    #[test]
    fn empty_windows_are_rejected() {
        let windows = dataset_windows(1, 31);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        assert!(matches!(
            runtime.run(
                &[],
                &UserConstraint::MaxMae(6.0),
                &ConnectionSchedule::AlwaysConnected
            ),
            Err(ChrisError::EmptyWorkload)
        ));
    }

    #[test]
    fn empty_engine_is_rejected() {
        let windows = dataset_windows(1, 32);
        let mut runtime = ChrisRuntime::new(
            ModelZoo::paper_setup(),
            DecisionEngine::new(Vec::new()),
            RuntimeOptions::default(),
        );
        assert!(matches!(
            runtime.run(
                &windows,
                &UserConstraint::MaxMae(6.0),
                &ConnectionSchedule::AlwaysConnected
            ),
            Err(ChrisError::EmptyProfileTable)
        ));
    }

    #[test]
    fn mae_constraint_is_respected_on_profiling_data() {
        let windows = dataset_windows(2, 33);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        // On the data it was profiled on, the selected configuration should
        // come close to its profiled MAE (different RNG streams shift it a bit).
        assert!(report.mae_bpm < 6.5, "MAE {}", report.mae_bpm);
        assert_eq!(report.windows, windows.len());
        assert!(
            report.offload_fraction > 0.0,
            "a 5.6 BPM target requires offloading"
        );
        // Much cheaper than running TimePPG-Small locally (0.735 mJ).
        assert!(report.avg_watch_energy.as_millijoules() < 0.735);
    }

    #[test]
    fn energy_constraint_is_respected() {
        let windows = dataset_windows(2, 34);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let budget = Energy::from_millijoules(0.30);
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxEnergy(budget),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        assert!(
            report.avg_watch_energy.as_millijoules() <= 0.30 * 1.1,
            "average energy {} exceeds the budget",
            report.avg_watch_energy
        );
    }

    #[test]
    fn disconnection_forces_local_configurations() {
        let windows = dataset_windows(2, 35);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::NeverConnected,
            )
            .unwrap();
        assert_eq!(report.offload_fraction, 0.0);
        assert_eq!(report.disconnected_fraction, 1.0);
        // Without the phone, hitting 5.6 BPM requires running the deep models
        // locally on a large share of the windows, which costs more than the
        // best hybrid solutions (≈0.4 mJ per prediction).
        assert!(report.avg_watch_energy.as_millijoules() > 0.45);
        assert!(!report.watch_energy_breakdown.contains_key("radio_tx"));
    }

    #[test]
    fn intermittent_connection_mixes_behaviour() {
        let windows = dataset_windows(2, 36);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let schedule = ConnectionSchedule::DutyCycle { up: 3, down: 1 };
        let report = runtime
            .run(&windows, &UserConstraint::MaxMae(5.6), &schedule)
            .unwrap();
        assert!((report.disconnected_fraction - 0.25).abs() < 0.05);
        assert!(report.offload_fraction > 0.0);
        assert!(
            report.configuration_usage.len() >= 2,
            "link drops should switch configurations"
        );
    }

    #[test]
    fn selection_errors_surface_on_the_first_window_of_their_status() {
        let windows = dataset_windows(1, 43);
        let hybrid_only = DecisionEngine::new(
            engine_for(&windows)
                .profiles()
                .iter()
                .filter(|p| p.configuration.target == ExecutionTarget::Hybrid)
                .cloned()
                .collect(),
        );
        let constraint = UserConstraint::MaxMae(5.6);
        let run = |schedule: ConnectionSchedule| {
            ChrisRuntime::new(
                ModelZoo::paper_setup(),
                hybrid_only.clone(),
                RuntimeOptions::default(),
            )
            .run(&windows, &constraint, &schedule)
        };
        let report = run(ConnectionSchedule::AlwaysConnected).unwrap();
        assert_eq!(report.windows, windows.len());

        // Per-window selection failed on the first disconnected window with
        // exactly the engine's error; the memoized selection must too.
        let expected = hybrid_only
            .select_or_closest(&constraint, ConnectionStatus::Disconnected)
            .unwrap_err();
        assert!(matches!(
            expected,
            ChrisError::NoFeasibleConfiguration { .. }
        ));
        assert_eq!(
            run(ConnectionSchedule::DutyCycle { up: 2, down: 1 }).unwrap_err(),
            expected
        );
        assert_eq!(
            run(ConnectionSchedule::NeverConnected).unwrap_err(),
            expected
        );
    }

    #[test]
    fn runs_use_the_plan_masked_by_the_statuses_their_schedule_reaches() {
        let windows = dataset_windows(1, 49);
        let full = engine_for(&windows);
        let hybrid_only = DecisionEngine::new(
            full.profiles()
                .iter()
                .filter(|p| p.configuration.target == ExecutionTarget::Hybrid)
                .cloned()
                .collect(),
        );
        // Met and unmet bounds of both kinds: selection and its fallback.
        let constraints = [
            UserConstraint::MaxMae(5.6),
            UserConstraint::MaxMae(0.1),
            UserConstraint::MaxEnergy(Energy::from_millijoules(0.30)),
            UserConstraint::MaxEnergy(Energy::from_microjoules(0.001)),
        ];
        let all = windows.len();
        let schedules = [
            ConnectionSchedule::AlwaysConnected,
            ConnectionSchedule::NeverConnected,
            ConnectionSchedule::DutyCycle { up: 3, down: 2 },
            ConnectionSchedule::DutyCycle { up: 0, down: 2 },
            ConnectionSchedule::DutyCycle { up: 2, down: 0 },
            ConnectionSchedule::DutyCycle { up: 0, down: 0 },
        ];
        let mut failed = 0;
        for engine in [&full, &hybrid_only, &DecisionEngine::new(Vec::new())] {
            for constraint in &constraints {
                let plan = engine.plan(constraint).unwrap();
                for schedule in &schedules {
                    for n in [1, 4, all] {
                        let result = ChrisRuntime::new(
                            ModelZoo::paper_setup(),
                            engine.clone(),
                            RuntimeOptions::default(),
                        )
                        .run_totals(&windows[..n], &plan, schedule);
                        let case = format!("{constraint} {schedule:?} over {n} windows");
                        match plan.masked(schedule.reaches(n)) {
                            Ok(expected) => {
                                let totals = result.unwrap_or_else(|e| panic!("{case}: {e}"));
                                let used = totals.selections.map(|s| s.map(|(c, _)| c));
                                assert_eq!(used, expected, "{case}");
                            }
                            Err(expected) => {
                                failed += 1;
                                assert_eq!(result.as_ref().err(), Some(expected), "{case}");
                            }
                        }
                    }
                }
            }
        }
        assert!(
            failed > 0,
            "the hybrid-only and empty engines fail some runs"
        );
    }

    #[test]
    fn a_failed_run_leaves_its_series_registered_at_zero() {
        let windows = dataset_windows(1, 46);
        let hybrid_only = DecisionEngine::new(
            engine_for(&windows)
                .profiles()
                .iter()
                .filter(|p| p.configuration.target == ExecutionTarget::Hybrid)
                .cloned()
                .collect(),
        );
        // Never connected fails on the first window; the duty cycle fails on
        // the third, after two windows were processed — and still publishes
        // zeros.
        for schedule in [
            ConnectionSchedule::NeverConnected,
            ConnectionSchedule::DutyCycle { up: 2, down: 1 },
        ] {
            let registry = telemetry::Registry::new();
            let result = {
                let _scope = telemetry::scoped(&registry);
                ChrisRuntime::new(
                    ModelZoo::paper_setup(),
                    hybrid_only.clone(),
                    RuntimeOptions::default(),
                )
                .run(&windows, &UserConstraint::MaxMae(5.6), &schedule)
            };
            assert!(matches!(
                result,
                Err(ChrisError::NoFeasibleConfiguration { .. })
            ));
            let snap = registry.snapshot();
            // Windows, two backends and three models, all at zero. The
            // observational stage timer still times the failed run.
            assert_eq!(snap.counters.len(), 6, "{schedule:?}");
            for counter in &snap.counters {
                assert_eq!(counter.value, 0, "{schedule:?}: {counter:?}");
            }
            assert_eq!(snap.histograms.len(), 1, "{schedule:?}");
            assert_eq!(snap.histograms[0].count, 1, "{schedule:?}");
        }
    }

    #[test]
    fn a_run_publishes_counts_matching_its_report() {
        use crate::metrics::{MODEL_INVOCATIONS_SERIES, OFFLOAD_DECISIONS_SERIES, WINDOWS_SERIES};
        let windows = dataset_windows(2, 45);
        let engine = engine_for(&windows);
        let registry = telemetry::Registry::new();
        let report = {
            let _scope = telemetry::scoped(&registry);
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default())
                .run(
                    &windows,
                    &UserConstraint::MaxMae(5.6),
                    &ConnectionSchedule::DutyCycle { up: 3, down: 1 },
                )
                .unwrap()
        };
        let snap = registry.snapshot();
        let counter = |name: &str, labels: &[(&str, &str)]| {
            snap.counter_value(name, labels)
                .unwrap_or_else(|| panic!("{name} {labels:?} is registered"))
        };
        let total = counter(WINDOWS_SERIES, &[]);
        assert_eq!(total, report.windows as u64);
        let phone = counter(OFFLOAD_DECISIONS_SERIES, &[("backend", "phone")]);
        let wearable = counter(OFFLOAD_DECISIONS_SERIES, &[("backend", "wearable")]);
        assert_eq!(phone + wearable, total);
        assert_eq!(phone as f32 / total as f32, report.offload_fraction);
        let per_model = ModelKind::ALL
            .map(|model| counter(MODEL_INVOCATIONS_SERIES, &[("model", model.name())]));
        assert_eq!(per_model.iter().sum::<u64>(), total);
        assert!(
            per_model.iter().filter(|&&count| count > 0).count() >= 2,
            "a duty-cycled 5.6 BPM run uses more than one model: {per_model:?}"
        );
    }

    #[test]
    fn cached_handles_follow_the_active_registry_across_scopes() {
        use crate::metrics::WINDOWS_SERIES;
        let first = dataset_windows(1, 47);
        let second = dataset_windows(2, 48);
        let engine = engine_for(&first);
        let run = |windows: &[LabeledWindow]| {
            ChrisRuntime::new(
                ModelZoo::paper_setup(),
                engine.clone(),
                RuntimeOptions::default(),
            )
            .run(
                windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap()
        };
        // Registry A caches this thread's handles, then is dropped; B may
        // reuse its allocation but must get handles of its own.
        let a = telemetry::Registry::new();
        {
            let _scope = telemetry::scoped(&a);
            run(&first);
        }
        drop(a);
        let b = telemetry::Registry::new();
        let report = {
            let _scope = telemetry::scoped(&b);
            run(&second)
        };
        let snap = b.snapshot();
        assert_eq!(
            snap.counter_value(WINDOWS_SERIES, &[]),
            Some(report.windows as u64)
        );
        let runtime = snap
            .histograms
            .iter()
            .find(|h| h.labels == [("stage".to_string(), "runtime".to_string())])
            .expect("the runtime stage is registered");
        assert_eq!(runtime.count, 1);
    }

    #[test]
    fn duty_cycled_runs_use_one_selection_per_link_status() {
        let windows = dataset_windows(2, 44);
        let engine = engine_for(&windows);
        let constraint = UserConstraint::MaxMae(5.6);
        let schedule = ConnectionSchedule::DutyCycle { up: 5, down: 2 };
        let mut runtime = ChrisRuntime::new(
            ModelZoo::paper_setup(),
            engine.clone(),
            RuntimeOptions::default(),
        );
        let report = runtime.run(&windows, &constraint, &schedule).unwrap();
        let label = |status| {
            engine
                .select_or_closest(&constraint, status)
                .unwrap()
                .configuration
                .label()
        };
        let connected = label(ConnectionStatus::Connected);
        let disconnected = label(ConnectionStatus::Disconnected);
        assert_ne!(connected, disconnected);
        let down = (0..windows.len())
            .filter(|&i| !schedule.is_connected(i))
            .count();
        let expected: BTreeMap<String, usize> =
            [(connected, windows.len() - down), (disconnected, down)]
                .into_iter()
                .collect();
        assert_eq!(report.configuration_usage, expected);
    }

    #[test]
    fn report_breakdown_covers_compute_radio_and_sleep() {
        let windows = dataset_windows(1, 37);
        let engine = engine_for(&windows);
        let mut runtime =
            ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let report = runtime
            .run(
                &windows,
                &UserConstraint::MaxMae(5.6),
                &ConnectionSchedule::AlwaysConnected,
            )
            .unwrap();
        assert!(report.watch_energy_breakdown.contains_key("compute"));
        assert!(report.watch_energy_breakdown.contains_key("radio_tx"));
        assert!(report.watch_energy_breakdown.contains_key("sleep"));
        let breakdown_total: f64 = report
            .watch_energy_breakdown
            .values()
            .map(|e| e.as_microjoules())
            .sum();
        assert!(
            (breakdown_total - report.total_watch_energy.as_microjoules()).abs() < 1e-3,
            "breakdown should sum to the total"
        );
        assert_eq!(report.per_activity_mae.len(), 9);
    }

    #[test]
    fn random_forest_classifier_changes_little_versus_oracle() {
        // The paper argues RF mispredictions do not significantly affect CHRIS.
        let train = dataset_windows(2, 38);
        let test = dataset_windows(1, 39);
        let engine = engine_for(&train);
        let rf = RandomForest::train(&train, RandomForestConfig::default()).unwrap();

        let mut oracle_rt = ChrisRuntime::new(
            ModelZoo::paper_setup(),
            engine.clone(),
            RuntimeOptions::default(),
        );
        let mut rf_rt = ChrisRuntime::with_classifier(
            ModelZoo::paper_setup(),
            engine,
            Box::new(rf),
            RuntimeOptions::default(),
        );
        let constraint = UserConstraint::MaxMae(5.6);
        let oracle_report = oracle_rt
            .run(&test, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let rf_report = rf_rt
            .run(&test, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        assert!(
            (oracle_report.mae_bpm - rf_report.mae_bpm).abs() < 1.0,
            "oracle {} vs rf {}",
            oracle_report.mae_bpm,
            rf_report.mae_bpm
        );
        assert!(
            (oracle_report.avg_watch_energy.as_millijoules()
                - rf_report.avg_watch_energy.as_millijoules())
            .abs()
                < 0.15
        );
    }

    #[test]
    fn classifier_energy_option_adds_cost() {
        let windows = dataset_windows(1, 40);
        let engine = engine_for(&windows);
        let zoo = ModelZoo::paper_setup();
        let mut base = ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        let mut costly = ChrisRuntime::new(
            zoo,
            engine,
            RuntimeOptions {
                classifier_energy: Energy::from_microjoules(50.0),
                ..RuntimeOptions::default()
            },
        );
        let constraint = UserConstraint::MaxMae(8.0);
        let a = base
            .run(&windows, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let b = costly
            .run(&windows, &constraint, &ConnectionSchedule::AlwaysConnected)
            .unwrap();
        let delta = b.avg_watch_energy.as_microjoules() - a.avg_watch_energy.as_microjoules();
        assert!(
            (delta - 50.0).abs() < 1.0,
            "classifier energy should add ~50 uJ, added {delta}"
        );
    }

    #[test]
    fn streaming_and_eager_runs_produce_identical_reports() {
        let windows = dataset_windows(2, 42);
        let engine = engine_for(&windows);
        let zoo = ModelZoo::paper_setup();
        let mut eager_rt =
            ChrisRuntime::new(zoo.clone(), engine.clone(), RuntimeOptions::default());
        let mut stream_rt = ChrisRuntime::new(zoo, engine, RuntimeOptions::default());
        let constraint = UserConstraint::MaxMae(5.6);
        let schedule = ConnectionSchedule::DutyCycle { up: 5, down: 2 };
        let eager = eager_rt.run(&windows, &constraint, &schedule).unwrap();
        let stream = DatasetBuilder::new()
            .subjects(2)
            .seconds_per_activity(24.0)
            .seed(42)
            .window_stream()
            .unwrap();
        let streamed = stream_rt.run(stream, &constraint, &schedule).unwrap();
        assert_eq!(eager, streamed);
        assert_eq!(streamed.windows, windows.len());
    }

    #[test]
    fn debug_and_accessors() {
        let windows = dataset_windows(1, 41);
        let engine = engine_for(&windows);
        let runtime = ChrisRuntime::new(ModelZoo::paper_setup(), engine, RuntimeOptions::default());
        let text = format!("{runtime:?}");
        assert!(text.contains("ChrisRuntime"));
        assert!(runtime.engine().len() == 60);
        assert_eq!(runtime.options().classifier_energy, Energy::ZERO);
    }
}
