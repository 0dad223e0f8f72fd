//! Deterministic per-device scenario generation.
//!
//! A fleet is described by a *master seed* and a [`ScenarioMix`] — the knobs
//! of the population distribution (constraint shares, link quality, battery
//! spread, activity diversity). From those, [`ScenarioGenerator`] derives one
//! [`DeviceScenario`] per device id. The derivation hashes
//! `(master seed, device id)` into an independent RNG stream, so a device's
//! scenario never depends on how many other devices exist or in which order
//! they are generated — the property the executor relies on for
//! thread-count-independent results.

use chris_core::config::EnergyAccounting;
use chris_core::decision::UserConstraint;
use hw_sim::ble::ConnectionSchedule;
use hw_sim::units::Energy;
use ppg_data::{
    Activity, CachedWindows, DatasetBuilder, LabeledWindow, SynthWindows, Synthesis, WindowCache,
    WindowCacheKey,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Population-level knobs of a fleet.
///
/// All shares are probabilities in `[0, 1]`; all `(lo, hi)` pairs are sampled
/// uniformly (a pair with `hi <= lo` pins the value to `lo`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScenarioMix {
    /// Share of devices running a `MaxMae` constraint (the rest run
    /// `MaxEnergy`).
    pub max_mae_share: f64,
    /// Range of MAE targets for `MaxMae` devices, in BPM.
    pub mae_target_bpm: (f32, f32),
    /// Range of per-prediction energy budgets for `MaxEnergy` devices, in mJ.
    pub energy_budget_mj: (f64, f64),
    /// Share of devices with a non-perfect BLE link.
    pub flaky_link_share: f64,
    /// Among flaky devices, share that are fully offline (phone out of
    /// range), exercising the local-only fallback.
    pub offline_share: f64,
    /// Lower bound on link availability for flaky (duty-cycled) devices.
    pub min_link_availability: f64,
    /// Range of battery capacities, in mAh.
    pub battery_capacity_mah: (f64, f64),
    /// Range of recording length per activity, in seconds.
    pub seconds_per_activity: (f32, f32),
    /// Range of how many of the nine activities each device performs.
    pub activity_count: (usize, usize),
    /// When true, the energy-accounting mode is sampled uniformly from
    /// [`EnergyAccounting::ALL`]; otherwise every device uses the default.
    pub accounting_sweep: bool,
    /// Number of distinct *synthesis profiles* (dataset seed, activity
    /// schedule, recording length) in the population, `0` for "every device
    /// distinct". When positive, device `id` draws its synthesis profile
    /// from pool slot `id % subject_pool` — the cohort shape real fleets
    /// have (many devices per calibration profile). Devices in one slot
    /// share a [`DeviceScenario::window_cache_key`] and a dataset seed. A
    /// simulation draws each of the first 256 slots' profiles once, when it
    /// is built, and its executor takes a device's profile from the slot,
    /// synthesizes each slot's session once, with a noise tape of the
    /// slot's error sequence, and lets the slot's other devices replay both
    /// ([`crate::run_fleet_range`]). [`ScenarioGenerator::scenario`] draws
    /// the slot's profile itself and returns the same scenario. Constraints,
    /// links, batteries and accounting stay per-device in either case.
    pub subject_pool: u64,
}

impl ScenarioMix {
    /// A representative mix: two-thirds `MaxMae` devices, a quarter with a
    /// flaky link, full battery and activity diversity.
    pub fn balanced() -> Self {
        Self {
            max_mae_share: 0.67,
            mae_target_bpm: (5.0, 8.0),
            energy_budget_mj: (0.25, 0.75),
            flaky_link_share: 0.25,
            offline_share: 0.2,
            min_link_availability: 0.5,
            battery_capacity_mah: (250.0, 450.0),
            seconds_per_activity: (16.0, 32.0),
            activity_count: (4, 9),
            accounting_sweep: false,
            subject_pool: 0,
        }
    }

    /// A hostile mix: tight constraints, mostly degraded or absent links,
    /// small batteries — the worst corner of the deployment envelope.
    pub fn harsh() -> Self {
        Self {
            max_mae_share: 0.5,
            mae_target_bpm: (4.8, 5.6),
            energy_budget_mj: (0.2, 0.35),
            flaky_link_share: 0.8,
            offline_share: 0.35,
            min_link_availability: 0.25,
            battery_capacity_mah: (150.0, 300.0),
            seconds_per_activity: (16.0, 32.0),
            activity_count: (6, 9),
            accounting_sweep: true,
            subject_pool: 0,
        }
    }

    /// An office-like mix: phone always reachable, relaxed error targets,
    /// mostly sedentary activity schedules.
    pub fn connected() -> Self {
        Self {
            max_mae_share: 0.8,
            mae_target_bpm: (5.6, 9.0),
            energy_budget_mj: (0.3, 0.75),
            flaky_link_share: 0.0,
            offline_share: 0.0,
            min_link_availability: 1.0,
            battery_capacity_mah: (300.0, 450.0),
            seconds_per_activity: (16.0, 32.0),
            activity_count: (2, 5),
            accounting_sweep: false,
            subject_pool: 0,
        }
    }

    /// The [`ScenarioMix::balanced`] population with a 16-profile
    /// [`subject_pool`](ScenarioMix::subject_pool): devices cluster into
    /// cohorts sharing calibration data and activity schedules, so the
    /// executor replays each of the 16 slot sessions instead of
    /// re-synthesizing it per device.
    pub fn cohort() -> Self {
        Self {
            subject_pool: 16,
            ..Self::balanced()
        }
    }

    /// Looks a preset mix up by name (`balanced`, `harsh`, `connected`,
    /// `cohort`).
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "balanced" => Some(Self::balanced()),
            "harsh" => Some(Self::harsh()),
            "connected" => Some(Self::connected()),
            "cohort" => Some(Self::cohort()),
            _ => None,
        }
    }

    /// The names accepted by [`ScenarioMix::from_name`].
    pub const PRESETS: [&'static str; 4] = ["balanced", "harsh", "connected", "cohort"];
}

impl Default for ScenarioMix {
    fn default() -> Self {
        Self::balanced()
    }
}

/// Everything that distinguishes one simulated device from another.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceScenario {
    /// Device id within the fleet.
    pub device_id: u64,
    /// Seed of the device's synthetic recording (subject physiology included)
    /// and of its calibrated-estimator error streams.
    pub dataset_seed: u64,
    /// The activities this device's wearer performs, in difficulty order.
    pub activities: Vec<Activity>,
    /// Seconds of recording per activity.
    pub seconds_per_activity: f32,
    /// The wearer's soft constraint.
    pub constraint: UserConstraint,
    /// How offloaded windows are charged to the smartwatch.
    pub accounting: EnergyAccounting,
    /// BLE availability over the device's windows.
    pub schedule: ConnectionSchedule,
    /// Battery capacity in mAh (at the HWatch's 3.7 V).
    pub battery_capacity_mah: f64,
}

impl DeviceScenario {
    /// Streams the device's labeled windows lazily, synthesizing them on
    /// demand from `(dataset seed, activity schedule)`.
    ///
    /// The executor's path: at most one activity segment of labels and one
    /// window are alive per device, instead of the whole session — the
    /// collected stream is element-wise identical to the eager
    /// [`DeviceScenario::windows`] vector. Fleet windows are labels-only
    /// ([`Synthesis::LabelsOnly`]): the oracle classifier and the calibrated
    /// estimators read nothing else, and the labels are bit-identical to
    /// full synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`ppg_data::DataError`] when the sampled parameters are
    /// rejected by the dataset builder (cannot happen for mixes whose ranges
    /// respect the builder's invariants).
    pub fn window_stream(&self) -> Result<SynthWindows, ppg_data::DataError> {
        self.dataset_builder().window_stream()
    }

    /// The dataset builder describing this device's session — the one place
    /// the scenario's synthesis parameters become builder state, shared by
    /// the streaming, cached and key-derivation paths. It synthesizes labels
    /// only.
    fn dataset_builder(&self) -> DatasetBuilder {
        DatasetBuilder::new()
            .subjects(1)
            .seconds_per_activity(self.seconds_per_activity)
            .seed(self.dataset_seed)
            .activities(&self.activities)
            .synthesis(Synthesis::LabelsOnly)
    }

    /// The memoization key of this device's window stream: everything that
    /// determines the synthesized windows — `(dataset seed, activity
    /// schedule, seconds per activity)` — and **not** the device id, so
    /// devices sharing a subject/activity profile share one cache entry.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeviceScenario::window_stream`].
    pub fn window_cache_key(&self) -> Result<WindowCacheKey, ppg_data::DataError> {
        self.dataset_builder().window_cache_key()
    }

    /// Streams the device's labeled windows through a [`WindowCache`]:
    /// the first device with a given [`DeviceScenario::window_cache_key`]
    /// synthesizes and materializes the session once, and every later device
    /// with an equal key replays the shared buffer instead of re-running
    /// [`SynthWindows`]. The replay is element-wise identical to
    /// [`DeviceScenario::window_stream`], so reports are byte-identical with
    /// or without the cache.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeviceScenario::window_stream`].
    pub fn cached_window_stream(
        &self,
        cache: &mut WindowCache,
    ) -> Result<CachedWindows, ppg_data::DataError> {
        self.dataset_builder().cached_window_stream(cache)
    }

    /// Exact number of windows the device's session yields, computed from
    /// the schedule geometry without synthesizing any signal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeviceScenario::window_stream`].
    pub fn window_count(&self) -> Result<usize, ppg_data::DataError> {
        Ok(self.window_stream()?.len())
    }

    /// Synthesizes the device's labeled windows eagerly.
    ///
    /// Thin `collect()` wrapper over [`DeviceScenario::window_stream`] kept
    /// for tests and offline analysis; the executor streams instead.
    ///
    /// # Errors
    ///
    /// Same conditions as [`DeviceScenario::window_stream`].
    pub fn windows(&self) -> Result<Vec<LabeledWindow>, ppg_data::DataError> {
        ppg_data::collect_windows(self.window_stream()?)
    }
}

/// SplitMix64 finalizer: a well-mixed pure function of its input. It
/// decorrelates consecutive device ids into independent scenario streams and
/// derives each sketch combine's keep offset from its position.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derives the RNG seed of a device's scenario stream. Depends only on
/// `(master_seed, device_id)`.
pub fn device_stream_seed(master_seed: u64, device_id: u64) -> u64 {
    splitmix64(splitmix64(master_seed) ^ splitmix64(device_id.wrapping_mul(0xA076_1D64_78BD_642F)))
}

/// Domain separator for subject-pool streams: keeps the shared
/// synthesis-profile draws of pool slot `s` independent from the per-device
/// scenario stream of device id `s`.
const SUBJECT_POOL_SALT: u64 = 0x5EED_C0DE_5A17_ED00;

/// What a device's session is synthesized from: recording length, activity
/// schedule and dataset seed. Every device of a pool slot has its slot's.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SynthesisProfile {
    seconds_per_activity: f32,
    activities: Vec<Activity>,
    dataset_seed: u64,
}

/// What a device draws from its own stream: every field of its
/// [`DeviceScenario`] except the synthesis profile, which a pooled device
/// shares with its slot. It is all that a device's report and the run key
/// of its pooled run read of the scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct DeviceFields {
    pub(crate) device_id: u64,
    pub(crate) constraint: UserConstraint,
    pub(crate) accounting: EnergyAccounting,
    pub(crate) schedule: ConnectionSchedule,
    pub(crate) battery_capacity_mah: f64,
}

impl DeviceFields {
    /// The device's scenario with `profile` as its synthesis profile.
    fn with_profile(self, profile: SynthesisProfile) -> DeviceScenario {
        let SynthesisProfile {
            seconds_per_activity,
            activities,
            dataset_seed,
        } = profile;
        DeviceScenario {
            device_id: self.device_id,
            dataset_seed,
            activities,
            seconds_per_activity,
            constraint: self.constraint,
            accounting: self.accounting,
            schedule: self.schedule,
            battery_capacity_mah: self.battery_capacity_mah,
        }
    }
}

impl DeviceScenario {
    /// The scenario's [`DeviceFields`].
    pub(crate) fn fields(&self) -> DeviceFields {
        DeviceFields {
            device_id: self.device_id,
            constraint: self.constraint,
            accounting: self.accounting,
            schedule: self.schedule,
            battery_capacity_mah: self.battery_capacity_mah,
        }
    }
}

/// A pooled device's scenario as [`ScenarioGenerator::scenario_in_slot`]
/// derives it: the device's own fields and a borrow of its slot's synthesis
/// profile. Building the whole [`DeviceScenario`] clones the profile's
/// activity list, which only a slot fill or a device streaming after a
/// failed fill needs.
#[derive(Debug)]
pub(crate) struct PooledScenario<'a> {
    pub(crate) device: DeviceFields,
    profile: &'a SynthesisProfile,
}

impl PooledScenario<'_> {
    /// The whole scenario, equal to [`ScenarioGenerator::scenario`] of the
    /// device.
    pub(crate) fn to_scenario(&self) -> DeviceScenario {
        self.device.with_profile(self.profile.clone())
    }
}

/// Draws one synthesis profile from `rng`. The tail of every scenario
/// derivation; for pooled mixes it runs on a slot-shared stream instead of
/// the device's own.
fn synthesis_profile(rng: &mut StdRng, mix: &ScenarioMix) -> SynthesisProfile {
    let seconds_per_activity = sample_f32(rng, mix.seconds_per_activity);

    let (lo, hi) = mix.activity_count;
    let lo = lo.clamp(1, Activity::ALL.len());
    let hi = hi.clamp(1, Activity::ALL.len());
    let count = if hi > lo {
        rng.random_range(lo..=hi)
    } else {
        lo
    };
    // Partial Fisher-Yates: pick `count` distinct activities, then keep
    // them in difficulty order so HR trajectories chain canonically.
    let mut pool: [usize; Activity::COUNT] = std::array::from_fn(|i| i);
    for i in 0..count {
        let j = rng.random_range(i..pool.len());
        pool.swap(i, j);
    }
    let chosen = &mut pool[..count];
    chosen.sort_unstable();
    let activities: Vec<Activity> = chosen.iter().map(|&i| Activity::ALL[i]).collect();

    let dataset_seed: u64 = rng.random();
    SynthesisProfile {
        seconds_per_activity,
        activities,
        dataset_seed,
    }
}

/// Derives [`DeviceScenario`]s from a master seed and a [`ScenarioMix`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioGenerator {
    master_seed: u64,
    mix: ScenarioMix,
}

fn sample_f32(rng: &mut StdRng, (lo, hi): (f32, f32)) -> f32 {
    if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    }
}

fn sample_f64(rng: &mut StdRng, (lo, hi): (f64, f64)) -> f64 {
    if hi > lo {
        rng.random_range(lo..hi)
    } else {
        lo
    }
}

impl ScenarioGenerator {
    /// Creates a generator for a master seed and mix.
    pub fn new(master_seed: u64, mix: ScenarioMix) -> Self {
        Self { master_seed, mix }
    }

    /// The master seed.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The scenario mix.
    pub fn mix(&self) -> &ScenarioMix {
        &self.mix
    }

    /// Derives the scenario of one device.
    pub fn scenario(&self, device_id: u64) -> DeviceScenario {
        let pool = self.mix.subject_pool;
        let (device, mut rng) = self.device_fields(device_id);
        // Pooled mixes draw the synthesis profile from a slot-shared
        // stream, so every device in a slot gets the same (seed, schedule,
        // length) — and therefore the same window-cache key. Distinct mixes
        // draw it from the device's own stream, after its own fields.
        let profile = if pool > 0 {
            self.slot_profile(device_id % pool)
        } else {
            synthesis_profile(&mut rng, &self.mix)
        };
        device.with_profile(profile)
    }

    /// The synthesis profile of pool slot `slot`, which every device of the
    /// slot shares, drawn from the slot's own stream.
    pub(crate) fn slot_profile(&self, slot: u64) -> SynthesisProfile {
        let mut rng = StdRng::seed_from_u64(device_stream_seed(
            self.master_seed ^ SUBJECT_POOL_SALT,
            slot,
        ));
        synthesis_profile(&mut rng, &self.mix)
    }

    /// [`ScenarioGenerator::scenario`] of a pooled device whose slot's
    /// profile, [`ScenarioGenerator::slot_profile`], is at hand: the
    /// device's own fields, with the profile borrowed instead of drawn
    /// again or cloned.
    pub(crate) fn scenario_in_slot<'a>(
        &self,
        device_id: u64,
        profile: &'a SynthesisProfile,
    ) -> PooledScenario<'a> {
        debug_assert!(self.mix.subject_pool > 0, "only a pooled device has a slot");
        PooledScenario {
            device: self.device_fields(device_id).0,
            profile,
        }
    }

    /// Draws device `device_id`'s own fields from its stream, and returns
    /// them with the stream, from which a device without a pool slot draws
    /// its synthesis profile next.
    fn device_fields(&self, device_id: u64) -> (DeviceFields, StdRng) {
        let mix = &self.mix;
        let mut rng = StdRng::seed_from_u64(device_stream_seed(self.master_seed, device_id));

        let constraint = if rng.random::<f64>() < mix.max_mae_share {
            UserConstraint::MaxMae(sample_f32(&mut rng, mix.mae_target_bpm))
        } else {
            UserConstraint::MaxEnergy(Energy::from_millijoules(sample_f64(
                &mut rng,
                mix.energy_budget_mj,
            )))
        };

        let schedule = if rng.random::<f64>() < mix.flaky_link_share {
            if rng.random::<f64>() < mix.offline_share {
                ConnectionSchedule::NeverConnected
            } else {
                // A duty cycle whose availability lies in
                // [min_link_availability, 1).
                let availability =
                    sample_f64(&mut rng, (mix.min_link_availability.min(0.95), 0.95));
                let period = rng.random_range(4usize..24);
                let up = ((period as f64 * availability).round() as usize)
                    .clamp(1, period.saturating_sub(1).max(1));
                ConnectionSchedule::DutyCycle {
                    up,
                    down: period - up,
                }
            }
        } else {
            ConnectionSchedule::AlwaysConnected
        };

        let accounting = if mix.accounting_sweep {
            EnergyAccounting::ALL[rng.random_range(0..EnergyAccounting::ALL.len())]
        } else {
            EnergyAccounting::default()
        };

        let battery_capacity_mah = sample_f64(&mut rng, mix.battery_capacity_mah);
        let device = DeviceFields {
            device_id,
            constraint,
            accounting,
            schedule,
            battery_capacity_mah,
        };
        (device, rng)
    }

    /// Derives the scenarios of devices `0..count`, lazily.
    ///
    /// Returns an iterator rather than a `Vec`: scenario derivation is pure,
    /// so callers that only need to walk (or count) scenarios never pay for
    /// materializing the whole fleet. Collect when random access is needed.
    pub fn scenarios(&self, count: u64) -> impl Iterator<Item = DeviceScenario> + '_ {
        self.scenarios_in(0..count)
    }

    /// Derives the scenarios of a contiguous device-id range — the unit of
    /// work of one fleet shard — lazily. Because scenarios depend only on
    /// `(master seed, device id)`, a range's scenarios are the same whether
    /// it is generated in one process or split across many.
    ///
    /// The executor does not even collect this iterator: its scenario-free
    /// path ([`crate::executor::run_fleet_range`]) hands workers the
    /// generator itself and lets each worker call
    /// [`ScenarioGenerator::scenario`] for the ids it claims, so per-shard
    /// scenario memory stays O(worker threads) for any range size.
    pub fn scenarios_in(
        &self,
        range: std::ops::Range<u64>,
    ) -> impl Iterator<Item = DeviceScenario> + '_ {
        range.map(|id| self.scenario(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_depends_only_on_master_seed_and_device_id() {
        let a = ScenarioGenerator::new(7, ScenarioMix::balanced());
        let b = ScenarioGenerator::new(7, ScenarioMix::balanced());
        for id in [0u64, 1, 99, 12_345] {
            assert_eq!(a.scenario(id), b.scenario(id));
        }
        // Generating a big fleet does not perturb small-fleet scenarios.
        let big: Vec<_> = a.scenarios(64).collect();
        let small: Vec<_> = a.scenarios(8).collect();
        assert_eq!(&big[..8], &small[..]);
    }

    #[test]
    fn range_generation_matches_per_id_generation() {
        let generator = ScenarioGenerator::new(13, ScenarioMix::balanced());
        let ranged: Vec<_> = generator.scenarios_in(5..9).collect();
        assert_eq!(ranged.len(), 4);
        for (offset, scenario) in ranged.iter().enumerate() {
            assert_eq!(scenario, &generator.scenario(5 + offset as u64));
        }
        assert_eq!(generator.scenarios_in(7..7).count(), 0);
        // Boundary device ids derive valid scenarios without panicking.
        for id in [u64::MAX, u64::MAX - 1] {
            let scenario = generator.scenario(id);
            assert_eq!(scenario.device_id, id);
            assert!(!scenario.activities.is_empty());
        }
    }

    #[test]
    fn different_seeds_and_ids_give_different_scenarios() {
        let a = ScenarioGenerator::new(1, ScenarioMix::balanced());
        let b = ScenarioGenerator::new(2, ScenarioMix::balanced());
        assert_ne!(a.scenario(0), b.scenario(0));
        assert_ne!(a.scenario(0).dataset_seed, a.scenario(1).dataset_seed);
    }

    #[test]
    fn mix_shares_are_respected_in_aggregate() {
        let generator = ScenarioGenerator::new(11, ScenarioMix::balanced());
        let scenarios: Vec<_> = generator.scenarios(400).collect();
        let max_mae = scenarios
            .iter()
            .filter(|s| matches!(s.constraint, UserConstraint::MaxMae(_)))
            .count();
        let share = max_mae as f64 / scenarios.len() as f64;
        assert!((share - 0.67).abs() < 0.1, "MaxMae share {share}");
        let flaky = scenarios
            .iter()
            .filter(|s| s.schedule != ConnectionSchedule::AlwaysConnected)
            .count();
        let share = flaky as f64 / scenarios.len() as f64;
        assert!((share - 0.25).abs() < 0.1, "flaky share {share}");
    }

    #[test]
    fn connected_mix_never_produces_flaky_links() {
        let generator = ScenarioGenerator::new(3, ScenarioMix::connected());
        for s in generator.scenarios(100) {
            assert_eq!(s.schedule, ConnectionSchedule::AlwaysConnected);
            assert!(!s.activities.is_empty() && s.activities.len() <= 5);
        }
    }

    #[test]
    fn scenarios_build_valid_windows() {
        let generator = ScenarioGenerator::new(5, ScenarioMix::harsh());
        let scenario = generator.scenario(17);
        let windows = scenario.windows().unwrap();
        assert!(!windows.is_empty());
        // Fleet windows are labels-only: each one's labels are those of the
        // session builder's full synthesis.
        let full = scenario
            .dataset_builder()
            .synthesis(Synthesis::Full)
            .build()
            .unwrap()
            .windows();
        assert_eq!(windows.len(), full.len());
        for (w, f) in windows.iter().zip(&full) {
            assert_eq!(f.ppg.len(), 256);
            assert_eq!(
                (w.subject, w.activity, w.hr_bpm.to_bits()),
                (f.subject, f.activity, f.hr_bpm.to_bits())
            );
        }
        // Difficulty order is preserved.
        for pair in scenario.activities.windows(2) {
            assert!(pair[0].difficulty() <= pair[1].difficulty());
        }
    }

    #[test]
    fn window_stream_matches_eager_windows_and_counts() {
        use ppg_data::WindowSource;
        let generator = ScenarioGenerator::new(19, ScenarioMix::balanced());
        let scenario = generator.scenario(3);
        let eager = scenario.windows().unwrap();
        let streamed: Vec<_> = scenario
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        assert_eq!(streamed, eager);
        assert_eq!(scenario.window_count().unwrap(), eager.len());
    }

    #[test]
    fn cached_window_stream_replays_the_synth_stream_and_shares_keys() {
        use ppg_data::WindowSource;
        let generator = ScenarioGenerator::new(19, ScenarioMix::balanced());
        let scenario = generator.scenario(3);
        // A clone with a different device id shares the cache key: the key
        // excludes the id, so repeated subject/activity profiles hit.
        let mut twin = scenario.clone();
        twin.device_id = 99;
        assert_eq!(
            scenario.window_cache_key().unwrap(),
            twin.window_cache_key().unwrap()
        );
        assert_ne!(
            scenario.window_cache_key().unwrap(),
            generator.scenario(4).window_cache_key().unwrap()
        );

        let mut cache = WindowCache::new(2);
        let eager: Vec<_> = scenario
            .window_stream()
            .unwrap()
            .iter()
            .map(Result::unwrap)
            .collect();
        for expected_hits in [0, 1] {
            let streamed: Vec<_> = twin
                .cached_window_stream(&mut cache)
                .unwrap()
                .iter()
                .map(Result::unwrap)
                .collect();
            assert_eq!(streamed, eager);
            assert_eq!(cache.hits(), expected_hits);
        }
    }

    #[test]
    fn cohort_pool_shares_synthesis_profiles_but_not_the_rest() {
        let generator = ScenarioGenerator::new(23, ScenarioMix::cohort());
        let pool = ScenarioMix::cohort().subject_pool;
        assert_eq!(pool, 16);
        // Devices in the same slot share the synthesis profile (and so the
        // window-cache key) while keeping per-device constraints/links.
        let a = generator.scenario(3);
        let b = generator.scenario(3 + pool);
        assert_eq!(a.dataset_seed, b.dataset_seed);
        assert_eq!(a.activities, b.activities);
        assert_eq!(a.seconds_per_activity, b.seconds_per_activity);
        assert_eq!(a.window_cache_key().unwrap(), b.window_cache_key().unwrap());
        // Different slots get different profiles.
        let c = generator.scenario(4);
        assert_ne!(a.dataset_seed, c.dataset_seed);
        // A fleet of N devices has exactly min(N, pool) distinct keys.
        let distinct: std::collections::HashSet<_> = generator
            .scenarios(64)
            .map(|s| s.window_cache_key().unwrap())
            .collect();
        assert_eq!(distinct.len(), pool as usize);
        // The population stays heterogeneous on the non-synthesis axes.
        let constraints: std::collections::HashSet<_> = generator
            .scenarios(64)
            .map(|s| format!("{}", s.constraint))
            .collect();
        assert!(constraints.len() > 1);
    }

    #[test]
    fn pooled_and_distinct_mixes_agree_on_non_synthesis_fields() {
        // The pool only replaces the synthesis profile; every other sampled
        // field must be identical to the distinct-mix derivation.
        let distinct = ScenarioGenerator::new(31, ScenarioMix::balanced());
        let pooled = ScenarioGenerator::new(31, ScenarioMix::cohort());
        for id in [0u64, 7, 40] {
            let d = distinct.scenario(id);
            let p = pooled.scenario(id);
            assert_eq!(d.constraint, p.constraint);
            assert_eq!(d.schedule, p.schedule);
            assert_eq!(d.accounting, p.accounting);
            assert_eq!(d.battery_capacity_mah, p.battery_capacity_mah);
        }
    }

    #[test]
    fn inverted_activity_count_pins_to_lo_instead_of_panicking() {
        let mix = ScenarioMix {
            activity_count: (5, 3),
            ..ScenarioMix::balanced()
        };
        let scenario = ScenarioGenerator::new(1, mix).scenario(0);
        assert_eq!(scenario.activities.len(), 5);
    }

    #[test]
    fn presets_resolve_by_name() {
        for name in ScenarioMix::PRESETS {
            assert!(ScenarioMix::from_name(name).is_some());
        }
        assert!(ScenarioMix::from_name("nope").is_none());
        assert_eq!(ScenarioMix::default(), ScenarioMix::balanced());
    }
}
