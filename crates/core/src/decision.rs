//! The CHRIS Decision Engine.
//!
//! Given the profiled configuration table, the current BLE connection status
//! and a user-defined constraint (a maximum MAE or a maximum smartwatch
//! energy), the decision engine picks the configuration to run:
//!
//! * the connection status restricts the feasible set — hybrid configurations
//!   are dropped while the link is down,
//! * a `MaxMae` constraint selects the *lowest-energy* feasible configuration
//!   whose profiled MAE does not exceed the threshold,
//! * a `MaxEnergy` constraint selects the *most accurate* feasible
//!   configuration whose profiled smartwatch energy does not exceed the
//!   threshold.
//!
//! The table is stored sorted by energy, so the paper's observation that
//! both lookups are a single pass over it holds. The engine goes one step
//! further: it indexes each link status's feasible rows once, when it is
//! built, so a lookup is a binary search — the cheapest row of the
//! record-low MAE staircase within a `MaxMae` bound, or the most accurate
//! row of the energy prefix a `MaxEnergy` budget admits.

use std::cmp::Ordering;
use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use hw_sim::units::Energy;

use crate::config::{Configuration, ExecutionTarget};
use crate::error::ChrisError;
use crate::pareto::pareto_front;
use crate::profiling::ConfigurationProfile;

/// Whether the BLE link to the phone is currently available.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConnectionStatus {
    /// The phone is reachable; hybrid configurations are feasible.
    Connected,
    /// The phone is not reachable; only local configurations are feasible.
    Disconnected,
}

impl ConnectionStatus {
    /// Both statuses, in [`ConnectionStatus::index`] order.
    pub const ALL: [ConnectionStatus; 2] =
        [ConnectionStatus::Connected, ConnectionStatus::Disconnected];

    /// The status's position in per-status arrays: 0 connected, 1
    /// disconnected.
    pub fn index(self) -> usize {
        usize::from(self == ConnectionStatus::Disconnected)
    }

    /// Builds the status from a boolean (`true` = connected).
    pub fn from_connected(connected: bool) -> Self {
        if connected {
            ConnectionStatus::Connected
        } else {
            ConnectionStatus::Disconnected
        }
    }
}

/// The user-defined soft constraint driving configuration selection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum UserConstraint {
    /// Maximum acceptable mean absolute error, in BPM.
    MaxMae(f32),
    /// Maximum acceptable smartwatch energy per prediction.
    MaxEnergy(Energy),
}

impl UserConstraint {
    /// Builds a validated `MaxMae` constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN, infinite or
    /// negative MAE target.
    pub fn max_mae(target_bpm: f32) -> Result<Self, ChrisError> {
        let constraint = UserConstraint::MaxMae(target_bpm);
        constraint.validate()?;
        Ok(constraint)
    }

    /// Builds a validated `MaxEnergy` constraint.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN, infinite or
    /// negative energy budget.
    pub fn max_energy(budget: Energy) -> Result<Self, ChrisError> {
        let constraint = UserConstraint::MaxEnergy(budget);
        constraint.validate()?;
        Ok(constraint)
    }

    /// Checks the constraint's bound for NaN, infinity and negativity.
    ///
    /// A NaN bound is the nastiest case: every `<=` comparison against the
    /// profiled table is `false`, so selection silently degrades to "nothing
    /// feasible" and the soft-constraint fallback picks an extreme
    /// configuration with no diagnostic. Selection entry points call this so
    /// that such constraints fail loudly instead.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] describing the offending
    /// bound.
    pub fn validate(&self) -> Result<(), ChrisError> {
        let invalid = |requirement| {
            Err(ChrisError::InvalidConstraint {
                constraint: self.to_string(),
                requirement,
            })
        };
        match *self {
            UserConstraint::MaxMae(target) => {
                if target.is_nan() {
                    return invalid("MAE target must not be NaN");
                }
                if !target.is_finite() || target < 0.0 {
                    return invalid("MAE target must be finite and non-negative");
                }
            }
            UserConstraint::MaxEnergy(budget) => {
                let microjoules = budget.as_microjoules();
                if microjoules.is_nan() {
                    return invalid("energy budget must not be NaN");
                }
                if !microjoules.is_finite() || microjoules < 0.0 {
                    return invalid("energy budget must be finite and non-negative");
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Display for UserConstraint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UserConstraint::MaxMae(mae) => write!(f, "MAE <= {mae:.2} BPM"),
            UserConstraint::MaxEnergy(e) => write!(f, "energy <= {e}"),
        }
    }
}

/// The decision engine: the profiled configuration table plus the selection
/// logic of the paper's Fig. 2.
///
/// The table is shared: cloning an engine (once per simulated device in the
/// fleet) bumps a reference count instead of copying the profiles or their
/// selection index. Equality, `Debug` and the serialized form
/// (`{"profiles":[...]}`) cover the profiles only; the index is rebuilt
/// from them, so a deserialized engine is [`DecisionEngine::new`] of its
/// profiles.
#[derive(Clone)]
pub struct DecisionEngine {
    table: Arc<Table>,
}

/// The energy-sorted profiles and, for each link status, the index that
/// answers selections on them.
struct Table {
    profiles: Vec<ConfigurationProfile>,
    /// Indexed by [`ConnectionStatus::index`].
    index: [SelectionIndex; 2],
}

/// One link status's selections, precomputed from the energy-sorted table
/// so that each lookup is a binary search. Rows are table positions.
///
/// The lookups answer exactly what a scan of the feasible rows in table
/// order would: the first row minimizing energy (`MaxMae`) or MAE
/// (`MaxEnergy`) under `total_cmp`, among the rows whose MAE or energy is
/// `<=` the bound.
#[derive(Default)]
struct SelectionIndex {
    /// `MaxMae`: the feasible rows whose MAE is below that of every earlier
    /// feasible row, as (MAE, row). A NaN MAE meets no bound and is never
    /// a record. The MAEs strictly decrease, so the first record within a
    /// bound is the first feasible row within it: the cheapest.
    mae_records: Vec<(f32, usize)>,
    /// `MaxEnergy`: the feasible rows with a non-NaN energy whose MAE is
    /// `total_cmp`-lower than that of every earlier such row (ties keep the
    /// earlier row), as (energy, row). The energies do not decrease, so the
    /// last record within a budget is the most accurate row it admits.
    energy_records: Vec<(f64, usize)>,
    /// The `MaxMae` fallback: the first feasible row with the lowest MAE
    /// under `total_cmp`.
    most_accurate: Option<usize>,
    /// The `MaxEnergy` fallback: the first feasible row, the cheapest.
    cheapest: Option<usize>,
}

/// The order of a profiled table: by smartwatch energy, then by MAE, both
/// under `total_cmp`, so a NaN (a corrupted table entry) sorts
/// deterministically to an end instead of scrambling the table. Sort with
/// the stable `sort_by`: profiles equal in both keep their given order.
pub(crate) fn table_order(a: &ConfigurationProfile, b: &ConfigurationProfile) -> Ordering {
    a.watch_energy
        .as_microjoules()
        .total_cmp(&b.watch_energy.as_microjoules())
        .then(a.mae_bpm.total_cmp(&b.mae_bpm))
}

/// Whether `profile` can run while the link has `status`: hybrid
/// configurations need the phone.
fn is_feasible(profile: &ConfigurationProfile, status: ConnectionStatus) -> bool {
    match status {
        ConnectionStatus::Connected => true,
        ConnectionStatus::Disconnected => profile.configuration.target == ExecutionTarget::Local,
    }
}

impl SelectionIndex {
    /// Indexes the rows of the energy-sorted `profiles` feasible under
    /// `status`.
    fn new(profiles: &[ConfigurationProfile], status: ConnectionStatus) -> Self {
        let lower_mae = |row: usize, than: usize| {
            profiles[row]
                .mae_bpm
                .total_cmp(&profiles[than].mae_bpm)
                .is_lt()
        };
        let mut index = Self::default();
        for (row, profile) in profiles.iter().enumerate() {
            if !is_feasible(profile, status) {
                continue;
            }
            index.cheapest.get_or_insert(row);
            if index.most_accurate.is_none_or(|best| lower_mae(row, best)) {
                index.most_accurate = Some(row);
            }
            let mae = profile.mae_bpm;
            if !mae.is_nan()
                && index
                    .mae_records
                    .last()
                    .is_none_or(|&(record, _)| mae < record)
            {
                index.mae_records.push((mae, row));
            }
            let energy = profile.watch_energy.as_microjoules();
            if !energy.is_nan()
                && index
                    .energy_records
                    .last()
                    .is_none_or(|&(_, best)| lower_mae(row, best))
            {
                index.energy_records.push((energy, row));
            }
        }
        index
    }

    /// The cheapest row whose MAE is `<=` `max_mae`.
    fn cheapest_within(&self, max_mae: f32) -> Option<usize> {
        // Records are never NaN, so only a NaN bound is incomparable, and
        // it admits nothing.
        let first = self.mae_records.partition_point(|&(mae, _)| {
            mae.partial_cmp(&max_mae)
                .is_none_or(std::cmp::Ordering::is_gt)
        });
        self.mae_records.get(first).map(|&(_, row)| row)
    }

    /// The most accurate row whose energy is `<=` `budget`.
    fn most_accurate_within(&self, budget: Energy) -> Option<usize> {
        let budget = budget.as_microjoules();
        let admitted = self
            .energy_records
            .partition_point(|&(energy, _)| energy <= budget);
        self.energy_records[..admitted].last().map(|&(_, row)| row)
    }
}

impl DecisionEngine {
    /// Creates the engine from a profiled table. The table is (re)sorted by
    /// smartwatch energy, then MAE, and indexed, so every selection is a
    /// binary search.
    ///
    /// Ordering uses `total_cmp`, so a NaN in a profiled MAE or energy (a
    /// corrupted table entry) sorts deterministically to an end of the table
    /// instead of silently scrambling it. [`Profiler::profile_all`]
    /// returns its table in this order.
    ///
    /// [`Profiler::profile_all`]: crate::profiling::Profiler::profile_all
    pub fn new(mut profiles: Vec<ConfigurationProfile>) -> Self {
        profiles.sort_by(table_order);
        let index = ConnectionStatus::ALL.map(|status| SelectionIndex::new(&profiles, status));
        Self {
            table: Arc::new(Table { profiles, index }),
        }
    }

    /// The stored profiles, sorted by increasing smartwatch energy.
    pub fn profiles(&self) -> &[ConfigurationProfile] {
        &self.table.profiles
    }

    /// Number of stored configurations.
    pub fn len(&self) -> usize {
        self.table.profiles.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.table.profiles.is_empty()
    }

    /// The configurations feasible under the given connection status.
    pub fn feasible(
        &self,
        status: ConnectionStatus,
    ) -> impl Iterator<Item = &ConfigurationProfile> {
        self.profiles()
            .iter()
            .filter(move |p| is_feasible(p, status))
    }

    /// Selects the configuration satisfying the constraint, or `None` when no
    /// feasible configuration satisfies it.
    ///
    /// This low-level lookup has no error channel and does **not** validate
    /// the constraint: a NaN bound fails every comparison and yields `None`
    /// indistinguishably from a genuinely unsatisfiable constraint. Build
    /// constraints through [`UserConstraint::max_mae`] /
    /// [`UserConstraint::max_energy`] (or call
    /// [`UserConstraint::validate`]), or use
    /// [`DecisionEngine::select_or_closest`], which rejects such bounds with
    /// a typed [`ChrisError::InvalidConstraint`].
    pub fn select(
        &self,
        constraint: &UserConstraint,
        status: ConnectionStatus,
    ) -> Option<&ConfigurationProfile> {
        let index = &self.table.index[status.index()];
        let row = match *constraint {
            UserConstraint::MaxMae(max_mae) => index.cheapest_within(max_mae),
            UserConstraint::MaxEnergy(budget) => index.most_accurate_within(budget),
        }?;
        Some(&self.table.profiles[row])
    }

    /// Selects the configuration satisfying the constraint, falling back to
    /// the closest feasible configuration when the constraint cannot be met
    /// (the constraint is soft, as the paper notes): the most accurate
    /// feasible configuration for a `MaxMae` request, the lowest-energy one
    /// for a `MaxEnergy` request.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN or negative
    /// constraint bound (which would otherwise silently fail every
    /// comparison and mis-select via the fallback),
    /// [`ChrisError::EmptyProfileTable`] when the table is empty and
    /// [`ChrisError::NoFeasibleConfiguration`] when connectivity leaves no
    /// feasible configuration at all.
    pub fn select_or_closest(
        &self,
        constraint: &UserConstraint,
        status: ConnectionStatus,
    ) -> Result<&ConfigurationProfile, ChrisError> {
        constraint.validate()?;
        self.select_or_closest_valid(constraint, status)
    }

    /// [`DecisionEngine::select_or_closest`] for a validated constraint.
    fn select_or_closest_valid(
        &self,
        constraint: &UserConstraint,
        status: ConnectionStatus,
    ) -> Result<&ConfigurationProfile, ChrisError> {
        if self.is_empty() {
            return Err(ChrisError::EmptyProfileTable);
        }
        let index = &self.table.index[status.index()];
        let row = match *constraint {
            UserConstraint::MaxMae(max_mae) => {
                index.cheapest_within(max_mae).or(index.most_accurate)
            }
            UserConstraint::MaxEnergy(budget) => {
                index.most_accurate_within(budget).or(index.cheapest)
            }
        };
        row.map(|row| &self.table.profiles[row]).ok_or_else(|| {
            ChrisError::NoFeasibleConfiguration {
                request: format!("{constraint} with {status:?} link"),
            }
        })
    }

    /// Decides a run's configurations under `constraint`: the
    /// [`DecisionEngine::select_or_closest`] result for each link status.
    ///
    /// The constraint is fixed for a run and CHRIS keeps a selection while
    /// the link status holds, so these two selections are every one the
    /// run makes. A status whose selection fails keeps its error: a run
    /// raises it only if one of its windows has that status.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidConstraint`] for a NaN, infinite or
    /// negative constraint bound.
    pub fn plan(&self, constraint: &UserConstraint) -> Result<LinkPlan, ChrisError> {
        constraint.validate()?;
        Ok(LinkPlan {
            selections: ConnectionStatus::ALL.map(|status| {
                self.select_or_closest_valid(constraint, status)
                    .map(|profile| profile.configuration)
            }),
        })
    }

    /// The Pareto-optimal configurations (minimizing MAE and smartwatch
    /// energy) among those feasible under the given connection status.
    pub fn pareto(&self, status: ConnectionStatus) -> Vec<&ConfigurationProfile> {
        let feasible: Vec<&ConfigurationProfile> = self.feasible(status).collect();
        let front = pareto_front(&feasible, |p| {
            (p.watch_energy.as_microjoules(), f64::from(p.mae_bpm))
        });
        front.into_iter().map(|i| feasible[i]).collect()
    }
}

impl PartialEq for DecisionEngine {
    fn eq(&self, other: &Self) -> bool {
        self.profiles() == other.profiles()
    }
}

impl std::fmt::Debug for DecisionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionEngine")
            .field("profiles", &self.profiles())
            .finish()
    }
}

impl Serialize for DecisionEngine {
    fn to_value(&self) -> Value {
        Value::Map(vec![("profiles".to_string(), self.profiles().to_value())])
    }
}

/// Goes through [`DecisionEngine::new`], so a table stored in any order
/// loads sorted and indexed.
impl Deserialize for DecisionEngine {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let map = value
            .as_map()
            .ok_or_else(|| serde::Error::custom("expected map for struct `DecisionEngine`"))?;
        let profiles = Vec::from_value(serde::map_field(map, "profiles")?)?;
        Ok(Self::new(profiles))
    }
}

/// The configurations of one run, decided by [`DecisionEngine::plan`]: for
/// each link status, the configuration to switch to, or the error its
/// selection returned.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkPlan {
    /// Indexed by [`ConnectionStatus::index`].
    selections: [Result<Configuration, ChrisError>; 2],
}

impl LinkPlan {
    /// The configuration for `status`, or the error selecting it returned.
    pub fn selection(&self, status: ConnectionStatus) -> Result<Configuration, &ChrisError> {
        self.selections[status.index()].as_ref().copied()
    }

    /// The configurations for the statuses `reached` marks (index 0
    /// connected, 1 disconnected, as [`ConnectionSchedule::reaches`]
    /// returns them), `None` for the others.
    ///
    /// # Errors
    ///
    /// Returns the error of the first reached status whose selection
    /// failed.
    ///
    /// [`ConnectionSchedule::reaches`]: hw_sim::ble::ConnectionSchedule::reaches
    pub fn masked(&self, reached: [bool; 2]) -> Result<[Option<Configuration>; 2], &ChrisError> {
        let mut masked = [None; 2];
        for status in ConnectionStatus::ALL {
            if reached[status.index()] {
                masked[status.index()] = Some(self.selection(status)?);
            }
        }
        Ok(masked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Configuration, DifficultyThreshold, ExecutionTarget};
    use ppg_models::zoo::ModelKind;

    fn profile(
        simple: ModelKind,
        complex: ModelKind,
        thr: u8,
        target: ExecutionTarget,
        mae: f32,
        energy_mj: f64,
    ) -> ConfigurationProfile {
        ConfigurationProfile {
            configuration: Configuration::new(
                simple,
                complex,
                DifficultyThreshold::new(thr).unwrap(),
                target,
            )
            .unwrap(),
            mae_bpm: mae,
            watch_energy: Energy::from_millijoules(energy_mj),
            phone_energy: Energy::ZERO,
            offload_fraction: if target == ExecutionTarget::Hybrid {
                0.5
            } else {
                0.0
            },
            simple_fraction: 0.5,
            windows: 100,
        }
    }

    fn sample_table() -> Vec<ConfigurationProfile> {
        vec![
            profile(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgBig,
                9,
                ExecutionTarget::Local,
                11.0,
                0.23,
            ),
            profile(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgBig,
                6,
                ExecutionTarget::Hybrid,
                7.1,
                0.33,
            ),
            profile(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgBig,
                4,
                ExecutionTarget::Hybrid,
                5.5,
                0.40,
            ),
            profile(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgSmall,
                4,
                ExecutionTarget::Local,
                7.5,
                0.52,
            ),
            profile(
                ModelKind::TimePpgSmall,
                ModelKind::TimePpgBig,
                5,
                ExecutionTarget::Local,
                5.3,
                18.0,
            ),
            profile(
                ModelKind::AdaptiveThreshold,
                ModelKind::TimePpgBig,
                0,
                ExecutionTarget::Local,
                4.9,
                41.0,
            ),
        ]
    }

    #[test]
    fn engine_sorts_by_energy() {
        let mut table = sample_table();
        table.reverse();
        let engine = DecisionEngine::new(table);
        assert_eq!(engine.len(), 6);
        assert!(!engine.is_empty());
        for pair in engine.profiles().windows(2) {
            assert!(pair[0].watch_energy <= pair[1].watch_energy);
        }
    }

    #[test]
    fn max_mae_selects_lowest_energy_satisfying() {
        let engine = DecisionEngine::new(sample_table());
        let selected = engine
            .select(&UserConstraint::MaxMae(5.6), ConnectionStatus::Connected)
            .unwrap();
        // The cheapest configuration with MAE <= 5.6 is the hybrid at 0.40 mJ.
        assert!((selected.watch_energy.as_millijoules() - 0.40).abs() < 1e-9);
        assert!(selected.mae_bpm <= 5.6);
    }

    #[test]
    fn max_energy_selects_most_accurate_affordable() {
        let engine = DecisionEngine::new(sample_table());
        let selected = engine
            .select(
                &UserConstraint::MaxEnergy(Energy::from_millijoules(0.45)),
                ConnectionStatus::Connected,
            )
            .unwrap();
        assert!((selected.mae_bpm - 5.5).abs() < 1e-6);
        assert!(selected.watch_energy <= Energy::from_millijoules(0.45));
    }

    #[test]
    fn disconnected_excludes_hybrid_configurations() {
        let engine = DecisionEngine::new(sample_table());
        let selected = engine
            .select(&UserConstraint::MaxMae(5.6), ConnectionStatus::Disconnected)
            .unwrap();
        assert_eq!(selected.configuration.target, ExecutionTarget::Local);
        // The best local configuration under 5.6 BPM costs 18 mJ.
        assert!((selected.watch_energy.as_millijoules() - 18.0).abs() < 1e-9);
        let feasible_count = engine.feasible(ConnectionStatus::Disconnected).count();
        assert_eq!(feasible_count, 4);
    }

    #[test]
    fn unsatisfiable_constraint_returns_none_then_falls_back() {
        let engine = DecisionEngine::new(sample_table());
        assert!(engine
            .select(&UserConstraint::MaxMae(1.0), ConnectionStatus::Connected)
            .is_none());
        let fallback = engine
            .select_or_closest(&UserConstraint::MaxMae(1.0), ConnectionStatus::Connected)
            .unwrap();
        // Fallback is the most accurate configuration.
        assert!((fallback.mae_bpm - 4.9).abs() < 1e-6);

        assert!(engine
            .select(
                &UserConstraint::MaxEnergy(Energy::from_microjoules(1.0)),
                ConnectionStatus::Connected
            )
            .is_none());
        let fallback = engine
            .select_or_closest(
                &UserConstraint::MaxEnergy(Energy::from_microjoules(1.0)),
                ConnectionStatus::Connected,
            )
            .unwrap();
        // Fallback is the cheapest configuration.
        assert!((fallback.watch_energy.as_millijoules() - 0.23).abs() < 1e-9);
    }

    #[test]
    fn a_plan_holds_each_status_selection_or_its_error() {
        let engine = DecisionEngine::new(sample_table());
        for constraint in [
            UserConstraint::MaxMae(5.6),
            UserConstraint::MaxMae(1.0),
            UserConstraint::MaxEnergy(Energy::from_millijoules(0.45)),
            UserConstraint::MaxEnergy(Energy::from_microjoules(1.0)),
        ] {
            let plan = engine.plan(&constraint).unwrap();
            for status in ConnectionStatus::ALL {
                let selected = engine.select_or_closest(&constraint, status).unwrap();
                assert_eq!(plan.selection(status), Ok(selected.configuration));
            }
            let connected = plan.selection(ConnectionStatus::Connected).ok();
            let disconnected = plan.selection(ConnectionStatus::Disconnected).ok();
            assert_eq!(plan.masked([true, false]), Ok([connected, None]));
            assert_eq!(plan.masked([false, true]), Ok([None, disconnected]));
            assert_eq!(plan.masked([false; 2]), Ok([None; 2]));
        }

        // A status whose selection fails keeps its error; masking it out
        // drops the error.
        let hybrid_only = DecisionEngine::new(
            sample_table()
                .into_iter()
                .filter(|p| p.configuration.target == ExecutionTarget::Hybrid)
                .collect(),
        );
        let constraint = UserConstraint::MaxMae(5.6);
        let plan = hybrid_only.plan(&constraint).unwrap();
        let error = hybrid_only
            .select_or_closest(&constraint, ConnectionStatus::Disconnected)
            .unwrap_err();
        assert_eq!(plan.selection(ConnectionStatus::Disconnected), Err(&error));
        assert_eq!(plan.masked([true, true]), Err(&error));
        assert!(plan.masked([true, false]).is_ok());

        let empty = DecisionEngine::new(Vec::new()).plan(&constraint).unwrap();
        for status in ConnectionStatus::ALL {
            assert_eq!(empty.selection(status), Err(&ChrisError::EmptyProfileTable));
        }

        // An invalid constraint fails the plan itself, whatever the table.
        for engine in [&engine, &DecisionEngine::new(Vec::new())] {
            assert!(matches!(
                engine.plan(&UserConstraint::MaxMae(f32::NAN)),
                Err(ChrisError::InvalidConstraint { .. })
            ));
        }
    }

    #[test]
    fn empty_table_is_an_error() {
        let engine = DecisionEngine::new(Vec::new());
        assert!(matches!(
            engine.select_or_closest(&UserConstraint::MaxMae(5.0), ConnectionStatus::Connected),
            Err(ChrisError::EmptyProfileTable)
        ));
        assert!(engine
            .select(&UserConstraint::MaxMae(5.0), ConnectionStatus::Connected)
            .is_none());
    }

    #[test]
    fn pareto_front_drops_dominated_configurations() {
        let engine = DecisionEngine::new(sample_table());
        let front = engine.pareto(ConnectionStatus::Connected);
        // The AT+Small local row (7.5 BPM, 0.52 mJ) is dominated by the hybrid
        // rows; the Small+Big local row (5.3, 18.0) is dominated by nothing
        // cheaper than it except... check it: (0.40, 5.5) dominates (18.0, 5.3)?
        // No: 5.3 < 5.5, so it stays.
        assert!(front.iter().all(|p| {
            !(p.configuration.simple == ModelKind::AdaptiveThreshold
                && p.configuration.complex == ModelKind::TimePpgSmall)
        }));
        assert!(front.len() >= 4);
        // Front is sorted by energy and has decreasing MAE.
        for pair in front.windows(2) {
            assert!(pair[0].watch_energy <= pair[1].watch_energy);
            assert!(pair[0].mae_bpm >= pair[1].mae_bpm);
        }
    }

    #[test]
    fn nan_profiles_sort_last_instead_of_scrambling_the_table() {
        let mut table = sample_table();
        table.push(profile(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            5,
            ExecutionTarget::Local,
            f32::NAN,
            f64::NAN,
        ));
        table.reverse();
        let engine = DecisionEngine::new(table);
        // The NaN row lands at the end; everything before it is sorted.
        assert!(engine.profiles().last().unwrap().mae_bpm.is_nan());
        for pair in engine.profiles()[..engine.len() - 1].windows(2) {
            assert!(pair[0].watch_energy <= pair[1].watch_energy);
        }
        // Selection never returns the NaN row (a NaN MAE fails every filter,
        // and NaN energy is the total_cmp maximum).
        let selected = engine
            .select(&UserConstraint::MaxMae(5.6), ConnectionStatus::Connected)
            .unwrap();
        assert!(selected.mae_bpm.is_finite());
        let selected = engine
            .select(
                &UserConstraint::MaxEnergy(Energy::from_millijoules(50.0)),
                ConnectionStatus::Connected,
            )
            .unwrap();
        assert!(selected.mae_bpm.is_finite());
    }

    #[test]
    fn nan_constraint_errors_instead_of_silently_mis_selecting() {
        let engine = DecisionEngine::new(sample_table());
        // The pre-fix failure mode, kept as documentation: a NaN bound fails
        // every table comparison, so `select` finds "nothing feasible" even
        // though the table is fully populated...
        assert!(engine
            .select(
                &UserConstraint::MaxMae(f32::NAN),
                ConnectionStatus::Connected
            )
            .is_none());
        assert!(engine
            .select(
                &UserConstraint::MaxEnergy(Energy::from_millijoules(f64::NAN)),
                ConnectionStatus::Connected
            )
            .is_none());
        // ...and `select_or_closest` would then silently mis-select the
        // soft-constraint fallback (the most accurate / cheapest row) with no
        // diagnostic. It now reports a typed error instead.
        assert!(matches!(
            engine.select_or_closest(
                &UserConstraint::MaxMae(f32::NAN),
                ConnectionStatus::Connected
            ),
            Err(ChrisError::InvalidConstraint { .. })
        ));
        assert!(matches!(
            engine.select_or_closest(
                &UserConstraint::MaxEnergy(Energy::from_millijoules(f64::NAN)),
                ConnectionStatus::Connected
            ),
            Err(ChrisError::InvalidConstraint { .. })
        ));
    }

    #[test]
    fn negative_and_infinite_constraints_are_rejected_at_construction() {
        assert!(matches!(
            UserConstraint::max_mae(-1.0),
            Err(ChrisError::InvalidConstraint { .. })
        ));
        assert!(matches!(
            UserConstraint::max_mae(f32::INFINITY),
            Err(ChrisError::InvalidConstraint { .. })
        ));
        assert!(matches!(
            UserConstraint::max_energy(Energy::from_millijoules(-0.5)),
            Err(ChrisError::InvalidConstraint { .. })
        ));
        assert!(matches!(
            UserConstraint::max_energy(Energy::from_millijoules(f64::INFINITY)),
            Err(ChrisError::InvalidConstraint { .. })
        ));
        // Valid bounds construct and validate cleanly, zero included.
        assert_eq!(
            UserConstraint::max_mae(5.6).unwrap(),
            UserConstraint::MaxMae(5.6)
        );
        assert!(UserConstraint::max_mae(0.0).is_ok());
        let budget = Energy::from_millijoules(0.4);
        assert_eq!(
            UserConstraint::max_energy(budget).unwrap(),
            UserConstraint::MaxEnergy(budget)
        );
        assert!(UserConstraint::MaxMae(7.0).validate().is_ok());
    }

    #[test]
    fn connection_status_from_bool_and_display() {
        assert_eq!(
            ConnectionStatus::from_connected(true),
            ConnectionStatus::Connected
        );
        assert_eq!(
            ConnectionStatus::from_connected(false),
            ConnectionStatus::Disconnected
        );
        assert!(UserConstraint::MaxMae(5.6).to_string().contains("5.60"));
        assert!(UserConstraint::MaxEnergy(Energy::from_millijoules(0.5))
            .to_string()
            .contains("energy"));
    }
}
