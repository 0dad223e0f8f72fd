//! CHRIS configurations: model pairs, difficulty thresholds and execution
//! targets.
//!
//! A *configuration* is a pair of HR models — a simple/efficient one and a
//! complex/accurate one — plus the difficulty threshold that routes each
//! window to one of them and the execution target of the complex model
//! (locally on the smartwatch, or offloaded to the phone). With three models
//! in the zoo, ten threshold values and two targets the paper enumerates 60
//! configurations, of which about half are Pareto-optimal after profiling.

use serde::{Deserialize, Serialize};

use ppg_data::DifficultyLevel;
use ppg_models::zoo::ModelKind;

use crate::error::ChrisError;

/// Where the *complex* model of a configuration executes. The simple model of
/// a pair always runs on the smartwatch (offloading it never pays off, see the
/// paper's Sec. IV-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExecutionTarget {
    /// Both models run on the smartwatch; usable when BLE is down.
    Local,
    /// The complex model runs on the phone (the window is streamed over BLE).
    Hybrid,
}

impl ExecutionTarget {
    /// Both execution targets.
    pub const ALL: [ExecutionTarget; 2] = [ExecutionTarget::Local, ExecutionTarget::Hybrid];

    /// Short name used in reports ("Local" / "Hybrid", as in Table II).
    pub fn name(self) -> &'static str {
        match self {
            ExecutionTarget::Local => "Local",
            ExecutionTarget::Hybrid => "Hybrid",
        }
    }
}

impl std::fmt::Display for ExecutionTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the smartwatch energy of an offloaded window is accounted.
///
/// The paper's text is not fully self-consistent on this point (its Table III
/// BLE row, the "22 % less than always offloading" claim and the 179 µJ
/// operating point imply three slightly different accountings), so the
/// reproduction makes the choice explicit and sweepable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EnergyAccounting {
    /// Offloaded window costs the BLE transmission energy only (0.52 mJ with
    /// the calibrated link). This matches the paper's Fig. 3/Fig. 4 baselines
    /// most closely and is the default.
    #[default]
    BleOnly,
    /// Offloaded window costs the BLE transmission energy plus sleep power for
    /// the remainder of the 2-second period (the strictest accounting).
    BleWithSleep,
    /// Offloaded window streams only the new 64 samples of the stride (the
    /// phone reconstructs the overlap), i.e. a quarter of the payload, plus
    /// sleep for the rest of the period.
    IncrementalPayload,
}

impl EnergyAccounting {
    /// All accounting modes (used by the ablation bench).
    pub const ALL: [EnergyAccounting; 3] = [
        EnergyAccounting::BleOnly,
        EnergyAccounting::BleWithSleep,
        EnergyAccounting::IncrementalPayload,
    ];
}

/// A difficulty threshold in `0..=9`.
///
/// Windows whose predicted activity difficulty (1..=9) is **less than or equal
/// to** the threshold are routed to the simple model; the rest go to the
/// complex model. Threshold 0 therefore means "always use the complex model"
/// and 9 means "always use the simple model".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DifficultyThreshold(u8);

impl DifficultyThreshold {
    /// Creates a threshold, returning an error outside `0..=9`.
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidParameter`] when `value > 9`.
    pub fn new(value: u8) -> Result<Self, ChrisError> {
        if value > 9 {
            return Err(ChrisError::InvalidParameter {
                name: "difficulty_threshold",
                requirement: "must be within 0..=9",
            });
        }
        Ok(Self(value))
    }

    /// All ten thresholds in increasing order.
    pub fn all() -> impl Iterator<Item = DifficultyThreshold> {
        (0..=9).map(DifficultyThreshold)
    }

    /// Raw threshold value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// Whether a window of the given difficulty goes to the simple model.
    pub fn routes_to_simple(self, difficulty: DifficultyLevel) -> bool {
        difficulty.value() <= self.0
    }
}

impl std::fmt::Display for DifficultyThreshold {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One CHRIS configuration: the model pair, the difficulty threshold and the
/// execution target of the complex model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Configuration {
    /// The cheap model, always executed on the smartwatch.
    pub simple: ModelKind,
    /// The accurate model, executed locally or offloaded depending on
    /// [`Configuration::target`].
    pub complex: ModelKind,
    /// Difficulty threshold routing windows between the two models.
    pub threshold: DifficultyThreshold,
    /// Where the complex model runs.
    pub target: ExecutionTarget,
}

impl Configuration {
    /// Creates a configuration, validating that the pair is ordered (the
    /// simple model must be cheaper, i.e. appear before the complex one in
    /// [`ModelKind::ALL`]).
    ///
    /// # Errors
    ///
    /// Returns [`ChrisError::InvalidParameter`] when `simple` is not strictly
    /// cheaper than `complex`.
    pub fn new(
        simple: ModelKind,
        complex: ModelKind,
        threshold: DifficultyThreshold,
        target: ExecutionTarget,
    ) -> Result<Self, ChrisError> {
        if simple >= complex {
            return Err(ChrisError::InvalidParameter {
                name: "model pair",
                requirement: "the simple model must be cheaper than the complex model",
            });
        }
        Ok(Self {
            simple,
            complex,
            threshold,
            target,
        })
    }

    /// Which model handles a window of the given difficulty.
    pub fn model_for(&self, difficulty: DifficultyLevel) -> ModelKind {
        if self.threshold.routes_to_simple(difficulty) {
            self.simple
        } else {
            self.complex
        }
    }

    /// Whether a window of the given difficulty is offloaded to the phone.
    pub fn offloads(&self, difficulty: DifficultyLevel) -> bool {
        self.target == ExecutionTarget::Hybrid && !self.threshold.routes_to_simple(difficulty)
    }

    /// Short description like `"[AT, TimePPG-Big] thr=6 Hybrid"` (the format
    /// of the paper's Table II rows).
    pub fn label(&self) -> String {
        format!(
            "[{}, {}] thr={} {}",
            self.simple.name(),
            self.complex.name(),
            self.threshold,
            self.target
        )
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

/// Enumerates every CHRIS configuration for the default 3-model zoo:
/// 3 ordered model pairs × 10 thresholds × 2 execution targets = 60.
pub fn enumerate_configurations() -> Vec<Configuration> {
    let mut out = Vec::new();
    for (i, &simple) in ModelKind::ALL.iter().enumerate() {
        for &complex in &ModelKind::ALL[i + 1..] {
            for threshold in DifficultyThreshold::all() {
                for target in ExecutionTarget::ALL {
                    out.push(
                        Configuration::new(simple, complex, threshold, target)
                            .expect("enumeration only builds ordered pairs"),
                    );
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::Activity;

    #[test]
    fn threshold_validation() {
        assert!(DifficultyThreshold::new(10).is_err());
        assert_eq!(DifficultyThreshold::all().count(), 10);
        assert_eq!(DifficultyThreshold::new(4).unwrap().value(), 4);
    }

    #[test]
    fn threshold_routing() {
        let thr = DifficultyThreshold::new(4).unwrap();
        assert!(thr.routes_to_simple(Activity::Resting.difficulty()));
        assert!(thr.routes_to_simple(Activity::Lunch.difficulty())); // difficulty 4
        assert!(!thr.routes_to_simple(Activity::Driving.difficulty())); // difficulty 5
        assert!(!thr.routes_to_simple(Activity::TableSoccer.difficulty()));
        // 9 always picks the simple model, 0 always the complex one.
        let always_simple = DifficultyThreshold::new(9).unwrap();
        assert!(always_simple.routes_to_simple(Activity::TableSoccer.difficulty()));
        let always_complex = DifficultyThreshold::new(0).unwrap();
        assert!(!always_complex.routes_to_simple(Activity::Resting.difficulty()));
    }

    #[test]
    fn configuration_rejects_unordered_pairs() {
        let thr = DifficultyThreshold::new(5).unwrap();
        assert!(Configuration::new(
            ModelKind::TimePpgBig,
            ModelKind::AdaptiveThreshold,
            thr,
            ExecutionTarget::Local
        )
        .is_err());
        assert!(Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::AdaptiveThreshold,
            thr,
            ExecutionTarget::Local
        )
        .is_err());
        assert!(Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            thr,
            ExecutionTarget::Hybrid
        )
        .is_ok());
    }

    #[test]
    fn sixty_configurations_are_enumerated() {
        let configs = enumerate_configurations();
        assert_eq!(configs.len(), 60);
        // All unique.
        let mut set = std::collections::HashSet::new();
        for c in &configs {
            assert!(set.insert(*c), "duplicate configuration {c}");
        }
        // 30 hybrid, 30 local.
        let hybrid = configs
            .iter()
            .filter(|c| c.target == ExecutionTarget::Hybrid)
            .count();
        assert_eq!(hybrid, 30);
    }

    #[test]
    fn model_selection_and_offloading() {
        let config = Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            DifficultyThreshold::new(4).unwrap(),
            ExecutionTarget::Hybrid,
        )
        .unwrap();
        assert_eq!(
            config.model_for(Activity::Resting.difficulty()),
            ModelKind::AdaptiveThreshold
        );
        assert_eq!(
            config.model_for(Activity::TableSoccer.difficulty()),
            ModelKind::TimePpgBig
        );
        assert!(!config.offloads(Activity::Resting.difficulty()));
        assert!(config.offloads(Activity::TableSoccer.difficulty()));

        let local = Configuration {
            target: ExecutionTarget::Local,
            ..config
        };
        assert!(!local.offloads(Activity::TableSoccer.difficulty()));
    }

    #[test]
    fn label_format_matches_table2_style() {
        let config = Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgSmall,
            DifficultyThreshold::new(9).unwrap(),
            ExecutionTarget::Local,
        )
        .unwrap();
        assert_eq!(config.label(), "[AT, TimePPG-Small] thr=9 Local");
        assert_eq!(config.to_string(), config.label());
    }

    #[test]
    fn execution_target_and_accounting_metadata() {
        assert_eq!(ExecutionTarget::Local.to_string(), "Local");
        assert_eq!(ExecutionTarget::ALL.len(), 2);
        assert_eq!(EnergyAccounting::ALL.len(), 3);
        assert_eq!(EnergyAccounting::default(), EnergyAccounting::BleOnly);
    }
}
