//! The nine PPGDalia activities and their difficulty ordering.
//!
//! The paper orders the activities by the average accelerometer signal energy
//! they induce (its ref. \[19\]) and assigns a *difficulty level* from 1 (least
//! motion artifacts) to 9 (most). The CHRIS decision engine compares the
//! predicted activity's difficulty against a per-configuration threshold to
//! pick the simple or the complex HR model.

use serde::{Deserialize, Serialize};

/// One of the nine daily activities recorded in PPGDalia.
///
/// The variants are listed in difficulty order (least to most motion
/// artifacts), so `Activity::ALL[i]` has difficulty level `i + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Activity {
    /// Lying or sitting still during the guided rest periods.
    Resting,
    /// Sitting and reading.
    Sitting,
    /// Working at a desk (typing, mouse use).
    Working,
    /// Having lunch (irregular arm movements of moderate amplitude).
    Lunch,
    /// Driving a car.
    Driving,
    /// Cycling outdoors.
    Cycling,
    /// Walking (includes short walking breaks).
    Walking,
    /// Ascending and descending stairs.
    Stairs,
    /// Playing table soccer (sudden, high-energy arm movements).
    TableSoccer,
}

/// Difficulty level of an activity: 1 (easiest) to 9 (hardest).
///
/// Wraps the cardinal number the paper associates with each activity so that
/// thresholds and levels cannot be confused with arbitrary integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DifficultyLevel(u8);

impl DifficultyLevel {
    /// Lowest difficulty (resting).
    pub const MIN: DifficultyLevel = DifficultyLevel(1);
    /// Highest difficulty (table soccer).
    pub const MAX: DifficultyLevel = DifficultyLevel(9);

    /// Creates a difficulty level, returning `None` outside `1..=9`.
    pub fn new(level: u8) -> Option<Self> {
        (1..=9).contains(&level).then_some(Self(level))
    }

    /// The raw level in `1..=9`.
    pub fn value(self) -> u8 {
        self.0
    }
}

impl std::fmt::Display for DifficultyLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Activity {
    /// All activities in difficulty order (easiest first).
    pub const ALL: [Activity; 9] = [
        Activity::Resting,
        Activity::Sitting,
        Activity::Working,
        Activity::Lunch,
        Activity::Driving,
        Activity::Cycling,
        Activity::Walking,
        Activity::Stairs,
        Activity::TableSoccer,
    ];

    /// Number of distinct activities.
    pub const COUNT: usize = 9;

    /// Difficulty level from 1 (least motion artifacts) to 9 (most), following
    /// the ordering by average accelerometer energy used in the paper.
    pub fn difficulty(self) -> DifficultyLevel {
        let idx = Self::ALL
            .iter()
            .position(|&a| a == self)
            .expect("activity is in ALL");
        DifficultyLevel::new(idx as u8 + 1).expect("index within 1..=9")
    }

    /// Stable zero-based index (same order as [`Activity::ALL`]); useful as a
    /// class label for the activity-recognition classifier.
    pub fn index(self) -> usize {
        (self.difficulty().value() - 1) as usize
    }

    /// Activity from a zero-based class index, if valid.
    pub fn from_index(index: usize) -> Option<Self> {
        Self::ALL.get(index).copied()
    }

    /// Short human-readable name (matches the paper's terminology).
    pub fn name(self) -> &'static str {
        match self {
            Activity::Resting => "resting",
            Activity::Sitting => "sitting",
            Activity::Working => "working",
            Activity::Lunch => "lunch",
            Activity::Driving => "driving",
            Activity::Cycling => "cycling",
            Activity::Walking => "walking",
            Activity::Stairs => "stairs",
            Activity::TableSoccer => "table soccer",
        }
    }

    /// Typical heart-rate band (BPM) induced by the activity, used by the
    /// synthetic HR trajectory generator.
    pub fn hr_band_bpm(self) -> (f32, f32) {
        match self {
            Activity::Resting => (55.0, 70.0),
            Activity::Sitting => (60.0, 75.0),
            Activity::Working => (62.0, 80.0),
            Activity::Lunch => (65.0, 85.0),
            Activity::Driving => (65.0, 85.0),
            Activity::Cycling => (90.0, 130.0),
            Activity::Walking => (80.0, 110.0),
            Activity::Stairs => (95.0, 135.0),
            Activity::TableSoccer => (85.0, 125.0),
        }
    }

    /// Root-mean-square amplitude (in g) of the non-gravity accelerometer
    /// component typical of the activity. Drives both the synthetic
    /// accelerometer and the amount of motion artifacts in the PPG.
    pub fn motion_intensity_g(self) -> f32 {
        match self {
            Activity::Resting => 0.015,
            Activity::Sitting => 0.03,
            Activity::Working => 0.06,
            Activity::Lunch => 0.12,
            Activity::Driving => 0.18,
            Activity::Cycling => 0.28,
            Activity::Walking => 0.42,
            Activity::Stairs => 0.60,
            Activity::TableSoccer => 0.85,
        }
    }

    /// Dominant periodicity of the wrist movement in Hz (arm swing cadence,
    /// pedalling, ...), or `None` for aperiodic activities.
    pub fn motion_periodicity_hz(self) -> Option<f32> {
        match self {
            Activity::Walking => Some(1.8),
            Activity::Stairs => Some(1.5),
            Activity::Cycling => Some(1.1),
            Activity::TableSoccer => Some(2.6),
            _ => None,
        }
    }

    /// Fraction of windows containing sudden high-amplitude motion bursts
    /// (non-periodic artifacts such as reaching for food or steering).
    pub fn burst_probability(self) -> f32 {
        match self {
            Activity::Resting => 0.01,
            Activity::Sitting => 0.03,
            Activity::Working => 0.08,
            Activity::Lunch => 0.25,
            Activity::Driving => 0.20,
            Activity::Cycling => 0.10,
            Activity::Walking => 0.10,
            Activity::Stairs => 0.15,
            Activity::TableSoccer => 0.45,
        }
    }
}

impl std::fmt::Display for Activity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_nine_activities() {
        assert_eq!(Activity::ALL.len(), Activity::COUNT);
        assert_eq!(Activity::COUNT, 9);
    }

    #[test]
    fn difficulty_levels_are_unique_and_cover_1_to_9() {
        let mut seen = [false; 9];
        for a in Activity::ALL {
            let d = a.difficulty().value();
            assert!((1..=9).contains(&d));
            assert!(!seen[(d - 1) as usize], "duplicate difficulty {d}");
            seen[(d - 1) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn difficulty_round_trip() {
        for a in Activity::ALL {
            assert_eq!(Activity::from_index(a.index()), Some(a));
        }
        assert_eq!(Activity::from_index(9), None);
    }

    #[test]
    fn difficulty_level_bounds() {
        assert!(DifficultyLevel::new(0).is_none());
        assert!(DifficultyLevel::new(10).is_none());
        assert_eq!(DifficultyLevel::new(1), Some(DifficultyLevel::MIN));
        assert_eq!(DifficultyLevel::new(9), Some(DifficultyLevel::MAX));
        assert_eq!(DifficultyLevel::MAX.to_string(), "9");
    }

    #[test]
    fn motion_intensity_is_monotone_in_difficulty() {
        for pair in Activity::ALL.windows(2) {
            assert!(
                pair[1].motion_intensity_g() > pair[0].motion_intensity_g(),
                "{} should move more than {}",
                pair[1],
                pair[0]
            );
        }
    }

    #[test]
    fn resting_is_easiest_table_soccer_hardest() {
        assert_eq!(Activity::Resting.difficulty(), DifficultyLevel::MIN);
        assert_eq!(Activity::TableSoccer.difficulty(), DifficultyLevel::MAX);
    }

    #[test]
    fn hr_bands_are_well_formed() {
        for a in Activity::ALL {
            let (lo, hi) = a.hr_band_bpm();
            assert!(
                lo > 30.0 && hi < 200.0 && lo < hi,
                "{a}: bad band ({lo}, {hi})"
            );
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = Activity::ALL.iter().map(|a| a.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn burst_probabilities_are_probabilities() {
        for a in Activity::ALL {
            let p = a.burst_probability();
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn periodic_activities_have_plausible_cadence() {
        for a in Activity::ALL {
            if let Some(f) = a.motion_periodicity_hz() {
                assert!(f > 0.5 && f < 5.0);
            }
        }
    }
}
