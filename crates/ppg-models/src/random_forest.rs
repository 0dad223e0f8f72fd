//! Random-forest activity recognition.
//!
//! CHRIS estimates the difficulty of every window with a small random forest
//! fed by statistical accelerometer features; on the real HWatch the forest
//! runs on the ML core embedded in the LSM6DSM IMU, so its energy cost on the
//! main MCU is negligible. The paper's forest has 8 trees of depth 5 and uses
//! 4 features (mean, energy, standard deviation, number of peaks); this
//! implementation uses the same statistics computed per axis plus the
//! acceleration magnitude (16 features total) and reaches well above the 90 %
//! easy/hard accuracy the paper reports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use ppg_data::{Activity, DifficultyLevel, LabeledWindow};

use crate::error::ModelError;
use crate::traits::ActivityClassifier;

/// Hyper-parameters of the forest (paper defaults: 8 trees, depth 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum number of samples required to split a node further.
    pub min_samples_split: usize,
    /// Number of candidate features examined at each split.
    pub features_per_split: usize,
    /// RNG seed for bootstrapping and feature subsampling.
    pub seed: u64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 8,
            max_depth: 5,
            min_samples_split: 4,
            features_per_split: 4,
            seed: 0x5EED,
        }
    }
}

/// One node of a CART decision tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum TreeNode {
    Leaf {
        class: usize,
    },
    Split {
        feature: usize,
        threshold: f32,
        left: Box<TreeNode>,
        right: Box<TreeNode>,
    },
}

impl TreeNode {
    fn predict(&self, features: &[f32]) -> usize {
        match self {
            TreeNode::Leaf { class } => *class,
            TreeNode::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if features[*feature] <= *threshold {
                    left.predict(features)
                } else {
                    right.predict(features)
                }
            }
        }
    }

    #[cfg(test)]
    fn depth(&self) -> usize {
        match self {
            TreeNode::Leaf { .. } => 0,
            TreeNode::Split { left, right, .. } => 1 + left.depth().max(right.depth()),
        }
    }
}

fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let mut g = 1.0;
    for &c in counts {
        let p = c as f64 / total as f64;
        g -= p * p;
    }
    g
}

fn majority_class(labels: &[usize], indices: &[usize], n_classes: usize) -> usize {
    let mut counts = vec![0usize; n_classes];
    for &i in indices {
        counts[labels[i]] += 1;
    }
    counts
        .iter()
        .enumerate()
        .max_by_key(|&(_, &c)| c)
        .map(|(class, _)| class)
        .unwrap_or(0)
}

fn build_tree(
    features: &[Vec<f32>],
    labels: &[usize],
    indices: &[usize],
    n_classes: usize,
    depth: usize,
    config: &RandomForestConfig,
    rng: &mut StdRng,
) -> TreeNode {
    let majority = majority_class(labels, indices, n_classes);
    // Stop when pure, too deep, or too small.
    let first_label = labels[indices[0]];
    let pure = indices.iter().all(|&i| labels[i] == first_label);
    if pure || depth >= config.max_depth || indices.len() < config.min_samples_split {
        return TreeNode::Leaf { class: majority };
    }

    // Candidate features for this split.
    let n_features = features[indices[0]].len();
    let mut candidates: Vec<usize> = (0..n_features).collect();
    for i in (1..candidates.len()).rev() {
        let j = rng.random_range(0..=i);
        candidates.swap(i, j);
    }
    candidates.truncate(config.features_per_split.clamp(1, n_features));

    let parent_counts = {
        let mut counts = vec![0usize; n_classes];
        for &i in indices {
            counts[labels[i]] += 1;
        }
        counts
    };
    let parent_gini = gini(&parent_counts, indices.len());

    let mut best: Option<(usize, f32, f64)> = None;
    for &feature in &candidates {
        // Candidate thresholds: midpoints between a handful of quantiles.
        let mut values: Vec<f32> = indices.iter().map(|&i| features[i][feature]).collect();
        // total_cmp, not partial_cmp().expect: a NaN feature must not be
        // able to panic training (lint rule D3); the total order sorts NaNs
        // to the ends and `dedup` leaves splits unchanged for finite data.
        values.sort_by(f32::total_cmp);
        values.dedup();
        if values.len() < 2 {
            continue;
        }
        let steps = 16.min(values.len() - 1);
        for s in 1..=steps {
            let idx = s * (values.len() - 1) / (steps + 1);
            let threshold = (values[idx] + values[idx + 1]) / 2.0;
            let mut left_counts = vec![0usize; n_classes];
            let mut right_counts = vec![0usize; n_classes];
            let mut n_left = 0usize;
            for &i in indices {
                if features[i][feature] <= threshold {
                    left_counts[labels[i]] += 1;
                    n_left += 1;
                } else {
                    right_counts[labels[i]] += 1;
                }
            }
            let n_right = indices.len() - n_left;
            if n_left == 0 || n_right == 0 {
                continue;
            }
            let weighted = (n_left as f64 * gini(&left_counts, n_left)
                + n_right as f64 * gini(&right_counts, n_right))
                / indices.len() as f64;
            let gain = parent_gini - weighted;
            if best.is_none_or(|(_, _, bg)| gain > bg) {
                best = Some((feature, threshold, gain));
            }
        }
    }

    let Some((feature, threshold, gain)) = best else {
        return TreeNode::Leaf { class: majority };
    };
    if gain <= 1e-9 {
        return TreeNode::Leaf { class: majority };
    }

    let (left_idx, right_idx): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| features[i][feature] <= threshold);
    let left = build_tree(
        features,
        labels,
        &left_idx,
        n_classes,
        depth + 1,
        config,
        rng,
    );
    let right = build_tree(
        features,
        labels,
        &right_idx,
        n_classes,
        depth + 1,
        config,
        rng,
    );
    TreeNode::Split {
        feature,
        threshold,
        left: Box::new(left),
        right: Box::new(right),
    }
}

/// A trained random-forest activity classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RandomForest {
    config: RandomForestConfig,
    trees: Vec<TreeNode>,
    n_classes: usize,
}

impl RandomForest {
    /// Trains a forest on labeled windows.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrainingData`] when `windows` is empty or
    /// contains malformed windows.
    pub fn train(
        windows: &[LabeledWindow],
        config: RandomForestConfig,
    ) -> Result<Self, ModelError> {
        if windows.is_empty() {
            return Err(ModelError::InvalidTrainingData {
                reason: "no training windows provided".to_string(),
            });
        }
        if config.n_trees == 0 || config.max_depth == 0 {
            return Err(ModelError::InvalidTrainingData {
                reason: "n_trees and max_depth must be non-zero".to_string(),
            });
        }
        let features: Vec<Vec<f32>> = windows
            .iter()
            .map(|w| w.accel_features().map(|f| f.to_vec()))
            .collect::<Result<_, _>>()
            .map_err(|e| ModelError::InvalidTrainingData {
                reason: e.to_string(),
            })?;
        let labels: Vec<usize> = windows.iter().map(|w| w.activity.index()).collect();
        let n_classes = Activity::COUNT;

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut trees = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            // Bootstrap sample.
            let indices: Vec<usize> = (0..windows.len())
                .map(|_| rng.random_range(0..windows.len()))
                .collect();
            trees.push(build_tree(
                &features, &labels, &indices, n_classes, 0, &config, &mut rng,
            ));
        }
        Ok(Self {
            config,
            trees,
            n_classes,
        })
    }

    /// The hyper-parameters the forest was trained with.
    pub fn config(&self) -> RandomForestConfig {
        self.config
    }

    /// Number of trees in the ensemble.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// Maximum depth actually reached by any tree.
    #[cfg(test)]
    fn max_tree_depth(&self) -> usize {
        self.trees.iter().map(TreeNode::depth).max().unwrap_or(0)
    }

    /// Predicts the activity class index from a raw feature vector.
    pub fn predict_features(&self, features: &[f32]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(features)] += 1;
        }
        votes
            .iter()
            .enumerate()
            .max_by_key(|&(_, &v)| v)
            .map(|(class, _)| class)
            .unwrap_or(0)
    }

    /// Fraction of windows whose activity is predicted exactly.
    pub fn accuracy(&self, windows: &[LabeledWindow]) -> Result<f32, ModelError> {
        if windows.is_empty() {
            return Err(ModelError::InvalidTrainingData {
                reason: "no evaluation windows provided".to_string(),
            });
        }
        let mut correct = 0usize;
        for w in windows {
            if self.classify(w)? == w.activity {
                correct += 1;
            }
        }
        Ok(correct as f32 / windows.len() as f32)
    }

    /// Fraction of windows classified on the correct side of an easy/hard
    /// difficulty threshold — the quantity that actually matters to CHRIS.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidTrainingData`] for an empty window list.
    pub fn easy_hard_accuracy(
        &self,
        windows: &[LabeledWindow],
        threshold: DifficultyLevel,
    ) -> Result<f32, ModelError> {
        if windows.is_empty() {
            return Err(ModelError::InvalidTrainingData {
                reason: "no evaluation windows provided".to_string(),
            });
        }
        let mut correct = 0usize;
        for w in windows {
            let predicted = self.classify(w)?;
            let predicted_easy = predicted.difficulty() <= threshold;
            let truly_easy = w.activity.difficulty() <= threshold;
            if predicted_easy == truly_easy {
                correct += 1;
            }
        }
        Ok(correct as f32 / windows.len() as f32)
    }
}

impl ActivityClassifier for RandomForest {
    fn name(&self) -> &str {
        "random-forest"
    }

    fn classify(&self, window: &LabeledWindow) -> Result<Activity, ModelError> {
        let features = window.accel_features()?.to_vec();
        let class = self.predict_features(&features);
        Activity::from_index(class).ok_or_else(|| ModelError::PredictionFailed {
            model: "random-forest",
            reason: format!("invalid class index {class}"),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppg_data::DatasetBuilder;

    fn dataset(subjects: usize, seed: u64) -> Vec<LabeledWindow> {
        DatasetBuilder::new()
            .subjects(subjects)
            .seconds_per_activity(30.0)
            .seed(seed)
            .build()
            .unwrap()
            .windows()
    }

    #[test]
    fn training_rejects_bad_input() {
        assert!(RandomForest::train(&[], RandomForestConfig::default()).is_err());
        let windows = dataset(1, 1);
        let bad = RandomForestConfig {
            n_trees: 0,
            ..Default::default()
        };
        assert!(RandomForest::train(&windows, bad).is_err());
    }

    #[test]
    fn default_config_matches_paper() {
        let c = RandomForestConfig::default();
        assert_eq!(c.n_trees, 8);
        assert_eq!(c.max_depth, 5);
    }

    #[test]
    fn trees_respect_depth_limit() {
        let windows = dataset(2, 2);
        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        assert_eq!(rf.tree_count(), 8);
        assert!(rf.max_tree_depth() <= 5);
        assert_eq!(rf.config().max_depth, 5);
    }

    #[test]
    fn training_accuracy_is_reasonable() {
        let windows = dataset(2, 3);
        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        let acc = rf.accuracy(&windows).unwrap();
        // 9-way classification from wrist motion alone: well above chance (11%).
        assert!(acc > 0.45, "training accuracy {acc}");
    }

    #[test]
    fn easy_hard_accuracy_exceeds_90_percent_on_unseen_subject() {
        // Train on two subjects, evaluate on a third: the paper reports > 90 %
        // accuracy in discerning easy from difficult activities.
        let all = DatasetBuilder::new()
            .subjects(3)
            .seconds_per_activity(40.0)
            .seed(4)
            .build()
            .unwrap();
        let train: Vec<LabeledWindow> = all
            .windows()
            .into_iter()
            .filter(|w| w.subject.0 < 2)
            .collect();
        let test: Vec<LabeledWindow> = all
            .windows()
            .into_iter()
            .filter(|w| w.subject.0 == 2)
            .collect();
        let rf = RandomForest::train(&train, RandomForestConfig::default()).unwrap();
        let threshold = DifficultyLevel::new(5).unwrap();
        let acc = rf.easy_hard_accuracy(&test, threshold).unwrap();
        assert!(acc > 0.9, "easy/hard accuracy on unseen subject: {acc}");
    }

    #[test]
    fn classify_returns_valid_activity() {
        let windows = dataset(1, 5);
        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        for w in &windows {
            let a = rf.classify(w).unwrap();
            assert!(Activity::ALL.contains(&a));
        }
        assert_eq!(rf.name(), "random-forest");
    }

    #[test]
    fn accuracy_of_empty_evaluation_set_is_an_error() {
        let windows = dataset(1, 6);
        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        assert!(rf.accuracy(&[]).is_err());
        assert!(rf.easy_hard_accuracy(&[], DifficultyLevel::MIN).is_err());
    }

    #[test]
    fn training_is_deterministic_for_a_seed() {
        let windows = dataset(1, 7);
        let a = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        let b = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn extreme_activities_are_separated() {
        // Resting vs table soccer should be nearly perfectly separable.
        let windows = dataset(2, 8);
        let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
        let mut correct = 0usize;
        let mut total = 0usize;
        for w in windows
            .iter()
            .filter(|w| matches!(w.activity, Activity::Resting | Activity::TableSoccer))
        {
            let predicted_hard =
                rf.classify(w).unwrap().difficulty() >= DifficultyLevel::new(5).unwrap();
            let truly_hard = w.activity == Activity::TableSoccer;
            if predicted_hard == truly_hard {
                correct += 1;
            }
            total += 1;
        }
        assert!(total > 0);
        assert!(correct as f32 / total as f32 > 0.95);
    }
}
