//! Subject-wise cross-validation folds.
//!
//! The paper splits PPGDalia's 15 subjects into 5 folds of 3 subjects each: in
//! every iteration 4 folds train the models, two subjects of the remaining
//! fold are used for validation and the last one for testing, rotating the
//! test subject within the fold. This module reproduces that protocol and also
//! offers the simpler "hold out k subjects" split used by the lighter-weight
//! examples.

use serde::{Deserialize, Serialize};

use crate::error::DataError;
use crate::subject::SubjectId;

/// One train/validation/test split by subject.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Fold {
    /// Subjects used to train (and profile) the models.
    pub train: Vec<SubjectId>,
    /// Subjects used for validation / threshold tuning.
    pub validation: Vec<SubjectId>,
    /// Subjects used for the final test metrics.
    pub test: Vec<SubjectId>,
}

impl Fold {
    /// Returns `true` when no subject appears in more than one split.
    pub fn is_disjoint(&self) -> bool {
        let mut all: Vec<SubjectId> = self
            .train
            .iter()
            .chain(&self.validation)
            .chain(&self.test)
            .copied()
            .collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        all.len() == before
    }
}

/// The paper's 5 × 3 cross-validation protocol.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossValidation {
    folds: Vec<Fold>,
    subjects_per_fold: usize,
}

impl CrossValidation {
    /// Builds the cross-validation splits for `subject_count` subjects grouped
    /// into folds of `subjects_per_fold`.
    ///
    /// For every group, each member takes a turn as the test subject while the
    /// rest of the group validates, producing
    /// `groups × subjects_per_fold` [`Fold`]s (15 for the paper's 15/3 split).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::InvalidParameter`] if `subjects_per_fold` is zero
    /// or does not divide `subject_count`.
    pub fn new(subject_count: usize, subjects_per_fold: usize) -> Result<Self, DataError> {
        if subjects_per_fold == 0 || subject_count == 0 {
            return Err(DataError::InvalidParameter {
                name: "subjects_per_fold",
                requirement: "fold size and subject count must be non-zero",
            });
        }
        if !subject_count.is_multiple_of(subjects_per_fold) {
            return Err(DataError::InvalidParameter {
                name: "subjects_per_fold",
                requirement: "must divide the subject count evenly",
            });
        }
        let groups = subject_count / subjects_per_fold;
        let mut folds = Vec::with_capacity(subject_count);
        for g in 0..groups {
            let group: Vec<SubjectId> = (0..subjects_per_fold)
                .map(|i| SubjectId(g * subjects_per_fold + i))
                .collect();
            let train: Vec<SubjectId> = (0..subject_count)
                .map(SubjectId)
                .filter(|s| !group.contains(s))
                .collect();
            for (t, &test_subject) in group.iter().enumerate() {
                let validation: Vec<SubjectId> = group
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != t)
                    .map(|(_, &s)| s)
                    .collect();
                folds.push(Fold {
                    train: train.clone(),
                    validation,
                    test: vec![test_subject],
                });
            }
        }
        Ok(Self {
            folds,
            subjects_per_fold,
        })
    }

    /// The paper's protocol: 15 subjects, folds of 3.
    ///
    /// # Errors
    ///
    /// Never fails for the default arguments; propagates
    /// [`DataError::InvalidParameter`] otherwise.
    pub fn paper_protocol() -> Result<Self, DataError> {
        Self::new(crate::FULL_SUBJECT_COUNT, 3)
    }

    /// Number of folds (train/val/test rotations).
    pub fn len(&self) -> usize {
        self.folds.len()
    }

    /// Whether there are no folds (never true for a successfully built split).
    pub fn is_empty(&self) -> bool {
        self.folds.is_empty()
    }

    /// All folds.
    pub fn folds(&self) -> &[Fold] {
        &self.folds
    }

    /// One fold by index.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::UnknownFold`] when `index` is out of range.
    pub fn fold(&self, index: usize) -> Result<&Fold, DataError> {
        self.folds.get(index).ok_or(DataError::UnknownFold {
            index,
            available: self.folds.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_protocol_has_15_rotations() {
        let cv = CrossValidation::paper_protocol().unwrap();
        assert_eq!(cv.len(), 15);
        assert!(!cv.is_empty());
        assert_eq!(cv.subjects_per_fold, 3);
    }

    #[test]
    fn folds_are_disjoint_and_complete() {
        let cv = CrossValidation::paper_protocol().unwrap();
        for fold in cv.folds() {
            assert!(fold.is_disjoint());
            assert_eq!(fold.train.len(), 12);
            assert_eq!(fold.validation.len(), 2);
            assert_eq!(fold.test.len(), 1);
            let total = fold.train.len() + fold.validation.len() + fold.test.len();
            assert_eq!(total, 15);
        }
    }

    #[test]
    fn every_subject_is_tested_exactly_once() {
        let cv = CrossValidation::paper_protocol().unwrap();
        let mut tested: Vec<usize> = cv.folds().iter().map(|f| f.test[0].0).collect();
        tested.sort_unstable();
        assert_eq!(tested, (0..15).collect::<Vec<_>>());
    }

    #[test]
    fn validation_subjects_come_from_the_same_group() {
        let cv = CrossValidation::new(6, 3).unwrap();
        // First group is subjects 0,1,2; when 0 is tested, 1 and 2 validate.
        let fold = cv.fold(0).unwrap();
        assert_eq!(fold.test, vec![SubjectId(0)]);
        assert_eq!(fold.validation, vec![SubjectId(1), SubjectId(2)]);
        assert!(fold.train.iter().all(|s| s.0 >= 3));
    }

    #[test]
    fn rejects_non_dividing_fold_size() {
        assert!(CrossValidation::new(15, 4).is_err());
        assert!(CrossValidation::new(15, 0).is_err());
        assert!(CrossValidation::new(0, 3).is_err());
    }

    #[test]
    fn fold_index_out_of_range() {
        let cv = CrossValidation::new(6, 3).unwrap();
        assert!(cv.fold(6).is_err());
        assert!(cv.fold(0).is_ok());
    }

    #[test]
    fn non_disjoint_fold_detected() {
        let f = Fold {
            train: vec![SubjectId(0)],
            validation: vec![SubjectId(0)],
            test: vec![SubjectId(1)],
        };
        assert!(!f.is_disjoint());
    }
}
