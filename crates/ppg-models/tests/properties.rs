//! Property-based tests for the HR estimators, the surrogates and the
//! activity classifier.

use ppg_data::{Activity, DatasetBuilder, LabeledWindow, SubjectId, Synthesis};
use ppg_models::adaptive_threshold::AdaptiveThreshold;
use ppg_models::error::ModelError;
use ppg_models::random_forest::{RandomForest, RandomForestConfig};
use ppg_models::spectral::SpectralPeak;
use ppg_models::surrogate::CalibratedEstimator;
use ppg_models::timeppg::{TimePpg, TimePpgVariant};
use ppg_models::traits::{ActivityClassifier, HrEstimator};
use ppg_models::zoo::{ModelKind, ModelZoo};
use proptest::prelude::*;

fn tiny_windows(seed: u64) -> Vec<LabeledWindow> {
    DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(16.0)
        .seed(seed)
        .build()
        .expect("valid parameters")
        .windows()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn adaptive_threshold_output_is_always_physiological(seed in 0u64..500) {
        let mut at = AdaptiveThreshold::new();
        for w in tiny_windows(seed) {
            let bpm = at.predict(&w).unwrap();
            prop_assert!((40.0..=190.0).contains(&bpm));
            prop_assert!(bpm.is_finite());
        }
    }

    #[test]
    fn surrogate_predictions_are_physiological_and_deterministic(seed in 0u64..500, model_seed in 0u64..1000) {
        let windows = tiny_windows(seed);
        for kind in ModelKind::ALL {
            let mut a = CalibratedEstimator::new(kind, model_seed);
            let mut b = CalibratedEstimator::new(kind, model_seed);
            for w in &windows {
                let pa = a.predict(w).unwrap();
                let pb = b.predict(w).unwrap();
                prop_assert_eq!(pa, pb);
                prop_assert!((40.0..=190.0).contains(&pa));
            }
        }
    }

    #[test]
    fn per_activity_calibration_is_positive_and_ordered(activity_idx in 0usize..9) {
        let activity = Activity::from_index(activity_idx).unwrap();
        let at = ModelKind::AdaptiveThreshold.per_activity_mae_bpm(activity);
        let small = ModelKind::TimePpgSmall.per_activity_mae_bpm(activity);
        let big = ModelKind::TimePpgBig.per_activity_mae_bpm(activity);
        prop_assert!(big > 0.0);
        prop_assert!(big <= small);
        // On the easiest, artifact-free activities AT is competitive with the
        // deep models (that is the whole point of CHRIS); from mid difficulty
        // on, the deep models must be clearly better.
        if activity.difficulty().value() >= 4 {
            prop_assert!(small <= at);
        }
    }

    #[test]
    fn random_forest_always_returns_a_valid_activity(seed in 0u64..200) {
        let windows = tiny_windows(seed);
        let rf = RandomForest::train(&windows, RandomForestConfig { n_trees: 4, max_depth: 4, ..Default::default() }).unwrap();
        for w in &windows {
            let a = rf.classify(w).unwrap();
            prop_assert!(Activity::ALL.contains(&a));
        }
        let acc = rf.accuracy(&windows).unwrap();
        prop_assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn zoo_characterization_is_internally_consistent(scale in 1.0f64..3.0) {
        // Whatever BLE scaling is applied, the characterization stays ordered:
        // watch energy grows with model complexity, MAE shrinks.
        use hw_sim::ble::BleLink;
        use hw_sim::platform::Platform;
        use hw_sim::units::{Power, TimeSpan};
        let base = BleLink::paper_calibrated();
        let ble = BleLink::new(
            base.throughput_bytes_per_s / scale,
            Power::from_milliwatts(base.tx_power.as_milliwatts()),
            TimeSpan::ZERO,
        )
        .unwrap();
        let zoo = ModelZoo::new(Platform::stm32wb55(), Platform::raspberry_pi3(), ble);
        let table = zoo.table();
        for pair in table.windows(2) {
            prop_assert!(pair[0].watch_energy < pair[1].watch_energy);
            prop_assert!(pair[0].mae_bpm > pair[1].mae_bpm);
            prop_assert!(pair[0].watch_cycles < pair[1].watch_cycles);
        }
    }
}

#[test]
fn estimators_share_the_hr_estimator_interface() {
    // Object-safety / trait-object usage across all estimator families.
    let zoo = ModelZoo::paper_setup();
    let windows = tiny_windows(3);
    let mut estimators: Vec<Box<dyn HrEstimator>> = vec![
        Box::new(AdaptiveThreshold::new()),
        zoo.calibrated_estimator(ModelKind::TimePpgSmall, 1),
        zoo.calibrated_estimator(ModelKind::TimePpgBig, 1),
    ];
    for est in &mut estimators {
        let bpm = est.predict(&windows[0]).unwrap();
        assert!(bpm.is_finite());
        assert!(!est.name().is_empty());
        est.reset();
    }
}

#[test]
fn classifier_trait_objects_work_for_oracle_and_forest() {
    let windows = tiny_windows(4);
    let rf = RandomForest::train(&windows, RandomForestConfig::default()).unwrap();
    let classifiers: Vec<Box<dyn ActivityClassifier>> = vec![
        Box::new(ppg_models::traits::OracleActivityClassifier::new()),
        Box::new(rf),
    ];
    for c in &classifiers {
        let activity = c.classify(&windows[0]).unwrap();
        assert!(Activity::ALL.contains(&activity));
    }
    let _ = SubjectId(0);
}

/// A labels-only window carries no signal: every model that reads one
/// returns a typed error instead of a prediction, while the calibrated
/// surrogate, which reads only labels, still predicts.
#[test]
fn signal_models_reject_labels_only_windows() {
    let labels = DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(16.0)
        .seed(3)
        .synthesis(Synthesis::LabelsOnly)
        .build()
        .unwrap()
        .windows();
    let window = &labels[0];
    assert!(window.is_empty());

    let is_typed = |result: Result<f32, ModelError>| {
        matches!(
            result,
            Err(ModelError::InvalidWindow { .. } | ModelError::Dsp(_))
        )
    };
    let mut estimators: Vec<Box<dyn HrEstimator>> = vec![
        Box::new(TimePpg::new(TimePpgVariant::Small).unwrap()),
        Box::new(SpectralPeak::new()),
        Box::new(AdaptiveThreshold::new()),
    ];
    for estimator in &mut estimators {
        let result = estimator.predict(window);
        assert!(is_typed(result.clone()), "{}: {result:?}", estimator.name());
    }
    let forest = RandomForest::train(
        &tiny_windows(3),
        RandomForestConfig {
            n_trees: 2,
            ..RandomForestConfig::default()
        },
    )
    .unwrap();
    let classified = forest.classify(window);
    assert!(
        matches!(classified, Err(ModelError::Dsp(_))),
        "random forest: {classified:?}"
    );

    let mut surrogate = CalibratedEstimator::new(ModelKind::TimePpgBig, 1);
    assert!(surrogate.predict(window).is_ok());
}
