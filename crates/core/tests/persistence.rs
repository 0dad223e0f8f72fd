//! Serialization round-trips for the artifacts CHRIS persists: the profiled
//! configuration table (what the paper stores in the MCU flash) and run
//! reports (what the evaluation scripts consume).

use chris_core::prelude::*;
use hw_sim::ble::ConnectionSchedule;
use hw_sim::units::Energy;
use ppg_data::DatasetBuilder;

fn engine() -> (ModelZoo, DecisionEngine) {
    let windows = DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(20.0)
        .seed(55)
        .build()
        .unwrap()
        .windows();
    let zoo = ModelZoo::paper_setup();
    let profiler = Profiler::new(&zoo);
    let table = profiler
        .profile_all(&windows, ProfilingOptions::default())
        .unwrap();
    (zoo, DecisionEngine::new(table))
}

#[test]
fn profile_table_round_trips_through_json() {
    let (_, engine) = engine();
    let json = serde_json::to_string_pretty(engine.profiles()).unwrap();
    assert!(json.contains("watch_energy"));
    let restored: Vec<ConfigurationProfile> = serde_json::from_str(&json).unwrap();
    assert_eq!(restored.len(), engine.len());
    let rebuilt = DecisionEngine::new(restored);
    // Selections are identical after the round trip.
    for mae in [5.0f32, 5.6, 7.2, 12.0] {
        let a = engine.select(&UserConstraint::MaxMae(mae), ConnectionStatus::Connected);
        let b = rebuilt.select(&UserConstraint::MaxMae(mae), ConnectionStatus::Connected);
        assert_eq!(
            a.map(|p| p.configuration),
            b.map(|p| p.configuration),
            "MAE {mae}"
        );
    }
}

#[test]
fn decision_engine_round_trips_through_json() {
    let (_, engine) = engine();
    let json = serde_json::to_string(&engine).unwrap();
    let restored: DecisionEngine = serde_json::from_str(&json).unwrap();
    assert_eq!(restored.len(), engine.len());
    assert_eq!(
        restored.pareto(ConnectionStatus::Disconnected).len(),
        engine.pareto(ConnectionStatus::Disconnected).len()
    );
}

#[test]
fn a_table_stored_in_any_order_loads_as_new_would_build_it() {
    let (_, engine) = engine();
    // The stored shape is the profile list under one key.
    let json = serde_json::to_string(&engine).unwrap();
    let profiles_json = serde_json::to_string(engine.profiles()).unwrap();
    assert_eq!(json, format!("{{\"profiles\":{profiles_json}}}"));

    // A table edited or written by hand in another order.
    let mut shuffled = engine.profiles().to_vec();
    shuffled.reverse();
    shuffled.rotate_left(7);
    let stored = format!(
        "{{\"profiles\":{}}}",
        serde_json::to_string(&shuffled).unwrap()
    );
    let restored: DecisionEngine = serde_json::from_str(&stored).unwrap();
    let built = DecisionEngine::new(shuffled);
    // Rows tied on energy and MAE keep their stored order, so the engine
    // equals one built from the same list, not necessarily `engine`.
    assert_eq!(restored, built);
    for pair in restored.profiles().windows(2) {
        assert!(pair[0].watch_energy <= pair[1].watch_energy);
    }
    let constraints = [5.0f32, 5.6, 7.2, 12.0]
        .map(UserConstraint::MaxMae)
        .into_iter()
        .chain(
            [0.2, 0.35, 0.6, 5.0].map(|mj| UserConstraint::MaxEnergy(Energy::from_millijoules(mj))),
        );
    for constraint in constraints {
        for status in ConnectionStatus::ALL {
            let pick = |engine: &DecisionEngine| {
                engine
                    .select_or_closest(&constraint, status)
                    .map(|p| p.configuration)
            };
            assert_eq!(pick(&restored), pick(&built), "{constraint} {status:?}");
        }
        assert_eq!(restored.plan(&constraint), built.plan(&constraint));
    }
    // Saving the loaded engine writes the sorted table.
    assert_eq!(
        serde_json::to_string(&restored).unwrap(),
        serde_json::to_string(&built).unwrap()
    );
}

#[test]
fn run_report_round_trips_through_json() {
    let (zoo, engine) = engine();
    let windows = DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(20.0)
        .seed(56)
        .build()
        .unwrap()
        .windows();
    let mut runtime = ChrisRuntime::new(zoo, engine, RuntimeOptions::default());
    let report = runtime
        .run(
            &windows,
            &UserConstraint::MaxMae(6.0),
            &ConnectionSchedule::DutyCycle { up: 3, down: 1 },
        )
        .unwrap();
    let json = serde_json::to_string(&report).unwrap();
    let restored: RunReport = serde_json::from_str(&json).unwrap();
    // JSON prints f64 with shortest-round-trip formatting; compare fields with
    // a tight tolerance instead of bitwise equality.
    assert_eq!(report.windows, restored.windows);
    assert_eq!(report.mae_bpm, restored.mae_bpm);
    assert_eq!(report.configuration_usage, restored.configuration_usage);
    assert_eq!(report.per_activity_mae, restored.per_activity_mae);
    assert!(
        (report.total_watch_energy.as_microjoules() - restored.total_watch_energy.as_microjoules())
            .abs()
            < 1e-6
    );
    for (state, energy) in &report.watch_energy_breakdown {
        let other = restored.watch_energy_breakdown[state];
        assert!((energy.as_microjoules() - other.as_microjoules()).abs() < 1e-6);
    }
    assert!(json.contains("per_activity_mae"));
    assert!(json.contains("watch_energy_breakdown"));
}

#[test]
fn configuration_labels_are_stable_identifiers() {
    let (_, engine) = engine();
    let mut labels: Vec<String> = engine
        .profiles()
        .iter()
        .map(|p| p.configuration.label())
        .collect();
    labels.sort();
    labels.dedup();
    assert_eq!(
        labels.len(),
        60,
        "labels must uniquely identify configurations"
    );
}
