//! Golden `RunReport` snapshots: every field of a CHRIS run report,
//! including the per-state energy breakdown, the per-configuration usage and
//! the per-activity errors, is byte-compared against a committed fixture.
//!
//! The fleet fixtures only serialize `DeviceReport`s, which never show those
//! three maps. These cases pin them under the run shapes that exercise every
//! branch of the runtime loop: both link states in one run, a run that never
//! connects, a run that charges the activity classifier, and an energy
//! budget.
//!
//! If a change is *meant* to move the numbers, regenerate the fixtures with
//!
//! ```text
//! UPDATE_FIXTURES=1 cargo test -p chris-core --test run_report_golden
//! ```
//!
//! and call the change out in the PR description.

use chris_core::prelude::*;
use hw_sim::ble::ConnectionSchedule;
use hw_sim::units::Energy;
use ppg_data::{DatasetBuilder, LabeledWindow, Synthesis};

fn windows() -> Vec<LabeledWindow> {
    DatasetBuilder::new()
        .subjects(2)
        .seconds_per_activity(24.0)
        .seed(42)
        .synthesis(Synthesis::LabelsOnly)
        .build()
        .unwrap()
        .windows()
}

struct Case {
    name: &'static str,
    constraint: UserConstraint,
    schedule: ConnectionSchedule,
    classifier_energy: Energy,
}

fn cases() -> [Case; 4] {
    [
        // Both link states in one run: two selections and a `radio_tx` entry.
        Case {
            name: "duty-cycle-max-mae",
            constraint: UserConstraint::MaxMae(5.6),
            schedule: ConnectionSchedule::DutyCycle { up: 5, down: 2 },
            classifier_energy: Energy::ZERO,
        },
        Case {
            name: "never-connected",
            constraint: UserConstraint::MaxMae(5.6),
            schedule: ConnectionSchedule::NeverConnected,
            classifier_energy: Energy::ZERO,
        },
        // A charged classifier adds an `acquire` entry.
        Case {
            name: "classifier-energy",
            constraint: UserConstraint::MaxMae(8.0),
            schedule: ConnectionSchedule::DutyCycle { up: 3, down: 1 },
            classifier_energy: Energy::from_microjoules(50.0),
        },
        Case {
            name: "max-energy",
            constraint: UserConstraint::MaxEnergy(Energy::from_microjoules(300.0)),
            schedule: ConnectionSchedule::DutyCycle { up: 4, down: 1 },
            classifier_energy: Energy::ZERO,
        },
    ]
}

#[test]
fn run_reports_are_byte_stable() {
    let windows = windows();
    let zoo = ModelZoo::paper_setup();
    let engine = DecisionEngine::new(
        Profiler::new(&zoo)
            .profile_all(&windows, ProfilingOptions::default())
            .unwrap(),
    );
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let update = std::env::var_os("UPDATE_FIXTURES").is_some();
    for case in &cases() {
        let options = RuntimeOptions {
            classifier_energy: case.classifier_energy,
            ..RuntimeOptions::default()
        };
        let report = ChrisRuntime::new(zoo.clone(), engine.clone(), options)
            .run(&windows, &case.constraint, &case.schedule)
            .unwrap();
        let fresh = format!("{}\n", serde_json::to_string_pretty(&report).unwrap());
        let path = fixtures.join(format!("run-report-{}.json", case.name));
        if update {
            std::fs::create_dir_all(&fixtures).unwrap();
            std::fs::write(&path, &fresh).unwrap();
            continue;
        }
        let golden =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(
            fresh, golden,
            "the {} run report drifted from its golden fixture; if this change \
             is intentional, regenerate it with:\n  \
             UPDATE_FIXTURES=1 cargo test -p chris-core --test run_report_golden",
            case.name
        );
    }
}
