//! The decision engine's indexed selections against the linear scans they
//! replaced, on arbitrary tables: any input order, NaN of both signs and
//! ±0 in MAE and energy, duplicate values, all-local, all-hybrid and empty
//! tables. Constraints come from every table value, its `next_up` /
//! `next_down` neighbours and random draws; the same row (not merely an
//! equal one) and the same error must come back.

use chris_core::prelude::*;
use hw_sim::units::Energy;
use proptest::prelude::*;

/// `select` as a scan: the first feasible row in table order minimizing
/// energy (`MaxMae`) or MAE (`MaxEnergy`) under `total_cmp`, among the rows
/// within the bound.
fn scan_select<'a>(
    engine: &'a DecisionEngine,
    constraint: &UserConstraint,
    status: ConnectionStatus,
) -> Option<&'a ConfigurationProfile> {
    match *constraint {
        UserConstraint::MaxMae(max_mae) => engine
            .feasible(status)
            .filter(|p| p.mae_bpm <= max_mae)
            .min_by(|a, b| {
                a.watch_energy
                    .as_microjoules()
                    .total_cmp(&b.watch_energy.as_microjoules())
            }),
        UserConstraint::MaxEnergy(max_energy) => engine
            .feasible(status)
            .filter(|p| p.watch_energy <= max_energy)
            .min_by(|a, b| a.mae_bpm.total_cmp(&b.mae_bpm)),
    }
}

/// `select_or_closest` as a scan, falling back to the most accurate
/// (`MaxMae`) or cheapest (`MaxEnergy`) feasible row.
fn scan_select_or_closest<'a>(
    engine: &'a DecisionEngine,
    constraint: &UserConstraint,
    status: ConnectionStatus,
) -> Result<&'a ConfigurationProfile, ChrisError> {
    constraint.validate()?;
    if engine.is_empty() {
        return Err(ChrisError::EmptyProfileTable);
    }
    if let Some(found) = scan_select(engine, constraint, status) {
        return Ok(found);
    }
    let fallback = match *constraint {
        UserConstraint::MaxMae(_) => engine
            .feasible(status)
            .min_by(|a, b| a.mae_bpm.total_cmp(&b.mae_bpm)),
        UserConstraint::MaxEnergy(_) => engine.feasible(status).min_by(|a, b| {
            a.watch_energy
                .as_microjoules()
                .total_cmp(&b.watch_energy.as_microjoules())
        }),
    };
    fallback.ok_or_else(|| ChrisError::NoFeasibleConfiguration {
        request: format!("{constraint} with {status:?} link"),
    })
}

/// The table position of a selected row, so a mismatch names rows.
fn row(engine: &DecisionEngine, selected: Option<&ConfigurationProfile>) -> Option<usize> {
    let selected = selected?;
    engine
        .profiles()
        .iter()
        .position(|p| std::ptr::eq(p, selected))
}

/// Checks every selection entry point on `engine` under `constraint`
/// against the scans.
fn check(engine: &DecisionEngine, constraint: &UserConstraint) -> Result<(), String> {
    let plan = engine.plan(constraint);
    if let Err(e) = constraint.validate() {
        if plan != Err(e.clone()) {
            return Err(format!("{constraint:?}: plan {plan:?}, expected {e:?}"));
        }
    }
    for status in ConnectionStatus::ALL {
        let case = format!("{constraint:?} {status:?}");
        let (indexed, scanned) = (
            engine.select(constraint, status),
            scan_select(engine, constraint, status),
        );
        if row(engine, indexed) != row(engine, scanned) {
            return Err(format!(
                "{case}: select row {:?}, scan row {:?}",
                row(engine, indexed),
                row(engine, scanned)
            ));
        }
        let (indexed, scanned) = (
            engine.select_or_closest(constraint, status),
            scan_select_or_closest(engine, constraint, status),
        );
        match (&indexed, &scanned) {
            (Ok(a), Ok(b)) if std::ptr::eq(*a, *b) => {}
            (Err(a), Err(b)) if a == b => {}
            _ => {
                return Err(format!(
                    "{case}: select_or_closest {:?}, scan {:?}",
                    indexed.map(|p| row(engine, Some(p))),
                    scanned.map(|p| row(engine, Some(p)))
                ))
            }
        }
        if let Ok(plan) = &plan {
            let expected = scanned.map(|p| p.configuration);
            if plan.selection(status) != expected.as_ref().copied() {
                return Err(format!(
                    "{case}: plan {:?}, scan {expected:?}",
                    plan.selection(status)
                ));
            }
        }
    }
    Ok(())
}

/// The constraints to check on `engine`: each table value and its
/// neighbours, `draws`, and bounds that fail validation.
fn constraints(engine: &DecisionEngine, draws: &[f64]) -> Vec<UserConstraint> {
    let mut maes = vec![f32::NAN, -f32::NAN, 0.0, -0.0, -1.0, f32::INFINITY];
    let mut energies = vec![f64::NAN, -f64::NAN, 0.0, -0.0, -1.0, f64::INFINITY];
    for p in engine.profiles() {
        maes.extend([p.mae_bpm, p.mae_bpm.next_up(), p.mae_bpm.next_down()]);
        let energy = p.watch_energy.as_microjoules();
        energies.extend([energy, energy.next_up(), energy.next_down()]);
    }
    maes.extend(draws.iter().map(|&d| d as f32));
    energies.extend(draws);
    let maes = maes.into_iter().map(UserConstraint::MaxMae);
    let energies = energies
        .into_iter()
        .map(|e| UserConstraint::MaxEnergy(Energy::from_microjoules(e)));
    maes.chain(energies).collect()
}

/// Values a row's MAE takes: NaN of both signs, ±0, infinities and a few
/// finite values, few enough that duplicates are common.
const SPECIAL_MAE: [f32; 10] = [
    f32::NAN,
    -f32::NAN,
    0.0,
    -0.0,
    f32::INFINITY,
    f32::NEG_INFINITY,
    -2.0,
    3.0,
    5.5,
    7.0,
];

/// [`SPECIAL_MAE`] for energies, in microjoules.
const SPECIAL_ENERGY: [f64; 10] = [
    f64::NAN,
    -f64::NAN,
    0.0,
    -0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    -2.0,
    3.0,
    5.5,
    7.0,
];

/// A row's value: `special[pick]`, or `draw` rounded to a half (so that
/// drawn values repeat too) for a `pick` past the end.
fn value<T: Copy>(special: &[T], pick: usize, draw: f64, from: impl Fn(f64) -> T) -> T {
    special
        .get(pick)
        .copied()
        .unwrap_or_else(|| from((draw * 2.0).round() / 2.0))
}

/// A profile row with the given MAE, energy and target.
fn profile(mae: f32, energy: f64, target: ExecutionTarget, row: usize) -> ConfigurationProfile {
    ConfigurationProfile {
        configuration: Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            DifficultyThreshold::new((row % 10) as u8).unwrap(),
            target,
        )
        .unwrap(),
        mae_bpm: mae,
        watch_energy: Energy::from_microjoules(energy),
        phone_energy: Energy::ZERO,
        offload_fraction: 0.0,
        simple_fraction: 0.5,
        windows: row,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn indexed_selections_equal_the_scans(
        rows in prop::collection::vec(
            (0usize..14, -3.0f64..9.0, 0usize..14, -3.0f64..9.0, prop::bool::ANY),
            0..20,
        ),
        targets in 0u8..4,
        draws in prop::collection::vec(-4.0f64..12.0, 4),
    ) {
        // Mixed targets twice as often as all-local or all-hybrid.
        let table = rows
            .iter()
            .enumerate()
            .map(|(i, &(mae_pick, mae_draw, energy_pick, energy_draw, hybrid))| {
                let hybrid = match targets {
                    0 => false,
                    1 => true,
                    _ => hybrid,
                };
                let target = if hybrid {
                    ExecutionTarget::Hybrid
                } else {
                    ExecutionTarget::Local
                };
                let mae = value(&SPECIAL_MAE, mae_pick, mae_draw, |d| d as f32);
                let energy = value(&SPECIAL_ENERGY, energy_pick, energy_draw, |d| d);
                profile(mae, energy, target, i)
            })
            .collect::<Vec<_>>();
        let engine = DecisionEngine::new(table);
        for constraint in constraints(&engine, &draws) {
            if let Err(e) = check(&engine, &constraint) {
                prop_assert!(false, "{e}\ntable {:?}", engine.profiles());
            }
        }
    }
}

#[test]
fn ties_go_to_the_total_cmp_minimum_then_the_earlier_row() {
    // Sorted: 4 (0.25 uJ, NaN), 2 (0.5, +0), 1 (1.0, -0), 0 (1.0, +0),
    // 3 (2.0, -0), 5 (3.0, -NaN). Rows 2 and 1 have equal MAEs under `==`
    // but not under `total_cmp`, so a 1 uJ budget selects the later row 1;
    // the first row within a `MaxMae` bound is the cheapest.
    let local = ExecutionTarget::Local;
    let engine = DecisionEngine::new(vec![
        profile(0.0, 1.0, local, 0),
        profile(-0.0, 1.0, local, 1),
        profile(0.0, 0.5, local, 2),
        profile(-0.0, 2.0, local, 3),
        profile(f32::NAN, 0.25, local, 4),
        profile(-f32::NAN, 3.0, local, 5),
    ]);
    for constraint in constraints(&engine, &[0.75, 1.5, 2.5]) {
        check(&engine, &constraint).unwrap();
    }
    let windows = |constraint: UserConstraint| {
        engine
            .select(&constraint, ConnectionStatus::Connected)
            .map(|p| p.windows)
    };
    assert_eq!(windows(UserConstraint::MaxMae(0.0)), Some(2));
    assert_eq!(
        windows(UserConstraint::MaxEnergy(Energy::from_microjoules(1.0))),
        Some(1)
    );
    assert_eq!(
        windows(UserConstraint::MaxEnergy(Energy::from_microjoules(3.0))),
        Some(5)
    );
    // An unmet budget falls back to the first row, NaN MAE or not.
    let unmet = engine
        .select_or_closest(
            &UserConstraint::MaxEnergy(Energy::ZERO),
            ConnectionStatus::Connected,
        )
        .unwrap();
    assert_eq!(unmet.windows, 4);
}

#[test]
fn empty_and_single_target_tables_match_the_scans() {
    let make = |targets: &[ExecutionTarget]| {
        DecisionEngine::new(
            targets
                .iter()
                .enumerate()
                .map(|(i, &target)| profile(9.0 - i as f32, 1.0 + i as f64, target, i))
                .collect(),
        )
    };
    let local = ExecutionTarget::Local;
    let hybrid = ExecutionTarget::Hybrid;
    for engine in [make(&[]), make(&[local; 4]), make(&[hybrid; 4])] {
        for constraint in constraints(&engine, &[2.5, 6.5]) {
            check(&engine, &constraint).unwrap();
        }
    }
}
