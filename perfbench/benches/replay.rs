//! The traced device replay: one simulated device driven through the
//! layers' public functions in program order — scenario → synthesis (or
//! cache) → window extraction → CHRIS runtime → device report — with a span
//! around each call.
//!
//! It mirrors what `fleet::simulate_device` does inside the executor, so its
//! per-device results must equal the untraced run's `DeviceReport`s; the
//! workloads check that on every traced run.

use chris_core::runtime::{ChrisRuntime, RuntimeOptions};
use chris_core::{DecisionEngine, UserConstraint};
use fleet::executor::BATTERY_LIFE_CAP_HOURS;
use fleet::{DeviceReport, DeviceScenario, ScenarioGenerator};
use hw_sim::battery::{Battery, HWATCH_BATTERY_VOLTAGE, HWATCH_CONVERTER_EFFICIENCY};
use ppg_data::{DatasetBuilder, LabeledWindow, WindowCache, WindowSource};
use ppg_models::zoo::ModelZoo;

use crate::trace::Trace;

/// Span names of the device replay.
pub const SCENARIO: &str = "fleet.scenario";
pub const SYNTH: &str = "ppg_data.synth";
pub const EXTRACT: &str = "ppg_data.extract";
pub const CACHE_HIT: &str = "ppg_data.cache.hit";
pub const CACHE_FILL: &str = "ppg_data.cache.fill";
pub const RUNTIME_BUILD: &str = "chris_core.runtime.build";
pub const RUNTIME: &str = "chris_core.runtime";
pub const DEVICE_REPORT: &str = "fleet.executor.device_report";

/// Every span a device replay records; a replay takes either the synthesis
/// or the cache path, so some stay empty.
pub const SPANS: [&str; 8] = [
    SCENARIO,
    SYNTH,
    EXTRACT,
    CACHE_FILL,
    CACHE_HIT,
    RUNTIME_BUILD,
    RUNTIME,
    DEVICE_REPORT,
];

/// Everything a device replay reads: the scenario generator and the shared,
/// profiled zoo and decision engine.
pub struct Model<'a> {
    pub generator: &'a ScenarioGenerator,
    pub zoo: &'a ModelZoo,
    pub engine: &'a DecisionEngine,
}

/// Replays device `id`. With a cache the windows come through
/// `DeviceScenario::cached_window_stream` (span `ppg_data.cache.hit` or
/// `.fill`); without one the session is built eagerly with
/// `DatasetBuilder::build` and its windows drained from each
/// `SessionRecording::window_stream`.
///
/// # Errors
///
/// A message naming the device and the failing layer.
pub fn replay_device(
    trace: &mut Trace,
    model: &Model<'_>,
    id: u64,
    cache: Option<&mut WindowCache>,
) -> Result<DeviceReport, String> {
    let fail = |layer: &str, e: &dyn std::fmt::Display| format!("device {id}: {layer}: {e}");
    let scenario = trace.span(SCENARIO, id, || model.generator.scenario(id), |_| 1);
    let options = RuntimeOptions {
        accounting: scenario.accounting,
        seed: scenario.dataset_seed,
        ..RuntimeOptions::default()
    };
    let mut runtime = trace.span(
        RUNTIME_BUILD,
        id,
        || ChrisRuntime::new(model.zoo.clone(), model.engine.clone(), options),
        |_| 1,
    );
    let run = match cache {
        Some(cache) => {
            let hits = cache.hits();
            let start = trace.spans().len();
            let stream = trace
                .span(
                    CACHE_FILL,
                    id,
                    || scenario.cached_window_stream(cache),
                    |s| s.as_ref().map_or(0, |s| s.size_hint().0 as u64),
                )
                .map_err(|e| fail("window cache", &e))?;
            if cache.hits() > hits {
                trace.rename(start, CACHE_HIT);
            }
            trace.span(
                RUNTIME,
                id,
                || runtime.run(stream, &scenario.constraint, &scenario.schedule),
                |r| r.as_ref().map_or(0, |r| r.windows as u64),
            )
        }
        None => {
            let dataset = trace
                .span(
                    SYNTH,
                    id,
                    || session_builder(&scenario).build(),
                    |d| d.as_ref().map_or(0, |d| window_total(d.recordings())),
                )
                .map_err(|e| fail("synthesis", &e))?;
            let windows = trace
                .span(
                    EXTRACT,
                    id,
                    || extract(dataset.recordings()),
                    |w| w.as_ref().map_or(0, |w| w.len() as u64),
                )
                .map_err(|e| fail("window extraction", &e))?;
            trace.span(
                RUNTIME,
                id,
                || runtime.run(&windows[..], &scenario.constraint, &scenario.schedule),
                |r| r.as_ref().map_or(0, |r| r.windows as u64),
            )
        }
    }
    .map_err(|e| fail("runtime", &e))?;
    trace
        .span(DEVICE_REPORT, id, || device_report(&scenario, &run), |_| 1)
        .map_err(|e| fail("battery model", &e))
}

/// The dataset builder describing a device's session, from the scenario's
/// public fields (the same parameters `DeviceScenario::window_stream` uses).
pub fn session_builder(scenario: &DeviceScenario) -> DatasetBuilder {
    DatasetBuilder::new()
        .subjects(1)
        .seconds_per_activity(scenario.seconds_per_activity)
        .seed(scenario.dataset_seed)
        .activities(&scenario.activities)
}

fn window_total(recordings: &[ppg_data::SessionRecording]) -> u64 {
    recordings.iter().map(|r| r.window_count() as u64).sum()
}

/// Drains every recording's window stream, in recording order.
pub fn extract(
    recordings: &[ppg_data::SessionRecording],
) -> Result<Vec<LabeledWindow>, ppg_data::DataError> {
    let mut windows = Vec::new();
    for recording in recordings {
        let mut stream = recording.window_stream();
        while let Some(window) = stream.next_window() {
            windows.push(window?);
        }
    }
    Ok(windows)
}

/// Battery projection and report assembly, as the executor does them.
fn device_report(
    scenario: &DeviceScenario,
    run: &chris_core::RunReport,
) -> Result<DeviceReport, hw_sim::HwError> {
    let battery = Battery::new(
        scenario.battery_capacity_mah,
        HWATCH_BATTERY_VOLTAGE,
        HWATCH_CONVERTER_EFFICIENCY,
    )?;
    let battery_life_hours =
        (battery.lifetime(run.avg_watch_power()).as_seconds() / 3600.0).min(BATTERY_LIFE_CAP_HOURS);
    let constraint_violated = match scenario.constraint {
        UserConstraint::MaxMae(target) => run.mae_bpm > target,
        UserConstraint::MaxEnergy(budget) => run.avg_watch_energy > budget,
    };
    Ok(DeviceReport {
        device_id: scenario.device_id,
        windows: run.windows,
        mae_bpm: run.mae_bpm,
        avg_watch_energy: run.avg_watch_energy,
        avg_phone_energy: run.avg_phone_energy,
        offload_fraction: run.offload_fraction,
        simple_fraction: run.simple_fraction,
        disconnected_fraction: run.disconnected_fraction,
        battery_life_hours,
        constraint: scenario.constraint,
        accounting: scenario.accounting,
        constraint_violated,
    })
}

/// Whether a traced device result matches the untraced one on what the
/// simulation models: windows, MAE, watch and phone energy, offload share.
pub fn same_result(traced: &DeviceReport, untraced: &DeviceReport) -> bool {
    traced.device_id == untraced.device_id
        && traced.windows == untraced.windows
        && traced.mae_bpm.to_bits() == untraced.mae_bpm.to_bits()
        && traced.avg_watch_energy == untraced.avg_watch_energy
        && traced.avg_phone_energy == untraced.avg_phone_energy
        && traced.offload_fraction.to_bits() == untraced.offload_fraction.to_bits()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::{FleetSimulation, ScenarioMix};

    /// The traced decomposition is the executor's device simulation, field
    /// for field, with and without the window cache.
    #[test]
    fn traced_decomposition_equals_simulate_device() {
        for mix in [ScenarioMix::balanced(), ScenarioMix::cohort()] {
            let sim = FleetSimulation::new(7, mix).unwrap();
            let model = Model {
                generator: sim.generator(),
                zoo: sim.zoo(),
                engine: sim.engine(),
            };
            let mut trace = Trace::new();
            let mut cache = WindowCache::new(16);
            for id in [0u64, 1, 17, 40] {
                let scenario = sim.generator().scenario(id);
                let expected = fleet::simulate_device(&scenario, sim.zoo(), sim.engine()).unwrap();
                let eager = replay_device(&mut trace, &model, id, None).unwrap();
                let cached = replay_device(&mut trace, &model, id, Some(&mut cache)).unwrap();
                assert_eq!(eager, expected, "eager replay of device {id}");
                assert_eq!(cached, expected, "cached replay of device {id}");
                assert!(same_result(&eager, &expected));
            }
            assert!(trace.total(SYNTH).items > 0);
            assert_eq!(trace.total(RUNTIME).spans, 8);
        }
    }
}
