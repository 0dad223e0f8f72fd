//! Run reports produced by the CHRIS runtime.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use hw_sim::power_state::PowerState;
use hw_sim::units::{Energy, Power};
use ppg_data::Activity;
use ppg_dsp::stats::ErrorAccumulator;
use ppg_models::zoo::ModelKind;

use crate::config::Configuration;

/// The totals of one run, as
/// [`ChrisRuntime::run_totals`](crate::runtime::ChrisRuntime::run_totals)
/// returns them: the scalars of a [`RunReport`] plus what its label-keyed
/// maps are built from, in fixed-size arrays, so the value holds nothing on
/// the heap. [`RunReport::from`] builds the report.
#[derive(Debug, Clone, PartialEq)]
pub struct RunTotals {
    /// Number of windows processed.
    pub windows: usize,
    /// Mean absolute error over all windows, in BPM.
    pub mae_bpm: f32,
    /// Root-mean-square error over all windows, in BPM.
    pub rmse_bpm: f32,
    /// Total smartwatch energy over the run.
    pub total_watch_energy: Energy,
    /// Average smartwatch energy per prediction.
    pub avg_watch_energy: Energy,
    /// Total phone energy over the run.
    pub total_phone_energy: Energy,
    /// Average phone energy per prediction.
    pub avg_phone_energy: Energy,
    /// Fraction of windows offloaded to the phone.
    pub offload_fraction: f32,
    /// Fraction of windows handled by the simple model of the active pair.
    pub simple_fraction: f32,
    /// Fraction of windows processed while the BLE link was down.
    pub disconnected_fraction: f32,
    /// Smartwatch energy per power state, indexed by [`PowerState::index`];
    /// `None` for a state never entered, so a state entered at zero energy
    /// still shows up in the report's breakdown.
    pub watch_energy_by_state: [Option<Energy>; PowerState::ALL.len()],
    /// The errors of each activity's windows, indexed by
    /// [`Activity::index`].
    pub per_activity: [ErrorAccumulator; Activity::COUNT],
    /// The configuration selected for each link status (index 0 connected,
    /// 1 disconnected) and the windows it handled; `None` for a status no
    /// window had.
    pub selections: [Option<(Configuration, usize)>; 2],
    /// Windows offloaded to the phone.
    pub offloaded: usize,
    /// Predictions per model, indexed by [`ModelKind::index`]: with
    /// `windows` and `offloaded`, the counts the run published (see
    /// [`crate::metrics::record_run`]).
    pub invocations: [u64; ModelKind::ALL.len()],
}

impl RunTotals {
    /// Average smartwatch power over the run, as
    /// [`RunReport::avg_watch_power`] computes it.
    pub fn avg_watch_power(&self) -> Power {
        watch_power(self.avg_watch_energy)
    }
}

/// Average smartwatch power of `avg_energy` spent every 2-second prediction
/// period: what [`RunTotals::avg_watch_power`] and
/// [`RunReport::avg_watch_power`] compute, for callers that keep only the
/// average energy of a run.
pub fn watch_power(avg_energy: Energy) -> Power {
    Power::from_milliwatts(avg_energy.as_millijoules() / hw_sim::PREDICTION_PERIOD_S)
}

/// Aggregated result of running CHRIS over a sequence of windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct RunReport {
    /// Number of windows processed.
    pub windows: usize,
    /// Mean absolute error over all windows, in BPM.
    pub mae_bpm: f32,
    /// Root-mean-square error over all windows, in BPM.
    pub rmse_bpm: f32,
    /// Total smartwatch energy over the run.
    pub total_watch_energy: Energy,
    /// Average smartwatch energy per prediction.
    pub avg_watch_energy: Energy,
    /// Total phone energy over the run.
    pub total_phone_energy: Energy,
    /// Average phone energy per prediction.
    pub avg_phone_energy: Energy,
    /// Fraction of windows offloaded to the phone.
    pub offload_fraction: f32,
    /// Fraction of windows handled by the simple model of the active pair.
    pub simple_fraction: f32,
    /// Fraction of windows processed while the BLE link was down.
    pub disconnected_fraction: f32,
    /// Smartwatch energy broken down by power state (compute / radio / sleep),
    /// keyed by the state name.
    pub watch_energy_breakdown: BTreeMap<String, Energy>,
    /// Per-activity MAE, keyed by activity name.
    pub per_activity_mae: BTreeMap<String, f32>,
    /// How many windows each selected configuration handled, keyed by the
    /// configuration label.
    pub configuration_usage: BTreeMap<String, usize>,
}

impl RunReport {
    /// Average smartwatch power over the run (energy per prediction divided by
    /// the 2-second prediction period).
    pub fn avg_watch_power(&self) -> Power {
        watch_power(self.avg_watch_energy)
    }

    /// Records usage of a configuration for `count` windows.
    pub(crate) fn record_configuration(&mut self, configuration: &Configuration, count: usize) {
        *self
            .configuration_usage
            .entry(configuration.label())
            .or_insert(0) += count;
    }
}

impl From<RunTotals> for RunReport {
    /// Builds the report's label-keyed maps: power states and activities
    /// in their declaration order, entered states and activities with at
    /// least one window only, and one usage entry per selected
    /// configuration.
    fn from(totals: RunTotals) -> Self {
        let mut report = RunReport {
            windows: totals.windows,
            mae_bpm: totals.mae_bpm,
            rmse_bpm: totals.rmse_bpm,
            total_watch_energy: totals.total_watch_energy,
            avg_watch_energy: totals.avg_watch_energy,
            total_phone_energy: totals.total_phone_energy,
            avg_phone_energy: totals.avg_phone_energy,
            offload_fraction: totals.offload_fraction,
            simple_fraction: totals.simple_fraction,
            disconnected_fraction: totals.disconnected_fraction,
            watch_energy_breakdown: PowerState::ALL
                .iter()
                .zip(totals.watch_energy_by_state)
                .filter_map(|(state, energy)| Some((state.name().to_string(), energy?)))
                .collect(),
            per_activity_mae: Activity::ALL
                .iter()
                .zip(&totals.per_activity)
                .filter(|(_, acc)| acc.count() > 0)
                .map(|(activity, acc)| (activity.name().to_string(), acc.mae().unwrap_or(0.0)))
                .collect(),
            configuration_usage: BTreeMap::new(),
        };
        for (configuration, count) in totals.selections.iter().flatten() {
            report.record_configuration(configuration, *count);
        }
        report
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "CHRIS run over {} windows", self.windows)?;
        writeln!(
            f,
            "  MAE                 : {:.2} BPM (RMSE {:.2})",
            self.mae_bpm, self.rmse_bpm
        )?;
        writeln!(
            f,
            "  smartwatch energy   : {} per prediction ({} total, {:.3} mW average)",
            self.avg_watch_energy,
            self.total_watch_energy,
            self.avg_watch_power().as_milliwatts()
        )?;
        writeln!(
            f,
            "  phone energy        : {} per prediction",
            self.avg_phone_energy
        )?;
        writeln!(
            f,
            "  offloaded / simple  : {:.1} % / {:.1} % of windows",
            self.offload_fraction * 100.0,
            self.simple_fraction * 100.0
        )?;
        if self.disconnected_fraction > 0.0 {
            writeln!(
                f,
                "  link down           : {:.1} % of windows",
                self.disconnected_fraction * 100.0
            )?;
        }
        if !self.watch_energy_breakdown.is_empty() {
            writeln!(f, "  energy breakdown    :")?;
            for (state, energy) in &self.watch_energy_breakdown {
                writeln!(f, "    {state:<10} {energy}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DifficultyThreshold, ExecutionTarget};
    use ppg_models::zoo::ModelKind;

    fn report() -> RunReport {
        RunReport {
            windows: 100,
            mae_bpm: 5.5,
            rmse_bpm: 7.0,
            total_watch_energy: Energy::from_millijoules(40.0),
            avg_watch_energy: Energy::from_millijoules(0.4),
            total_phone_energy: Energy::from_millijoules(2000.0),
            avg_phone_energy: Energy::from_millijoules(20.0),
            offload_fraction: 0.8,
            simple_fraction: 0.2,
            disconnected_fraction: 0.1,
            watch_energy_breakdown: BTreeMap::from([
                ("compute".to_string(), Energy::from_millijoules(10.0)),
                ("radio_tx".to_string(), Energy::from_millijoules(30.0)),
            ]),
            per_activity_mae: BTreeMap::from([
                ("resting".to_string(), 3.0),
                ("table soccer".to_string(), 8.0),
            ]),
            configuration_usage: BTreeMap::new(),
        }
    }

    #[test]
    fn average_power_is_energy_over_period() {
        let r = report();
        assert!((r.avg_watch_power().as_milliwatts() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn configuration_usage_tracking() {
        let mut r = report();
        let config = Configuration::new(
            ModelKind::AdaptiveThreshold,
            ModelKind::TimePpgBig,
            DifficultyThreshold::new(8).unwrap(),
            ExecutionTarget::Hybrid,
        )
        .unwrap();
        r.record_configuration(&config, 30);
        r.record_configuration(&config, 20);
        assert_eq!(
            r.configuration_usage,
            BTreeMap::from([(config.label(), 50)])
        );
    }

    #[test]
    fn display_mentions_key_quantities() {
        let text = report().to_string();
        assert!(text.contains("MAE"));
        assert!(text.contains("5.50"));
        assert!(text.contains("offloaded"));
        assert!(text.contains("link down"));
        assert!(text.contains("radio_tx"));
    }

    #[test]
    fn default_report_is_empty() {
        let r = RunReport::default();
        assert_eq!(r.windows, 0);
        assert!(r.configuration_usage.is_empty());
    }

    #[test]
    fn serde_round_trip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: RunReport = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
