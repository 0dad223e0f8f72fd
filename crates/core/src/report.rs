//! Run reports produced by the CHRIS runtime.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use hw_sim::units::Energy;

use crate::config::Configuration;

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
    pub fn avg_watch_power(&self) -> hw_sim::units::Power {
        hw_sim::units::Power::from_milliwatts(
            self.avg_watch_energy.as_millijoules() / hw_sim::PREDICTION_PERIOD_S,
        )
    }

    /// Records usage of a configuration for `count` windows.
    pub(crate) fn record_configuration(&mut self, configuration: &Configuration, count: usize) {
        *self
            .configuration_usage
            .entry(configuration.label())
            .or_insert(0) += count;
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
