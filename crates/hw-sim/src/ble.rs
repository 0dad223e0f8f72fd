//! BLE link model and connection-availability schedules.
//!
//! The paper's offloaded windows stream the raw 8-second window (PPG + 3-axis
//! accelerometer) to the phone over BLE 5.0; Table III reports the smartwatch
//! cost of that transfer as a fixed 10.24 ms / 0.52 mJ per window, independent
//! of the HR model executed remotely. [`BleLink`] reproduces that cost model
//! (and lets ablations change it), while [`ConnectionSchedule`] describes when
//! the link is available so the decision engine can fall back to local-only
//! configurations, as CHRIS does when the connection is lost.

use serde::{Deserialize, Serialize};

use crate::error::HwError;
use crate::units::{Energy, Power, TimeSpan};
use crate::WINDOW_PAYLOAD_BYTES;

/// BLE transmission latency per offloaded window reported in Table III.
pub const BLE_WINDOW_TX_MS: f64 = 10.24;
/// Smartwatch-side BLE energy per offloaded window reported in Table III.
pub const BLE_WINDOW_TX_MJ: f64 = 0.52;

/// Smartwatch-side model of the BLE link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BleLink {
    /// Effective application throughput in bytes per second.
    pub throughput_bytes_per_s: f64,
    /// Radio power while transmitting.
    pub tx_power: Power,
    /// Fixed per-transfer overhead (connection event scheduling, ACKs).
    pub overhead: TimeSpan,
    /// Whether the link is currently connected.
    pub connected: bool,
}

impl Default for BleLink {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

impl BleLink {
    /// Link calibrated to the paper's per-window cost: transferring the
    /// 2048-byte window payload takes 10.24 ms and 0.52 mJ on the smartwatch.
    pub fn paper_calibrated() -> Self {
        let tx_time_s = BLE_WINDOW_TX_MS / 1e3;
        Self {
            throughput_bytes_per_s: WINDOW_PAYLOAD_BYTES as f64 / tx_time_s,
            tx_power: Power::from_milliwatts(BLE_WINDOW_TX_MJ / tx_time_s),
            overhead: TimeSpan::ZERO,
            connected: true,
        }
    }

    /// Creates a link from raw parameters.
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidParameter`] if the throughput is not positive.
    pub fn new(
        throughput_bytes_per_s: f64,
        tx_power: Power,
        overhead: TimeSpan,
    ) -> Result<Self, HwError> {
        if throughput_bytes_per_s <= 0.0 {
            return Err(HwError::InvalidParameter {
                name: "throughput_bytes_per_s",
                requirement: "must be positive",
            });
        }
        Ok(Self {
            throughput_bytes_per_s,
            tx_power,
            overhead,
            connected: true,
        })
    }

    /// Time to transfer `bytes` of payload.
    pub fn transfer_time(&self, bytes: usize) -> TimeSpan {
        self.overhead + TimeSpan::from_seconds(bytes as f64 / self.throughput_bytes_per_s)
    }

    /// Smartwatch-side energy to transfer `bytes` of payload.
    pub fn transfer_energy(&self, bytes: usize) -> Energy {
        self.tx_power * self.transfer_time(bytes)
    }

    /// Cost (time and energy) of offloading one analysis window, i.e.
    /// transferring [`WINDOW_PAYLOAD_BYTES`].
    ///
    /// # Errors
    ///
    /// Returns [`HwError::LinkDown`] when the link is disconnected.
    pub fn offload_window(&self) -> Result<(TimeSpan, Energy), HwError> {
        if !self.connected {
            return Err(HwError::LinkDown);
        }
        Ok((
            self.transfer_time(WINDOW_PAYLOAD_BYTES),
            self.transfer_energy(WINDOW_PAYLOAD_BYTES),
        ))
    }
}

/// Availability of the BLE connection over a sequence of analysis windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ConnectionSchedule {
    /// The link is up for every window.
    AlwaysConnected,
    /// The link is down for every window.
    NeverConnected,
    /// The link alternates: up for `up` windows, then down for `down` windows.
    DutyCycle {
        /// Consecutive windows with the link up.
        up: usize,
        /// Consecutive windows with the link down.
        down: usize,
    },
}

impl ConnectionSchedule {
    /// Whether the link is available for window `index`.
    pub fn is_connected(&self, index: usize) -> bool {
        match self {
            ConnectionSchedule::AlwaysConnected => true,
            ConnectionSchedule::NeverConnected => false,
            ConnectionSchedule::DutyCycle { up, down } => {
                let period = up + down;
                if period == 0 {
                    true
                } else {
                    index % period < *up
                }
            }
        }
    }

    /// Which link statuses the first `n` windows reach: `[connected,
    /// disconnected]`, each `true` iff [`ConnectionSchedule::is_connected`]
    /// takes that value on some window below `n`. Constant time.
    pub fn reaches(&self, n: usize) -> [bool; 2] {
        match *self {
            _ if n == 0 => [false; 2],
            ConnectionSchedule::AlwaysConnected => [true, false],
            ConnectionSchedule::NeverConnected => [false, true],
            // A zero-period duty cycle is always connected.
            ConnectionSchedule::DutyCycle { up, down } => [up > 0 || down == 0, down > 0 && n > up],
        }
    }

    /// Fraction of the first `n` windows during which the link is up.
    pub fn availability(&self, n: usize) -> f64 {
        if n == 0 {
            return 1.0;
        }
        (0..n).filter(|&i| self.is_connected(i)).count() as f64 / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_calibrated_window_cost() {
        let link = BleLink::paper_calibrated();
        let (t, e) = link.offload_window().unwrap();
        assert!((t.as_millis() - BLE_WINDOW_TX_MS).abs() < 1e-6, "time {t}");
        assert!(
            (e.as_millijoules() - BLE_WINDOW_TX_MJ).abs() < 1e-6,
            "energy {e}"
        );
    }

    #[test]
    fn default_is_paper_calibrated() {
        assert_eq!(BleLink::default(), BleLink::paper_calibrated());
    }

    #[test]
    fn transfer_scales_with_bytes() {
        let link = BleLink::paper_calibrated();
        let half = link.transfer_energy(WINDOW_PAYLOAD_BYTES / 2);
        let full = link.transfer_energy(WINDOW_PAYLOAD_BYTES);
        assert!((full.as_millijoules() / half.as_millijoules() - 2.0).abs() < 1e-6);
        assert!(link.transfer_time(0) == link.overhead);
    }

    #[test]
    fn disconnected_link_refuses_offload() {
        let mut link = BleLink::paper_calibrated();
        link.connected = false;
        assert!(matches!(link.offload_window(), Err(HwError::LinkDown)));
        link.connected = true;
        assert!(link.offload_window().is_ok());
    }

    #[test]
    fn new_validates_throughput() {
        assert!(BleLink::new(0.0, Power::from_milliwatts(10.0), TimeSpan::ZERO).is_err());
        let link = BleLink::new(
            100_000.0,
            Power::from_milliwatts(10.0),
            TimeSpan::from_millis(2.0),
        )
        .unwrap();
        // 1000 bytes at 100 kB/s = 10 ms + 2 ms overhead.
        assert!((link.transfer_time(1000).as_millis() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_always_and_never() {
        assert!(ConnectionSchedule::AlwaysConnected.is_connected(123));
        assert!(!ConnectionSchedule::NeverConnected.is_connected(0));
        assert_eq!(ConnectionSchedule::AlwaysConnected.availability(10), 1.0);
        assert_eq!(ConnectionSchedule::NeverConnected.availability(10), 0.0);
    }

    #[test]
    fn schedule_duty_cycle() {
        let s = ConnectionSchedule::DutyCycle { up: 3, down: 1 };
        assert!(s.is_connected(0));
        assert!(s.is_connected(2));
        assert!(!s.is_connected(3));
        assert!(s.is_connected(4));
        assert!((s.availability(8) - 0.75).abs() < 1e-9);
        // Degenerate zero-period duty cycle counts as connected.
        assert!(ConnectionSchedule::DutyCycle { up: 0, down: 0 }.is_connected(5));
        // Empty horizon is fully available by convention.
        assert_eq!(s.availability(0), 1.0);
    }

    #[test]
    fn reaches_marks_the_statuses_of_the_first_windows() {
        assert_eq!(
            ConnectionSchedule::AlwaysConnected.reaches(9),
            [true, false]
        );
        assert_eq!(ConnectionSchedule::NeverConnected.reaches(9), [false, true]);
        let duty = ConnectionSchedule::DutyCycle { up: 3, down: 2 };
        assert_eq!(duty.reaches(3), [true, false]);
        assert_eq!(duty.reaches(4), [true, true]);
        assert_eq!(
            ConnectionSchedule::DutyCycle { up: 0, down: 2 }.reaches(1),
            [false, true]
        );
        assert_eq!(
            ConnectionSchedule::DutyCycle { up: 2, down: 0 }.reaches(9),
            [true, false]
        );
        assert_eq!(
            ConnectionSchedule::DutyCycle { up: 0, down: 0 }.reaches(9),
            [true, false]
        );
        for schedule in [ConnectionSchedule::AlwaysConnected, duty] {
            assert_eq!(schedule.reaches(0), [false, false]);
        }
    }
}
