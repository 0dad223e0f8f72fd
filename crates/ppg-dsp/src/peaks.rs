//! Peak detection and derivative-sign-change counting.
//!
//! Two consumers in this workspace rely on this module:
//!
//! * the Adaptive-Threshold HR estimator identifies *regions of interest*
//!   where the raw PPG rises above its rolling mean and takes the maximum of
//!   each region as a beat ([`regions_above`], [`region_maxima`]);
//! * the activity-recognition feature extractor counts discrete-derivative
//!   sign changes per accelerometer axis ([`count_sign_changes`]).

use crate::DspError;

/// A contiguous index range `[start, end)` where a signal satisfies a
/// condition (for example, exceeds its rolling mean).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First index inside the region.
    pub start: usize,
    /// One past the last index inside the region.
    pub end: usize,
}

impl Region {
    /// Number of samples in the region.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the region is empty (never produced by the detectors here).
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Finds the contiguous regions where `signal[i] > threshold[i]`.
///
/// # Errors
///
/// Returns [`DspError::LengthMismatch`] if the two slices differ in length and
/// [`DspError::EmptyInput`] if they are empty.
pub fn regions_above(signal: &[f32], threshold: &[f32]) -> Result<Vec<Region>, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            op: "regions_above",
        });
    }
    if signal.len() != threshold.len() {
        return Err(DspError::LengthMismatch {
            op: "regions_above",
            left: signal.len(),
            right: threshold.len(),
        });
    }
    let mut regions = Vec::new();
    let mut start: Option<usize> = None;
    for i in 0..signal.len() {
        let above = signal[i] > threshold[i];
        match (above, start) {
            (true, None) => start = Some(i),
            (false, Some(s)) => {
                regions.push(Region { start: s, end: i });
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        regions.push(Region {
            start: s,
            end: signal.len(),
        });
    }
    Ok(regions)
}

/// Returns, for each region, the index of the largest sample inside it.
///
/// Regions shorter than `min_len` samples are discarded; this suppresses
/// single-sample noise spikes that would otherwise be counted as beats.
pub fn region_maxima(signal: &[f32], regions: &[Region], min_len: usize) -> Vec<usize> {
    regions
        .iter()
        .filter(|r| r.len() >= min_len.max(1))
        .map(|r| {
            let mut best = r.start;
            for i in r.start..r.end {
                if signal[i] > signal[best] {
                    best = i;
                }
            }
            best
        })
        .collect()
}

/// Counts the sign changes of the discrete derivative of `signal`.
///
/// This is the "number of peaks" feature used by the paper's
/// activity-recognition random forest. Zero-derivative plateaus are ignored.
pub fn count_sign_changes(signal: &[f32]) -> usize {
    let mut count = 0usize;
    let mut last_sign = 0i8;
    for pair in signal.windows(2) {
        let d = pair[1] - pair[0];
        let sign = if d > 0.0 {
            1i8
        } else if d < 0.0 {
            -1i8
        } else {
            0i8
        };
        if sign != 0 {
            if last_sign != 0 && sign != last_sign {
                count += 1;
            }
            last_sign = sign;
        }
    }
    count
}

/// Converts the mean inter-peak distance (in samples) into beats per minute.
///
/// Returns `None` when fewer than two peaks are available or the mean distance
/// is zero.
pub fn peaks_to_bpm(peaks: &[usize], sample_rate_hz: f32) -> Option<f32> {
    if peaks.len() < 2 {
        return None;
    }
    let total: usize = peaks.windows(2).map(|p| p[1] - p[0]).sum();
    let mean_interval = total as f32 / (peaks.len() - 1) as f32;
    if mean_interval <= 0.0 {
        return None;
    }
    Some(60.0 * sample_rate_hz / mean_interval)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_above_basic() {
        let signal = [0.0, 2.0, 3.0, 0.0, 0.0, 5.0, 6.0, 7.0];
        let threshold = [1.0; 8];
        let regions = regions_above(&signal, &threshold).unwrap();
        assert_eq!(
            regions,
            vec![Region { start: 1, end: 3 }, Region { start: 5, end: 8 }]
        );
    }

    #[test]
    fn regions_above_open_region_at_end() {
        let signal = [0.0, 2.0];
        let threshold = [1.0, 1.0];
        let regions = regions_above(&signal, &threshold).unwrap();
        assert_eq!(regions, vec![Region { start: 1, end: 2 }]);
        assert_eq!(regions[0].len(), 1);
        assert!(!regions[0].is_empty());
    }

    #[test]
    fn regions_above_errors() {
        assert!(regions_above(&[], &[]).is_err());
        assert!(regions_above(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn region_maxima_picks_largest_sample() {
        let signal = [0.0, 2.0, 3.0, 1.0, 0.0, 5.0, 7.0, 6.0];
        let regions = vec![Region { start: 1, end: 4 }, Region { start: 5, end: 8 }];
        let maxima = region_maxima(&signal, &regions, 1);
        assert_eq!(maxima, vec![2, 6]);
    }

    #[test]
    fn region_maxima_filters_short_regions() {
        let signal = [0.0, 2.0, 0.0, 5.0, 6.0, 4.0];
        let regions = vec![Region { start: 1, end: 2 }, Region { start: 3, end: 6 }];
        let maxima = region_maxima(&signal, &regions, 2);
        assert_eq!(maxima, vec![4]);
    }

    #[test]
    fn sign_changes_of_monotone_signal_is_zero() {
        let signal: Vec<f32> = (0..20).map(|i| i as f32).collect();
        assert_eq!(count_sign_changes(&signal), 0);
    }

    #[test]
    fn sign_changes_of_triangle_wave() {
        // up, down, up, down -> 3 changes
        let signal = [0.0, 1.0, 2.0, 1.0, 0.0, 1.0, 2.0, 1.0];
        assert_eq!(count_sign_changes(&signal), 3);
    }

    #[test]
    fn sign_changes_ignores_plateaus() {
        let signal = [0.0, 1.0, 1.0, 1.0, 2.0, 1.0];
        assert_eq!(count_sign_changes(&signal), 1);
    }

    #[test]
    fn peaks_to_bpm_from_regular_peaks() {
        // Peaks every 32 samples at 32 Hz -> 1 Hz -> 60 BPM.
        let peaks: Vec<usize> = (0..8).map(|i| i * 32).collect();
        let bpm = peaks_to_bpm(&peaks, 32.0).unwrap();
        assert!((bpm - 60.0).abs() < 1e-3);
    }

    #[test]
    fn peaks_to_bpm_requires_two_peaks() {
        assert!(peaks_to_bpm(&[10], 32.0).is_none());
        assert!(peaks_to_bpm(&[], 32.0).is_none());
    }
}
