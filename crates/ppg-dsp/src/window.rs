//! Sliding-window extraction over sampled signals.
//!
//! The paper slices every 32 Hz stream into 256-sample (8 s) windows with a
//! 64-sample (2 s) stride before feeding them to the HR predictors and the
//! activity classifier. [`SlidingWindows`] provides exactly that iteration.

use crate::DspError;

/// Iterator over fixed-size, fixed-stride windows of a slice.
///
/// Produced by [`sliding_windows`]; windows are borrowed sub-slices, so the
/// iteration allocates nothing.
///
/// # Examples
///
/// ```
/// use ppg_dsp::window::sliding_windows;
///
/// let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
/// let windows: Vec<&[f32]> = sliding_windows(&data, 4, 2)?.collect();
/// assert_eq!(windows.len(), 4);
/// assert_eq!(windows[0], &[0.0, 1.0, 2.0, 3.0]);
/// assert_eq!(windows[3], &[6.0, 7.0, 8.0, 9.0]);
/// # Ok::<(), ppg_dsp::DspError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SlidingWindows<'a, T> {
    data: &'a [T],
    size: usize,
    stride: usize,
    pos: usize,
}

impl<'a, T> Iterator for SlidingWindows<'a, T> {
    type Item = &'a [T];

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos + self.size > self.data.len() {
            return None;
        }
        let out = &self.data[self.pos..self.pos + self.size];
        self.pos += self.stride;
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = count_windows_from(self.data.len(), self.size, self.stride, self.pos);
        (n, Some(n))
    }
}

impl<T> ExactSizeIterator for SlidingWindows<'_, T> {}

fn count_windows_from(len: usize, size: usize, stride: usize, pos: usize) -> usize {
    if pos + size > len {
        0
    } else {
        (len - pos - size) / stride + 1
    }
}

/// Returns an iterator over `size`-sample windows of `data` spaced `stride`
/// samples apart.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `size` or `stride` is zero.
pub fn sliding_windows<T>(
    data: &[T],
    size: usize,
    stride: usize,
) -> Result<SlidingWindows<'_, T>, DspError> {
    if size == 0 {
        return Err(DspError::InvalidParameter {
            op: "sliding_windows",
            name: "size",
            requirement: "must be non-zero",
        });
    }
    if stride == 0 {
        return Err(DspError::InvalidParameter {
            op: "sliding_windows",
            name: "stride",
            requirement: "must be non-zero",
        });
    }
    Ok(SlidingWindows {
        data,
        size,
        stride,
        pos: 0,
    })
}

/// Number of complete windows of `size` samples with the given `stride` that
/// fit in a signal of `len` samples.
///
/// ```
/// use ppg_dsp::window::window_count;
/// // A 60-second recording at 32 Hz, 8 s windows, 2 s stride.
/// assert_eq!(window_count(60 * 32, 256, 64), 27);
/// // Too short for even one window.
/// assert_eq!(window_count(100, 256, 64), 0);
/// ```
pub fn window_count(len: usize, size: usize, stride: usize) -> usize {
    if size == 0 || stride == 0 {
        return 0;
    }
    count_windows_from(len, size, stride, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_size() {
        let data = [1.0f32; 8];
        assert!(matches!(
            sliding_windows(&data, 0, 2),
            Err(DspError::InvalidParameter { name: "size", .. })
        ));
    }

    #[test]
    fn rejects_zero_stride() {
        let data = [1.0f32; 8];
        assert!(matches!(
            sliding_windows(&data, 4, 0),
            Err(DspError::InvalidParameter { name: "stride", .. })
        ));
    }

    #[test]
    fn empty_when_signal_shorter_than_window() {
        let data = [1.0f32; 8];
        let mut it = sliding_windows(&data, 16, 4).unwrap();
        assert_eq!(it.len(), 0);
        assert!(it.next().is_none());
    }

    #[test]
    fn exact_fit_produces_single_window() {
        let data: Vec<f32> = (0..256).map(|i| i as f32).collect();
        let windows: Vec<_> = sliding_windows(&data, 256, 64).unwrap().collect();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].len(), 256);
    }

    #[test]
    fn paper_windowing_counts() {
        // 2 minutes at 32 Hz -> (3840 - 256) / 64 + 1 = 57 windows.
        let data = vec![0.0f32; 2 * 60 * 32];
        assert_eq!(window_count(data.len(), 256, 64), 57);
        let n = sliding_windows(&data, 256, 64).unwrap().count();
        assert_eq!(n, 57);
    }

    #[test]
    fn size_hint_matches_count() {
        let data = vec![0.0f32; 1000];
        let it = sliding_windows(&data, 256, 64).unwrap();
        let hint = it.len();
        assert_eq!(hint, it.count());
    }

    #[test]
    fn windows_overlap_correctly() {
        let data: Vec<i32> = (0..12).collect();
        let w: Vec<&[i32]> = sliding_windows(&data, 6, 3).unwrap().collect();
        assert_eq!(w.len(), 3);
        assert_eq!(w[0], &[0, 1, 2, 3, 4, 5]);
        assert_eq!(w[1], &[3, 4, 5, 6, 7, 8]);
        assert_eq!(w[2], &[6, 7, 8, 9, 10, 11]);
    }

    #[test]
    fn count_zero_for_degenerate_parameters() {
        assert_eq!(window_count(100, 0, 4), 0);
        assert_eq!(window_count(100, 4, 0), 0);
    }
}
