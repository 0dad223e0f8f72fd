//! Order statistics and digests shared by the workloads and compare mode.

/// The median of `values` (mean of the two middle values for even counts);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, computed exactly like
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones the acceptance check
/// computes. Needs at least two values; a single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The highest integer percentile `p` that leaves at least ten samples
/// strictly beyond its nearest-rank position, for `n` samples: 100 samples
/// give p90, 20 give p50. With ten or fewer samples no percentile has ten
/// beyond it, and the tail is the maximum (p100).
pub fn tail_percentile(n: usize) -> u32 {
    (1..=99u32)
        .rev()
        .find(|&p| n.saturating_sub(nearest_rank(p, n)) >= 10)
        .unwrap_or(100)
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn nearest_rank(p: u32, n: usize) -> usize {
    (p as usize * n).div_ceil(100).max(1)
}

/// The nearest-rank percentile `p` of `values`; `0.0` for an empty slice.
pub fn percentile(values: &[f64], p: u32) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[nearest_rank(p, sorted.len()).min(sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 64-bit FNV-1a digest: enough to detect any change in a report body.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), 90);
        assert_eq!(tail_percentile(1000), 99);
        assert_eq!(tail_percentile(20), 50);
        assert_eq!(tail_percentile(25), 60);
        assert_eq!(tail_percentile(10), 100);
        for n in 11..500 {
            let p = tail_percentile(n);
            assert!(n - nearest_rank(p, n) >= 10, "n={n} p={p}");
            if p < 99 {
                assert!(
                    n - nearest_rank(p + 1, n) < 10,
                    "n={n} p={p} is not the highest"
                );
            }
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 90), 90.0);
        assert_eq!(percentile(&values, 50), 50.0);
        assert_eq!(percentile(&values, 100), 100.0);
        assert_eq!(percentile(&[3.0], 90), 3.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        // == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), (2.75, 5.5, 8.25));
        // statistics.quantiles([5, 1, 4], n=4) == [1.0, 4.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0]), (1.0, 4.0, 5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn digest_separates_single_byte_changes() {
        assert_ne!(fnv1a64(b"{\"devices\": 1}"), fnv1a64(b"{\"devices\": 2}"));
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
