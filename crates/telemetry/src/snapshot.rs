//! Serializable, mergeable point-in-time metric snapshots.

use serde::{Deserialize, Serialize};

use crate::error::TelemetryError;
use crate::registry::Stability;

/// One counter series: identity, metadata, and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSample {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Stability class.
    pub stability: Stability,
    /// Counter value.
    pub value: u64,
}

/// One gauge series: identity, metadata, and value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSample {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Stability class.
    pub stability: Stability,
    /// Gauge value.
    pub value: i64,
}

/// One histogram series: identity, metadata, bucket layout and contents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSample {
    /// Metric name.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
    /// Help text.
    pub help: String,
    /// Stability class.
    pub stability: Stability,
    /// Bucket upper bounds (strictly increasing; `+Inf` implicit).
    pub bounds: Vec<u64>,
    /// Per-bucket observation counts (same length as `bounds`,
    /// non-cumulative).
    pub buckets: Vec<u64>,
    /// Saturating sum of all observations.
    pub sum: u64,
    /// Total observation count (also the implicit `+Inf` cumulative value).
    pub count: u64,
}

/// A point-in-time capture of a [`Registry`](crate::Registry): three
/// kind-segregated sample lists, each sorted by `(name, labels)` so equal
/// registries produce byte-identical serializations.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter series.
    pub counters: Vec<CounterSample>,
    /// Gauge series.
    pub gauges: Vec<GaugeSample>,
    /// Histogram series.
    pub histograms: Vec<HistogramSample>,
}

impl MetricsSnapshot {
    /// Whether the snapshot holds no series at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Total number of series across all kinds.
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.histograms.len()
    }

    /// The value of a counter series, if present.
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let mut sorted: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
            .collect();
        sorted.sort();
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == sorted)
            .map(|c| c.value)
    }

    /// Merges two snapshots into a new one: counters add (saturating),
    /// gauges take the maximum, histograms add bucket-wise. Series present
    /// in only one side pass through. The merge is commutative and
    /// associative, so folding any number of shard snapshots in any order
    /// yields the same result.
    ///
    /// # Errors
    ///
    /// [`TelemetryError::MergeConflict`] when both sides define the same
    /// series with different metadata or bucket layouts, or the same name
    /// with different kinds.
    pub fn merged(&self, other: &MetricsSnapshot) -> Result<MetricsSnapshot, TelemetryError> {
        let mut out = MetricsSnapshot {
            counters: merge_samples(
                &self.counters,
                &other.counters,
                |s| (s.name.clone(), s.labels.clone()),
                |a, b| {
                    check_common(&a.name, &a.help, a.stability, &b.help, b.stability)?;
                    Ok(CounterSample {
                        value: a.value.saturating_add(b.value),
                        ..a.clone()
                    })
                },
            )?,
            gauges: merge_samples(
                &self.gauges,
                &other.gauges,
                |s| (s.name.clone(), s.labels.clone()),
                |a, b| {
                    check_common(&a.name, &a.help, a.stability, &b.help, b.stability)?;
                    Ok(GaugeSample {
                        value: a.value.max(b.value),
                        ..a.clone()
                    })
                },
            )?,
            histograms: merge_samples(
                &self.histograms,
                &other.histograms,
                |s| (s.name.clone(), s.labels.clone()),
                |a, b| {
                    check_common(&a.name, &a.help, a.stability, &b.help, b.stability)?;
                    if a.bounds != b.bounds {
                        return Err(TelemetryError::MergeConflict {
                            name: a.name.clone(),
                            detail: "histogram bucket bounds differ".to_string(),
                        });
                    }
                    Ok(HistogramSample {
                        buckets: a
                            .buckets
                            .iter()
                            .zip(&b.buckets)
                            .map(|(x, y)| x.saturating_add(*y))
                            .collect(),
                        sum: a.sum.saturating_add(b.sum),
                        count: a.count.saturating_add(b.count),
                        ..a.clone()
                    })
                },
            )?,
        };
        check_kind_collisions(&out)?;
        out.counters
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out.gauges
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        out.histograms
            .sort_by(|a, b| (&a.name, &a.labels).cmp(&(&b.name, &b.labels)));
        Ok(out)
    }
}

fn check_common(
    name: &str,
    help_a: &str,
    stab_a: Stability,
    help_b: &str,
    stab_b: Stability,
) -> Result<(), TelemetryError> {
    if help_a != help_b {
        return Err(TelemetryError::MergeConflict {
            name: name.to_string(),
            detail: "help text differs".to_string(),
        });
    }
    if stab_a != stab_b {
        return Err(TelemetryError::MergeConflict {
            name: name.to_string(),
            detail: "stability differs".to_string(),
        });
    }
    Ok(())
}

fn merge_samples<T: Clone>(
    a: &[T],
    b: &[T],
    key: impl Fn(&T) -> (String, Vec<(String, String)>),
    combine: impl Fn(&T, &T) -> Result<T, TelemetryError>,
) -> Result<Vec<T>, TelemetryError> {
    let mut out: Vec<T> = a.to_vec();
    for sample in b {
        let k = key(sample);
        if let Some(existing) = out.iter_mut().find(|s| key(s) == k) {
            *existing = combine(existing, sample)?;
        } else {
            out.push(sample.clone());
        }
    }
    Ok(out)
}

fn check_kind_collisions(snap: &MetricsSnapshot) -> Result<(), TelemetryError> {
    for c in &snap.counters {
        if snap.gauges.iter().any(|g| g.name == c.name)
            || snap.histograms.iter().any(|h| h.name == c.name)
        {
            return Err(TelemetryError::MergeConflict {
                name: c.name.clone(),
                detail: "same name used by different instrument kinds".to_string(),
            });
        }
    }
    for g in &snap.gauges {
        if snap.histograms.iter().any(|h| h.name == g.name) {
            return Err(TelemetryError::MergeConflict {
                name: g.name.clone(),
                detail: "same name used by different instrument kinds".to_string(),
            });
        }
    }
    Ok(())
}
