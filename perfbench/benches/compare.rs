//! Compare mode: two result sets (JSON lines written by `--record`), one
//! per commit, judged per workload × end-to-end metric.
//!
//! For each pair it prints both sides' median and quartiles, the change as a
//! share of the base median (with the base), the win fraction over the runs
//! paired in recording order (record the two commits alternately), and a
//! verdict:
//!
//! * `improved` — the head wins at least 9 in 10 pairs and the medians
//!   differ by more than the base's own quartile spread;
//! * `unresolved` — the base's quartile spread, as a share of its median,
//!   is wider than the metric's bound, and the head's runs do not all beat
//!   the base's;
//! * `regressed` — the head median is worse than the base median by more
//!   than the bound;
//! * `no worse within bound` — otherwise.
//!
//! Bounds and directions come from `BENCHMARK.json`.

use std::collections::BTreeMap;
use std::path::Path;

use serde::{map_field, Deserialize, Value};

use crate::stats::{median, quartiles};

/// Captures a raw JSON tree (the vendored serde parses into typed values
/// only).
struct Json(Value);

impl Deserialize for Json {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        Ok(Json(value.clone()))
    }
}

fn parse(text: &str, what: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(text)
        .map(|json| json.0)
        .map_err(|e| format!("{what}: {e}"))
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_map()
        .and_then(|entries| map_field(entries, key).ok())
}

/// An end-to-end metric's declared direction and bound.
struct Declared {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(spec: &Path) -> Result<Vec<Declared>, String> {
    let text = std::fs::read_to_string(spec).map_err(|e| format!("{}: {e}", spec.display()))?;
    let doc = parse(&text, &spec.display().to_string())?;
    let list = field(&doc, "end_to_end")
        .and_then(Value::as_seq)
        .ok_or("the spec has no end_to_end list")?;
    list.iter()
        .map(|entry| {
            let text = |key: &str| {
                field(entry, key)
                    .and_then(Value::as_str)
                    .map(str::to_string)
            };
            Ok(Declared {
                name: text("name").ok_or("a metric has no name")?,
                unit: text("unit").unwrap_or_default(),
                lower_is_better: text("better").as_deref() == Some("lower"),
                bound: field(entry, "bound")
                    .and_then(Value::as_f64)
                    .ok_or("a metric has no bound")?,
            })
        })
        .collect()
}

/// workload → metric → values, in recording order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn load(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let record = parse(line, &format!("{path}:{}", number + 1))?;
        if field(&record, "correct").and_then(Value::as_bool) != Some(true) {
            continue;
        }
        let workload = field(&record, "workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{path}:{}: no workload", number + 1))?;
        let metrics = field(&record, "end_to_end")
            .and_then(Value::as_map)
            .unwrap_or(&[]);
        let per_workload = runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(value) = value.as_f64() {
                per_workload.entry(name.clone()).or_default().push(value);
            }
        }
    }
    Ok(runs)
}

/// The verdict on one workload × metric.
pub fn verdict(
    base: &[f64],
    head: &[f64],
    lower_is_better: bool,
    bound: f64,
) -> (&'static str, f64) {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let pairs = base.len().min(head.len());
    let wins = (0..pairs).filter(|&i| better(head[i], base[i])).count();
    let win_frac = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let (q1, mb, q3) = quartiles(base);
    let mh = median(head);
    let worse_by = if lower_is_better { mh - mb } else { mb - mh } / mb;
    let every_head_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    let verdict = if win_frac >= 0.9 && better(mh, mb) && (mh - mb).abs() > q3 - q1 {
        "improved"
    } else if (q3 - q1) / mb > bound && !every_head_better {
        "unresolved"
    } else if worse_by > bound {
        "regressed"
    } else {
        "no worse within bound"
    };
    (verdict, win_frac)
}

/// Prints the comparison.
///
/// # Errors
///
/// A message when a file cannot be read or parsed.
pub fn run(base: &str, head: &str, spec: &Path) -> Result<(), String> {
    let declared = declared(spec)?;
    let (base_runs, head_runs) = (load(base)?, load(head)?);
    for (workload, base_metrics) in &base_runs {
        let Some(head_metrics) = head_runs.get(workload) else {
            println!("{workload}: no head runs");
            continue;
        };
        println!("{workload}:");
        for metric in &declared {
            let (Some(b), Some(h)) = (
                base_metrics.get(&metric.name),
                head_metrics.get(&metric.name),
            ) else {
                continue;
            };
            let (bq1, bm, bq3) = quartiles(b);
            let (hq1, hm, hq3) = quartiles(h);
            let (verdict, win_frac) = verdict(b, h, metric.lower_is_better, metric.bound);
            println!(
                "  {:<20} base {bm:.4} [{bq1:.4}, {bq3:.4}] (n={}), head {hm:.4} [{hq1:.4}, {hq3:.4}] (n={}) {}; \
                 change {:+.2}% of base {bm:.4}; base spread {:.2}% of base {bm:.4}; \
                 wins {:.0}% of {} pairs; bound {:.0}% -> {verdict}",
                metric.name,
                b.len(),
                h.len(),
                metric.unit,
                100.0 * (hm - bm) / bm,
                100.0 * (bq3 - bq1) / bm,
                100.0 * win_frac,
                b.len().min(h.len()),
                100.0 * metric.bound,
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_pairing_and_bound_rules() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 99.9, 100.3, 100.0,
        ];
        let faster: Vec<f64> = base.iter().map(|v| v * 0.9).collect();
        let slower: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        let same: Vec<f64> = base.iter().rev().copied().collect();
        assert_eq!(verdict(&base, &faster, true, 0.1).0, "improved");
        assert_eq!(verdict(&base, &faster, true, 0.1).1, 1.0);
        assert_eq!(verdict(&base, &slower, true, 0.1).0, "regressed");
        assert_eq!(verdict(&base, &same, true, 0.1).0, "no worse within bound");
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(verdict(&noisy, &slower, true, 0.1).0, "unresolved");
        // Higher-is-better metrics flip every comparison.
        assert_eq!(verdict(&base, &slower, false, 0.1).0, "improved");
    }
}
