//! `benchmark compare --base <files…> --head <files…>`: the parent-vs-
//! change rule, per (metric, workload).
//!
//! For each pairing it prints both sides' medians and quartiles, the share
//! of (base i, head i) pairs the head wins, and a verdict:
//!
//! - **improved** — the head wins at least 90% of the pairs (ties count
//!   for neither) and the medians differ by more than the base's own
//!   interquartile range;
//! - **unresolved** — either side's interquartile range, as a share of the
//!   base median, is wider than the metric's bound, and not every head run
//!   beats every base run;
//! - **worse** — the head median is worse than the base median by more
//!   than the bound;
//! - **no change** — otherwise.
//!
//! Bounds come from the `end_to_end` entries of `BENCHMARK.json`.
//! Per-layer metrics have no bound: they are improved or worse only by
//! the 90%-of-pairs rule and otherwise read "no change".

use crate::stats::{median, quartiles};
use secloc_obs::json::JsonValue;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoChange,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoChange => "no change",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How one side compares with the other on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub base: (f64, f64, f64),
    pub head: (f64, f64, f64),
    /// Share of pairs the head wins.
    pub wins: f64,
    /// Share of pairs the head loses.
    pub losses: f64,
    /// How much worse the head median is, as a share of the base median
    /// (negative when better).
    pub worse_by: f64,
    pub verdict: Verdict,
}

/// Applies the rule to one metric. `bound` is `None` for unbounded
/// (per-layer) metrics.
pub fn compare(
    base: &[f64],
    head: &[f64],
    higher_is_better: bool,
    bound: Option<f64>,
) -> Comparison {
    let better = |h: f64, b: f64| if higher_is_better { h > b } else { h < b };
    let pairs = base.len().min(head.len()).max(1) as f64;
    let wins = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(h, b))
        .count() as f64
        / pairs;
    let losses = base
        .iter()
        .zip(head)
        .filter(|&(&b, &h)| better(b, h))
        .count() as f64
        / pairs;
    let bq = quartiles(base);
    let hq = quartiles(head);
    let (bm, hm) = (median(base), median(head));
    let scale = bm.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better {
        (bm - hm) / scale
    } else {
        (hm - bm) / scale
    };
    let base_iqr = bq.2 - bq.0;
    let spread = base_iqr.max(hq.2 - hq.0) / scale;
    let separated = (hm - bm).abs() > base_iqr;
    let all_better = head.iter().all(|&h| base.iter().all(|&b| better(h, b)));
    let verdict = if wins >= 0.9 && separated && worse_by < 0.0 {
        Verdict::Improved
    } else {
        match bound {
            Some(bound) if spread > bound && !all_better => Verdict::Unresolved,
            Some(bound) if worse_by > bound => Verdict::Worse,
            Some(_) => Verdict::NoChange,
            None if losses >= 0.9 && separated && worse_by > 0.0 => Verdict::Worse,
            None => Verdict::NoChange,
        }
    };
    Comparison {
        base: bq,
        head: hq,
        wins,
        losses,
        worse_by,
        verdict,
    }
}

/// One result file: the JSON object on its last line that has `metrics`
/// (an `--out` file, or captured stdout).
#[derive(Debug)]
struct Sample {
    workload: String,
    metrics: BTreeMap<String, f64>,
}

fn load(path: &str) -> Result<Sample, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = text
        .lines()
        .rev()
        .filter_map(|l| JsonValue::parse(l.trim()).ok())
        .find(|v| v.get("metrics").is_some())
        .ok_or_else(|| format!("{path}: no result line"))?;
    let workload = doc
        .get("workload")
        .and_then(|v| v.as_str())
        .unwrap_or("?")
        .to_string();
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or_else(|| format!("{path}: metrics is not an object"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Sample { workload, metrics })
}

/// Bound and direction per metric name, from a `BENCHMARK.json`.
fn bounds(bench_json: &str) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let doc = JsonValue::parse(bench_json).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(|v| v.as_array()).unwrap_or(&[]) {
            let (Some(name), Some(better)) = (
                m.get("name").and_then(|v| v.as_str()),
                m.get("better").and_then(|v| v.as_str()),
            ) else {
                continue;
            };
            let bound = m.get("bound").and_then(|v| v.as_f64());
            out.insert(name.to_string(), (better == "higher", bound));
        }
    }
    Ok(out)
}

/// Runs the subcommand; returns the report and whether any metric is
/// worse.
pub fn run(
    base_files: &[String],
    head_files: &[String],
    bench_json: &str,
) -> Result<(String, bool), String> {
    let bounds = bounds(bench_json)?;
    type Series = BTreeMap<(String, String), Vec<f64>>;
    let collect = |files: &[String]| -> Result<Series, String> {
        let mut series = Series::new();
        for f in files {
            let s = load(f)?;
            for (name, v) in s.metrics {
                series
                    .entry((s.workload.clone(), name))
                    .or_default()
                    .push(v);
            }
        }
        Ok(series)
    };
    let base = collect(base_files)?;
    let head = collect(head_files)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:<32} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "base p50", "head p50", "IQR/p50", "wins", "bound"
    );
    let mut any_worse = false;
    for ((workload, name), b) in &base {
        let Some(h) = head.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(&(higher, bound)) = bounds.get(name) else {
            continue;
        };
        let c = compare(b, h, higher, bound);
        any_worse |= c.verdict == Verdict::Worse;
        let spread =
            (c.base.2 - c.base.0).max(c.head.2 - c.head.0) / c.base.1.abs().max(f64::MIN_POSITIVE);
        let _ = writeln!(
            out,
            "{:<16} {:<32} {:>12.4} {:>12.4} {:>8.4} {:>7.2} {:>7}  {}",
            workload,
            name,
            c.base.1,
            c.head.1,
            spread,
            c.wins,
            bound.map_or("-".to_string(), |b| format!("{b}")),
            c.verdict.label()
        );
    }
    Ok((out, any_worse))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center * (1.0 + j)).collect()
    }

    const J: [f64; 10] = [
        -0.01, 0.0, 0.01, -0.005, 0.005, 0.002, -0.002, 0.008, -0.008, 0.0,
    ];

    #[test]
    fn same_distribution_is_no_change() {
        let c = compare(&around(100.0, &J), &around(100.0, &J[..]), true, Some(0.1));
        assert_eq!(c.verdict, Verdict::NoChange);
    }

    #[test]
    fn clear_throughput_gain_is_improved() {
        let c = compare(&around(100.0, &J), &around(120.0, &J), true, Some(0.1));
        assert_eq!(c.verdict, Verdict::Improved);
        assert_eq!(c.wins, 1.0);
        assert!(c.worse_by < 0.0);
    }

    #[test]
    fn lower_is_better_flips_the_direction() {
        let c = compare(&around(10.0, &J), &around(8.0, &J), false, Some(0.1));
        assert_eq!(c.verdict, Verdict::Improved);
        let c = compare(&around(10.0, &J), &around(12.0, &J), false, Some(0.1));
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn loss_beyond_the_bound_is_worse_and_within_it_is_not() {
        let c = compare(&around(100.0, &J), &around(85.0, &J), true, Some(0.1));
        assert_eq!(c.verdict, Verdict::Worse);
        let c = compare(&around(100.0, &J), &around(95.0, &J), true, Some(0.1));
        assert_eq!(c.verdict, Verdict::NoChange);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let wide = [-0.3, 0.3, -0.2, 0.2, 0.0, -0.25, 0.25, 0.1, -0.1, 0.05];
        let c = compare(&around(100.0, &wide), &around(97.0, &wide), true, Some(0.1));
        assert_eq!(c.verdict, Verdict::Unresolved);
    }

    #[test]
    fn unbounded_metrics_need_nine_tenths_of_pairs() {
        let c = compare(&around(50.0, &J), &around(70.0, &J), false, None);
        assert_eq!(c.verdict, Verdict::Worse);
        let c = compare(&around(50.0, &J), &around(50.2, &J), false, None);
        assert_eq!(c.verdict, Verdict::NoChange);
    }

    #[test]
    fn run_groups_by_workload_and_metric() {
        let dir =
            std::path::Path::new(".bench_tmp").join(format!("compare-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let write = |name: &str, tp: f64| {
            let path = dir.join(name);
            std::fs::write(
                &path,
                format!(
                    "noise\n{{\"workload\":\"paper_run\",\"metrics\":{{\"throughput\":{{\"value\":{tp},\"unit\":\"1/s\"}}}}}}\n"
                ),
            )
            .unwrap();
            path.to_string_lossy().into_owned()
        };
        let base: Vec<String> = [100.0, 101.0, 99.0]
            .iter()
            .enumerate()
            .map(|(i, &v)| write(&format!("b{i}"), v))
            .collect();
        let head: Vec<String> = [100.5, 100.0, 99.5]
            .iter()
            .enumerate()
            .map(|(i, &v)| write(&format!("h{i}"), v))
            .collect();
        let bench = r#"{"end_to_end":[{"name":"throughput","unit":"1/s","better":"higher","bound":0.1}],"per_layer":[]}"#;
        let (report, worse) = run(&base, &head, bench).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!worse);
        assert!(report.contains("paper_run"), "{report}");
        assert!(report.contains("no change"), "{report}");
    }
}
