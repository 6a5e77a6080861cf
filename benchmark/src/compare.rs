//! `perf --compare OLD.json NEW.json`: one row per (workload, metric).
//!
//! An end-to-end metric regresses when NEW's median is worse than OLD's
//! by more than the metric's bound. Where the run-to-run spread (the
//! wider interquartile range of the two sides, as a share of OLD's
//! median) exceeds the bound, the pair is reported `unresolved`, never
//! as unchanged. `failed_share` has an absolute bound of zero and is
//! judged on the worst run of each side, not the median: one failing run
//! in NEW is a regression. A workload or an end-to-end metric that OLD
//! has and NEW lacks is a regression too — a change that drops a
//! workload, or stops converging inside the window, must not pass by
//! leaving no row. Per-layer metrics are listed with their change and
//! judged by nobody — they explain, they do not gate.
//!
//! The two files must have been measured the same way (same window, same
//! number of runs, both full or both quick); otherwise their statistics
//! are different quantities and the comparison is refused.

use crate::json::{self, Value};
use crate::runner::validate;
use std::path::Path;
use std::process::ExitCode;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Improved,
    Unresolved,
    Regression,
    /// Only NEW has it: nothing to judge against.
    Added,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
            Verdict::Regression => "REGRESSION",
            Verdict::Added => "only in NEW",
        }
    }
}

/// Median and quartiles of one side of a comparison.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

/// By how much of OLD's median NEW is worse (negative: better).
pub fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - old) / old.abs().max(f64::MIN_POSITIVE);
    if lower_is_better {
        change
    } else {
        -change
    }
}

pub fn judge(old: Side, new: Side, lower_is_better: bool, bound: f64) -> Verdict {
    let base = old.median.abs().max(f64::MIN_POSITIVE);
    let spread = (old.q3 - old.q1).max(new.q3 - new.q1) / base;
    let w = worsening(old.median, new.median, lower_is_better);
    if spread > bound {
        Verdict::Unresolved
    } else if w > bound {
        Verdict::Regression
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// `failed_share`: any rise of the worst run is a regression.
pub fn judge_failed_share(old_worst: f64, new_worst: f64) -> Verdict {
    if new_worst > old_worst {
        Verdict::Regression
    } else if new_worst < old_worst {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

fn side(m: &Value) -> Option<Side> {
    Some(Side {
        median: m.get("median")?.as_f64()?,
        q1: m.get("q1")?.as_f64()?,
        q3: m.get("q3")?.as_f64()?,
    })
}

/// The worst (largest) of a metric's per-run values.
fn worst(m: &Value) -> Option<f64> {
    m.get("values")?
        .as_arr()?
        .iter()
        .filter_map(Value::as_f64)
        .reduce(f64::max)
}

/// One row of the end-to-end table.
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub old: Option<Side>,
    pub new: Option<Side>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Refuses two files that were not measured the same way.
fn check_same_config(old: &Value, new: &Value) -> Result<(), String> {
    for key in ["seconds", "runs", "quick"] {
        let of = |doc: &Value| doc.get("config").and_then(|c| c.get(key)).cloned();
        let (o, n) = (of(old), of(new));
        if o != n || o.is_none() {
            let show = |v: Option<Value>| v.map_or_else(|| "missing".to_string(), |v| v.compact());
            return Err(format!(
                "OLD and NEW were not measured the same way: config.{key} is {} in OLD and {} in NEW",
                show(o),
                show(n)
            ));
        }
    }
    Ok(())
}

fn workloads(doc: &Value) -> &[(String, Value)] {
    doc.get("workloads").map(Value::fields).unwrap_or(&[])
}

/// The end-to-end metrics of `workload` on one side, if it ran there.
fn end_to_end_of<'a>(side: &'a [(String, Value)], workload: &str) -> Option<&'a [(String, Value)]> {
    let (_, entry) = side.iter().find(|(name, _)| name == workload)?;
    Some(entry.get("end_to_end").map(Value::fields).unwrap_or(&[]))
}

/// The end-to-end rows: every (workload, metric) of OLD, in OLD's order,
/// then what only NEW has.
pub fn end_to_end_rows(old: &Value, new: &Value) -> Vec<Row> {
    let (old_w, new_w) = (workloads(old), workloads(new));
    let only_new = new_w
        .iter()
        .filter(|(n, _)| !old_w.iter().any(|(o, _)| o == n));
    let mut rows = Vec::new();
    for (workload, _) in old_w.iter().chain(only_new) {
        let old_e2e = end_to_end_of(old_w, workload);
        let new_e2e = end_to_end_of(new_w, workload);
        let row = |metric: &str, old: Option<Side>, new: Option<Side>, bound, verdict| Row {
            workload: workload.clone(),
            metric: metric.to_string(),
            old,
            new,
            bound,
            verdict,
        };
        let (Some(old_e2e), Some(new_e2e)) = (old_e2e, new_e2e) else {
            // The whole workload is on one side only.
            let verdict = if old_e2e.is_some() {
                Verdict::Regression
            } else {
                Verdict::Added
            };
            rows.push(row("(workload)", None, None, 0.0, verdict));
            continue;
        };
        for (metric, o) in old_e2e {
            let bound = o.get("bound").and_then(Value::as_f64).unwrap_or(0.1);
            let Some((_, n)) = new_e2e.iter().find(|(name, _)| name == metric) else {
                rows.push(row(metric, side(o), None, bound, Verdict::Regression));
                continue;
            };
            let verdict = if metric == "failed_share" {
                judge_failed_share(
                    worst(o).unwrap_or(f64::INFINITY),
                    worst(n).unwrap_or(f64::INFINITY),
                )
            } else {
                match (side(o), side(n)) {
                    (Some(os), Some(ns)) => {
                        let lower = o.get("better").and_then(Value::as_str) != Some("higher");
                        judge(os, ns, lower, bound)
                    }
                    _ => Verdict::Regression,
                }
            };
            rows.push(row(metric, side(o), side(n), bound, verdict));
        }
        for (metric, n) in new_e2e {
            if !old_e2e.iter().any(|(name, _)| name == metric) {
                rows.push(row(metric, None, side(n), 0.0, Verdict::Added));
            }
        }
    }
    rows
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    validate(&doc).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc)
}

pub fn run(old_path: &Path, new_path: &Path) -> Result<ExitCode, String> {
    let (old, new) = (load(old_path)?, load(new_path)?);
    check_same_config(&old, &new)?;
    for (label, doc) in [("OLD", &old), ("NEW", &new)] {
        println!(
            "{label}: {}",
            doc.get("host").map(Value::compact).unwrap_or_default()
        );
    }
    println!(
        "\n{:<12} {:<22} {:>12} {:>25} {:>12} {:>25} {:>9} {:>7}  verdict",
        "workload",
        "end-to-end metric",
        "old median",
        "[q1, q3]",
        "new median",
        "[q1, q3]",
        "delta",
        "bound"
    );
    let rows = end_to_end_rows(&old, &new);
    for r in &rows {
        let cell = |s: Option<Side>| match s {
            Some(s) => (
                format!("{:.5}", s.median),
                format!("[{:.5}, {:.5}]", s.q1, s.q3),
            ),
            None => ("-".to_string(), "-".to_string()),
        };
        let (old_median, old_quartiles) = cell(r.old);
        let (new_median, new_quartiles) = cell(r.new);
        let delta = match (r.old, r.new) {
            (Some(o), Some(n)) => format!(
                "{:+.2}%",
                100.0 * (n.median - o.median) / o.median.abs().max(f64::MIN_POSITIVE)
            ),
            _ => "-".to_string(),
        };
        println!(
            "{:<12} {:<22} {:>12} {:>25} {:>12} {:>25} {:>9} {:>6.1}%  {}{}",
            r.workload,
            r.metric,
            old_median,
            old_quartiles,
            new_median,
            new_quartiles,
            delta,
            100.0 * r.bound,
            r.verdict.as_str(),
            if r.verdict == Verdict::Regression && r.new.is_none() {
                " (missing in NEW)"
            } else {
                ""
            }
        );
    }
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    let (regressions, unresolved) = (count(Verdict::Regression), count(Verdict::Unresolved));

    println!(
        "\n{:<12} {:<42} {:>16} {:>16} {:>9}",
        "workload", "per-layer metric (traced run)", "old", "new", "delta"
    );
    let empty = Value::obj();
    let old_w = old.get("workloads").unwrap_or(&empty);
    for (workload, new_entry) in new.get("workloads").map(Value::fields).unwrap_or(&[]) {
        let old_layers = old_w
            .get(workload)
            .and_then(|e| e.get("per_layer"))
            .unwrap_or(&empty);
        for (metric, n) in new_entry.get("per_layer").map(Value::fields).unwrap_or(&[]) {
            let new_v = n.get("value").and_then(Value::as_f64).unwrap_or(f64::NAN);
            let old_v = old_layers
                .get(metric)
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            println!(
                "{:<12} {:<42} {:>16.6} {:>16.6} {:>+8.2}%",
                workload,
                metric,
                old_v,
                new_v,
                100.0 * (new_v - old_v) / old_v.abs().max(f64::MIN_POSITIVE)
            );
        }
    }
    println!("\n{regressions} regression(s), {unresolved} unresolved");
    Ok(if regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tight(median: f64) -> Side {
        Side {
            median,
            q1: median * 0.99,
            q3: median * 1.01,
        }
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
    }

    #[test]
    fn verdicts() {
        assert_eq!(judge(tight(100.0), tight(104.0), true, 0.08), Verdict::Ok);
        assert_eq!(
            judge(tight(100.0), tight(110.0), true, 0.08),
            Verdict::Regression
        );
        assert_eq!(
            judge(tight(100.0), tight(90.0), true, 0.08),
            Verdict::Improved
        );
        // Throughput: lower is worse.
        assert_eq!(
            judge(tight(100.0), tight(90.0), false, 0.08),
            Verdict::Regression
        );
        // A spread wider than the bound resolves nothing, whichever way
        // the medians moved.
        let noisy = Side {
            median: 100.0,
            q1: 90.0,
            q3: 110.0,
        };
        assert_eq!(judge(noisy, tight(120.0), true, 0.08), Verdict::Unresolved);
        assert_eq!(judge(tight(100.0), noisy, true, 0.08), Verdict::Unresolved);
    }

    /// A result-file metric entry over `values`.
    fn entry(values: &[f64], bound: f64) -> Value {
        let (q1, q3) = crate::stats::quartiles(values);
        Value::obj()
            .with("median", crate::stats::median(values))
            .with("q1", q1)
            .with("q3", q3)
            .with("better", "lower")
            .with("bound", bound)
            .with(
                "values",
                values.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>(),
            )
    }

    fn doc(workloads: &[(&str, &[(&str, Value)])]) -> Value {
        doc_measured(10.0, 5, false, workloads)
    }

    fn doc_measured(
        seconds: f64,
        runs: usize,
        quick: bool,
        workloads: &[(&str, &[(&str, Value)])],
    ) -> Value {
        let mut w = Value::obj();
        for (name, metrics) in workloads {
            let mut e2e = Value::obj();
            for (metric, entry) in *metrics {
                e2e.set(metric, entry.clone());
            }
            w.set(name, Value::obj().with("end_to_end", e2e));
        }
        Value::obj()
            .with(
                "config",
                Value::obj()
                    .with("seconds", seconds)
                    .with("runs", runs)
                    .with("quick", quick),
            )
            .with("workloads", w)
    }

    fn verdict_of(rows: &[Row], workload: &str, metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.workload == workload && r.metric == metric)
            .unwrap_or_else(|| panic!("no row for {workload}.{metric}"))
            .verdict
    }

    #[test]
    fn one_failing_run_is_a_regression_whatever_the_median() {
        let clean = entry(&[0.0; 5], 0.0);
        // Two runs of five fail checks: the median is still 0.
        let two_bad = entry(&[0.0, 0.0, 0.0, 0.2, 0.2], 0.0);
        let one_bad = entry(&[0.0, 0.0, 0.0, 0.0, 0.2], 0.0);
        let old = doc(&[("w", &[("failed_share", clean.clone())])]);
        let new = doc(&[("w", &[("failed_share", two_bad.clone())])]);
        let rows = end_to_end_rows(&old, &new);
        assert_eq!(verdict_of(&rows, "w", "failed_share"), Verdict::Regression);
        let rows = end_to_end_rows(&old, &old);
        assert_eq!(verdict_of(&rows, "w", "failed_share"), Verdict::Ok);
        let rows = end_to_end_rows(&new, &old);
        assert_eq!(verdict_of(&rows, "w", "failed_share"), Verdict::Improved);
        // Same worst run on both sides: no rise.
        let other = doc(&[("w", &[("failed_share", one_bad)])]);
        let rows = end_to_end_rows(&new, &other);
        assert_eq!(verdict_of(&rows, "w", "failed_share"), Verdict::Ok);
    }

    #[test]
    fn a_metric_or_workload_missing_in_new_is_a_regression() {
        let op = entry(&[10.0, 10.1, 10.2], 0.1);
        let tol = entry(&[1.0, 1.01, 1.02], 0.1);
        let old = doc(&[
            (
                "dense",
                &[("op_ms", op.clone()), ("time_to_tol_s", tol.clone())],
            ),
            ("serve", &[("op_ms", op.clone())]),
        ]);
        let new = doc(&[
            ("dense", &[("op_ms", op.clone()), ("extra", tol)]),
            ("fresh", &[("op_ms", op.clone())]),
        ]);
        let rows = end_to_end_rows(&old, &new);
        assert_eq!(verdict_of(&rows, "dense", "op_ms"), Verdict::Ok);
        assert_eq!(
            verdict_of(&rows, "dense", "time_to_tol_s"),
            Verdict::Regression
        );
        assert_eq!(
            verdict_of(&rows, "serve", "(workload)"),
            Verdict::Regression
        );
        assert_eq!(verdict_of(&rows, "dense", "extra"), Verdict::Added);
        assert_eq!(verdict_of(&rows, "fresh", "(workload)"), Verdict::Added);
    }

    #[test]
    fn files_measured_differently_are_refused() {
        let old = doc(&[]);
        assert!(check_same_config(&old, &old).is_ok());
        for (key, new) in [
            ("seconds", doc_measured(0.5, 5, false, &[])),
            ("runs", doc_measured(10.0, 1, false, &[])),
            ("quick", doc_measured(10.0, 5, true, &[])),
        ] {
            let refused = check_same_config(&old, &new).unwrap_err();
            assert!(refused.contains(key), "{refused}");
        }
        let bare = Value::obj().with("workloads", Value::obj());
        assert!(check_same_config(&old, &bare).is_err());
    }
}
