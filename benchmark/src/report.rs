//! Metric catalogue and the per-run report every workload fills in.
//!
//! Two audiences read a run. The acceptance driver reads the last line
//! of standard output: one JSON object carrying exactly the metrics
//! listed in `BENCHMARK.json` (the end-to-end metrics of an untraced
//! run, the per-layer metrics every workload can report of a traced
//! one). People, and `perf run` / `perf --compare`, read the full
//! report: every metric of the workload, including the per-layer ones
//! only that workload has.

use crate::json::Value;
use crate::stats::Samples;
use crate::trace::NameTotals;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    EndToEnd,
    Layer,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees, with the share
/// of the baseline median by which it may worsen before `--compare`
/// (and the acceptance driver, through `BENCHMARK.json`) calls it a
/// regression.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end catalogue: the `end_to_end` list of `BENCHMARK.json`.
/// Every workload reports every one. `failed_share` rides along in
/// result files with an absolute bound of zero; the contract line
/// carries it as `failed` and `attempted`.
///
/// `op` is the workload's unit of work: one `Model::step()` on the solve
/// workloads, one lifecycle cycle, one job on `serve_mix`. `op_ms` is
/// what one op costs when the host does not interfere: the 10th
/// percentile of the op's wall where ops run one at a time, the window
/// divided by the jobs finished on `serve_mix`. The host's interference
/// only ever adds time, so a low percentile repeats between run sets
/// where the median does not; the medians are per-layer metrics.
///
/// `benchmark/README.md` has the calibration of each bound: the issue's
/// rule max(floor, 2 x interquartile range) where the acceptance
/// driver's own rules (every ten-seed spread within the bound, a third
/// of it as the target; 0.25 at most) do not ask for more.
pub const END_TO_END: &[EndToEndDef] = &[
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "op_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.10,
    },
];

pub fn end_to_end_def(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|d| d.name == name)
}

/// Per-layer metrics every workload reports from its traced run — the
/// `per_layer` list of `BENCHMARK.json`. (A workload's traced run also
/// reports the layer metrics only it has: `matrix.gemm.*` on dense
/// inputs, `sparse.*` on sparse ones, `serve.*` on `serve_mix`.)
pub const LAYER_CONTRACT: &[(&str, &str, Better)] = &[
    ("data.gen_s", "s", Better::Lower),
    ("data.model.residual_mm", "ratio", Better::Lower),
    ("data.model.residual_nls", "ratio", Better::Lower),
    ("data.model.residual_gram", "ratio", Better::Lower),
    ("data.model.residual_all_gather", "ratio", Better::Lower),
    ("data.model.residual_reduce_scatter", "ratio", Better::Lower),
    ("data.model.residual_all_reduce", "ratio", Better::Lower),
    ("core.engine.mm_s", "s", Better::Lower),
    ("core.engine.nls_s", "s", Better::Lower),
    ("core.engine.gram_s", "s", Better::Lower),
    ("core.engine.all_gather_s", "s", Better::Lower),
    ("core.engine.reduce_scatter_s", "s", Better::Lower),
    ("core.engine.all_reduce_s", "s", Better::Lower),
    ("core.engine.unattributed_s", "s", Better::Lower),
    ("core.speedup_vs_seq", "ratio", Better::Higher),
    ("core.shared.extract_ms", "ms", Better::Lower),
    ("core.shared.extractions", "count", Better::Lower),
    ("core.shared.resident_bytes", "bytes", Better::Lower),
    ("core.session.build_warm_ms", "ms", Better::Lower),
    ("core.session.refit_ms", "ms", Better::Lower),
    ("core.session.factors_ms", "ms", Better::Lower),
    ("core.checkpoint.save_ms", "ms", Better::Lower),
    ("core.checkpoint.load_ms", "ms", Better::Lower),
    ("core.checkpoint.inspect_us", "us", Better::Lower),
    ("core.checkpoint.bytes", "bytes", Better::Lower),
    ("core.regrid.load_ms", "ms", Better::Lower),
    ("matrix.gram.gram_ms", "ms", Better::Lower),
    ("nls.update_early_ms", "ms", Better::Lower),
    ("nls.update_late_ms", "ms", Better::Lower),
    ("nls.iters_to_tol", "count", Better::Lower),
    ("vmpi.all_gather_us", "us", Better::Lower),
    ("vmpi.reduce_scatter_us", "us", Better::Lower),
    ("vmpi.all_reduce_us", "us", Better::Lower),
    ("vmpi.post_wait_all_gather_us", "us", Better::Lower),
    ("vmpi.post_wait_reduce_scatter_us", "us", Better::Lower),
    ("vmpi.post_wait_all_reduce_us", "us", Better::Lower),
    ("vmpi.universe_spawn_us", "us", Better::Lower),
    ("vmpi.words_per_iter", "count", Better::Lower),
    ("vmpi.messages_per_iter", "count", Better::Lower),
    ("vmpi.comm_time_share", "ratio", Better::Lower),
    ("vmpi.overlap_share", "ratio", Better::Higher),
];

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub tier: Tier,
    pub value: f64,
    /// How many timing samples stand behind `value`, when it is a
    /// statistic of samples.
    pub samples: Option<usize>,
    /// The tail percentile the sample count supports, and its value.
    pub tail: Option<(f64, f64)>,
}

/// One correctness check.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one run of one workload produced.
pub struct Report {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    /// More ranks than cores: numbers are oversubscription measurements
    /// and no scaling figure may be read from them.
    pub oversubscribed: bool,
    pub metrics: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Operations attempted (steps, cycles, requests) plus checks run.
    pub attempted: u64,
    /// Operations that failed or were refused, plus failed checks.
    pub failed: u64,
    /// Span totals of the traced run, by span name.
    pub spans: Vec<(&'static str, NameTotals)>,
    pub trace_file: Option<String>,
    /// Remarks that are neither metrics nor checks.
    pub notes: Vec<String>,
    /// Prefix for the names of checks recorded from here on (a second
    /// phase repeating the first phase's checks).
    pub check_scope: &'static str,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, traced: bool, quick: bool) -> Self {
        Report {
            workload,
            seed,
            seconds,
            traced,
            quick,
            oversubscribed: false,
            metrics: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
            trace_file: None,
            notes: Vec::new(),
            check_scope: "",
        }
    }

    /// Records an end-to-end metric from the catalogue.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        let def = end_to_end_def(name).unwrap_or_else(|| panic!("{name} is not in END_TO_END"));
        self.metrics.push(Metric {
            name: name.to_string(),
            unit: def.unit,
            tier: Tier::EndToEnd,
            value,
            samples: None,
            tail: None,
        });
    }

    /// Records an end-to-end timing as the median of `samples`, with
    /// the sample count and the tail percentile it supports.
    pub fn e2e_median(&mut self, name: &'static str, samples: &Samples) {
        self.e2e(name, samples.median());
        self.attach(samples);
    }

    /// Notes the sample count and supported tail percentile of the
    /// metric just recorded.
    fn attach(&mut self, samples: &Samples) {
        let m = self.metrics.last_mut().expect("a metric was just pushed");
        m.samples = Some(samples.len());
        m.tail = samples.tail();
    }

    /// Records the op timings of a workload: the gated `op_ms` (the
    /// 10th percentile of `samples` where ops run one at a time) and,
    /// as the per-layer metric `median_name`, the median op with its
    /// tail percentile.
    pub fn e2e_op(&mut self, op_ms: f64, median_name: &'static str, samples: &Samples) {
        self.e2e("op_ms", op_ms);
        self.metrics.last_mut().expect("just pushed").samples = Some(samples.len());
        self.layer_median(median_name, "ms", samples);
    }

    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            tier: Tier::Layer,
            value,
            samples: None,
            tail: None,
        });
    }

    pub fn layer_median(&mut self, name: impl Into<String>, unit: &'static str, samples: &Samples) {
        self.layer(name, unit, samples.median());
        self.attach(samples);
    }

    /// Counts `n` attempted operations, `failed` of which failed.
    pub fn ops(&mut self, n: u64, failed: u64) {
        self.attempted += n;
        self.failed += failed;
    }

    /// Records a correctness check; a failed check counts as a failed
    /// operation.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.checks.push(Check {
            name: format!("{}{name}", self.check_scope),
            ok,
            detail: detail.into(),
        });
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable listing: every metric by name with its unit.
    pub fn print(&self) {
        println!(
            "workload {}  seed={} seconds={} trace={} quick={} oversubscribed={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.traced),
            self.quick,
            self.oversubscribed
        );
        for (tier, title) in [(Tier::EndToEnd, "end-to-end"), (Tier::Layer, "per-layer")] {
            let rows: Vec<&Metric> = self.metrics.iter().filter(|m| m.tier == tier).collect();
            if rows.is_empty() {
                continue;
            }
            println!("  {title}");
            for m in rows {
                let mut extra = String::new();
                if let Some(n) = m.samples {
                    extra = format!("  (n={n}");
                    if let Some((p, v)) = m.tail {
                        extra.push_str(&format!(", p{p}={v:.4}"));
                    }
                    extra.push(')');
                }
                println!("    {:<40} {:>16.6} {}{}", m.name, m.value, m.unit, extra);
            }
        }
        println!(
            "    {:<40} {:>16.6} ratio  ({} failed of {} attempted)",
            "failed_share",
            self.failed_share(),
            self.failed,
            self.attempted
        );
        if !self.spans.is_empty() {
            println!("  spans (count, total ms, self ms)");
            for (name, t) in &self.spans {
                println!(
                    "    {:<40} {:>8} {:>14.3} {:>14.3}",
                    name,
                    t.count,
                    t.total_us / 1e3,
                    t.self_us / 1e3
                );
            }
        }
        println!("  checks");
        for c in &self.checks {
            println!(
                "    {} {:<38} {}",
                if c.ok { "ok  " } else { "FAIL" },
                c.name,
                c.detail
            );
        }
        for note in &self.notes {
            println!("  note: {note}");
        }
        if let Some(path) = &self.trace_file {
            println!("  trace written to {path}");
        }
    }

    /// The last line of standard output: exactly the contract metrics of
    /// this run's kind (end-to-end when untraced, per-layer when traced).
    pub fn contract_line(&self) -> Result<String, String> {
        let names: Vec<(&str, &str)> = if self.traced {
            LAYER_CONTRACT.iter().map(|&(n, u, _)| (n, u)).collect()
        } else {
            END_TO_END.iter().map(|d| (d.name, d.unit)).collect()
        };
        let mut metrics = Value::obj();
        for (name, unit) in names {
            let m = self
                .metric(name)
                .ok_or_else(|| format!("workload {} did not report {name}", self.workload))?;
            if !m.value.is_finite() {
                return Err(format!("{name} is not a finite number"));
            }
            metrics.set(name, Value::obj().with("value", m.value).with("unit", unit));
        }
        Ok(Value::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .compact())
    }

    /// The full report as JSON (what `--report FILE` writes and
    /// `perf run` aggregates).
    pub fn to_json(&self) -> Value {
        let metric_json = |m: &Metric| {
            let mut v = Value::obj()
                .with("name", m.name.as_str())
                .with("unit", m.unit)
                .with("value", m.value);
            if let Some(n) = m.samples {
                v.set("samples", n);
            }
            if let Some((p, x)) = m.tail {
                v.set("tail_percentile", p).set("tail_value", x);
            }
            v
        };
        let tier = |t: Tier| -> Vec<Value> {
            self.metrics
                .iter()
                .filter(|m| m.tier == t)
                .map(metric_json)
                .collect()
        };
        Value::obj()
            .with("workload", self.workload)
            .with("seed", self.seed)
            .with("seconds", self.seconds)
            .with("traced", self.traced)
            .with("quick", self.quick)
            .with("oversubscribed", self.oversubscribed)
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("failed_share", self.failed_share())
            .with("end_to_end", tier(Tier::EndToEnd))
            .with("per_layer", tier(Tier::Layer))
            .with(
                "spans",
                self.spans
                    .iter()
                    .map(|(name, t)| {
                        Value::obj()
                            .with("name", *name)
                            .with("count", t.count)
                            .with("total_ms", t.total_us / 1e3)
                            .with("self_ms", t.self_us / 1e3)
                    })
                    .collect::<Vec<_>>(),
            )
            .with(
                "checks",
                self.checks
                    .iter()
                    .map(|c| {
                        Value::obj()
                            .with("name", c.name.as_str())
                            .with("ok", c.ok)
                            .with("detail", c.detail.as_str())
                    })
                    .collect::<Vec<_>>(),
            )
            .with(
                "notes",
                self.notes
                    .iter()
                    .map(|n| Value::from(n.as_str()))
                    .collect::<Vec<_>>(),
            )
            .with("trace_file", self.trace_file.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::workloads::NAMES;

    fn names(doc: &Value, list: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(list)
            .and_then(Value::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"))
            .iter()
            .map(|m| {
                let text = |k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_string();
                (
                    text("name"),
                    text("unit"),
                    text("better"),
                    m.get("bound").and_then(Value::as_f64),
                )
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables
    /// in this file are what the program prints. They must not drift.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = crate::host::repo_root().join("BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let want: Vec<_> = END_TO_END
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                    Some(d.bound),
                )
            })
            .collect();
        assert_eq!(names(&doc, "end_to_end"), want);
        assert!(want.iter().any(|(n, ..)| n == "setup_s"));
        assert!(want.iter().all(|(.., b)| b.is_some_and(|b| b <= 0.25)));

        let want: Vec<_> = LAYER_CONTRACT
            .iter()
            .map(|&(n, u, b)| (n.to_string(), u.to_string(), b.as_str().to_string(), None))
            .collect();
        assert_eq!(names(&doc, "per_layer"), want);

        let listed: Vec<String> = names(&doc, "workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(listed, NAMES);
    }

    #[test]
    fn contract_line_carries_exactly_the_contract_metrics() {
        let mut r = Report::new("dense_hals", 1, 1.0, false, true);
        for d in END_TO_END {
            r.e2e(d.name, 1.5);
        }
        r.layer("data.gen_s", "s", 0.1);
        r.check("always", true, "");
        let line = json::parse(&r.contract_line().unwrap()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics: Vec<&str> = line
            .get("metrics")
            .unwrap()
            .fields()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(metrics, ["setup_s", "op_ms", "peak_rss_mb"]);
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));

        // A traced run must carry every per-layer contract metric.
        let mut traced = Report::new("dense_hals", 1, 1.0, true, true);
        traced.layer("data.gen_s", "s", 0.1);
        assert!(traced.contract_line().is_err());
        for &(name, unit, _) in LAYER_CONTRACT.iter().skip(1) {
            traced.layer(name, unit, 2.0);
        }
        let line = json::parse(&traced.contract_line().unwrap()).unwrap();
        assert_eq!(
            line.get("metrics").unwrap().fields().len(),
            LAYER_CONTRACT.len()
        );
    }

    #[test]
    fn a_failed_check_counts_as_a_failed_operation() {
        let mut r = Report::new("dense_hals", 1, 1.0, false, true);
        r.ops(9, 0);
        r.check("fine", true, "");
        assert!(r.correct());
        r.check("broken", false, "why");
        assert!(!r.correct());
        assert_eq!((r.attempted, r.failed), (11, 1));
        assert!((r.failed_share() - 1.0 / 11.0).abs() < 1e-12);
    }
}
