//! `perf run`: every workload, each run in a fresh child process, so a
//! millisecond-scale workload is never measured in an address space a
//! gigabyte-scale one has used. Aggregates the children's reports into
//! one result file.

use crate::host;
use crate::json::{self, Value};
use crate::report::{end_to_end_def, END_TO_END};
use crate::stats::{median, quartiles, spread};
use crate::workloads::NAMES;
use crate::{scratch_root, Args};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

pub const SCHEMA: &str = "nmf-perf/1";

/// End-to-end runs per workload, and the window of each run. One value
/// each (and one for `--quick`), so that every result file holds the
/// same statistics and any two can be compared.
const RUNS: usize = 5;
const QUICK_RUNS: usize = 1;
pub const SECONDS: f64 = 10.0;
pub const QUICK_SECONDS: f64 = 0.5;

struct Config {
    quick: bool,
    runs: usize,
    seed: u64,
    seconds: f64,
    out: Option<PathBuf>,
    trace_dir: PathBuf,
}

fn parse(mut args: Args) -> Result<Config, String> {
    let quick = args.flag("--quick");
    let seed = args.parsed("--seed")?.unwrap_or(1);
    let out = args.value("--out")?.map(PathBuf::from);
    let trace_dir = args
        .value("--trace")?
        .map_or_else(|| scratch_root().join("perf-traces"), PathBuf::from);
    args.finish()?;
    Ok(Config {
        quick,
        runs: if quick { QUICK_RUNS } else { RUNS },
        seed,
        seconds: if quick { QUICK_SECONDS } else { SECONDS },
        out,
        trace_dir,
    })
}

/// Runs one child and returns its parsed `--report` file.
fn child(
    cfg: &Config,
    workload: &str,
    trace: Option<&Path>,
    report: &Path,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--seconds", &cfg.seconds.to_string()])
        .arg("--trace")
        .arg(trace.map_or_else(|| "0".into(), |d| d.as_os_str().to_owned()))
        .arg("--report")
        .arg(report)
        .stdout(Stdio::null());
    if cfg.quick {
        cmd.arg("--quick");
    }
    let status = cmd
        .status()
        .map_err(|e| format!("cannot start the {workload} run: {e}"))?;
    // Exit code 1 is a completed run with a failed check: its report is
    // still read, and the failure surfaces through `failed_share`.
    if !matches!(status.code(), Some(0 | 1)) {
        return Err(format!("the {workload} run ended with {status}"));
    }
    let text = std::fs::read_to_string(report)
        .map_err(|e| format!("the {workload} run left no report: {e}"))?;
    json::parse(&text)
}

fn metric_rows<'a>(report: &'a Value, tier: &str) -> &'a [Value] {
    report.get(tier).and_then(Value::as_arr).unwrap_or(&[])
}

/// The row of metric `name` in one tier of a child's report.
fn metric_row<'a>(report: &'a Value, tier: &str, name: &str) -> Option<&'a Value> {
    metric_rows(report, tier)
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(f64::NAN)
}

/// `{unit, median, q1, q3, values, …}` of one metric over a run set.
fn summarise(unit: &str, values: &[f64]) -> Value {
    let (q1, q3) = quartiles(values);
    Value::obj()
        .with("unit", unit)
        .with("median", median(values))
        .with("q1", q1)
        .with("q3", q3)
        .with("spread", spread(values))
        .with(
            "values",
            values.iter().map(|&x| Value::Num(x)).collect::<Vec<_>>(),
        )
}

/// Folds a workload's run set and traced run into its result-file entry.
fn fold(runs: &[Value], traced: &Value) -> Value {
    let mut e2e = Value::obj();
    // Every metric any run reported, in order of first appearance: a
    // metric some run could not report is summarised over the runs that
    // did, not dropped because the first run lacks it.
    let mut names: Vec<&str> = Vec::new();
    for m in runs.iter().flat_map(|r| metric_rows(r, "end_to_end")) {
        if let Some(name) = m.get("name").and_then(Value::as_str) {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    for name in names {
        let rows: Vec<&Value> = runs
            .iter()
            .filter_map(|r| metric_row(r, "end_to_end", name))
            .collect();
        let values: Vec<f64> = rows.iter().map(|m| num(m, "value")).collect();
        let unit = rows[0].get("unit").and_then(Value::as_str).unwrap_or("");
        let mut entry = summarise(unit, &values);
        if let Some(def) = end_to_end_def(name) {
            entry
                .set("better", def.better.as_str())
                .set("bound", def.bound);
        }
        let last = rows.last().expect("a run reported it");
        if let Some(n) = last.get("samples") {
            entry.set("samples_per_run", n.clone());
        }
        if let Some(p) = last.get("tail_percentile") {
            let tails: Vec<f64> = rows.iter().map(|m| num(m, "tail_value")).collect();
            entry
                .set("tail_percentile", p.clone())
                .set("tail_median", median(&tails));
        }
        e2e.set(name, entry);
    }
    let shares: Vec<f64> = runs.iter().map(|r| num(r, "failed_share")).collect();
    e2e.set(
        "failed_share",
        summarise("ratio", &shares)
            .with("better", "lower")
            .with("bound", 0.0),
    );

    let mut layers = Value::obj();
    for m in metric_rows(traced, "per_layer") {
        if let Some(name) = m.get("name").and_then(Value::as_str) {
            let mut entry = Value::obj()
                .with("unit", m.get("unit").cloned().unwrap_or(Value::Null))
                .with("value", m.get("value").cloned().unwrap_or(Value::Null));
            for key in ["samples", "tail_percentile", "tail_value"] {
                if let Some(v) = m.get(key) {
                    entry.set(key, v.clone());
                }
            }
            layers.set(name, entry);
        }
    }
    let op = |r: &Value| metric_row(r, "end_to_end", "op_ms").map_or(f64::NAN, |m| num(m, "value"));
    let untraced_op = median(&runs.iter().map(op).collect::<Vec<_>>());
    let overhead = (op(traced) / untraced_op - 1.0) * 100.0;

    // A check passes for the workload only if it passed in every run.
    let mut checks: Vec<(String, bool, String)> = Vec::new();
    for r in runs.iter().chain([traced]) {
        for c in r.get("checks").and_then(Value::as_arr).unwrap_or(&[]) {
            let name = c
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            let ok = c.get("ok").and_then(Value::as_bool).unwrap_or(false);
            let detail = c
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            match checks.iter_mut().find(|(n, _, _)| *n == name) {
                Some(seen) => {
                    if seen.1 && !ok {
                        seen.2 = detail;
                    }
                    seen.1 &= ok;
                }
                None => checks.push((name, ok, detail)),
            }
        }
    }
    Value::obj()
        .with(
            "oversubscribed",
            runs[0]
                .get("oversubscribed")
                .cloned()
                .unwrap_or(Value::Null),
        )
        .with("runs", runs.len())
        .with("end_to_end", e2e)
        .with("trace_overhead_pct", overhead)
        .with("per_layer", layers)
        .with("spans", traced.get("spans").cloned().unwrap_or(Value::Null))
        .with(
            "checks",
            checks
                .into_iter()
                .map(|(name, ok, detail)| {
                    Value::obj()
                        .with("name", name)
                        .with("ok", ok)
                        .with("detail", detail)
                })
                .collect::<Vec<_>>(),
        )
        .with(
            "notes",
            traced.get("notes").cloned().unwrap_or(Value::Arr(vec![])),
        )
        .with(
            "trace_file",
            traced.get("trace_file").cloned().unwrap_or(Value::Null),
        )
}

/// Prints one workload's entry: every metric by name, with its unit.
fn print_entry(name: &str, entry: &Value) {
    println!(
        "\n{name}  (oversubscribed={}, {} runs)",
        entry
            .get("oversubscribed")
            .and_then(Value::as_bool)
            .unwrap_or(false),
        num(entry, "runs")
    );
    println!("  end-to-end: median [q1, q3] unit, interquartile spread as a share of the median");
    for (metric, e) in entry.get("end_to_end").map(Value::fields).unwrap_or(&[]) {
        let mut extra = String::new();
        if let Some(n) = e.get("samples_per_run").and_then(Value::as_f64) {
            extra = format!("  n={n}/run");
        }
        if let (Some(p), Some(v)) = (
            e.get("tail_percentile").and_then(Value::as_f64),
            e.get("tail_median").and_then(Value::as_f64),
        ) {
            extra.push_str(&format!(" p{p}={v:.4}"));
        }
        println!(
            "    {:<28} {:>14.6} [{:.6}, {:.6}] {}  spread {:.1}%{}",
            metric,
            num(e, "median"),
            num(e, "q1"),
            num(e, "q3"),
            e.get("unit").and_then(Value::as_str).unwrap_or(""),
            100.0 * num(e, "spread"),
            extra
        );
    }
    println!(
        "    {:<28} {:>14.3} %",
        "trace_overhead_pct",
        num(entry, "trace_overhead_pct")
    );
    println!("  per-layer (traced run)");
    for (metric, e) in entry.get("per_layer").map(Value::fields).unwrap_or(&[]) {
        println!(
            "    {:<40} {:>16.6} {}",
            metric,
            num(e, "value"),
            e.get("unit").and_then(Value::as_str).unwrap_or("")
        );
    }
    for c in entry.get("checks").and_then(Value::as_arr).unwrap_or(&[]) {
        if c.get("ok").and_then(Value::as_bool) != Some(true) {
            println!(
                "  FAILED CHECK {}: {}",
                c.get("name").and_then(Value::as_str).unwrap_or(""),
                c.get("detail").and_then(Value::as_str).unwrap_or("")
            );
        }
    }
    for note in entry.get("notes").and_then(Value::as_arr).unwrap_or(&[]) {
        println!("  note: {}", note.as_str().unwrap_or(""));
    }
}

/// Checks that a result document has the shape `--compare` reads.
pub fn validate(doc: &Value) -> Result<(), String> {
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(format!("not a {SCHEMA} result file"));
    }
    doc.get("host").ok_or("result file has no host block")?;
    let workloads = doc.get("workloads").ok_or("result file has no workloads")?;
    for (name, entry) in workloads.fields() {
        let e2e = entry
            .get("end_to_end")
            .ok_or_else(|| format!("{name}: no end_to_end block"))?;
        for def in END_TO_END {
            let m = e2e
                .get(def.name)
                .ok_or_else(|| format!("{name}: end-to-end metric {} is missing", def.name))?;
            for key in ["median", "q1", "q3"] {
                if !num(m, key).is_finite() {
                    return Err(format!("{name}.{}: {key} is not a number", def.name));
                }
            }
        }
        if e2e.get("failed_share").is_none() {
            return Err(format!("{name}: failed_share is missing"));
        }
        entry
            .get("per_layer")
            .ok_or_else(|| format!("{name}: no per_layer block"))?;
    }
    Ok(())
}

pub fn run(args: Args) -> Result<ExitCode, String> {
    let cfg = parse(args)?;
    let tmp = scratch_root()
        .join("perf-tmp")
        .join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let report_path = tmp.join("report.json");

    let mut workloads = Value::obj();
    let mut any_failed = false;
    for name in NAMES {
        eprintln!(
            "perf: {name}: {} end-to-end run(s), then one traced run",
            cfg.runs
        );
        let mut runs = Vec::with_capacity(cfg.runs);
        for _ in 0..cfg.runs {
            runs.push(child(&cfg, name, None, &report_path)?);
        }
        let traced = child(&cfg, name, Some(&cfg.trace_dir), &report_path)?;
        let entry = fold(&runs, &traced);
        print_entry(name, &entry);
        any_failed |= runs
            .iter()
            .chain([&traced])
            .any(|r| num(r, "failed") != 0.0);
        workloads.set(name, entry);
    }
    std::fs::remove_dir_all(&tmp).ok();

    let doc = Value::obj()
        .with("schema", SCHEMA)
        .with("host", host::facts(cfg.seed))
        .with(
            "config",
            Value::obj()
                .with("runs", cfg.runs)
                .with("seconds", cfg.seconds)
                .with("seed", cfg.seed)
                .with("quick", cfg.quick),
        )
        .with("workloads", workloads);
    validate(&doc)?;
    if let Some(out) = &cfg.out {
        if let Some(dir) = out.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        }
        std::fs::write(out, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
        println!("\nresult file written to {}", out.display());
    }
    if any_failed {
        println!("\nfailed_share is not 0: at least one operation or correctness check failed");
        return Ok(ExitCode::FAILURE);
    }
    println!("\nfailed_share = 0 on every workload");
    Ok(ExitCode::SUCCESS)
}
