//! `perf` — the repo's one benchmark runner.
//!
//! ```text
//! perf --workload NAME --seed N --seconds S --trace 0|1|DIR [--report FILE] [--quick]
//!         one run of one workload in this process; the last line of
//!         standard output is the contract JSON of BENCHMARK.json
//! perf run [--quick] [--seed N] [--out FILE] [--trace DIR]
//!         every workload, each run in a fresh child process: five
//!         end-to-end runs of ten seconds and one traced run; prints
//!         every metric and writes a result file
//! perf --quick
//!         `perf run --quick`: tiny shapes, one run, every check
//! perf --compare OLD.json NEW.json
//!         one row per (workload, metric); non-zero exit on a regression
//! ```
//!
//! See `benchmark/README.md` for the workload catalogue and the metric
//! tables.

mod compare;
mod host;
mod json;
mod layers;
mod problem;
mod report;
mod runner;
mod stats;
mod trace;
mod workloads;

use problem::Ctx;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where run-time files go: under the build's target directory, which
/// is inside the checkout and already ignored by git.
fn scratch_root() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) if !dir.is_empty() => PathBuf::from(dir),
        _ => Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
    }
}

/// Arguments after the subcommand, as `--flag value` pairs and bare
/// flags.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("missing value for {flag}"));
        }
        let v = self.rest.remove(i + 1);
        self.rest.remove(i);
        Ok(Some(v))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.value(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: '{v}' is not a valid value")),
        }
    }

    fn flag(&mut self, flag: &str) -> bool {
        match self.rest.iter().position(|a| a == flag) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument '{extra}'")),
        }
    }
}

/// Runs one workload in this process and prints its report; the last
/// line of standard output is the contract JSON.
fn run_one(mut args: Args) -> Result<ExitCode, String> {
    let name = args
        .value("--workload")?
        .ok_or("--workload NAME is required")?;
    let seed: u64 = args.parsed("--seed")?.unwrap_or(1);
    let quick = args.flag("--quick");
    let seconds: f64 = args.parsed("--seconds")?.unwrap_or(if quick {
        runner::QUICK_SECONDS
    } else {
        runner::SECONDS
    });
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace_dir = match args.value("--trace")?.as_deref() {
        None | Some("0") => None,
        Some("1") => Some(scratch_root().join("perf-traces")),
        Some(dir) => Some(PathBuf::from(dir)),
    };
    let report_path = args.value("--report")?.map(PathBuf::from);
    args.finish()?;

    let tmp = scratch_root()
        .join("perf-tmp")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        traced: trace_dir.is_some(),
        quick,
        tmp: tmp.clone(),
    };
    if ctx.traced {
        trace::enable();
    }
    let outcome = trace::in_span("workload", || workloads::run(&name, &ctx));
    std::fs::remove_dir_all(&tmp).ok();
    let mut report = outcome?;

    if let Some(dir) = &trace_dir {
        let spans = trace::drain();
        report.spans = trace::totals_by_name(&spans).into_iter().collect();
        let run_id = format!("{name}-seed{seed}-pid{}", std::process::id());
        let path = dir.join(format!("{name}-seed{seed}.trace.json"));
        trace::write_chrome_trace(&path, &run_id, &spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        report.trace_file = Some(
            problem::relative_to_cwd(path)
                .to_string_lossy()
                .into_owned(),
        );
    }
    report.print();
    if let Some(path) = report_path {
        let doc = report.to_json().with("host", host::facts(seed));
        std::fs::write(&path, doc.pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", report.contract_line()?);
    Ok(if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn usage() -> &'static str {
    "usage:\n  \
     perf --workload NAME --seed N --seconds S --trace 0|1|DIR [--report FILE] [--quick]\n  \
     perf run [--quick] [--seed N] [--out FILE] [--trace DIR]\n  \
     perf --quick\n  \
     perf --compare OLD.json NEW.json"
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Some("run") => {
            argv.remove(0);
            runner::run(Args { rest: argv })
        }
        Some("--compare") => match argv.as_slice() {
            [_, old, new] => compare::run(Path::new(old), Path::new(new)),
            _ => Err("--compare takes OLD.json NEW.json".to_string()),
        },
        _ if argv.iter().any(|a| a == "--workload") => run_one(Args { rest: argv }),
        Some("--quick") => runner::run(Args { rest: argv }),
        Some(other) => Err(format!("unknown command '{other}'\n{}", usage())),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("perf: {message}");
            ExitCode::from(2)
        }
    }
}
