//! Command-line client for a running `nmf_serve` daemon.
//!
//! ```sh
//! nmf_serve_client --socket /tmp/nmf.sock submit --tenant acme \
//!     --dataset ssyn --scale 2000 --k 8 --iters 10
//! nmf_serve_client --socket /tmp/nmf.sock status --tenant acme --job 1
//! nmf_serve_client --socket /tmp/nmf.sock wait   --tenant acme --job 1
//! nmf_serve_client --socket /tmp/nmf.sock stats  --tenant acme
//! nmf_serve_client --socket /tmp/nmf.sock cancel --tenant acme --job 1
//! nmf_serve_client --tcp 127.0.0.1:7410 status --tenant acme --job 1
//! nmf_serve_client --socket /tmp/nmf.sock shutdown
//!
//! # Continue a checkpointed job on whatever grid this server allows:
//! nmf_serve_client --socket /tmp/nmf.sock resume --tenant acme \
//!     --ckpt /tmp/j1.ckpt --dataset ssyn --scale 2000 --ranks 2
//!
//! # CI smoke: three tenants submit, wait, verify factors, shut down
//! nmf_serve_client --socket /tmp/nmf.sock smoke
//! ```

use hpc_nmf::flags::{Flags, RequestDefaults, RequestFlags};
use hpc_nmf::Algo;
use nmf_nls::SolverKind;
use nmf_serve::prelude::*;
use nmf_serve::protocol::JobStatus;
use std::process::exit;

#[derive(Default)]
struct Args {
    socket: Option<String>,
    tcp: Option<String>,
    command: String,
    tenant: Option<String>,
    job: u64,
    path: Option<String>,
    ckpt: Option<String>,
    file: Option<String>,
    /// For `resume`, unset flags defer to the checkpoint / server policy.
    req: RequestFlags,
    timeout_ms: Option<u64>,
}

impl AsMut<RequestFlags> for Args {
    fn as_mut(&mut self) -> &mut RequestFlags {
        &mut self.req
    }
}

/// What an unset request flag means here; `--help` prints these.
const DEFAULTS: RequestDefaults = RequestDefaults {
    dataset: "ssyn",
    scale: 2000,
    k: 8,
    ranks: 2,
    iters: 10,
    seed: 42,
    algo: Algo::Hpc2D,
    solver: SolverKind::Bpp,
};
const TENANT: &str = "default";
const TIMEOUT_MS: u64 = 120_000;

const COMMANDS: &str =
    "submit | resume | status | wait | factors | cancel | checkpoint | stats | shutdown | smoke";

const USAGE: &str = "nmf_serve_client — drive a running nmf_serve daemon

usage: nmf_serve_client (--socket PATH | --tcp ADDR) COMMAND [flags]

commands:
  submit      admit a job of one --k: --file, or the request flags below
  resume      continue the server-side checkpoint --ckpt; --ranks, --algo
              and --iters re-target it, clamped to server policy
  status      one status line (--job)
  wait        poll until the job settles (--job, --timeout-ms)
  factors     fetch W/H shapes + norms (--job)
  cancel      cancel or release a job (--job)
  checkpoint  durable server-side save (--job, --path)
  stats       the tenant's counters
  shutdown    stop the server
  smoke       3-tenant end-to-end check, then shutdown (for CI)";

fn flags() -> Flags<Args> {
    Flags::<Args>::new(USAGE)
        .text("--socket PATH", |a| &mut a.socket)
        .help("the daemon's Unix socket")
        .text("--tcp ADDR", |a| &mut a.tcp)
        .help("the daemon's TCP address")
        .text("--tenant NAME", |a| &mut a.tenant)
        .help("tenant to act for")
        .default(TENANT)
        .value("--job ID", |a, v| v.int().map(|j| a.job = j))
        .help("the job to act on")
        .text("--file FILE", |a| &mut a.file)
        .help("server-side NMFS file to factorize, instead of --dataset")
        .request(&DEFAULTS)
        .text("--ckpt FILE", |a| &mut a.ckpt)
        .help("server-side checkpoint to resume")
        .text("--path FILE", |a| &mut a.path)
        .help("server-side path to checkpoint to")
        .int("--timeout-ms MS", |a| &mut a.timeout_ms)
        .help("how long wait polls")
        .default(TIMEOUT_MS)
}

fn parse_args(argv: &[String]) -> Result<Args, Vec<String>> {
    let mut args = Args::default();
    let mut errors = Vec::new();
    let operands = flags().parse(argv, &mut args, &mut errors);
    match operands.split_first() {
        None => errors.push(format!("expected a command: {COMMANDS}")),
        Some((command, rest)) => {
            if !COMMANDS.split(" | ").any(|c| c == command) {
                errors.push(format!("unknown command '{command}'"));
            }
            args.command = command.clone();
            errors.extend(rest.iter().map(|w| format!("unexpected argument {w}")));
        }
    }
    let req = &args.req;
    if args.file.is_some() && (req.dataset.is_some() || req.scale.is_some()) {
        errors.push("--file and --dataset/--scale name two inputs; give one".into());
    }
    if req.k.as_ref().is_some_and(|ks| ks.len() > 1) {
        errors.push("--k takes one rank: a job fits one k".into());
    }
    if args.command == "resume" {
        if args.ckpt.is_none() {
            errors.push("resume needs --ckpt FILE (a server-side checkpoint path)".into());
        }
        for (flag, set) in [("--k", req.k.is_some()), ("--solver", req.solver.is_some())] {
            if set {
                errors.push(format!("resume takes {flag} from the checkpoint"));
            }
        }
    }
    if args.command == "checkpoint" && args.path.is_none() {
        errors.push("checkpoint needs --path FILE (a server-side path)".into());
    }
    match (&args.socket, &args.tcp) {
        (None, None) => errors.push("--socket PATH or --tcp ADDR is required".into()),
        (Some(_), Some(_)) => errors.push("--socket and --tcp are mutually exclusive".into()),
        _ => {}
    }
    if errors.is_empty() {
        Ok(args)
    } else {
        Err(errors)
    }
}

impl Args {
    fn connect(&self) -> Result<Box<dyn Transport>, ServeError> {
        Ok(match (&self.socket, &self.tcp) {
            (Some(path), None) => Box::new(UnixTransport::connect(path)?),
            (None, Some(addr)) => Box::new(TcpTransport::connect(addr.as_str())?),
            _ => unreachable!("parse_args requires exactly one of --socket and --tcp"),
        })
    }

    /// The job `submit` sends: the flags given, [`DEFAULTS`] for the rest.
    fn spec(&self) -> JobSpec {
        let req = &self.req;
        let seed = req.seed.unwrap_or(DEFAULTS.seed);
        let source = match &self.file {
            Some(path) => JobSource::File { path: path.clone() },
            None => JobSource::Dataset {
                kind: req.dataset.as_deref().unwrap_or(DEFAULTS.dataset).into(),
                scale: req.scale.unwrap_or(DEFAULTS.scale),
                seed,
            },
        };
        JobSpec {
            source,
            k: req.k.as_ref().map_or(DEFAULTS.k, |ks| ks[0]),
            ranks: req.ranks.unwrap_or(DEFAULTS.ranks),
            algo: req.algo.unwrap_or(DEFAULTS.algo),
            solver: req.solver.unwrap_or(DEFAULTS.solver),
            max_iters: req.iters.unwrap_or(DEFAULTS.iters),
            seed,
            tol: None,
        }
    }
}

fn print_status(st: &JobStatus) {
    println!(
        "job {} [{}] iter {}/{} objective {:.6e} rel_error {:.6} resident {} B{}{}",
        st.job,
        st.phase.as_str(),
        st.iterations,
        st.max_iters,
        st.objective,
        st.rel_error,
        st.resident_bytes,
        st.stop
            .as_deref()
            .map(|s| format!(" stop={s}"))
            .unwrap_or_default(),
        st.error
            .as_deref()
            .map(|e| format!(" error: {e}"))
            .unwrap_or_default(),
    );
}

fn run(args: &Args) -> Result<(), ServeError> {
    if args.command == "smoke" {
        return smoke(args);
    }
    let mut client = Client::new(args.connect()?);
    let tenant = args.tenant.as_deref().unwrap_or(TENANT);
    match args.command.as_str() {
        "submit" => {
            let (job, queued) = client.submit_tracked(tenant, &args.spec())?;
            println!(
                "job {job} admitted{}",
                if queued { " (queued for a slot)" } else { "" }
            );
        }
        "resume" => {
            let ckpt = args.ckpt.as_deref().expect("validated");
            let (job, queued) = client.resume(
                tenant,
                ckpt,
                &args.spec().source,
                args.req.ranks,
                args.req.algo,
                args.req.iters,
            )?;
            println!(
                "job {job} resumed from {ckpt}{}",
                if queued { " (queued for a slot)" } else { "" }
            );
        }
        "status" => print_status(&client.status(tenant, args.job)?),
        "wait" => {
            let timeout_ms = args.timeout_ms.unwrap_or(TIMEOUT_MS);
            let st = client.wait_finished(tenant, args.job, timeout_ms)?;
            print_status(&st);
            if matches!(st.phase, JobPhase::Queued | JobPhase::Running) {
                eprintln!("timed out after {timeout_ms} ms");
                exit(3);
            }
        }
        "factors" => {
            let (w, h) = client.factors(tenant, args.job)?;
            let norm = |m: &nmf_matrix::Mat| m.as_slice().iter().map(|x| x * x).sum::<f64>().sqrt();
            println!(
                "W {}x{} (frobenius {:.6e}), H {}x{} (frobenius {:.6e})",
                w.nrows(),
                w.ncols(),
                norm(&w),
                h.nrows(),
                h.ncols(),
                norm(&h)
            );
        }
        "cancel" => {
            client.cancel(tenant, args.job)?;
            println!("job {} cancelled", args.job);
        }
        "checkpoint" => {
            let path = args.path.as_deref().expect("validated");
            client.checkpoint(tenant, args.job, path)?;
            println!("job {} checkpointed to {path}", args.job);
        }
        "stats" => {
            let t = client.tenant_stats(tenant)?;
            println!(
                "tenant {}: {} steps, {}/{} jobs finished, {} active, {} queued, {} B resident",
                t.tenant,
                t.steps_completed,
                t.jobs_finished,
                t.jobs_submitted,
                t.active_jobs,
                t.queued_jobs,
                t.resident_bytes
            );
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server shutting down");
        }
        _ => unreachable!("validated in parse_args"),
    }
    Ok(())
}

/// CI smoke: three tenants on three connections submit small jobs, all
/// finish, factors have the right shapes, the server shuts down cleanly.
fn smoke(args: &Args) -> Result<(), ServeError> {
    let tenants = ["alpha", "beta", "gamma"];
    let failed = std::thread::scope(|scope| {
        let handles: Vec<_> = tenants
            .iter()
            .enumerate()
            .map(|(i, tenant)| {
                scope.spawn(move || -> Result<(), ServeError> {
                    let mut spec = Args::default().spec();
                    spec.source = JobSource::Dataset {
                        kind: "ssyn".into(),
                        scale: 4000,
                        seed: i as u64 + 1,
                    };
                    spec.k = 4;
                    spec.ranks = 1;
                    spec.algo = Algo::Sequential;
                    spec.max_iters = 4;
                    let mut client = Client::new(args.connect()?);
                    let job = client.submit(tenant, &spec)?;
                    let st = client.wait_finished(tenant, job, 60_000)?;
                    if st.phase != JobPhase::Finished {
                        return Err(ServeError::BadFrame {
                            reason: format!("tenant {tenant} job did not finish: {st:?}"),
                        });
                    }
                    let (w, h) = client.factors(tenant, job)?;
                    let (m, n) = spec.source.shape().expect("known dataset");
                    if w.shape() != (m, spec.k) || h.shape() != (spec.k, n) {
                        return Err(ServeError::BadFrame {
                            reason: format!(
                                "tenant {tenant} factor shapes wrong: W {:?}, H {:?}",
                                w.shape(),
                                h.shape()
                            ),
                        });
                    }
                    println!("tenant {tenant}: job {job} finished, factors verified");
                    Ok(())
                })
            })
            .collect();
        let mut failed = false;
        for h in handles {
            match h.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    eprintln!("smoke failure: {e}");
                    failed = true;
                }
                Err(_) => {
                    eprintln!("smoke tenant thread panicked");
                    failed = true;
                }
            }
        }
        failed
    });
    let mut client = Client::new(args.connect()?);
    client.shutdown()?;
    if failed {
        exit(1);
    }
    println!("smoke passed: 3 tenants served, server shut down");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|errors| flags().fail(&errors));
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(if e.is_quota() { 4 } else { 1 });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn errors(s: &str) -> Vec<String> {
        parse_args(&argv(s)).err().unwrap_or_default()
    }

    #[test]
    fn accumulates_every_error() {
        let errs = errors("frobnicate extra --bogus --k x --socket s --tcp t --job");
        assert_eq!(errs.len(), 6, "{errs:?}");
        assert_eq!(errs[0], "unknown flag --bogus");
        assert!(errs[1].starts_with("--k expects an integer"));
        assert!(errs[2].contains("--job"));
        assert_eq!(errs[3], "unknown command 'frobnicate'");
        assert_eq!(errs[4], "unexpected argument extra");
        assert_eq!(errs[5], "--socket and --tcp are mutually exclusive");
    }

    #[test]
    fn exactly_one_endpoint_and_one_known_command() {
        assert_eq!(
            errors("status"),
            ["--socket PATH or --tcp ADDR is required"]
        );
        assert!(errors("--socket s")
            .concat()
            .starts_with("expected a command"));
        assert!(errors("--tcp 127.0.0.1:7410 status").is_empty());
    }

    #[test]
    fn resume_needs_a_checkpoint_and_takes_no_k_or_solver() {
        assert_eq!(
            errors("--socket s resume --dataset ssyn"),
            ["resume needs --ckpt FILE (a server-side checkpoint path)"]
        );
        assert_eq!(
            errors("--socket s resume --ckpt c --k 4 --solver mu --seed 3"),
            [
                "resume takes --k from the checkpoint",
                "resume takes --solver from the checkpoint"
            ]
        );
    }

    #[test]
    fn file_and_dataset_name_two_inputs() {
        let msg = "--file and --dataset/--scale name two inputs; give one";
        assert_eq!(
            errors("--socket s submit --dataset ssyn --file a.mtx"),
            [msg]
        );
        assert_eq!(errors("--socket s submit --file a.mtx --scale 3"), [msg]);
        assert_eq!(
            errors("--socket s submit --k 4,8"),
            ["--k takes one rank: a job fits one k"]
        );
    }

    #[test]
    fn unset_flags_take_the_defaults_and_resume_overrides_stay_unset() {
        let args = parse_args(&argv("--socket s submit -k 4 --scale 100 --algo seq")).expect("ok");
        let spec = args.spec();
        assert_eq!(
            (spec.k, spec.ranks, spec.max_iters),
            (4, DEFAULTS.ranks, DEFAULTS.iters)
        );
        assert_eq!(
            (spec.algo, spec.solver, spec.seed),
            (Algo::Sequential, DEFAULTS.solver, 42)
        );
        assert!(matches!(spec.source, JobSource::Dataset { scale: 100, .. }));
        assert_eq!((args.tenant, args.timeout_ms), (None, None));
        let args = parse_args(&argv("--socket s resume --ckpt c --iters 9")).expect("ok");
        assert_eq!(
            (args.req.ranks, args.req.algo, args.req.iters),
            (None, None, Some(9))
        );
    }

    #[test]
    fn help_has_one_line_per_accepted_flag() {
        let accepted = [
            "--socket",
            "--tcp",
            "--tenant",
            "--job",
            "--file",
            "--dataset",
            "--scale",
            "--k",
            "--ranks",
            "--iters",
            "--seed",
            "--algo",
            "--solver",
            "--ckpt",
            "--path",
            "--timeout-ms",
            "--help",
        ];
        let help = flags().to_string();
        let lines = help.lines().filter(|l| l.starts_with("  -"));
        let listed: Vec<&str> = lines
            .map(|l| l.split([' ', ',']).nth(2).unwrap_or(""))
            .collect();
        assert_eq!(listed, accepted, "{help}");
    }
}
