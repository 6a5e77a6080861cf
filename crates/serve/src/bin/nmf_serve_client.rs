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

use nmf_serve::prelude::*;
use nmf_serve::protocol::JobStatus;
use std::process::exit;

/// Where the daemon is listening — a Unix socket path or a TCP address.
#[derive(Clone)]
enum Endpoint {
    Unix(String),
    Tcp(String),
}

impl Endpoint {
    fn connect(&self) -> Result<Box<dyn Transport>, ServeError> {
        Ok(match self {
            Endpoint::Unix(path) => Box::new(UnixTransport::connect(path)?),
            Endpoint::Tcp(addr) => Box::new(TcpTransport::connect(addr.as_str())?),
        })
    }
}

struct Args {
    endpoint: Endpoint,
    command: String,
    tenant: String,
    job: u64,
    path: Option<String>,
    ckpt: Option<String>,
    spec: JobSpec,
    /// Which regrid overrides the user actually passed (for `resume`,
    /// unset flags defer to the checkpoint / server policy).
    ranks_set: bool,
    algo_set: bool,
    iters_set: bool,
    timeout_ms: u64,
}

fn default_spec() -> JobSpec {
    JobSpec {
        source: JobSource::Dataset {
            kind: "ssyn".into(),
            scale: 2000,
            seed: 42,
        },
        k: 8,
        ranks: 2,
        algo: hpc_nmf::Algo::Hpc2D,
        solver: nmf_nls::SolverKind::Bpp,
        max_iters: 10,
        seed: 42,
        tol: None,
    }
}

fn parse_args(argv: &[String]) -> Result<Args, Vec<String>> {
    let mut errors = Vec::new();
    let mut socket = None;
    let mut tcp = None;
    let mut command = None;
    let mut tenant = "default".to_string();
    let mut job = 0u64;
    let mut path = None;
    let mut ckpt = None;
    let mut spec = default_spec();
    let mut ranks_set = false;
    let mut algo_set = false;
    let mut iters_set = false;
    let mut timeout_ms = 120_000u64;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut val = |name: &str, errors: &mut Vec<String>| -> Option<String> {
            match it.next() {
                Some(v) => Some(v.clone()),
                None => {
                    errors.push(format!("missing value for {name}"));
                    None
                }
            }
        };
        match arg.as_str() {
            "--socket" => socket = val("--socket", &mut errors),
            "--tcp" => tcp = val("--tcp", &mut errors),
            "--ckpt" => ckpt = val("--ckpt", &mut errors),
            "--file" => {
                if let Some(p) = val("--file", &mut errors) {
                    spec.source = JobSource::File { path: p };
                }
            }
            "--tenant" => {
                if let Some(t) = val("--tenant", &mut errors) {
                    tenant = t;
                }
            }
            "--job" => {
                if let Some(v) = val("--job", &mut errors) {
                    match v.parse() {
                        Ok(j) => job = j,
                        Err(_) => errors.push(format!("--job expects an integer, got '{v}'")),
                    }
                }
            }
            "--path" => path = val("--path", &mut errors),
            "--dataset" => {
                if let Some(d) = val("--dataset", &mut errors) {
                    if let JobSource::Dataset { kind, .. } = &mut spec.source {
                        *kind = d;
                    }
                }
            }
            "--scale" => {
                if let Some(n) = num(val("--scale", &mut errors), arg, &mut errors) {
                    if let JobSource::Dataset { scale, .. } = &mut spec.source {
                        *scale = n;
                    }
                }
            }
            "--k" => {
                if let Some(n) = num(val("--k", &mut errors), arg, &mut errors) {
                    spec.k = n;
                }
            }
            "--ranks" => {
                if let Some(n) = num(val("--ranks", &mut errors), arg, &mut errors) {
                    spec.ranks = n;
                    ranks_set = true;
                }
            }
            "--iters" => {
                if let Some(n) = num(val("--iters", &mut errors), arg, &mut errors) {
                    spec.max_iters = n;
                    iters_set = true;
                }
            }
            "--seed" => {
                if let Some(n) = num(val("--seed", &mut errors), arg, &mut errors) {
                    spec.seed = n as u64;
                    if let JobSource::Dataset { seed, .. } = &mut spec.source {
                        *seed = n as u64;
                    }
                }
            }
            "--algo" => {
                if let Some(v) = val("--algo", &mut errors) {
                    match v.parse() {
                        Ok(algo) => spec.algo = algo,
                        Err(e) => errors.push(e),
                    }
                    algo_set = true;
                }
            }
            "--solver" => {
                if let Some(v) = val("--solver", &mut errors) {
                    match v.parse() {
                        Ok(solver) => spec.solver = solver,
                        Err(e) => errors.push(e),
                    }
                }
            }
            "--timeout-ms" => {
                if let Some(n) = num(val("--timeout-ms", &mut errors), arg, &mut errors) {
                    timeout_ms = n as u64;
                }
            }
            "--help" | "-h" => {
                print_help();
                exit(0);
            }
            cmd if !cmd.starts_with('-') && command.is_none() => command = Some(cmd.to_string()),
            other => errors.push(format!("unknown flag {other}")),
        }
    }
    let command = match command {
        Some(c)
            if matches!(
                c.as_str(),
                "submit"
                    | "resume"
                    | "status"
                    | "wait"
                    | "factors"
                    | "cancel"
                    | "checkpoint"
                    | "stats"
                    | "shutdown"
                    | "smoke"
            ) =>
        {
            c
        }
        Some(c) => {
            errors.push(format!("unknown command '{c}'"));
            c
        }
        None => {
            errors.push(
                "expected a command: submit | resume | status | wait | factors | cancel \
                 | checkpoint | stats | shutdown | smoke"
                    .into(),
            );
            String::new()
        }
    };
    if command == "checkpoint" && path.is_none() {
        errors.push("checkpoint needs --path FILE (a server-side path)".into());
    }
    if command == "resume" && ckpt.is_none() {
        errors.push("resume needs --ckpt FILE (a server-side checkpoint path)".into());
    }
    let endpoint = match (socket, tcp) {
        (Some(path), None) => Endpoint::Unix(path),
        (None, Some(addr)) => Endpoint::Tcp(addr),
        (Some(_), Some(_)) => {
            errors.push("--socket and --tcp are mutually exclusive".into());
            return Err(errors);
        }
        (None, None) => {
            errors.push("--socket PATH or --tcp ADDR is required".into());
            return Err(errors);
        }
    };
    if errors.is_empty() {
        Ok(Args {
            endpoint,
            command,
            tenant,
            job,
            path,
            ckpt,
            spec,
            ranks_set,
            algo_set,
            iters_set,
            timeout_ms,
        })
    } else {
        Err(errors)
    }
}

fn num(v: Option<String>, name: &str, errors: &mut Vec<String>) -> Option<usize> {
    let v = v?;
    match v.parse::<usize>() {
        Ok(n) => Some(n),
        Err(_) => {
            errors.push(format!("{name} expects an integer, got '{v}'"));
            None
        }
    }
}

fn print_help() {
    println!(
        "nmf_serve_client — drive a running nmf_serve daemon\n\
         \n\
         usage: nmf_serve_client (--socket PATH | --tcp ADDR) COMMAND [options]\n\
         \n\
         commands:\n\
         \x20 submit      admit a job   (--tenant, --dataset, --scale, --file, --k,\n\
         \x20             --ranks, --algo, --solver, --iters, --seed)\n\
         \x20 resume      continue from a server-side checkpoint (--tenant, --ckpt,\n\
         \x20             plus the data source flags; --ranks/--algo/--iters become\n\
         \x20             regrid overrides, clamped to server policy)\n\
         \x20 status      one status line            (--tenant, --job)\n\
         \x20 wait        poll until the job settles (--tenant, --job, --timeout-ms)\n\
         \x20 factors     fetch W/H shapes + norms   (--tenant, --job)\n\
         \x20 cancel      cancel or release a job    (--tenant, --job)\n\
         \x20 checkpoint  durable server-side save   (--tenant, --job, --path)\n\
         \x20 stats       per-tenant counters        (--tenant)\n\
         \x20 shutdown    stop the server\n\
         \x20 smoke       3-tenant end-to-end check, then shutdown (for CI)"
    );
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
        return smoke(&args.endpoint);
    }
    let mut client = Client::new(args.endpoint.connect()?);
    match args.command.as_str() {
        "submit" => {
            let (job, queued) = client.submit_tracked(&args.tenant, &args.spec)?;
            println!(
                "job {job} admitted{}",
                if queued { " (queued for a slot)" } else { "" }
            );
        }
        "resume" => {
            let ckpt = args.ckpt.as_deref().expect("validated");
            let (job, queued) = client.resume(
                &args.tenant,
                ckpt,
                &args.spec.source,
                args.ranks_set.then_some(args.spec.ranks),
                args.algo_set.then_some(args.spec.algo),
                args.iters_set.then_some(args.spec.max_iters),
            )?;
            println!(
                "job {job} resumed from {ckpt}{}",
                if queued { " (queued for a slot)" } else { "" }
            );
        }
        "status" => print_status(&client.status(&args.tenant, args.job)?),
        "wait" => {
            let st = client.wait_finished(&args.tenant, args.job, args.timeout_ms)?;
            print_status(&st);
            if matches!(st.phase, JobPhase::Queued | JobPhase::Running) {
                eprintln!("timed out after {} ms", args.timeout_ms);
                exit(3);
            }
        }
        "factors" => {
            let (w, h) = client.factors(&args.tenant, args.job)?;
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
            client.cancel(&args.tenant, args.job)?;
            println!("job {} cancelled", args.job);
        }
        "checkpoint" => {
            let path = args.path.as_deref().expect("validated");
            client.checkpoint(&args.tenant, args.job, path)?;
            println!("job {} checkpointed to {path}", args.job);
        }
        "stats" => {
            let t = client.tenant_stats(&args.tenant)?;
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
fn smoke(endpoint: &Endpoint) -> Result<(), ServeError> {
    let tenants = ["alpha", "beta", "gamma"];
    let handles: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let endpoint = endpoint.clone();
            let tenant = tenant.to_string();
            std::thread::spawn(move || -> Result<(), ServeError> {
                let mut spec = default_spec();
                spec.source = JobSource::Dataset {
                    kind: "ssyn".into(),
                    scale: 4000,
                    seed: i as u64 + 1,
                };
                spec.k = 4;
                spec.ranks = 1;
                spec.algo = hpc_nmf::Algo::Sequential;
                spec.max_iters = 4;
                let mut client = Client::new(endpoint.connect()?);
                let job = client.submit(&tenant, &spec)?;
                let st = client.wait_finished(&tenant, job, 60_000)?;
                if st.phase != JobPhase::Finished {
                    return Err(ServeError::BadFrame {
                        reason: format!("tenant {tenant} job did not finish: {st:?}"),
                    });
                }
                let (w, h) = client.factors(&tenant, job)?;
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
    let mut client = Client::new(endpoint.connect()?);
    client.shutdown()?;
    if failed {
        exit(1);
    }
    println!("smoke passed: 3 tenants served, server shut down");
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(errors) => {
            print_help();
            for e in &errors {
                eprintln!("error: {e}");
            }
            exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("error: {e}");
        exit(if e.is_quota() { 4 } else { 1 });
    }
}
