//! The serving daemon: binds a Unix socket (or a loopback TCP address)
//! and multiplexes every connected tenant's NMF jobs onto this process.
//!
//! ```sh
//! cargo run --release -p nmf_serve --bin nmf_serve -- --socket /tmp/nmf.sock
//! cargo run --release -p nmf_serve --bin nmf_serve -- --tcp 127.0.0.1:7410
//! cargo run --release -p nmf_serve --bin nmf_serve -- --socket /tmp/nmf.sock \
//!     --max-concurrent 2 --steps-per-quantum 8 --max-resident-mb 64
//! ```
//!
//! The process runs until a client sends `shutdown` (see
//! `nmf_serve_client`). Final run counters go to stdout.

use hpc_nmf::flags::Flags;
use nmf_serve::prelude::*;
use std::process::exit;

#[derive(Debug, Default)]
struct Args {
    socket: Option<String>,
    tcp: Option<String>,
    /// `ServerConfig::default()` with the flags given applied.
    config: ServerConfig,
}

fn flags() -> Flags<Args> {
    let d = ServerConfig::default();
    let q = d.default_quota;
    Flags::<Args>::new(
        "nmf_serve — multi-tenant NMF model serving over a Unix socket or loopback TCP\n\n\
         usage: nmf_serve (--socket PATH | --tcp ADDR) [flags]",
    )
    .text("--socket PATH", |a| &mut a.socket)
    .help("Unix socket to listen on")
    .text("--tcp ADDR", |a| &mut a.tcp)
    .help("TCP address to listen on (loopback only; port 0 = OS pick)")
    .value("--max-concurrent N", |a, v| {
        v.positive()
            .map(|n| a.config.default_quota.max_concurrent_jobs = n)
    })
    .help("running jobs per tenant")
    .default(q.max_concurrent_jobs)
    .value("--max-queued N", |a, v| {
        v.int().map(|n| a.config.default_quota.max_queued_jobs = n)
    })
    .help("waiting jobs per tenant beyond that")
    .default(q.max_queued_jobs)
    .value("--max-resident-mb N", |a, v| {
        let bytes = v.int::<usize>()?.checked_mul(1 << 20);
        a.config.default_quota.max_resident_bytes =
            bytes.ok_or_else(|| format!("{} is too large", v.flag))?;
        Ok(())
    })
    .help("resident factor MiB per tenant")
    .default(q.max_resident_bytes >> 20)
    .value("--steps-per-quantum N", |a, v| {
        v.positive()
            .map(|n| a.config.default_quota.steps_per_quantum = n)
    })
    .help("engine steps per tenant per quantum")
    .default(q.steps_per_quantum)
    .value("--grant-steps N", |a, v| {
        v.positive().map(|n| a.config.scheduler.grant_steps = n)
    })
    .help("steps per scheduler grant")
    .default(d.scheduler.grant_steps)
    .value("--max-ranks N", |a, v| {
        v.positive().map(|n| a.config.max_ranks_per_job = n)
    })
    .help("virtual-rank cap per job")
    .default(d.max_ranks_per_job)
}

fn parse_args(argv: &[String]) -> Result<Args, Vec<String>> {
    let mut args = Args::default();
    let mut errors = Vec::new();
    for word in flags().parse(argv, &mut args, &mut errors) {
        errors.push(format!("unexpected argument {word}"));
    }
    match (&args.socket, &args.tcp) {
        (None, None) => errors.push("--socket PATH or --tcp ADDR is required".into()),
        (Some(_), Some(_)) => errors
            .push("--socket and --tcp are mutually exclusive (one listener per server)".into()),
        _ => {}
    }
    if errors.is_empty() {
        Ok(args)
    } else {
        Err(errors)
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|errors| flags().fail(&errors));

    let listener: Box<dyn Listener> = if let Some(addr) = &args.tcp {
        match TcpSocketListener::bind(addr) {
            Ok(l) => {
                // Report the resolved address so a :0 bind's OS-chosen
                // port is visible to whoever launched us.
                println!("nmf_serve listening on tcp://{}", l.local_addr());
                Box::new(l)
            }
            Err(e) => {
                eprintln!("error: cannot bind {addr}: {e}");
                exit(2);
            }
        }
    } else {
        let socket = args.socket.expect("validated");
        match UnixSocketListener::bind(&socket) {
            Ok(l) => {
                println!("nmf_serve listening on {socket}");
                Box::new(l)
            }
            Err(e) => {
                eprintln!("error: cannot bind {socket}: {e}");
                exit(2);
            }
        }
    };

    match Server::new(args.config).run(listener) {
        Ok(stats) => {
            println!(
                "served {} requests on {} connections: {} quanta, {} steps, \
                 {} jobs finished ({} failed)",
                stats.requests,
                stats.connections,
                stats.quanta,
                stats.steps,
                stats.jobs_finished,
                stats.jobs_failed
            );
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, Vec<String>> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn accumulates_every_error() {
        let errs = parse("--bogus --max-queued x --max-ranks 0 --grant-steps 0 stray")
            .expect_err("invalid");
        assert_eq!(
            errs,
            [
                "unknown flag --bogus",
                "--max-queued expects an integer, got 'x'",
                "--max-ranks must be >= 1",
                "--grant-steps must be >= 1",
                "unexpected argument stray",
                "--socket PATH or --tcp ADDR is required",
            ]
        );
    }

    #[test]
    fn exactly_one_listener() {
        let errs = parse("--socket s --tcp 127.0.0.1:0").expect_err("two listeners");
        assert_eq!(
            errs,
            ["--socket and --tcp are mutually exclusive (one listener per server)"]
        );
        assert!(parse("--tcp 127.0.0.1:0").is_ok());
    }

    #[test]
    fn flags_override_the_library_defaults() {
        let config = parse("--socket s --max-ranks 2 --max-resident-mb 3")
            .expect("ok")
            .config;
        let d = ServerConfig::default();
        assert_eq!(config.max_ranks_per_job, 2);
        assert_eq!(config.default_quota.max_resident_bytes, 3 << 20);
        assert_eq!(config.scheduler.grant_steps, d.scheduler.grant_steps);
        let q = d.default_quota;
        assert_eq!(
            config.default_quota.max_concurrent_jobs,
            q.max_concurrent_jobs
        );
    }

    #[test]
    fn help_has_one_line_per_accepted_flag() {
        let accepted = [
            "--socket",
            "--tcp",
            "--max-concurrent",
            "--max-queued",
            "--max-resident-mb",
            "--steps-per-quantum",
            "--grant-steps",
            "--max-ranks",
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
