//! Serving quickstart: embed the multi-tenant `nmf_serve` server in a
//! process, drive two tenants over the in-process transport, watch the
//! fair scheduler share the machine, and shut down cleanly.
//!
//! ```sh
//! cargo run --release --example serve_quickstart
//! ```
//!
//! The same client code works against a remote server over a Unix
//! socket — swap the `ChannelConnector` for
//! `UnixTransport::connect("/tmp/nmf.sock")` and start the `nmf_serve`
//! binary. See `docs/serving.md` for the protocol and quota model.

use nmf_serve::prelude::*;

fn job(seed: u64, iters: usize) -> JobSpec {
    JobSpec {
        source: JobSource::Dataset {
            kind: "ssyn".into(),
            scale: 2000, // paper dims / 2000 ≈ 103x69
            seed,
        },
        k: 6,
        ranks: 2,
        algo: hpc_nmf::Algo::Hpc2D,
        solver: nmf_nls::SolverKind::Bpp,
        max_iters: iters,
        seed,
        tol: None,
    }
}

fn main() -> Result<(), ServeError> {
    // 1. Start the server on its own thread. The default quota allows 4
    //    concurrent jobs and 16 engine steps per tenant per quantum.
    let (listener, connector) = channel_listener();
    let server = Server::new(ServerConfig::default());
    let core = std::thread::spawn(move || server.run(Box::new(listener)));

    // 2. Two tenants, each on its own connection. "research" floods the
    //    server with four jobs; "production" submits one. The per-tenant
    //    step budget keeps production's latency unaffected.
    let flood = std::thread::spawn({
        let connector = connector.clone();
        move || -> Result<TenantReport, ServeError> {
            let mut client = Client::new(Box::new(connector.connect()?));
            let jobs: Vec<u64> = (0..4)
                .map(|i| client.submit("research", &job(100 + i, 20)))
                .collect::<Result<_, _>>()?;
            for &j in &jobs {
                client.wait_finished("research", j, 60_000)?;
            }
            client.tenant_stats("research")
        }
    });

    let mut client = Client::new(Box::new(connector.connect()?));
    let j = client.submit("production", &job(7, 20))?;
    let status = client.wait_finished("production", j, 60_000)?;
    println!(
        "production job {j}: {} after {} iterations, objective {:.4e}",
        status.phase.as_str(),
        status.iterations,
        status.objective
    );

    // 3. Factors come back as matrices, valid the moment the job
    //    finishes (or even mid-run).
    let (w, h) = client.factors("production", j)?;
    println!(
        "factors: W {}x{}, H {}x{}",
        w.nrows(),
        w.ncols(),
        h.nrows(),
        h.ncols()
    );

    let research = flood.join().expect("research tenant")?;
    let production = client.tenant_stats("production")?;
    println!(
        "steps completed — research (4 jobs): {}, production (1 job): {}",
        research.steps_completed, production.steps_completed
    );

    // 4. One shutdown request stops the core loop; in-flight state is
    //    dropped (durable state belongs in checkpoints).
    client.shutdown()?;
    let stats = core.join().expect("server thread")?;
    println!(
        "server served {} requests over {} connections in {} quanta",
        stats.requests, stats.connections, stats.quanta
    );
    Ok(())
}
