//! The full stack over a real Unix socket: one server process-alike
//! (spawned on a thread), several tenants on their own connections,
//! typed quota errors across the wire, and a clean shutdown.

use nmf_serve::prelude::*;
use std::path::PathBuf;

fn sock_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nmf-serve-{tag}-{}.sock", std::process::id()))
}

fn small_spec(seed: u64) -> JobSpec {
    JobSpec {
        source: JobSource::Dense {
            m: 16,
            n: 10,
            data: (0..16 * 10)
                .map(|i| ((i * 3 + 1) % 9) as f64 + 0.25)
                .collect(),
        },
        k: 3,
        ranks: 1,
        algo: hpc_nmf::Algo::Sequential,
        solver: nmf_nls::SolverKind::Bpp,
        max_iters: 5,
        seed,
        tol: None,
    }
}

#[test]
fn three_tenants_over_a_unix_socket_with_clean_shutdown() {
    let path = sock_path("smoke");
    let listener = UnixSocketListener::bind(&path).expect("bind");
    let server = Server::new(ServerConfig::default());
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));

    let tenants = ["alpha", "beta", "gamma"];
    let handles: Vec<_> = tenants
        .iter()
        .enumerate()
        .map(|(i, tenant)| {
            let path = path.clone();
            let tenant = tenant.to_string();
            std::thread::spawn(move || {
                let mut client =
                    Client::new(Box::new(UnixTransport::connect(&path).expect("connect")));
                let spec = small_spec(i as u64 + 1);
                let job = client.submit(&tenant, &spec).expect("submit");
                let st = client.wait_finished(&tenant, job, 10_000).expect("wait");
                assert_eq!(st.phase, JobPhase::Finished, "{tenant}: {st:?}");
                assert_eq!(st.iterations, 5);
                let (w, h) = client.factors(&tenant, job).expect("factors");
                assert_eq!(w.shape(), (16, 3));
                assert_eq!(h.shape(), (3, 10));
                let report = client.tenant_stats(&tenant).expect("stats");
                assert_eq!(report.jobs_finished, 1);
                // Release and confirm the bytes come back.
                client.cancel(&tenant, job).expect("release");
                let report = client.tenant_stats(&tenant).expect("stats");
                assert_eq!(report.resident_bytes, 0);
            })
        })
        .collect();
    for h in handles {
        h.join().expect("tenant thread");
    }

    let mut client = Client::new(Box::new(UnixTransport::connect(&path).expect("connect")));
    client.shutdown().expect("shutdown");
    let stats = core.join().expect("core thread");
    assert_eq!(stats.connections, 4, "3 tenants + the shutdown client");
    assert_eq!(stats.jobs_finished, 3);
    assert!(!path.exists(), "socket file removed on shutdown");
}

#[test]
fn quota_errors_cross_the_wire_typed() {
    let path = sock_path("quota");
    let listener = UnixSocketListener::bind(&path).expect("bind");
    let mut server = Server::new(ServerConfig {
        default_quota: TenantQuota {
            max_concurrent_jobs: 1,
            max_queued_jobs: 0,
            ..TenantQuota::default()
        },
        ..ServerConfig::default()
    });
    // One tenant gets a byte quota too small for any job.
    server.set_quota(
        "starved",
        TenantQuota {
            max_resident_bytes: 16,
            ..TenantQuota::default()
        },
    );
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
    let mut client = Client::new(Box::new(UnixTransport::connect(&path).expect("connect")));

    // Job-count quota: second concurrent submit is refused, typed. The
    // first job must still be occupying its slot when the second submit
    // lands, so give it far more iterations than the gap allows.
    let mut long = small_spec(1);
    long.max_iters = 1_000_000;
    client.submit("acme", &long).expect("first fits");
    let err = client.submit("acme", &small_spec(2)).expect_err("quota");
    assert_eq!(err.code(), ErrorCode::QuotaJobs);
    assert!(err.is_quota());

    // Byte quota, different tenant, different code.
    let err = client.submit("starved", &small_spec(3)).expect_err("bytes");
    assert_eq!(err.code(), ErrorCode::QuotaBytes);

    // Unknown names are typed too.
    let err = client.status("ghost", 1).expect_err("unknown tenant");
    assert_eq!(err.code(), ErrorCode::UnknownTenant);
    let err = client.status("acme", 999).expect_err("unknown job");
    assert_eq!(err.code(), ErrorCode::UnknownJob);

    client.shutdown().expect("shutdown");
    core.join().expect("core thread");
}

#[test]
fn checkpoint_written_by_the_server_is_inspectable() {
    let path = sock_path("ckpt");
    let listener = UnixSocketListener::bind(&path).expect("bind");
    let server = Server::new(ServerConfig::default());
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
    let mut client = Client::new(Box::new(UnixTransport::connect(&path).expect("connect")));

    let job = client.submit("acme", &small_spec(9)).expect("submit");
    client.wait_finished("acme", job, 10_000).expect("finishes");
    let ckpt = std::env::temp_dir().join(format!("nmf-serve-ckpt-{}.ckpt", std::process::id()));
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8 path"))
        .expect("server-side save");

    let summary = hpc_nmf::inspect_checkpoint(&ckpt).expect("inspectable");
    assert_eq!((summary.meta.m, summary.meta.n), (16, 10));
    assert_eq!(summary.meta.config.k, 3);
    assert_eq!(summary.iterations_done, 5);
    assert_eq!(summary.factor_blocks, 1);
    assert_eq!((summary.w_shape, summary.ht_shape), ((16, 3), (10, 3)));
    std::fs::remove_file(&ckpt).ok();

    client.shutdown().expect("shutdown");
    core.join().expect("core thread");
}
