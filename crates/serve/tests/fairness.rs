//! Fairness and quota enforcement of the serving scheduler, measured at
//! the registry level where step accounting is exact and deterministic.

use hpc_nmf::Algo;
use nmf_nls::SolverKind;
use nmf_serve::{
    JobPhase, JobSource, JobSpec, Registry, Scheduler, SchedulerConfig, ServeError, TenantQuota,
};

fn spec(iters: usize, seed: u64) -> JobSpec {
    JobSpec {
        source: JobSource::Dense {
            m: 18,
            n: 12,
            data: (0..18 * 12)
                .map(|i| ((i * 7 + 3) % 11) as f64 + 0.5)
                .collect(),
        },
        k: 3,
        ranks: 1,
        algo: Algo::Sequential,
        solver: SolverKind::Bpp,
        max_iters: iters,
        seed,
        tol: None,
    }
}

/// Eight tenants with wildly different offered load — one job each for
/// seven of them, eight jobs for the hog — all saturating. Under the
/// per-tenant step budget, every tenant's share of completed steps must
/// stay within 2× of fair share (1/8) for the whole window.
#[test]
fn saturated_tenants_get_within_2x_of_fair_share() {
    let quota = TenantQuota {
        max_concurrent_jobs: 8,
        max_queued_jobs: 16,
        steps_per_quantum: 6,
        ..TenantQuota::default()
    };
    let mut reg = Registry::new(quota, 4);
    let tenants: Vec<String> = (0..8).map(|i| format!("tenant-{i}")).collect();
    for (i, t) in tenants.iter().enumerate() {
        // Long enough that nobody drains their work during the window.
        let jobs = if i == 0 { 8 } else { 1 };
        for j in 0..jobs {
            reg.submit(t, spec(10_000, (i * 10 + j) as u64))
                .expect("admit");
        }
    }

    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 2 });
    let quanta = 12;
    for _ in 0..quanta {
        sched.run_quantum(&mut reg);
    }

    let steps = reg.steps_by_tenant();
    let total: u64 = steps.values().sum();
    assert!(total > 0);
    let fair = total as f64 / tenants.len() as f64;
    for (tenant, &s) in &steps {
        let share = s as f64;
        assert!(
            share >= fair / 2.0 && share <= fair * 2.0,
            "{tenant} got {share} steps; fair share is {fair} (all: {steps:?})"
        );
    }
    // With everyone saturated the budget makes it exactly equal, not
    // just within 2x: the hog's 8 jobs buy it nothing.
    let max = steps.values().max().copied().unwrap();
    let min = steps.values().min().copied().unwrap();
    assert_eq!(max, min, "equal budgets, equal steps: {steps:?}");
    assert_eq!(max, (quanta * quota.steps_per_quantum) as u64);
}

/// A tenant with a bigger configured budget gets proportionally more —
/// the quota is the policy knob, not job count.
#[test]
fn step_budget_is_the_knob_that_buys_throughput() {
    let mut reg = Registry::new(TenantQuota::default(), 4);
    reg.set_quota(
        "gold",
        TenantQuota {
            steps_per_quantum: 12,
            ..TenantQuota::default()
        },
    );
    reg.set_quota(
        "bronze",
        TenantQuota {
            steps_per_quantum: 3,
            ..TenantQuota::default()
        },
    );
    reg.submit("gold", spec(10_000, 1)).expect("admit");
    reg.submit("bronze", spec(10_000, 2)).expect("admit");
    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 4 });
    for _ in 0..6 {
        sched.run_quantum(&mut reg);
    }
    let steps = reg.steps_by_tenant();
    assert_eq!(steps["gold"], 4 * steps["bronze"], "{steps:?}");
}

/// Quota exhaustion end to end: concurrency, queue depth, and bytes all
/// reject with their own typed error, and capacity returns after cancel.
#[test]
fn quota_exhaustion_rejects_typed_and_recovers() {
    let tiny = spec(10_000, 5);
    let job_bytes = tiny.projected_factor_bytes().expect("dense");
    let quota = TenantQuota {
        max_concurrent_jobs: 1,
        max_queued_jobs: 1,
        max_resident_bytes: job_bytes * 2, // exactly two jobs' worth
        steps_per_quantum: 4,
    };
    let mut reg = Registry::new(quota, 4);
    let (first, q1) = reg.submit("acme", tiny.clone()).expect("slot");
    let (_second, q2) = reg.submit("acme", tiny.clone()).expect("queue");
    assert!(!q1 && q2);

    // Third submit: the job-count quota fires (bytes would also be over,
    // but admission checks bytes first — either way it must NOT enter).
    let err = reg.submit("acme", tiny.clone()).expect_err("rejected");
    assert!(
        matches!(
            err,
            ServeError::QuotaBytes { .. } | ServeError::QuotaJobs { .. }
        ),
        "{err}"
    );
    assert!(err.is_quota());

    // A second tenant is unaffected by the first one's exhaustion.
    reg.submit("zen", tiny.clone())
        .expect("other tenant admits");

    // Run a few quanta so the first job builds and holds real bytes.
    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 2 });
    sched.run_quantum(&mut reg);
    assert_eq!(
        reg.status("acme", first).expect("status").phase,
        JobPhase::Running
    );

    // Cancelling the running job frees both the slot and the bytes.
    reg.cancel("acme", first).expect("cancel");
    reg.submit("acme", tiny).expect("capacity recovered");
}

/// The byte quota alone rejects an oversized single job even when every
/// slot is free.
#[test]
fn byte_quota_rejects_an_oversized_job_outright() {
    let quota = TenantQuota {
        max_resident_bytes: 512, // below the 8*(18+12)*3 = 720 this job needs
        ..TenantQuota::default()
    };
    let mut reg = Registry::new(quota, 4);
    let err = reg.submit("acme", spec(100, 1)).expect_err("too big");
    match err {
        ServeError::QuotaBytes {
            requested, limit, ..
        } => {
            assert_eq!(requested, 8 * (18 + 12) * 3);
            assert_eq!(limit, 512);
        }
        other => panic!("expected QuotaBytes, got {other}"),
    }
}
