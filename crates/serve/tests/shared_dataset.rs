//! Dataset sharing across tenants: two tenants factorizing one dataset
//! hold one `SharedInput` between them — the shared bytes are charged
//! once server-wide, never doubled per tenant — while the per-tenant
//! factor-byte quota keeps rejecting exactly as before.

use hpc_nmf::Algo;
use hpc_nmf::{Input, Nmf, SharedInput};
use nmf_data::DatasetKind;
use nmf_nls::SolverKind;
use nmf_serve::{
    JobSource, JobSpec, Registry, Scheduler, SchedulerConfig, ServeError, TenantQuota,
};

/// An SSYN job small enough to step quickly (scale 2400 → 72×48).
fn dataset_spec(seed: u64, iters: usize) -> JobSpec {
    JobSpec {
        source: JobSource::Dataset {
            kind: "ssyn".into(),
            scale: 2400,
            seed,
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

#[test]
fn two_tenants_share_one_dataset_without_doubling_bytes() {
    let mut reg = Registry::new(TenantQuota::default(), 4);
    reg.submit("alice", dataset_spec(7, 50)).expect("admit");
    reg.submit("bob", dataset_spec(7, 50)).expect("admit");

    // Promotion (inside the quantum) builds both models; the second
    // build must hit the cache, not add a second copy.
    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 2 });
    sched.run_quantum(&mut reg);

    assert_eq!(reg.cached_datasets(), 1, "one dataset identity, one entry");
    let shared = reg.shared_input_bytes();
    assert!(shared > 0, "a cached sparse dataset holds resident bytes");

    let alice = reg.tenant_report("alice").expect("report");
    let bob = reg.tenant_report("bob").expect("report");
    assert_eq!(alice.shared_input_bytes, shared as u64);
    assert_eq!(
        alice.shared_input_bytes, bob.shared_input_bytes,
        "both tenants see the same deduplicated figure"
    );

    // A different seed is a different dataset identity: now (and only
    // now) the cache grows.
    reg.submit("carol", dataset_spec(8, 50)).expect("admit");
    sched.run_quantum(&mut reg);
    assert_eq!(reg.cached_datasets(), 2);
    assert!(reg.shared_input_bytes() > shared);
}

#[test]
fn factor_byte_quota_still_rejects_regardless_of_sharing() {
    // Quota sized for exactly one k=3 job over the 72×48 dataset:
    // factor bytes are 8·(m+n)·k per job; the shared input bytes are
    // charged server-wide and must NOT count against this budget.
    let one_job = 8 * (72 + 48) * 3;
    let quota = TenantQuota {
        max_resident_bytes: one_job + one_job / 2,
        ..TenantQuota::default()
    };
    let mut reg = Registry::new(quota, 4);
    reg.submit("dave", dataset_spec(7, 50)).expect("first fits");
    let err = reg
        .submit("dave", dataset_spec(7, 50))
        .expect_err("second job must breach the factor-byte quota");
    assert!(
        matches!(err, ServeError::QuotaBytes { .. }),
        "expected QuotaBytes, got {err:?}"
    );

    // The same second job is fine for another tenant: the quota is
    // per-tenant factor bytes, and the dataset they share is free.
    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 1 });
    sched.run_quantum(&mut reg);
    reg.submit("erin", dataset_spec(7, 50)).expect("admit");
    sched.run_quantum(&mut reg);
    assert_eq!(reg.cached_datasets(), 1);
}

/// A served power-law dataset is dealt to ranks in a balanced order (see
/// `docs/sharded-input.md`), and the `Factors` reply is still in
/// original row order: it equals a local run of the same spec, and that
/// of the input's dense twin, which is never relabelled.
#[test]
fn served_factors_of_a_relabelled_dataset_are_in_original_order() {
    let spec = JobSpec {
        source: JobSource::Dataset {
            kind: "webbase".into(),
            scale: 2000,
            seed: 5,
        },
        k: 3,
        ranks: 2,
        algo: Algo::Hpc2D,
        solver: SolverKind::Bpp,
        max_iters: 5,
        seed: 5,
        tol: None,
    };
    let mut reg = Registry::new(TenantQuota::default(), 4);
    let (job, _) = reg.submit("alice", spec).expect("admit");
    let mut sched = Scheduler::new(SchedulerConfig { grant_steps: 5 });
    while reg.has_runnable_work() {
        sched.run_quantum(&mut reg);
    }
    let (w, h) = reg.factors("alice", job).expect("factors");

    let input = DatasetKind::Webbase.build(2000, 5).input;
    let balance = SharedInput::new(input.clone()).balance();
    assert!(balance.rows.is_some_and(|d| d.relabelled), "{balance:?}");
    let Input::Sparse(a) = &input else {
        panic!("webbase is sparse");
    };
    let twin = Input::Dense(a.to_dense());
    for (what, local) in [("the same input", &input), ("its dense twin", &twin)] {
        let mut model = Nmf::on(local)
            .rank(3)
            .ranks(2)
            .algo(Algo::Hpc2D)
            .solver(SolverKind::Bpp)
            .max_iters(5)
            .seed(5)
            .build()
            .expect("valid request");
        model.run();
        let (lw, lh) = model.factors();
        assert!(
            w.max_abs_diff(&lw) <= 1e-9 && h.max_abs_diff(&lh) <= 1e-9,
            "served factors differ from a local run on {what}"
        );
    }
}
