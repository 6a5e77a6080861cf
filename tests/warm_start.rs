//! Warm-start (incremental) factorization tests: the paper's streaming
//! video scenario (§6.1.1) — when new data arrives, restarting ANLS from
//! the previous factors should converge much faster than a cold start.

use hpc_nmf::init_ht;
use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::{matmul, Mat};
use nmf_sparse::gen::chung_lu_power_law;

/// `builder`'s model run to its stopping condition.
fn fit(builder: NmfBuilder) -> NmfOutput {
    let mut model = builder.build().expect("valid request");
    model.run();
    model.into_output()
}

/// A "video" whose background drifts slightly between two windows.
fn window(m: usize, n: usize, k: usize, drift: f64, seed: u64) -> Input {
    let w = Mat::uniform(m, k, seed);
    let h = Mat::uniform(k, n, seed + 1);
    let mut a = matmul(&w, &h);
    let noise = Mat::uniform(m, n, seed + 2);
    for (av, nv) in a.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *av += drift * nv;
    }
    Input::Dense(a)
}

#[test]
fn warm_start_converges_faster_than_cold() {
    let (m, n, k) = (60, 40, 4);
    let config = NmfConfig::new(k).with_max_iters(25);
    // Fit window 1 from scratch.
    let hpc2d =
        |input: &Input, config: NmfConfig| Nmf::on(input).config(config).algo(Algo::Hpc2D).ranks(4);
    let first = fit(hpc2d(&window(m, n, k, 0.0, 10), config));

    // Window 2: same planted structure, small drift.
    let second = window(m, n, k, 0.05, 10);
    let budget = NmfConfig::new(k).with_max_iters(3);
    let cold = fit(hpc2d(&second, budget));
    let mut ht_prev = first.h.transpose();
    // Previous factors may contain exact zeros; keep them valid inits.
    ht_prev.project_nonnegative();
    let warm = fit(hpc2d(&second, budget).warm_start(first.w.clone(), ht_prev));
    assert!(
        warm.objective < cold.objective,
        "warm start ({}) should beat cold start ({}) on a small budget",
        warm.objective,
        cold.objective
    );
}

#[test]
fn warm_start_is_consistent_across_drivers() {
    let (m, n, k) = (36, 28, 3);
    let input = window(m, n, k, 0.1, 20);
    let w0 = Mat::uniform(m, k, 21);
    let ht0 = init_ht(n, k, 22);
    let config = NmfConfig::new(k).with_max_iters(4);
    let seq = fit(Nmf::on(&input)
        .config(config)
        .warm_start(w0.clone(), ht0.clone()));
    for (p, algo) in [(4usize, Algo::Hpc2D), (3, Algo::Naive), (2, Algo::Hpc1D)] {
        let par = fit(Nmf::on(&input)
            .config(config)
            .algo(algo)
            .ranks(p)
            .warm_start(w0.clone(), ht0.clone()));
        assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8 && par.h.max_abs_diff(&seq.h) < 1e-8,
            "{} warm start diverged from sequential",
            algo.name()
        );
    }
}

#[test]
fn warm_start_validates_shapes() {
    let input = window(20, 15, 3, 0.0, 30);
    let err = Nmf::on(&input)
        .config(NmfConfig::new(3))
        .algo(Algo::Hpc2D)
        .ranks(2)
        .warm_start(Mat::zeros(5, 3), Mat::zeros(15, 3))
        .build()
        .expect_err("a 5-row W for a 20-row input");
    assert!(
        matches!(
            err,
            NmfError::WarmStartShape {
                which: "W",
                expected: (20, 3),
                got: (5, 3)
            }
        ),
        "got {err:?}"
    );
}

/// Warm starts and refits hand the model factors in original row order.
/// On a skewed sparse input — dealt to ranks in a balanced order, see
/// `docs/sharded-input.md` — they must reach the ranks through that
/// order: restarting from a finished run's factors reproduces the run's
/// next step, and a refit at a new `k` equals a fresh build at that `k`.
#[test]
fn warm_start_and_refit_cross_a_relabelled_input() {
    let input = Input::Sparse(chung_lu_power_law(240, 1400, 2.1, 17));
    assert!(SharedInput::new(input.clone())
        .balance()
        .cols
        .is_some_and(|d| d.relabelled));
    let build = |k: usize| {
        Nmf::on(&input)
            .config(NmfConfig::new(k).with_max_iters(5).with_seed(3))
            .algo(Algo::Hpc2D)
            .ranks(4)
    };

    let mut run = build(4).build().expect("valid request");
    for _ in 0..4 {
        run.step();
    }
    let (w, h) = run.factors();
    let next = run.step().objective;
    let mut warm = build(4)
        .warm_start(w, h.transpose())
        .build()
        .expect("valid warm start");
    let resumed = warm.step().objective;
    assert!(
        (resumed - next).abs() <= 1e-9 * next.abs(),
        "warm start reached {resumed}, the run it continues {next}"
    );

    run.refit(NmfConfig::new(6).with_max_iters(5).with_seed(3))
        .expect("refit");
    run.run();
    let mut fresh = build(6).build().expect("valid request");
    fresh.run();
    assert_eq!(run.factors().0, fresh.factors().0, "refit W differs");
    assert_eq!(run.factors().1, fresh.factors().1, "refit H differs");
}
