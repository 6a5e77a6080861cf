//! Batch front-end: run any algorithm to completion on a whole input.
//!
//! The one batch wrapper over the session: [`factorize`] builds a
//! [`Model`](crate::session::Model) through
//! [`Nmf::on`](crate::session::Nmf::on), runs it to its stopping
//! condition, and assembles the classic [`NmfOutput`]. One-shot
//! factorization is a specialization of the resumable session, not the
//! other way around — new code should prefer
//! [`Nmf::on(..)`](crate::session::Nmf::on) directly, which reports
//! invalid requests as [`NmfError`](crate::error::NmfError) values
//! instead of this wrapper's historical panics.
//!
//! `algo` picks the paper's algorithm — [`Algo::Sequential`] is
//! Algorithm 1 (the single-process reference, run as Algorithm 3 on a
//! 1×1 grid), [`Algo::Naive`] Algorithm 2, the `Hpc*` variants
//! Algorithm 3 — and all three start from the same seeded initialization
//! and run the same engine, so every parallel run must reproduce the
//! sequential run's iterates to floating-point reassociation tolerance:
//! the core correctness property of the reproduction, mirroring the
//! paper's §6.1.3 protocol (`tests/parallel_vs_sequential.rs`). The
//! sequential trajectories themselves are pinned to the bit by
//! `tests/trajectory_golden.rs`.

use crate::config::{Algo, NmfConfig, NmfOutput};
use crate::input::Input;
use crate::session::Nmf;

use nmf_matrix::Mat;
use nmf_vmpi::CommStats;

/// Runs `algo` on `p` ranks over `input` and returns assembled factors
/// plus per-rank instrumentation.
pub fn factorize(input: &Input, p: usize, algo: Algo, config: &NmfConfig) -> NmfOutput {
    let (m, n) = input.shape();
    let w0 = crate::config::init_w(m, config.k, config.seed);
    let ht0 = crate::config::init_ht(n, config.k, config.seed);
    factorize_from(input, p, algo, config, w0, ht0)
}

/// Like [`factorize`], but starting from explicit factors (warm start):
/// `w0` is `m×k` and `ht0` is `n×k` (`H` transposed, row `j` = column
/// `j` of `H`). Use this to refine a factorization after the data
/// changes incrementally — e.g. appending frames to the video matrix
/// (the paper's §6.1.1 scenario) — instead of re-solving from a random
/// initialization.
pub fn factorize_from(
    input: &Input,
    p: usize,
    algo: Algo,
    config: &NmfConfig,
    w0: Mat,
    ht0: Mat,
) -> NmfOutput {
    let (m, n) = input.shape();
    // Historical panic contract, kept for source compatibility (the
    // builder would report these as NmfError::WarmStartShape).
    assert_eq!(w0.shape(), (m, config.k), "w0 shape mismatch");
    assert_eq!(ht0.shape(), (n, config.k), "ht0 shape mismatch");
    // The classic API ignored `p` for the sequential algorithm.
    let ranks = if matches!(algo, Algo::Sequential) {
        1
    } else {
        p
    };
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(ranks)
        .warm_start(w0, ht0)
        .build()
        .unwrap_or_else(|e| panic!("invalid factorization request: {e}"));
    model.run();
    model.into_output()
}

/// Sum of all ranks' communication counters.
pub fn total_comm(out: &NmfOutput) -> CommStats {
    let mut total = CommStats::new();
    for s in &out.rank_comm {
        total.merge(s);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::ops::dense_relative_error;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{matmul, Mat};
    use nmf_nls::SolverKind;
    use nmf_sparse::gen::erdos_renyi;

    fn sequential(input: &Input, config: &NmfConfig) -> NmfOutput {
        factorize(input, 1, Algo::Sequential, config)
    }

    fn low_rank_input(m: usize, n: usize, k: usize, seed: u64) -> Input {
        let w = Mat::uniform(m, k, seed);
        let h = Mat::uniform(k, n, seed + 1);
        Input::Dense(matmul(&w, &h))
    }

    #[test]
    fn recovers_exact_low_rank_structure() {
        // A has exact nonnegative rank 4; BPP-ANLS should drive the
        // relative error near zero.
        let input = low_rank_input(40, 30, 4, 81);
        let out = sequential(&input, &NmfConfig::new(4).with_max_iters(50).with_seed(3));
        // ANLS converges to a stationary point, not necessarily the
        // global optimum; <1% on exact rank-4 data demonstrates the
        // structure is recovered (the initial error is ~30%).
        assert!(
            out.rel_error < 1e-2,
            "rel_error {} too large",
            out.rel_error
        );
        assert!(out.w.all_nonnegative());
        assert!(out.h.all_nonnegative());
        if let Input::Dense(a) = &input {
            let direct = dense_relative_error(a, &out.w, &out.h);
            assert!(
                (direct - out.rel_error).abs() < 1e-6 + 0.05 * direct,
                "Gram-identity error {} vs direct {}",
                out.rel_error,
                direct
            );
        }
    }

    #[test]
    fn objective_decreases_for_every_solver() {
        let input = low_rank_input(25, 20, 3, 82);
        for solver in SolverKind::ALL {
            let out = sequential(
                &input,
                &NmfConfig::new(5)
                    .with_solver(solver)
                    .with_max_iters(15)
                    .with_seed(4),
            );
            let hist = out.history();
            for win in hist.windows(2) {
                assert!(
                    win[1] <= win[0] * (1.0 + 1e-9) + 1e-9,
                    "{solver:?} objective increased: {win:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_input_works() {
        let a = erdos_renyi(60, 50, 0.1, 83);
        let out = sequential(&Input::Sparse(a), &NmfConfig::new(6).with_max_iters(10));
        assert!(out.rel_error < 1.0);
        assert!(out.w.all_nonnegative() && out.h.all_nonnegative());
        assert_eq!(out.w.shape(), (60, 6));
        assert_eq!(out.h.shape(), (6, 50));
    }

    #[test]
    fn tolerance_stops_early() {
        let input = low_rank_input(30, 25, 3, 84);
        let out = sequential(
            &input,
            &NmfConfig::new(3).with_max_iters(200).with_tol(1e-6),
        );
        assert!(out.iterations < 200, "tolerance should trigger early exit");
    }

    #[test]
    fn same_seed_same_result() {
        let input = low_rank_input(20, 15, 3, 85);
        let a = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
        let b = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
        assert_eq!(a.w, b.w);
        assert_eq!(a.h, b.h);
    }
}
