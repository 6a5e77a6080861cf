//! The core correctness property of the reproduction: every parallel
//! driver, on any processor count and grid, performs the *same
//! computation* as the sequential ANLS reference (paper §6.1.3), so the
//! factors must agree to floating-point-reassociation tolerance.

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::{matmul, Mat};
use nmf_sparse::gen::{banded, erdos_renyi};

/// `algo` on `p` ranks over `input`, run to its stopping condition.
fn fit(input: &Input, p: usize, algo: Algo, config: &NmfConfig) -> NmfOutput {
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(p)
        .build()
        .expect("valid request");
    model.run();
    model.into_output()
}

const TOL: f64 = 1e-8;

fn dense_input(m: usize, n: usize, k: usize, seed: u64) -> Input {
    let w = Mat::uniform(m, k, seed);
    let h = Mat::uniform(k, n, seed + 1);
    let mut a = matmul(&w, &h);
    // Mild noise so the optimum is not exactly rank-k (more realistic
    // pivoting paths in BPP).
    let noise = Mat::uniform(m, n, seed + 2);
    for (av, nv) in a.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *av += 0.01 * nv;
    }
    Input::Dense(a)
}

fn assert_matches_sequential(input: &Input, p: usize, algo: Algo, config: &NmfConfig) {
    let seq = fit(input, 1, Algo::Sequential, config);
    let par = fit(input, p, algo, config);
    let dw = par.w.max_abs_diff(&seq.w);
    let dh = par.h.max_abs_diff(&seq.h);
    assert!(
        dw < TOL && dh < TOL,
        "{} p={p}: factors diverge from sequential (dW={dw:.2e}, dH={dh:.2e})",
        algo.name()
    );
    let rel = (par.objective - seq.objective).abs() / seq.objective.abs().max(1.0);
    assert!(
        rel < 1e-9,
        "{} p={p}: objective {} vs {}",
        algo.name(),
        par.objective,
        seq.objective
    );
}

#[test]
fn naive_matches_sequential_dense() {
    let input = dense_input(36, 28, 4, 1);
    let config = NmfConfig::new(4).with_max_iters(8);
    for p in [1, 2, 3, 4, 6] {
        assert_matches_sequential(&input, p, Algo::Naive, &config);
    }
}

#[test]
fn hpc_1d_matches_sequential_dense() {
    let input = dense_input(36, 28, 4, 2);
    let config = NmfConfig::new(4).with_max_iters(8);
    for p in [1, 2, 4, 5] {
        assert_matches_sequential(&input, p, Algo::Hpc1D, &config);
    }
}

#[test]
fn hpc_2d_matches_sequential_dense() {
    let input = dense_input(40, 32, 4, 3);
    let config = NmfConfig::new(4).with_max_iters(8);
    for p in [4, 6, 9, 12] {
        assert_matches_sequential(&input, p, Algo::Hpc2D, &config);
    }
}

#[test]
fn hpc_explicit_grids_match_sequential() {
    let input = dense_input(30, 24, 3, 4);
    let config = NmfConfig::new(3).with_max_iters(6);
    for (pr, pc) in [(2, 3), (3, 2), (1, 4), (4, 1), (2, 2)] {
        let grid = Grid::new(pr, pc);
        assert_matches_sequential(&input, pr * pc, Algo::HpcGrid(grid), &config);
    }
}

#[test]
fn all_solvers_match_sequential_in_parallel() {
    let input = dense_input(32, 24, 3, 5);
    for solver in SolverKind::ALL {
        let config = NmfConfig::new(3).with_max_iters(6).with_solver(solver);
        assert_matches_sequential(&input, 6, Algo::Hpc2D, &config);
        assert_matches_sequential(&input, 4, Algo::Naive, &config);
    }
}

#[test]
fn sparse_inputs_match_sequential() {
    let er = Input::Sparse(erdos_renyi(48, 40, 0.15, 9));
    let config = NmfConfig::new(5).with_max_iters(6);
    assert_matches_sequential(&er, 6, Algo::Hpc2D, &config);
    assert_matches_sequential(&er, 4, Algo::Naive, &config);
    assert_matches_sequential(&er, 3, Algo::Hpc1D, &config);

    let bd = Input::Sparse(banded(45, 4));
    assert_matches_sequential(&bd, 9, Algo::Hpc2D, &config);
}

#[test]
fn uneven_dimensions_are_handled() {
    // Dimensions deliberately not divisible by the grid.
    let input = dense_input(37, 29, 3, 10);
    let config = NmfConfig::new(3).with_max_iters(5);
    for p in [2, 3, 4, 6, 8] {
        assert_matches_sequential(&input, p, Algo::Hpc2D, &config);
        assert_matches_sequential(&input, p, Algo::Naive, &config);
    }
}

#[test]
fn tall_skinny_prefers_and_supports_1d() {
    // Video-like aspect ratio: m >> n.
    let input = dense_input(200, 12, 3, 11);
    let config = NmfConfig::new(3).with_max_iters(5);
    let g = Algo::Hpc2D.grid(200, 12, 8);
    assert_eq!(g.pc, 1, "optimal grid for tall-skinny should be 1D");
    assert_matches_sequential(&input, 8, Algo::Hpc2D, &config);
}

#[test]
fn iterates_are_monotone_in_parallel() {
    let input = dense_input(40, 30, 4, 12);
    for solver in SolverKind::ALL {
        let out = fit(
            &input,
            6,
            Algo::Hpc2D,
            &NmfConfig::new(4).with_max_iters(10).with_solver(solver),
        );
        let hist = out.history();
        for wpair in hist.windows(2) {
            assert!(
                wpair[1] <= wpair[0] * (1.0 + 1e-9) + 1e-9,
                "{solver:?} objective increased in parallel: {wpair:?}"
            );
        }
    }
}

#[test]
fn factors_are_nonnegative_and_shaped() {
    let input = dense_input(33, 27, 5, 13);
    let out = fit(&input, 6, Algo::Hpc2D, &NmfConfig::new(5).with_max_iters(4));
    assert_eq!(out.w.shape(), (33, 5));
    assert_eq!(out.h.shape(), (5, 27));
    assert!(out.w.all_nonnegative());
    assert!(out.h.all_nonnegative());
    assert!(out.rel_error >= 0.0 && out.rel_error < 1.0);
}

#[test]
fn tolerance_early_exit_is_consistent_across_ranks() {
    let input = dense_input(30, 24, 3, 14);
    let config = NmfConfig::new(3).with_max_iters(100).with_tol(1e-7);
    let seq = fit(&input, 1, Algo::Sequential, &config);
    let par = fit(&input, 4, Algo::Hpc2D, &config);
    assert_eq!(
        seq.iterations, par.iterations,
        "early exit must happen at the same iteration"
    );
}
