//! Table 2 reproduction: the *counted* per-iteration communication of
//! each algorithm must match the paper's analytic formulas.
//!
//! | Algorithm | Words per iteration (per rank) | Messages |
//! |---|---|---|
//! | Naive | `O((m+n)k)` | `O(log p)` |
//! | HPC-NMF (m/p > n) | `O(nk)` | `O(log p)` |
//! | HPC-NMF (m/p < n) | `O(√(mnk²/p))` | `O(log p)` |
//!
//! The virtual MPI counts every word each rank actually sends, so for
//! power-of-two grids the comparison is *exact*, not asymptotic:
//!
//! * all-gather of total `n` words over `q` ranks sends `((q−1)/q)·n`;
//! * reduce-scatter likewise;
//! * all-reduce sends `2·((q−1)/q)·n` (Rabenseifner).

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_vmpi::Op;

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

fn run(m: usize, n: usize, k: usize, p: usize, algo: Algo, iters: usize) -> NmfOutput {
    let input = Input::Dense(Mat::uniform(m, n, 42));
    fit(&input, p, algo, &NmfConfig::new(k).with_max_iters(iters))
}

/// Exact per-rank words for an all-gather of `total` words over `q` ranks
/// with equal blocks.
fn ag_words(q: usize, total: usize) -> u64 {
    ((q - 1) * (total / q)) as u64
}

#[test]
fn hpc_2d_all_gather_words_match_formula() {
    // 2 iterations on a 4x4 grid with dims divisible by everything.
    let (m, n, k, p, iters) = (64, 32, 4, 16, 2);
    let grid = Grid::new(4, 4);
    let out = run(m, n, k, p, Algo::HpcGrid(grid), iters);
    // Per iteration, each rank all-gathers its n/p×k H-slice over the
    // grid column (pr ranks, total (n/pc)·k words) and its m/p×k W-slice
    // over the grid row (pc ranks, total (m/pr)·k words).
    let per_iter = ag_words(grid.pr, n / grid.pc * k) + ag_words(grid.pc, m / grid.pr * k);
    for s in &out.rank_comm {
        assert_eq!(s.op(Op::AllGather).words, per_iter * iters as u64);
    }
}

#[test]
fn hpc_2d_reduce_scatter_words_match_formula() {
    let (m, n, k, p, iters) = (64, 32, 4, 16, 2);
    let grid = Grid::new(4, 4);
    let out = run(m, n, k, p, Algo::HpcGrid(grid), iters);
    // Reduce-scatter of V (m/pr × k) over the grid row and of Y
    // (n/pc × k) over the grid column.
    let per_iter = ag_words(grid.pc, m / grid.pr * k) + ag_words(grid.pr, n / grid.pc * k);
    for s in &out.rank_comm {
        assert_eq!(s.op(Op::ReduceScatter).words, per_iter * iters as u64);
    }
}

#[test]
fn hpc_all_reduce_words_match_formula() {
    let (m, n, k, p, iters) = (64, 32, 4, 16, 3);
    let out = run(m, n, k, p, Algo::HpcGrid(Grid::new(4, 4)), iters);
    // Per iteration: two k×k Gram all-reduces + one 2-word objective
    // all-reduce + the one-time ‖A‖² scalar all-reduce.
    // Rabenseifner sends 2·((p−1)/p)·words per rank, exact when p | words.
    let kk = (k * k) as f64;
    let frac = (p - 1) as f64 / p as f64;
    let expected_gram = 2.0 * frac * kk * 2.0 * iters as f64;
    for s in &out.rank_comm {
        let words = s.op(Op::AllReduce).words as f64;
        // Gram all-reduces dominate; the scalar ones add < 4 words/iter
        // plus fold overhead for the tiny payloads.
        assert!(
            words >= expected_gram && words <= expected_gram + 16.0 * (iters as f64 + 1.0),
            "all-reduce words {words} vs expected ~{expected_gram}"
        );
    }
}

#[test]
fn naive_all_gather_words_match_formula() {
    let (m, n, k, p, iters) = (64, 32, 4, 8, 2);
    let out = run(m, n, k, p, Algo::Naive, iters);
    // Per iteration each rank all-gathers all of H (n·k words) and all
    // of W (m·k words).
    let per_iter = ag_words(p, n * k) + ag_words(p, m * k);
    for s in &out.rank_comm {
        assert_eq!(s.op(Op::AllGather).words, per_iter * iters as u64);
        assert_eq!(
            s.op(Op::ReduceScatter).words,
            0,
            "Naive performs no reduce-scatter"
        );
    }
}

#[test]
fn messages_are_logarithmic_in_p() {
    // Two power-of-two grids, a tall-skinny input whose optimal grid is
    // 1D (m/p > n), and a rank count that is not a power of two (the
    // collectives' fold steps).
    let iters = 2;
    for (m, n, k, p) in [
        (128, 96, 4, 4),
        (128, 96, 4, 16),
        (2048, 32, 4, 8),
        (240, 160, 8, 12),
    ] {
        let out = run(m, n, k, p, Algo::Hpc2D, iters);
        let grid = Algo::Hpc2D.grid(m, n, p);
        assert_eq!(grid.pc == 1, m / p > n, "{m}x{n} on {p}: grid {grid:?}");
        // Table 2's words per iteration: two all-gathers and two
        // reduce-scatters of the factor slices, two k² all-reduces.
        let (pf, kf) = (p as f64, k as f64);
        let slices = ((grid.pr - 1) * n * k + (grid.pc - 1) * m * k) as f64 / pf;
        let analytic = 2.0 * slices + 4.0 * (pf - 1.0) / pf * kf * kf;
        for s in &out.rank_comm {
            let msgs = s.total_messages();
            // 6 collectives/iter (+objective+setup), each O(log p) with a
            // small constant: bound messages by 40·log2(p)+40 per iter.
            let lg = (p as f64).log2().ceil() as u64;
            let bound = (40 * lg + 40) * iters as u64;
            assert!(
                msgs <= bound,
                "p={p}: {msgs} messages exceeds O(log p) bound {bound}"
            );
            // Exact on power-of-two grids with divisible dims; the
            // objective all-reduce, uneven blocks and fold steps stay
            // within a third of it.
            let ratio = s.total_words() as f64 / iters as f64 / analytic;
            assert!(
                (0.65..1.35).contains(&ratio),
                "p={p}: {ratio:.3} of Table 2's words per iteration"
            );
        }
    }
}

#[test]
fn hpc_2d_communicates_less_than_naive_squarish() {
    // The headline claim: for squarish matrices HPC-NMF-2D moves
    // asymptotically less data than Naive.
    // Dimensions large enough that the O(k²) all-reduce terms are
    // negligible next to the O(√(mnk²/p)) factor-matrix traffic.
    let (m, n, k, p) = (240, 240, 4, 16);
    let naive = run(m, n, k, p, Algo::Naive, 3);
    let hpc2d = run(m, n, k, p, Algo::Hpc2D, 3);
    let naive_words = naive.total_comm().total_words();
    let hpc_words = hpc2d.total_comm().total_words();
    assert!(
        (hpc_words as f64) < 0.5 * naive_words as f64,
        "HPC-NMF-2D ({hpc_words} words) should communicate far less than Naive ({naive_words})"
    );
}

#[test]
fn hpc_1d_beats_2d_on_tall_skinny_bandwidth() {
    // For m/p > n the paper's optimal grid is 1D: O(nk) words beats the
    // 2D grid's row-dimension terms.
    let (m, n, k, p) = (512, 16, 4, 8);
    let oned = run(m, n, k, p, Algo::Hpc1D, 2);
    let square = run(m, n, k, p, Algo::HpcGrid(Grid::new(4, 2)), 2);
    let w1 = oned.total_comm().total_words();
    let w2 = square.total_comm().total_words();
    assert!(
        w1 < w2,
        "1D grid ({w1} words) should beat 2D ({w2}) on tall-skinny input"
    );
}

#[test]
fn grid_optimal_sends_the_fewest_words_of_every_grid() {
    // The paper's m/pr ≈ n/pc prescription, checked on counted words:
    // 4x4 on the squarish input, 16x1 on the tall-skinny one.
    let (k, p, iters) = (8, 16, 3);
    for (m, n) in [(320, 240), (2048, 48)] {
        let words = |grid| {
            run(m, n, k, p, Algo::HpcGrid(grid), iters)
                .total_comm()
                .total_words()
        };
        let optimal = Grid::optimal(m, n, p);
        let best = words(optimal);
        for pr in (1..=p).filter(|pr| p.is_multiple_of(*pr)) {
            let grid = Grid::new(pr, p / pr);
            if grid != optimal {
                let w = words(grid);
                assert!(
                    best < w,
                    "{m}x{n}: Grid::optimal {optimal:?} sends {best} words, {grid:?} {w}"
                );
            }
        }
    }
}

#[test]
fn sparse_and_dense_costs_are_identical() {
    // §5: "the communication costs of Algorithm 3 are the same for dense
    // and sparse data matrices (the data matrix itself is never
    // communicated)".
    let (m, n, k, p) = (48, 48, 3, 4);
    let dense = {
        let a = Input::Dense(Mat::uniform(m, n, 7));
        fit(&a, p, Algo::Hpc2D, &NmfConfig::new(k).with_max_iters(2))
    };
    let sparse = {
        let a = Input::Sparse(nmf_sparse::gen::erdos_renyi(m, n, 0.1, 7));
        fit(&a, p, Algo::Hpc2D, &NmfConfig::new(k).with_max_iters(2))
    };
    for (d, s) in dense.rank_comm.iter().zip(&sparse.rank_comm) {
        assert_eq!(d.total_words(), s.total_words());
        assert_eq!(d.total_messages(), s.total_messages());
    }
}

#[test]
fn communication_is_independent_of_solver() {
    // The collective pattern is fixed by the algorithm, not the NLS
    // method.
    let (m, n, k, p) = (48, 36, 3, 6);
    let input = Input::Dense(Mat::uniform(m, n, 8));
    let mut words = Vec::new();
    for solver in SolverKind::ALL {
        let out = fit(
            &input,
            p,
            Algo::Hpc2D,
            &NmfConfig::new(k).with_max_iters(3).with_solver(solver),
        );
        words.push(out.total_comm().total_words());
    }
    assert_eq!(words[0], words[1]);
    assert_eq!(words[1], words[2]);
}

#[test]
fn every_iteration_record_carries_one_iterations_words() {
    // Each collective completes inside the step that starts it, so a
    // model's per-iteration records are all alike — on a full grid, on
    // either one-dimensional grid, and under Naive — and Grid2D's match
    // Table 2's per-iteration words exactly.
    let (m, n, k, iters) = (48, 36, 4, 5);
    let input = Input::Dense(Mat::uniform(m, n, 11));
    let config = NmfConfig::new(k)
        .with_max_iters(iters)
        .with_convergence(ConvergencePolicy::MaxIters);
    for (algo, p) in [
        (Algo::HpcGrid(Grid::new(2, 2)), 4),
        (Algo::HpcGrid(Grid::new(1, 2)), 2),
        (Algo::HpcGrid(Grid::new(2, 1)), 2),
        (Algo::Naive, 3),
    ] {
        let mut model = Nmf::on(&input)
            .config(config)
            .algo(algo)
            .ranks(p)
            .build()
            .expect("valid request");
        model.run();
        let records = model.records();
        assert_eq!(records.len(), iters, "{algo:?}");
        let first = &records[0].comm;
        for (i, rec) in records.iter().enumerate() {
            for op in Op::ALL {
                let (got, want) = (rec.comm.op(op), first.op(op));
                assert_eq!(
                    (got.words, got.messages),
                    (want.words, want.messages),
                    "{algo:?} iteration {i}: {} differs from iteration 0",
                    op.name()
                );
            }
        }
        if let Algo::HpcGrid(grid) = algo {
            let over_col = ag_words(grid.pr, n / grid.pc * k);
            let over_row = ag_words(grid.pc, m / grid.pr * k);
            for rec in records {
                assert_eq!(rec.comm.op(Op::AllGather).words, over_col + over_row);
                assert_eq!(rec.comm.op(Op::ReduceScatter).words, over_row + over_col);
            }
        }
    }
}
