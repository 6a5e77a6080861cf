//! Balanced dealing is invisible: a skewed sparse input is relabelled
//! before it is cut into per-rank blocks, and the model maps factor rows
//! back, so the run is the same factorization in original row order.
//!
//! There is no switch to turn the relabelling off, so the oracle is the
//! input's **dense twin** — dense inputs are never examined and are
//! always dealt in index order. See `docs/sharded-input.md`, "Balanced
//! dealing".

use hpc_nmf::prelude::*;
use hpc_nmf::{RankLoad, ShardKey};
use nmf_data::DatasetKind;
use nmf_matrix::Mat;
use nmf_sparse::gen::chung_lu_power_law;
use nmf_sparse::Csr;
use nmf_vmpi::Op;

/// A power-law digraph whose heavy nodes come first: 240 divides by
/// every grid used below.
fn power_law() -> Csr {
    chung_lu_power_law(240, 1400, 2.1, 17)
}

fn schemes() -> Vec<(Algo, usize)> {
    vec![
        (Algo::Sequential, 1),
        (Algo::Naive, 3),
        (Algo::Hpc1D, 4),
        (Algo::Hpc2D, 2),
        (Algo::Hpc2D, 4),
        (Algo::Hpc2D, 6),
        (Algo::HpcGrid(Grid::new(2, 3)), 6),
    ]
}

fn run(input: &Input, algo: Algo, ranks: usize, solver: SolverKind) -> NmfOutput {
    let config = NmfConfig::new(4)
        .with_max_iters(6)
        .with_seed(23)
        .with_solver(solver);
    let mut model = Nmf::on(input)
        .config(config)
        .algo(algo)
        .ranks(ranks)
        .build()
        .expect("valid request");
    model.run();
    model.into_output()
}

#[test]
fn the_input_is_relabelled_and_its_dense_twin_is_not() {
    let a = power_law();
    let sparse = SharedInput::new(Input::Sparse(a.clone())).balance();
    let (rows, cols) = (
        sparse.rows.expect("examined"),
        sparse.cols.expect("examined"),
    );
    assert!(rows.relabelled && rows.skew > 0.3, "{rows:?}");
    assert!(cols.relabelled && cols.skew > 0.3, "{cols:?}");
    let dense = SharedInput::new(Input::Dense(a.to_dense())).balance();
    assert!(dense.rows.is_none() && dense.cols.is_none());
}

/// Same objective history and same factors, in original row order, as
/// the dense twin — on every scheme, for an exact and an iterative
/// solver.
#[test]
fn a_relabelled_run_is_the_factorization_of_its_dense_twin() {
    let a = power_law();
    let twin = Input::Dense(a.to_dense());
    let sparse = Input::Sparse(a);
    for solver in [SolverKind::Bpp, SolverKind::Mu] {
        for (algo, ranks) in schemes() {
            let got = run(&sparse, algo, ranks, solver);
            let want = run(&twin, algo, ranks, solver);
            let what = format!("{solver:?} {algo:?} p={ranks}");
            assert_eq!(got.iterations, want.iterations, "{what}");
            for (i, (g, w)) in got.history().iter().zip(want.history()).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-9 * w.abs(),
                    "{what}: objective {g} vs {w} at iteration {i}"
                );
            }
            assert!(got.w.max_abs_diff(&want.w) <= 1e-7, "{what}: W diverged");
            assert!(got.h.max_abs_diff(&want.h) <= 1e-7, "{what}: H diverged");
        }
    }
}

/// `Nmf::on` wraps its input in a fresh `SharedInput`, so a whole and a
/// shared input deal — and factorize — a skewed input identically, bit
/// for bit; one sharding of the shared input serves a build, a second
/// build and a refit.
#[test]
fn whole_and_shared_inputs_agree_bit_for_bit() {
    let input = Input::Sparse(power_law());
    let shared = SharedInput::new(input.clone());
    let config = |k| NmfConfig::new(k).with_max_iters(4).with_seed(11);
    let bits = |m: &Mat| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for (algo, ranks) in [(Algo::Hpc2D, 4), (Algo::Naive, 3), (Algo::Sequential, 1)] {
        let mut on_shared = Nmf::on_shared(&shared)
            .config(config(4))
            .algo(algo)
            .ranks(ranks)
            .build()
            .expect("valid request");
        for k in [4, 5] {
            if k > 4 {
                on_shared.refit(config(k)).expect("refit");
            }
            on_shared.run();
            let mut on_whole = Nmf::on(&input)
                .config(config(k))
                .algo(algo)
                .ranks(ranks)
                .build()
                .expect("valid request");
            on_whole.run();
            assert_eq!(
                on_shared.objective().to_bits(),
                on_whole.objective().to_bits(),
                "{algo:?} k={k}"
            );
            let ((ws, hs), (ww, hw)) = (on_shared.factors(), on_whole.factors());
            assert!(
                bits(&ws) == bits(&ww) && bits(&hs) == bits(&hw),
                "{algo:?} k={k}: factors diverged between Nmf::on and Nmf::on_shared"
            );
        }
    }
    assert_eq!(shared.extractions(), 3, "one sharding per scheme");
}

/// Table 2's word counts (`tests/communication_costs.rs`) hold exactly on
/// a relabelled input: blocks keep their shapes, so every collective
/// moves what it moved before.
#[test]
fn table_2_word_counts_hold_on_a_relabelled_input() {
    let (m, k, iters) = (256, 4, 2);
    let input = Input::Sparse(chung_lu_power_law(m, 1500, 2.1, 3));
    assert!(
        SharedInput::new(input.clone())
            .balance()
            .rows
            .is_some_and(|d| d.relabelled),
        "the input must take the relabelled path"
    );
    let config = NmfConfig::new(k).with_max_iters(iters);
    let words = |q: usize, total: usize| ((q - 1) * (total / q)) as u64;

    let fit = |algo, ranks| {
        let mut model = Nmf::on(&input)
            .config(config)
            .algo(algo)
            .ranks(ranks)
            .build()
            .expect("valid request");
        model.run();
        model.into_output()
    };

    let grid = Grid::new(4, 4);
    let out = fit(Algo::HpcGrid(grid), 16);
    let per_iter = words(grid.pr, m / grid.pc * k) + words(grid.pc, m / grid.pr * k);
    for s in &out.rank_comm {
        assert_eq!(s.op(Op::AllGather).words, per_iter * iters as u64);
        assert_eq!(s.op(Op::ReduceScatter).words, per_iter * iters as u64);
    }

    let out = fit(Algo::Naive, 8);
    let per_iter = 2 * words(8, m * k);
    for s in &out.rank_comm {
        assert_eq!(s.op(Op::AllGather).words, per_iter * iters as u64);
        assert_eq!(s.op(Op::ReduceScatter).words, 0);
    }
}

/// Largest relative distance of any rank's count from the mean.
fn spread(loads: &[RankLoad], count: impl Fn(&RankLoad) -> usize) -> f64 {
    let mean = loads.iter().map(&count).sum::<usize>() as f64 / loads.len() as f64;
    loads
        .iter()
        .map(|l| (count(l) as f64 - mean).abs() / mean)
        .fold(0.0, f64::max)
}

/// The point of it: every rank of a power-law input holds the same share
/// of the nonzeros (the `MM` work) and of the non-empty rows and columns
/// (the NLS work). Dealt in index order, rank 0 of 2 holds 87 % of the
/// nonzeros and 63 % of the non-empty rows of this matrix.
#[test]
fn ranks_of_a_power_law_input_hold_equal_shares() {
    for seed in [1, 2] {
        let shared = SharedInput::new(DatasetKind::Webbase.build(160, seed).input);
        for (key, nnz_band) in [
            (ShardKey::Grid { pr: 2, pc: 1 }, 0.10),
            (ShardKey::Grid { pr: 2, pc: 2 }, 0.10),
            // A 1D stripe cannot split a row: the heaviest node alone is
            // 7 % of the nonzeros, against a quarter per stripe.
            (ShardKey::Naive { p: 4 }, 0.20),
        ] {
            let loads = shared.rank_loads(key).unwrap();
            for (name, s, band) in [
                ("nnz", spread(&loads, |l| l.nnz), nnz_band),
                ("non-empty rows", spread(&loads, |l| l.non_empty_rows), 0.10),
                (
                    "non-empty columns",
                    spread(&loads, |l| l.non_empty_cols),
                    0.10,
                ),
            ] {
                assert!(
                    s <= band,
                    "seed {seed} {key:?}: {name} {:.1} % off the mean: {loads:?}",
                    100.0 * s
                );
            }
        }
    }
}
