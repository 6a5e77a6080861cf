//! End-to-end tests over the paper's (scaled) datasets: every dataset ×
//! algorithm combination must run, converge, and produce valid factors.

use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;

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

fn check_run(kind: DatasetKind, algo: Algo, p: usize, k: usize) -> NmfOutput {
    let scale = match kind {
        DatasetKind::Dsyn | DatasetKind::Ssyn => 1000,
        DatasetKind::Video => 2000,
        DatasetKind::Webbase => 2000,
    };
    let data = kind.build(scale, 33);
    let (m, n) = data.input.shape();
    let out = fit(&data.input, p, algo, &NmfConfig::new(k).with_max_iters(6));
    assert_eq!(out.w.shape(), (m, k), "{} {}", kind.name(), algo.name());
    assert_eq!(out.h.shape(), (k, n));
    assert!(out.w.all_nonnegative() && out.h.all_nonnegative());
    assert!(out.w.all_finite() && out.h.all_finite());
    assert!(out.rel_error.is_finite() && out.rel_error < 1.0);
    // The objective must improve on the initial iterate.
    let hist = out.history();
    assert!(
        hist.last().unwrap() <= hist.first().unwrap(),
        "{} {}: no improvement {hist:?}",
        kind.name(),
        algo.name()
    );
    out
}

#[test]
fn every_dataset_runs_on_every_algorithm() {
    for kind in DatasetKind::ALL {
        for algo in [Algo::Naive, Algo::Hpc1D, Algo::Hpc2D] {
            check_run(kind, algo, 4, 5);
        }
    }
}

#[test]
fn every_dataset_runs_sequentially() {
    for kind in DatasetKind::ALL {
        check_run(kind, Algo::Sequential, 1, 5);
    }
}

#[test]
fn hpc2d_moves_fewer_words_than_naive_on_squarish_datasets() {
    // The headline comparison (Fig 3a/c/e), at reduced scale, on the
    // actual datasets.
    for kind in [DatasetKind::Ssyn, DatasetKind::Dsyn, DatasetKind::Webbase] {
        let data = kind.build(1200, 5);
        let config = NmfConfig::new(8).with_max_iters(3);
        let naive = fit(&data.input, 16, Algo::Naive, &config);
        let hpc = fit(&data.input, 16, Algo::Hpc2D, &config);
        let wn = naive.total_comm().total_words();
        let wh = hpc.total_comm().total_words();
        assert!(
            wh < wn,
            "{}: HPC-2D words {wh} should undercut Naive {wn}",
            kind.name()
        );
    }
}

#[test]
fn video_grid_selection_is_1d() {
    let (m, n) = DatasetKind::Video.paper_dims();
    for p in [24, 96, 216, 384, 600] {
        let g = Algo::Hpc2D.grid(m, n, p);
        assert_eq!(g.pc, 1, "Video at p={p} should select a 1D grid, got {g:?}");
    }
}

#[test]
fn per_iteration_records_are_complete() {
    let data = DatasetKind::Ssyn.build(1500, 6);
    let iters = 4;
    let out = fit(
        &data.input,
        6,
        Algo::Hpc2D,
        &NmfConfig::new(4).with_max_iters(iters),
    );
    assert_eq!(out.iters.len(), iters);
    for rec in &out.iters {
        assert!(rec.objective.is_finite());
        // Communication happened every iteration.
        assert!(rec.comm.total_messages() > 0);
    }
    assert_eq!(out.rank_comm.len(), 6);
}

#[test]
fn solver_menu_works_on_sparse_dataset() {
    let data = DatasetKind::Webbase.build(2500, 8);
    let mut finals = Vec::new();
    for solver in SolverKind::ALL {
        let out = fit(
            &data.input,
            4,
            Algo::Hpc2D,
            &NmfConfig::new(4).with_max_iters(8).with_solver(solver),
        );
        finals.push((solver, out.objective));
    }
    // BPP (exact per-iteration solves) should be at least as good as MU
    // after equal iterations.
    let bpp = finals
        .iter()
        .find(|(s, _)| *s == SolverKind::Bpp)
        .unwrap()
        .1;
    let mu = finals.iter().find(|(s, _)| *s == SolverKind::Mu).unwrap().1;
    assert!(
        bpp <= mu * (1.0 + 1e-6) + 1e-9,
        "BPP ({bpp}) should converge at least as fast as MU ({mu})"
    );
}
