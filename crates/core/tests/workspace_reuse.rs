//! Workspace-reuse correctness: the zero-allocation iteration path must
//! be a pure optimization — identical results run-to-run, identical
//! results when a caller-held workspace is reused across factorizations,
//! and identical results between the parallel drivers and the sequential
//! reference (the paper's §6.1.3 same-computations protocol).

use hpc_nmf::dist::Dist1D;
use hpc_nmf::engine::RankNmfOutput;
use hpc_nmf::prelude::*;
use hpc_nmf::workspace::IterWorkspace;
use hpc_nmf::{init_ht, init_w, AnlsEngine, Grid2D, LocalMat, ShardKey};
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_vmpi::{universe, Comm};

/// `builder`'s model run to its stopping condition.
fn fit(builder: NmfBuilder) -> NmfOutput {
    let mut model = builder.build().expect("valid request");
    model.run();
    model.into_output()
}

fn test_input(m: usize, n: usize, seed: u64) -> Input {
    Input::Dense(Mat::uniform(m, n, seed))
}

/// One rank of Algorithm 3 run to completion through `ws`, which is
/// handed back (resized to fit) for the next factorization.
#[allow(clippy::too_many_arguments)]
fn run_rank(
    comm: &Comm,
    grid: Grid,
    dims: (usize, usize),
    local: &LocalMat,
    w0: Mat,
    ht0: Mat,
    config: &NmfConfig,
    ws: &mut IterWorkspace,
) -> RankNmfOutput {
    let scheme = Grid2D::new(comm, grid, dims, config.k);
    let mut engine = AnlsEngine::with_workspace(scheme, local, config, w0, ht0, std::mem::take(ws));
    engine.run();
    let (out, ws_back) = engine.into_rank_output_and_workspace();
    *ws = ws_back;
    out
}

/// Runs HPC-NMF on `p` ranks, handing each rank a workspace produced by
/// `make_ws`; returns each rank's (w_local, ht_local, objective).
fn run_hpc_with_ws(
    input: &Input,
    grid: Grid,
    config: &NmfConfig,
    make_ws: impl Fn() -> Option<IterWorkspace> + Sync,
) -> Vec<(Mat, Mat, f64)> {
    let (m, n) = input.shape();
    let w0 = init_w(m, config.k, config.seed);
    let ht0 = init_ht(n, config.k, config.seed);
    let dist_m = Dist1D::new(m, grid.pr);
    let dist_n = Dist1D::new(n, grid.pc);
    universe::run(grid.size(), |comm| {
        let (i, j) = grid.coords(comm.rank());
        let rows = dist_m.part(i);
        let cols = dist_n.part(j);
        let local = input.block(rows.offset, cols.offset, rows.len, cols.len);
        let sub_rows = Dist1D::new(rows.len, grid.pc);
        let sub_cols = Dist1D::new(cols.len, grid.pr);
        let wpart = sub_rows.part(j);
        let hpart = sub_cols.part(i);
        let w0_local = w0.rows_block(rows.offset + wpart.offset, wpart.len);
        let ht0_local = ht0.rows_block(cols.offset + hpart.offset, hpart.len);
        // No caller-held workspace: one pre-sized for this rank's shapes.
        let mut ws = make_ws().unwrap_or_else(|| {
            let key = ShardKey::Grid {
                pr: grid.pr,
                pc: grid.pc,
            };
            let mut ws = IterWorkspace::default();
            ws.size_for_hpc(&key.layout(m, n, comm.rank()), grid, config.k);
            ws
        });
        let out = run_rank(
            comm,
            grid,
            (m, n),
            &local,
            w0_local,
            ht0_local,
            config,
            &mut ws,
        );
        (out.w_local, out.ht_local, out.objective)
    })
    .into_iter()
    .map(|r| r.result)
    .collect()
}

#[test]
fn two_consecutive_runs_are_bit_identical() {
    let input = test_input(36, 28, 91);
    let config = NmfConfig::new(4).with_max_iters(2).with_seed(5);
    let grid = Grid::new(2, 2);
    let a = run_hpc_with_ws(&input, grid, &config, || None);
    let b = run_hpc_with_ws(&input, grid, &config, || None);
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.0, rb.0, "w_local must be deterministic");
        assert_eq!(ra.1, rb.1, "ht_local must be deterministic");
        assert_eq!(ra.2, rb.2, "objective must be deterministic");
    }
}

#[test]
fn caller_held_workspace_matches_internal_workspace() {
    let input = test_input(30, 42, 17);
    let config = NmfConfig::new(3).with_max_iters(3).with_seed(9);
    let grid = Grid::new(2, 2);
    let internal = run_hpc_with_ws(&input, grid, &config, || None);
    // Fresh caller-held workspace, correctly sized by the driver.
    let external = run_hpc_with_ws(&input, grid, &config, || Some(IterWorkspace::default()));
    // A deliberately mis-sized workspace must be resized and still agree.
    let missized = run_hpc_with_ws(&input, grid, &config, || {
        let mut ws = IterWorkspace::default();
        ws.size_for_hpc(
            &ShardKey::Grid { pr: 1, pc: 1 }.layout(7, 5, 0),
            Grid::new(1, 1),
            2,
        );
        Some(ws)
    });
    for ((a, b), c) in internal.iter().zip(&external).zip(&missized) {
        assert_eq!(a.0, b.0, "caller-held workspace changed W");
        assert_eq!(a.1, b.1, "caller-held workspace changed H");
        assert_eq!(a.0, c.0, "mis-sized workspace changed W");
        assert_eq!(a.1, c.1, "mis-sized workspace changed H");
    }
}

#[test]
fn workspace_reused_across_two_factorizations_is_pure() {
    // Run two factorizations back-to-back on each rank through ONE
    // workspace; the second must match a fresh-workspace run exactly —
    // the workspace carries capacity, never information.
    let input = test_input(24, 32, 3);
    let config = NmfConfig::new(3).with_max_iters(2).with_seed(13);
    let grid = Grid::new(2, 1);
    let (m, n) = input.shape();
    let w0 = init_w(m, config.k, config.seed);
    let ht0 = init_ht(n, config.k, config.seed);
    let dist_m = Dist1D::new(m, grid.pr);
    let dist_n = Dist1D::new(n, grid.pc);

    let reused = universe::run(grid.size(), |comm| {
        let (i, j) = grid.coords(comm.rank());
        let rows = dist_m.part(i);
        let cols = dist_n.part(j);
        let local = input.block(rows.offset, cols.offset, rows.len, cols.len);
        let wpart = Dist1D::new(rows.len, grid.pc).part(j);
        let hpart = Dist1D::new(cols.len, grid.pr).part(i);
        let w0_local = w0.rows_block(rows.offset + wpart.offset, wpart.len);
        let ht0_local = ht0.rows_block(cols.offset + hpart.offset, hpart.len);
        let mut ws = IterWorkspace::default();
        let _first = run_rank(
            comm,
            grid,
            (m, n),
            &local,
            w0_local.clone(),
            ht0_local.clone(),
            &config,
            &mut ws,
        );
        run_rank(
            comm,
            grid,
            (m, n),
            &local,
            w0_local,
            ht0_local,
            &config,
            &mut ws,
        )
    });
    let fresh = run_hpc_with_ws(&input, grid, &config, || None);
    for (r, f) in reused.iter().zip(&fresh) {
        assert_eq!(
            r.result.w_local, f.0,
            "reused workspace leaked state into W"
        );
        assert_eq!(
            r.result.ht_local, f.1,
            "reused workspace leaked state into H"
        );
    }
}

#[test]
fn hpc_workspace_path_matches_sequential_reference() {
    // The paper's same-computations protocol, now through the fully
    // workspace-backed path: every driver and grid shape agrees with the
    // sequential reference to reassociation tolerance.
    for (m, n, p, algo) in [
        (24usize, 18usize, 4usize, Algo::Hpc2D),
        (21, 33, 3, Algo::Hpc1D),
        (16, 16, 4, Algo::Naive),
        (26, 19, 6, Algo::Hpc2D),
    ] {
        let input = test_input(m, n, (m * n) as u64);
        let config = NmfConfig::new(3).with_max_iters(3).with_seed(7);
        let seq = fit(Nmf::on(&input).config(config));
        let par = fit(Nmf::on(&input)
            .config(config)
            .algo(algo)
            .ranks(p)
            .warm_start(
                init_w(m, config.k, config.seed),
                init_ht(n, config.k, config.seed),
            ));
        assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8,
            "{:?} p={p} {m}x{n}: W diverged from sequential",
            algo
        );
        assert!(
            par.h.max_abs_diff(&seq.h) < 1e-8,
            "{:?} p={p} {m}x{n}: H diverged from sequential",
            algo
        );
    }
}

#[test]
fn sparse_input_workspace_path_matches_sequential() {
    use nmf_sparse::gen::erdos_renyi;
    let a = erdos_renyi(40, 30, 0.15, 77);
    let input = Input::Sparse(a);
    let config = NmfConfig::new(4).with_max_iters(3).with_seed(21);
    let seq = fit(Nmf::on(&input).config(config));
    let par = fit(Nmf::on(&input).config(config).algo(Algo::Hpc2D).ranks(4));
    assert!(par.w.max_abs_diff(&seq.w) < 1e-8, "sparse W diverged");
    assert!(par.h.max_abs_diff(&seq.h) < 1e-8, "sparse H diverged");
}
