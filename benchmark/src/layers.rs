//! Per-layer probes of the traced run.
//!
//! Each probe times public functions of one crate at the shapes of the
//! workload being run: its rank-local block, its factor slices, its
//! message sizes. Nothing here is part of an end-to-end number — the
//! end-to-end run never calls into this file.
//!
//! Layer metrics are named `<crate>.<part>.<what>`; `README.md` lists,
//! for each, the end-to-end metric it should move and on which workload.

use crate::problem::{timed, timed_reps, timed_span, Problem, SeqBaseline, TaskRow};
use crate::report::Report;
use crate::stats::{iters_to_tol, Samples};
use crate::trace;
use hpc_nmf::dist::Dist1D;
use hpc_nmf::input::LocalMat;
use hpc_nmf::prelude::*;
use hpc_nmf::{inspect_checkpoint, IterRecord};
use nmf_data::{KernelRates, PerfModel, Workload};
use nmf_matrix::rng::Fill;
use nmf_matrix::{gram_into, Mat, PackedPanels};
use nmf_sparse::io::MmapCsr;
use nmf_sparse::CscView;
use nmf_vmpi::collectives::log2_ceil;
use nmf_vmpi::{universe, CostModel, Op};
use std::hint::black_box;
use std::path::Path;

/// Relative tolerance of the offline time-to-tolerance rule.
pub const TOL: f64 = 1e-4;

/// [`timed_reps`] in milliseconds.
fn reps_ms(reps: usize, f: impl FnMut()) -> Samples {
    timed_reps(reps, 1e3, f)
}

/// Fewer repetitions when one call is slow, so a probe stays within
/// about a quarter second.
fn reps_for(one_call_ms: f64) -> usize {
    ((250.0 / one_call_ms.max(1e-3)) as usize).clamp(3, 200)
}

/// The sub-communicator an HPC grid's factor collectives run over, as
/// `(ranks, words each rank contributes)`: the grid column gathers `H`
/// when the grid has more than one row, else the grid row gathers `W`.
fn factor_collective(grid: Grid, (m, n, k): (usize, usize, usize)) -> (usize, usize) {
    if grid.pr > 1 {
        (grid.pr, (n / grid.pc * k) / grid.pr)
    } else {
        (grid.pc.max(1), (m / grid.pr * k) / grid.pc.max(1))
    }
}

/// Rank 0's block of the input under the problem's grid.
fn rank0_block(problem: &Problem, input: &Input) -> LocalMat {
    let (m, n) = input.shape();
    let grid = problem.algo.grid(m, n, problem.ranks);
    let rows = Dist1D::new(m, grid.pr).part(0);
    let cols = Dist1D::new(n, grid.pc).part(0);
    input.block(rows.offset, cols.offset, rows.len, cols.len)
}

/// `matrix.*` on dense blocks, `sparse.*` on sparse ones: the two MM
/// kernels at the rank-block shape, plus what building their operand
/// forms costs.
pub fn mm_kernels(report: &mut Report, problem: &Problem, input: &Input, tmp: &Path) {
    let _guard = trace::span("layers.mm_kernels");
    let k = problem.k;
    let block = rank0_block(problem, input);
    let (mb, nb) = (block.nrows(), block.ncols());
    let ht = Mat::uniform(nb, k, 11);
    let w = Mat::uniform(mb, k, 12);
    let mut v = Mat::zeros(mb, k);
    let mut y = Mat::zeros(nb, k);
    match &block {
        LocalMat::Dense(a) => {
            let (mut pa, mut pat) = (PackedPanels::new(), PackedPanels::new());
            let pack = reps_ms(3, || {
                pa.pack_into(a);
                pat.pack_transposed_into(a);
            });
            report.layer_median("matrix.pack.pack_ms", "ms", &pack);
            report.layer(
                "matrix.pack.packed_bytes",
                "bytes",
                (pa.packed_bytes() + pat.packed_bytes()) as f64,
            );
            let mut scratch = Vec::new();
            let (_, once) =
                timed(|| nmf_matrix::matmul_packed_scratch_into(&pa, &ht, &mut v, &mut scratch));
            let reps = reps_for(once * 1e3);
            let a_ht = reps_ms(reps, || {
                nmf_matrix::matmul_packed_scratch_into(&pa, black_box(&ht), &mut v, &mut scratch)
            });
            let at_w = reps_ms(reps, || {
                nmf_matrix::matmul_packed_scratch_into(&pat, black_box(&w), &mut y, &mut scratch)
            });
            black_box((&v, &y));
            report.layer_median("matrix.gemm.a_ht_ms", "ms", &a_ht);
            report.layer_median("matrix.gemm.at_w_ms", "ms", &at_w);
            let flops = 2.0 * 2.0 * (mb * nb * k) as f64;
            report.layer(
                "matrix.gemm.gflops",
                "Gflop/s",
                flops / ((a_ht.median() + at_w.median()) * 1e-3) / 1e9,
            );
        }
        LocalMat::Sparse(sp) => {
            let (csr, csc) = (sp.csr(), sp.csc());
            let (_, once) = timed(|| nmf_sparse::spmm_dense_t_into(csr, &ht, &mut v));
            let reps = reps_for(once * 1e3);
            let a_ht = reps_ms(reps, || {
                nmf_sparse::spmm_dense_t_into(csr, black_box(&ht), &mut v)
            });
            let at_w = reps_ms(reps, || {
                nmf_sparse::spmm_at_dense_auto_into(csr, csc, black_box(&w), &mut y)
            });
            black_box((&v, &y));
            report.layer_median("sparse.spmm.a_ht_ms", "ms", &a_ht);
            report.layer_median("sparse.spmm.at_w_ms", "ms", &at_w);
            let flops = 2.0 * 2.0 * (sp.nnz() * k) as f64;
            report.layer(
                "sparse.spmm.gflops",
                "Gflop/s",
                flops / ((a_ht.median() + at_w.median()) * 1e-3) / 1e9,
            );
            report.layer(
                "sparse.spmm.csc_chosen",
                "bool",
                f64::from(u8::from(nmf_sparse::spmm::csc_chosen(nb, k))),
            );
            // Computed from array sizes, not measured: each product
            // streams every value and index once, reads one dense
            // operand and writes the other.
            let word = std::mem::size_of::<usize>();
            let per_product = sp.nnz() * (8 + word) + 8 * (mb + nb) * k;
            report.layer(
                "sparse.spmm.computed_bytes",
                "bytes",
                2.0 * per_product as f64,
            );
            let build = reps_ms(3, || {
                black_box(CscView::from_csr(csr));
            });
            report.layer_median("sparse.csc.build_ms", "ms", &build);
            report.layer("sparse.csc.index_bytes", "bytes", csc.index_bytes() as f64);
            sparse_io(report, problem, input, tmp);
        }
    }
}

/// `sparse.io.*`: the NMFS container and the mmap-backed ingest path.
fn sparse_io(report: &mut Report, problem: &Problem, input: &Input, tmp: &Path) {
    let Input::Sparse(csr) = input else { return };
    let path = tmp.join("probe.nmfs");
    let (written, write_s) = timed(|| nmf_sparse::io::write_csr_binary_path(csr, &path));
    if let Err(e) = written {
        report.check("nmfs_write", false, e.to_string());
        return;
    }
    report.layer("sparse.io.nmfs_write_ms", "ms", write_s * 1e3);
    let open = reps_ms(5, || {
        black_box(MmapCsr::open(&path).expect("file just written"));
    });
    report.layer_median("sparse.io.mmap_open_ms", "ms", &open);
    let (model, build_s) = timed(|| {
        let shared = SharedInput::open_mmap(&path).expect("file just written");
        problem.build(&shared)
    });
    report.layer("sparse.io.mmap_build_ms", "ms", build_s * 1e3);
    drop(model);
    std::fs::remove_file(&path).ok();
}

/// `matrix.gram` and `matrix.chol` at the factor-slice shape one rank
/// owns. Cholesky is BPP's inner solve; the other solvers never call it.
pub fn gram_chol(report: &mut Report, problem: &Problem, (m, n): (usize, usize)) {
    let _guard = trace::span("layers.gram_chol");
    let k = problem.k;
    let slice_rows = (m / problem.ranks).max(k);
    let w = Mat::uniform(slice_rows, k, 21);
    let mut g = Mat::zeros(k, k);
    let (_, once) = timed(|| gram_into(&w, &mut g));
    let gram = reps_ms(reps_for(once * 1e3), || gram_into(black_box(&w), &mut g));
    report.layer_median("matrix.gram.gram_ms", "ms", &gram);
    if problem.solver == SolverKind::Bpp {
        for i in 0..k {
            g[(i, i)] += 1.0;
        }
        let mut l = Mat::zeros(k, k);
        nmf_matrix::cholesky_into(&g, &mut l).expect("Gram plus identity is positive definite");
        let rhs = Mat::uniform(k, (n / problem.ranks).max(1), 22);
        let mut x = rhs.clone();
        let (_, once) = timed(|| nmf_matrix::cholesky_solve_in_place(&l, &mut x));
        let solve = reps_ms(reps_for(once * 1e3), || {
            x.copy_from(&rhs);
            nmf_matrix::cholesky_solve_in_place(black_box(&l), &mut x);
        });
        report.layer_median("matrix.chol.solve_ms", "ms", &solve);
    }
}

/// Global factors `(W, H)` captured from a run.
pub type Factors = (Mat, Mat);

/// One `NlsSolver::update` for the W side plus one for the H side, on
/// the Gram and `CᵀB` rebuilt from captured factors, at the row count
/// one rank solves.
fn nls_update_ms(problem: &Problem, input: &Input, (w, h): &Factors) -> f64 {
    let (m, n) = input.shape();
    let ht = h.transpose();
    let mut solver = problem.solver.build();
    let mut total = 0.0;
    // W side: G = H·Hᵀ, CᵀB = A·Hᵀ; H side: G = Wᵀ·W, CᵀB = Aᵀ·W.
    for (gram_of, ctb, x, rows) in [
        (&ht, input.mm_a_ht(&ht), w, m / problem.ranks),
        (w, input.mm_at_w(w), &ht, n / problem.ranks),
    ] {
        let g = nmf_matrix::gram(gram_of);
        let rows = rows.max(1);
        let ctb = ctb.rows_block(0, rows);
        let x0 = x.rows_block(0, rows);
        let mut x = x0.clone();
        let s = reps_ms(3, || {
            x.copy_from(&x0);
            solver.update(black_box(&g), &ctb, &mut x);
        });
        total += s.median();
    }
    total
}

/// `nls.*`: the solver at an early and at the last iteration of the
/// run, and the exact iteration count to the tolerance.
pub fn nls(
    report: &mut Report,
    problem: &Problem,
    input: &Input,
    early: &Factors,
    late: &Factors,
    objectives: &[f64],
) {
    let _guard = trace::span("layers.nls");
    report.layer(
        "nls.update_early_ms",
        "ms",
        nls_update_ms(problem, input, early),
    );
    report.layer(
        "nls.update_late_ms",
        "ms",
        nls_update_ms(problem, input, late),
    );
    // When the history ends before the rule holds, the count is the
    // history's length: a lower bound.
    let reached = iters_to_tol(objectives, TOL);
    report.layer(
        "nls.iters_to_tol",
        "count",
        reached.unwrap_or(objectives.len()) as f64,
    );
}

/// Per-repetition wall times of one collective: max over ranks, in µs.
/// `init` builds each rank's buffers outside the timed region.
fn collective_us<S>(
    q: usize,
    reps: usize,
    init: impl Fn() -> S + Send + Sync,
    op: impl Fn(&nmf_vmpi::Comm, &mut S) + Send + Sync,
) -> Samples {
    let per_rank = universe::run(q, |comm| {
        let mut state = init();
        op(comm, &mut state);
        op(comm, &mut state);
        (0..reps)
            .map(|_| {
                comm.barrier();
                timed(|| op(comm, &mut state)).1 * 1e6
            })
            .collect::<Vec<f64>>()
    });
    let mut out = Samples::new();
    for r in 0..reps {
        out.push(
            per_rank
                .iter()
                .map(|rank| rank.result[r])
                .fold(0.0, f64::max),
        );
    }
    out
}

/// α and β of the virtual network, fitted to this run's all-gather
/// timings at a tiny and at the workload's message size.
pub struct NetFit {
    pub alpha: f64,
    pub beta: f64,
}

/// `vmpi.*` timed inside `universe::run` at the workload's message
/// sizes, synchronous and split-phase, plus what spawning the universe
/// costs. Returns the α/β fit for the model residuals.
pub fn vmpi(report: &mut Report, problem: &Problem, (m, n): (usize, usize)) -> NetFit {
    let _guard = trace::span("layers.vmpi");
    let k = problem.k;
    let grid = problem.algo.grid(m, n, problem.ranks);
    let (q, each) = factor_collective(grid, (m, n, k));
    let each = each.max(1);
    let p = problem.ranks;

    // (send or reduce input, receive buffer, per-rank counts)
    type Bufs = (Vec<f64>, Vec<f64>, Vec<usize>);
    let gather_bufs = |c: usize| move || -> Bufs { (vec![1.0; c], vec![0.0; c * q], vec![c; q]) };
    let scatter_bufs = move || -> Bufs { (vec![1.0; each * q], vec![0.0; each], vec![each; q]) };
    let reduce_bufs = move || -> Bufs { (vec![1.0; k * k], vec![0.0; k * k], Vec::new()) };
    let all_gather = |comm: &nmf_vmpi::Comm, (send, out, counts): &mut Bufs| {
        comm.all_gatherv_into(send, counts, out);
        black_box(&out);
    };

    let probe = collective_us(q, 3, gather_bufs(each), all_gather);
    // Microsecond-scale collectives need many repetitions for a steady
    // median; 16 MB gathers need few.
    let reps = ((200_000.0 / probe.median().max(1.0)) as usize).clamp(9, 400);
    let small_reps = reps.max(100);

    let ag = collective_us(q, reps, gather_bufs(each), all_gather);
    let ag_small = collective_us(q, small_reps, gather_bufs(8), all_gather);
    let rs = collective_us(q, reps, scatter_bufs, |comm, (data, out, counts)| {
        comm.reduce_scatter_into(data, counts, out);
        black_box(&out);
    });
    let ar = collective_us(p, small_reps, reduce_bufs, |comm, (data, _, _)| {
        comm.all_reduce_into(data);
        black_box(&data);
    });
    let pw_ag = collective_us(q, reps, gather_bufs(each), |comm, (send, out, counts)| {
        comm.post_all_gatherv(send, counts).wait(out);
        black_box(&out);
    });
    let pw_rs = collective_us(q, reps, scatter_bufs, |comm, (data, out, counts)| {
        comm.post_reduce_scatter(data, counts).wait(out);
        black_box(&out);
    });
    let pw_ar = collective_us(p, small_reps, reduce_bufs, |comm, (data, out, _)| {
        comm.post_all_reduce(data).wait(out);
        black_box(&out);
    });
    for (name, s) in [
        ("vmpi.all_gather_us", &ag),
        ("vmpi.reduce_scatter_us", &rs),
        ("vmpi.all_reduce_us", &ar),
        ("vmpi.post_wait_all_gather_us", &pw_ag),
        ("vmpi.post_wait_reduce_scatter_us", &pw_rs),
        ("vmpi.post_wait_all_reduce_us", &pw_ar),
    ] {
        report.layer_median(name, "us", s);
    }
    let mut spawn = Samples::new();
    for _ in 0..25 {
        spawn.push(timed(|| black_box(universe::run(p, |comm| comm.rank()))).1 * 1e6);
    }
    report.layer_median("vmpi.universe_spawn_us", "us", &spawn);

    // t = α·⌈log₂q⌉ + β·((q−1)/q)·n at two sizes n.
    let frac = (q - 1) as f64 / q as f64;
    let (n_big, n_small) = ((each * q) as f64, (8 * q) as f64);
    let (t_big, t_small) = (ag.median() * 1e-6, ag_small.median() * 1e-6);
    let beta = ((t_big - t_small) / (frac * (n_big - n_small).max(1.0))).max(1e-13);
    let alpha = ((t_small - beta * frac * n_small) / f64::from(log2_ceil(q).max(1))).max(1e-9);
    NetFit { alpha, beta }
}

/// `vmpi.*` numbers read from the run's own `CommStats`: exact counts
/// per iteration, and how much of the step communication takes and
/// hides.
pub fn comm_counters(report: &mut Report, records: &[IterRecord], step_mean_s: f64) {
    // The median iteration: the first record also carries the second
    // iteration's prefetched posts, and a split-phase collective's
    // later stages may be counted one record late.
    let mid = |count: fn(&IterRecord) -> u64| {
        let per_iter: Vec<f64> = records.iter().map(|r| count(r) as f64).collect();
        if per_iter.is_empty() {
            0.0
        } else {
            crate::stats::median(&per_iter).round()
        }
    };
    let words = mid(|r| r.comm.total_words());
    let messages = mid(|r| r.comm.total_messages());
    report.layer("vmpi.words_per_iter", "count", words);
    report.layer("vmpi.messages_per_iter", "count", messages);
    let row = TaskRow::from_records(records);
    report.layer(
        "vmpi.comm_time_share",
        "ratio",
        row.comm() / step_mean_s.max(f64::MIN_POSITIVE),
    );
    let (mut overlap, mut inflight) = (0.0, 0.0);
    for r in records {
        for op in [Op::AllGather, Op::ReduceScatter, Op::AllReduce] {
            overlap += r.comm.op(op).overlap.as_secs_f64();
            inflight += r.comm.op(op).inflight.as_secs_f64();
        }
    }
    report.layer(
        "vmpi.overlap_share",
        "ratio",
        if inflight > 0.0 {
            overlap / inflight
        } else {
            0.0
        },
    );
}

/// `core.engine.*`: the paper's six-task row as per-iteration means,
/// and the part of the step none of the six accounts for.
pub fn engine_row(report: &mut Report, row: &TaskRow, step_mean_s: f64) {
    for (task, secs) in row.named() {
        report.layer(format!("core.engine.{task}_s"), "s", secs);
    }
    report.layer("core.engine.unattributed_s", "s", step_mean_s - row.total());
}

/// `core.shared.extract_ms`: what a shard-cache miss does — one
/// `Input::block` per rank of the problem's grid.
pub fn shard_extract(report: &mut Report, problem: &Problem, input: &Input) {
    let (m, n) = input.shape();
    let grid = problem.algo.grid(m, n, problem.ranks);
    let (_, extract_s) = timed_span("core.shared.extract", || {
        for r in 0..grid.size() {
            let (i, j) = grid.coords(r);
            let rows = Dist1D::new(m, grid.pr).part(i);
            let cols = Dist1D::new(n, grid.pc).part(j);
            black_box(input.block(rows.offset, cols.offset, rows.len, cols.len));
        }
    });
    report.layer("core.shared.extract_ms", "ms", extract_s * 1e3);
}

/// `core.checkpoint.inspect_us` and `core.checkpoint.bytes` of the
/// checkpoint at `path`.
pub fn checkpoint_file(report: &mut Report, path: &Path) {
    report.layer(
        "core.checkpoint.bytes",
        "bytes",
        std::fs::metadata(path).map_or(f64::NAN, |md| md.len() as f64),
    );
    let inspect = reps_ms(5, || {
        black_box(inspect_checkpoint(path).expect("checkpoint just written"));
    });
    report.layer("core.checkpoint.inspect_us", "us", inspect.median() * 1e3);
}

/// `core.shared.*`, `core.session.*`, `core.checkpoint.*` and
/// `core.regrid.*`: every session verb once, on the workload's problem.
/// (`lifecycle` reports these from its own cycles instead.)
pub fn session_verbs(report: &mut Report, problem: &Problem, input: &Input, tmp: &Path) {
    let _guard = trace::span("layers.session_verbs");
    let (m, n) = input.shape();
    let grid = problem.algo.grid(m, n, problem.ranks);
    shard_extract(report, problem, input);

    let shared = SharedInput::new(input.clone());
    drop(problem.build(&shared));
    let (mut model, warm_s) = timed_span("core.session.build_warm", || problem.build(&shared));
    report.layer("core.session.build_warm_ms", "ms", warm_s * 1e3);
    report.layer(
        "core.shared.extractions",
        "count",
        shared.extractions() as f64,
    );
    report.layer(
        "core.shared.resident_bytes",
        "bytes",
        shared.resident_bytes() as f64,
    );
    model.step();
    model.step();

    let path = tmp.join("probe.ckpt");
    let (saved, save_s) = timed_span("core.checkpoint.save", || model.save(&path));
    if let Err(e) = saved {
        report.check("checkpoint_save", false, e.to_string());
        return;
    }
    report.layer("core.checkpoint.save_ms", "ms", save_s * 1e3);
    checkpoint_file(report, &path);
    let (loaded, load_s) = timed_span("core.checkpoint.load", || {
        Model::load_shared(&path, &shared)
    });
    report.layer("core.checkpoint.load_ms", "ms", load_s * 1e3);
    drop(loaded);
    let target = RegridTarget::new().grid(regrid_target(grid));
    let (regridded, regrid_s) = timed_span("core.regrid.load", || {
        Model::load_regrid_shared(&path, &shared, target)
    });
    report.layer("core.regrid.load_ms", "ms", regrid_s * 1e3);
    report.check(
        "probe_resume_and_regrid_load",
        regridded.is_ok(),
        format!("regrid onto {:?}", regrid_target(grid)),
    );
    drop(regridded);
    std::fs::remove_file(&path).ok();

    let mut half = problem.config();
    half.k = (problem.k / 2).max(1);
    let (refit, refit_s) = timed_span("core.session.refit", || model.refit(half));
    report.layer("core.session.refit_ms", "ms", refit_s * 1e3);
    report.check(
        "probe_refit",
        refit.is_ok(),
        format!("refit at k={}", half.k),
    );
    let (_, factors_s) = timed_span("core.session.factors", || black_box(model.factors()));
    report.layer("core.session.factors_ms", "ms", factors_s * 1e3);
}

/// The grid a checkpoint is regridded onto: the transposed grid, or a
/// single grid row when the grid is square.
pub fn regrid_target(grid: Grid) -> Grid {
    if grid.pr == grid.pc {
        Grid::new(1, grid.size())
    } else {
        Grid::new(grid.pc, grid.pr)
    }
}

/// `data.model.residual_*`: measured seconds per iteration in each of
/// the six tasks over what the α-β-γ model predicts, with kernel rates
/// calibrated on this host and α, β fitted to this run's collectives —
/// the model-vs-measured row. A task the model prices at zero reports
/// the measured seconds over one microsecond.
pub fn model_residuals(
    report: &mut Report,
    problem: &Problem,
    input: &Input,
    row: &TaskRow,
    net: &NetFit,
) {
    let _guard = trace::span("layers.model_residuals");
    let rates = KernelRates::calibrate();
    let model = PerfModel {
        net: CostModel {
            alpha: net.alpha,
            beta: net.beta,
            gamma: 1.0 / rates.mm_flops,
        },
        rates,
    };
    let (m, n) = input.shape();
    let workload = if input.is_sparse() {
        Workload::sparse(m, n, problem.k, input.nnz())
    } else {
        Workload::dense(m, n, problem.k)
    };
    let predicted = model.breakdown(&workload, problem.algo, problem.ranks);
    for ((task, measured), predicted) in row.named().into_iter().zip([
        predicted.mm,
        predicted.nls,
        predicted.gram,
        predicted.all_gather,
        predicted.reduce_scatter,
        predicted.all_reduce,
    ]) {
        report.layer(
            format!("data.model.residual_{task}"),
            "ratio",
            measured / predicted.max(1e-6),
        );
    }
}

/// Everything a stepped workload reports per layer.
#[allow(clippy::too_many_arguments)]
pub fn probe_all(
    report: &mut Report,
    problem: &Problem,
    input: &Input,
    records: &[IterRecord],
    step_ms: &Samples,
    early: &Factors,
    late: &Factors,
    seq: &SeqBaseline,
    tmp: &Path,
) {
    let dims = input.shape();
    let step_mean_s = step_ms.mean() * 1e-3;
    let row = TaskRow::from_records(records);
    let objectives: Vec<f64> = records.iter().map(|r| r.objective).collect();
    engine_row(report, &row, step_mean_s);
    comm_counters(report, records, step_mean_s);
    report.layer(
        "core.speedup_vs_seq",
        "ratio",
        seq.step_ms.median() / step_ms.median(),
    );
    mm_kernels(report, problem, input, tmp);
    gram_chol(report, problem, dims);
    nls(report, problem, input, early, late, &objectives);
    let net = vmpi(report, problem, dims);
    session_verbs(report, problem, input, tmp);
    model_residuals(report, problem, input, &row, &net);
}
