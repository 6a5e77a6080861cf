//! What the workloads share: the factorization problem a workload is
//! built around, timing helpers, the paper's six-task row, and the
//! correctness checks common to every run that steps a model.

use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use hpc_nmf::prelude::*;
use hpc_nmf::IterRecord;
use nmf_data::DatasetKind;
use nmf_vmpi::Op;
use std::path::PathBuf;
use std::time::Instant;

/// Iteration cap given to every model. Stepping is boxed by time, not
/// by count, and the engine only prefetches the next iteration's
/// collectives while the cap is not reached — so the cap sits far above
/// any count a run can reach. (The engine reserves one record slot per
/// capped iteration, which bounds how large this may sensibly be.)
pub const ITER_CAP: usize = 50_000;

/// Iterations compared against the single-rank `Sequential` run.
pub const SEQ_CHECK_ITERS: usize = 8;

/// What every workload is handed.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub traced: bool,
    /// Tiny shapes: validates the schema and every check, measures
    /// nothing worth keeping.
    pub quick: bool,
    /// Scratch directory of this run, inside the checkout.
    pub tmp: PathBuf,
}

/// Runs `f`, returning its result and its wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// [`timed`] inside a span.
pub fn timed_span<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let _guard = trace::span(name);
    timed(f)
}

/// Times `f` `reps` times after one untimed warm-up; samples are seconds
/// times `scale` (1e3 for milliseconds, 1e6 for microseconds).
pub fn timed_reps(reps: usize, scale: f64, mut f: impl FnMut()) -> Samples {
    f();
    let mut s = Samples::new();
    for _ in 0..reps {
        s.push(timed(&mut f).1 * scale);
    }
    s
}

/// A path relative to the working directory when it lies under it
/// (short enough for a `sockaddr_un`, and free of one machine's
/// absolute prefix in a committed result file); the path itself
/// otherwise.
pub fn relative_to_cwd(path: PathBuf) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| path.strip_prefix(cwd).ok().map(PathBuf::from))
        .unwrap_or(path)
}

/// One factorization problem: an input and how to factorize it.
pub struct Problem {
    pub kind: DatasetKind,
    pub scale: usize,
    pub k: usize,
    pub solver: SolverKind,
    pub algo: Algo,
    pub ranks: usize,
    /// Seeds both the data and the factor initialisation.
    pub seed: u64,
}

impl Problem {
    /// Generates the input matrix (deterministic in the seed).
    pub fn generate(&self) -> Input {
        self.kind.build(self.scale, self.seed).input
    }

    pub fn config(&self) -> NmfConfig {
        NmfConfig::new(self.k)
            .with_solver(self.solver)
            .with_max_iters(ITER_CAP)
            .with_seed(self.seed)
    }

    /// Builds a model of this problem over `shared`, on `algo` × `ranks`
    /// (the problem's own, or a variant such as the sequential baseline).
    pub fn build_as(&self, shared: &SharedInput, algo: Algo, ranks: usize) -> Model {
        Nmf::on_shared(shared)
            .config(self.config())
            .algo(algo)
            .ranks(ranks)
            .build()
            .expect("workload configurations are valid requests")
    }

    pub fn build(&self, shared: &SharedInput) -> Model {
        self.build_as(shared, self.algo, self.ranks)
    }

    pub fn oversubscribed(&self) -> bool {
        self.ranks > crate::host::nproc()
    }
}

/// Steps `model` until `deadline`, and at least `min_steps` times,
/// timing every step (milliseconds). `after_step` runs outside the
/// timed region. Stops short of the iteration cap.
pub fn step_until(
    model: &mut Model,
    deadline: Instant,
    min_steps: usize,
    mut after_step: impl FnMut(&Model),
) -> Samples {
    let mut ms = Samples::new();
    while (ms.len() < min_steps || Instant::now() < deadline) && model.iterations() + 2 < ITER_CAP {
        let (_, s) = timed_span("core.step", || {
            model.step();
        });
        ms.push(s * 1e3);
        after_step(model);
    }
    ms
}

/// Mean seconds per iteration in each of the paper's six tasks (§6.3,
/// Fig. 3): critical-path compute and communication across ranks.
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskRow {
    pub mm: f64,
    pub nls: f64,
    pub gram: f64,
    pub all_gather: f64,
    pub reduce_scatter: f64,
    pub all_reduce: f64,
}

impl TaskRow {
    pub fn from_records(records: &[IterRecord]) -> TaskRow {
        let n = records.len().max(1) as f64;
        let mut row = TaskRow::default();
        for r in records {
            row.mm += r.compute.mm.as_secs_f64();
            row.nls += r.compute.nls.as_secs_f64();
            row.gram += r.compute.gram.as_secs_f64();
            row.all_gather += r.comm.op(Op::AllGather).time.as_secs_f64();
            row.reduce_scatter += r.comm.op(Op::ReduceScatter).time.as_secs_f64();
            row.all_reduce += r.comm.op(Op::AllReduce).time.as_secs_f64();
        }
        for x in [
            &mut row.mm,
            &mut row.nls,
            &mut row.gram,
            &mut row.all_gather,
            &mut row.reduce_scatter,
            &mut row.all_reduce,
        ] {
            *x /= n;
        }
        row
    }

    pub fn named(&self) -> [(&'static str, f64); 6] {
        [
            ("mm", self.mm),
            ("nls", self.nls),
            ("gram", self.gram),
            ("all_gather", self.all_gather),
            ("reduce_scatter", self.reduce_scatter),
            ("all_reduce", self.all_reduce),
        ]
    }

    pub fn total(&self) -> f64 {
        self.named().iter().map(|(_, v)| v).sum()
    }

    pub fn comm(&self) -> f64 {
        self.all_gather + self.reduce_scatter + self.all_reduce
    }
}

/// Exact words one rank sends in an all-gather (or reduce-scatter) of
/// `total` words over `q` ranks holding equal blocks.
fn equal_block_words(q: usize, total: usize) -> u64 {
    ((q - 1) * (total / q)) as u64
}

/// Checks counted words and messages against the Table 2 closed forms,
/// the way `tests/communication_costs.rs` does: exact for all-gather
/// and reduce-scatter, a tight band for all-reduce (two k×k Gram
/// reductions plus the objective terms per iteration, and the one-time
/// `‖A‖²` reduction), `O(log p)` messages.
///
/// Counted per rank over the whole run, from the cumulative counters:
/// a split-phase collective sends in stages, so its words need not fall
/// inside the iteration that posted it. A model stopped mid-run has the
/// next iteration's prefetched H-side collectives in flight, which the
/// upper limits allow for.
pub fn check_comm_closed_forms(
    report: &mut Report,
    model: &Model,
    (m, n, k): (usize, usize, usize),
) {
    let (algo, grid, p) = (model.algo(), model.grid(), model.ranks());
    let iters = model.records().len() as u64;
    // (per-iteration words, words of one prefetched H-side collective)
    let (ag, ag_ahead, rs) = match algo {
        Algo::Sequential => (0, 0, 0),
        Algo::Naive => (
            equal_block_words(p, n * k) + equal_block_words(p, m * k),
            0,
            0,
        ),
        _ => {
            let over_col = equal_block_words(grid.pr, n / grid.pc * k);
            let over_row = equal_block_words(grid.pc, m / grid.pr * k);
            (over_col + over_row, over_col, over_col + over_row)
        }
    };
    // The closed forms assume every rank holds an equal block; ragged
    // blocks get a 1 % band instead.
    let divisible = m % p == 0 && n % p == 0;
    let slack = |want: u64| {
        if divisible {
            0
        } else {
            want / 100 + (p * k) as u64
        }
    };
    let frac = (p.max(1) - 1) as f64 / p.max(1) as f64;
    let gram = match algo {
        // Naive computes its Grams redundantly and reduces only the
        // objective terms.
        Algo::Sequential | Algo::Naive => 0,
        _ => (2.0 * frac * (k * k) as f64) as u64,
    };
    let lg = (p as f64).log2().ceil() as u64;
    let msg_bound = (40 * lg + 40) * iters;

    let ranks = model.rank_comm();
    let within = |op: Op, low: u64, high: u64| {
        ranks.iter().all(|s| {
            let got = s.op(op).words;
            got + slack(low) >= low && got <= high + slack(high)
        })
    };
    report.check(
        "table2_all_gather_words",
        within(Op::AllGather, ag * iters, ag * iters + ag_ahead),
        format!("{ag} words per rank per iteration over {iters} iterations"),
    );
    report.check(
        "table2_reduce_scatter_words",
        within(Op::ReduceScatter, rs * iters, rs * iters),
        format!("{rs} words per rank per iteration"),
    );
    report.check(
        "table2_all_reduce_words",
        within(
            Op::AllReduce,
            2 * gram * iters,
            2 * gram * iters + gram + 16 * (iters + 1),
        ),
        format!(
            "two Gram reductions of {gram} words per rank per iteration, plus the objective terms"
        ),
    );
    report.check(
        "table2_messages_logarithmic",
        ranks.iter().all(|s| s.total_messages() <= msg_bound),
        format!("at most {msg_bound} messages per rank over {iters} iterations at p={p}"),
    );
}

/// Checks that hold for any stepped model: nonnegative factors, and for
/// BPP (an exact block solver, so ANLS is monotone) a non-increasing
/// objective.
pub fn check_solution(report: &mut Report, model: &Model, solver: SolverKind) {
    let (w, h) = trace::in_span("core.factors", || model.factors());
    report.check(
        "factors_nonnegative",
        w.all_nonnegative() && h.all_nonnegative() && w.all_finite() && h.all_finite(),
        format!("W {:?}, H {:?}", w.shape(), h.shape()),
    );
    if solver == SolverKind::Bpp {
        let worst = model
            .records()
            .windows(2)
            .map(|w| (w[1].objective - w[0].objective) / w[0].objective.abs().max(1.0))
            .fold(f64::NEG_INFINITY, f64::max);
        report.check(
            "bpp_objective_non_increasing",
            model.records().len() < 2 || worst <= 1e-9,
            format!("largest relative step {worst:.3e}"),
        );
    }
}

/// The single-rank `Sequential` run of the same problem and seed: the
/// correctness reference for the distributed objective, and the
/// single-thread baseline.
pub struct SeqBaseline {
    pub objectives: Vec<f64>,
    pub step_ms: Samples,
}

pub fn sequential_baseline(problem: &Problem, shared: &SharedInput) -> SeqBaseline {
    let _guard = trace::span("check.sequential_baseline");
    let mut model = problem.build_as(shared, Algo::Sequential, 1);
    let mut step_ms = Samples::new();
    for _ in 0..SEQ_CHECK_ITERS {
        let (_, s) = timed(|| {
            model.step();
        });
        step_ms.push(s * 1e3);
    }
    SeqBaseline {
        objectives: model.records().iter().map(|r| r.objective).collect(),
        step_ms,
    }
}

/// Checks the distributed objective after [`SEQ_CHECK_ITERS`]
/// iterations against the sequential run, to 1e-9 relative.
pub fn check_against_sequential(report: &mut Report, records: &[IterRecord], seq: &SeqBaseline) {
    let i = SEQ_CHECK_ITERS - 1;
    let (Some(par), Some(&reference)) = (records.get(i), seq.objectives.get(i)) else {
        report.check(
            "objective_matches_sequential",
            false,
            format!("fewer than {SEQ_CHECK_ITERS} iterations ran"),
        );
        return;
    };
    let rel = (par.objective - reference).abs() / reference.abs().max(f64::MIN_POSITIVE);
    report.check(
        "objective_matches_sequential",
        rel <= 1e-9,
        format!("after {SEQ_CHECK_ITERS} iterations: relative difference {rel:.3e}"),
    );
}
