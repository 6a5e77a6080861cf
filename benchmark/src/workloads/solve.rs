//! The four solve workloads: set up a model, then step it for the rest
//! of the window. They differ in which layer does the work.

use crate::host;
use crate::layers;
use crate::problem::{
    check_against_sequential, check_comm_closed_forms, check_solution, sequential_baseline,
    step_until, timed_span, Ctx, Problem, SEQ_CHECK_ITERS,
};
use crate::report::Report;
use crate::stats::{iters_to_tol, Samples};
use crate::trace;
use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;
use std::time::{Duration, Instant};

/// Cold set-ups timed per run; `setup_s` is their median. At least
/// three; more while they (and generating their inputs) fit in a tenth
/// of the window, so that a sub-millisecond set-up gets a median of
/// many samples.
const MIN_SETUP_REPS: usize = 3;
const MAX_SETUP_REPS: usize = 25;
const SETUP_WINDOW_SHARE: f64 = 0.1;

/// Steps every run takes at least, so the sequential comparison and the
/// steady-state communication checks have iterations to look at.
const MIN_STEPS: usize = SEQ_CHECK_ITERS + 2;

/// The iteration whose factors stand for "early" in the NLS probe.
const EARLY_ITER: usize = 3;

pub struct Spec {
    pub name: &'static str,
    kind: DatasetKind,
    /// Paper dimensions are divided by this (full, quick).
    scale: (usize, usize),
    k: usize,
    solver: SolverKind,
    algo: Algo,
    ranks: usize,
    /// Second phase on the same input: Naive at the same rank count,
    /// which uses the same collectives differently (whole-factor
    /// all-gathers, no reduce-scatter).
    naive_phase: bool,
    /// Reports `core.engine.time_to_tol_s`.
    time_to_tol: bool,
}

pub fn spec(name: &str) -> Option<Spec> {
    Some(match name {
        "dense_hals" => Spec {
            name: "dense_hals",
            kind: DatasetKind::Dsyn,
            scale: (24, 240),
            k: 16,
            solver: SolverKind::Hals,
            algo: Algo::Hpc2D,
            ranks: 2,
            naive_phase: false,
            time_to_tol: true,
        },
        "sparse_mu" => Spec {
            name: "sparse_mu",
            kind: DatasetKind::Ssyn,
            scale: (6, 60),
            k: 32,
            solver: SolverKind::Mu,
            algo: Algo::Hpc2D,
            ranks: 2,
            naive_phase: false,
            time_to_tol: false,
        },
        "webbase_bpp" => Spec {
            name: "webbase_bpp",
            kind: DatasetKind::Webbase,
            scale: (16, 160),
            k: 32,
            solver: SolverKind::Bpp,
            algo: Algo::Hpc2D,
            ranks: 2,
            naive_phase: false,
            time_to_tol: true,
        },
        "comm_small" => Spec {
            name: "comm_small",
            kind: DatasetKind::Dsyn,
            scale: (450, 450),
            k: 32,
            solver: SolverKind::Bpp,
            algo: Algo::HpcGrid(Grid::new(2, 2)),
            ranks: 4,
            naive_phase: true,
            time_to_tol: false,
        },
        _ => return None,
    })
}

impl Spec {
    pub fn problem(&self, ctx: &Ctx) -> Problem {
        Problem {
            kind: self.kind,
            scale: if ctx.quick {
                self.scale.1
            } else {
                self.scale.0
            },
            k: self.k,
            solver: self.solver,
            algo: self.algo,
            ranks: self.ranks,
            seed: ctx.seed,
        }
    }
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Report {
    let problem = spec.problem(ctx);
    let mut report = Report::new(spec.name, ctx.seed, ctx.seconds, ctx.traced, ctx.quick);
    report.oversubscribed = problem.oversubscribed();

    // ---- the measured window ----
    // A cold `SharedInput` takes its matrix by value, so every set-up is
    // handed a freshly generated one (generation is outside the clock):
    // the harness never holds a second copy of the input.
    let mut generation = Samples::new();
    let mut setup = Samples::new();
    let mut cold_setup = || {
        let (matrix, gen_s) = timed_span("data.gen", || problem.generate());
        generation.push(gen_s);
        let (built, s) = timed_span("setup", || {
            let shared = trace::in_span("core.shared.new", || SharedInput::new(matrix));
            let model = trace::in_span("core.build", || problem.build(&shared));
            (shared, model)
        });
        setup.push(s);
        built
    };
    let (shared, mut model) = cold_setup();
    let (m, n) = shared.shape();
    let deadline =
        Instant::now() + Duration::from_secs_f64((1.0 - SETUP_WINDOW_SHARE) * ctx.seconds);

    let grid_deadline = if spec.naive_phase {
        let now = Instant::now();
        now + deadline.saturating_duration_since(now) / 2
    } else {
        deadline
    };
    let mut early = None;
    let step_ms = step_until(&mut model, grid_deadline, MIN_STEPS, |model| {
        if ctx.traced && model.iterations() == EARLY_ITER {
            early = Some(trace::in_span("core.factors", || model.factors()));
        }
    });
    let naive = spec.naive_phase.then(|| {
        let mut naive = trace::in_span("core.build", || {
            problem.build_as(&shared, Algo::Naive, problem.ranks)
        });
        let ms = step_until(&mut naive, deadline, MIN_STEPS, |_| {});
        (naive, ms)
    });
    // One cold set-up and the stepping it was for: the peak resident
    // set is read before the repeated set-ups below can add to it.
    let peak_rss_mb = host::peak_rss_mb();
    let reps_from = Instant::now();
    let reps_budget = Duration::from_secs_f64(SETUP_WINDOW_SHARE * ctx.seconds);
    for rep in 1..MAX_SETUP_REPS {
        if rep >= MIN_SETUP_REPS && reps_from.elapsed() >= reps_budget {
            break;
        }
        drop(cold_setup());
    }
    // ---- end of the measured window ----
    report.layer_median("data.gen_s", "s", &generation);

    report.e2e_median("setup_s", &setup);
    report.e2e_op(
        step_ms.percentile(10.0),
        "core.engine.step_ms_p50",
        &step_ms,
    );
    report.e2e("peak_rss_mb", peak_rss_mb);
    report.ops(step_ms.len() as u64, 0);

    let records = model.records().to_vec();
    let objectives: Vec<f64> = records.iter().map(|r| r.objective).collect();
    if spec.time_to_tol {
        match iters_to_tol(&objectives, layers::TOL) {
            Some(iters) => report.layer(
                "core.engine.time_to_tol_s",
                "s",
                step_ms.values()[..iters].iter().sum::<f64>() * 1e-3,
            ),
            None => report.notes.push(format!(
                "core.engine.time_to_tol_s not reported: RelTol {{{:e}}} did not hold within {} iterations",
                layers::TOL,
                objectives.len()
            )),
        }
    }

    check_solution(&mut report, &model, problem.solver);
    check_comm_closed_forms(&mut report, &model, (m, n, problem.k));
    if let Some((naive, naive_ms)) = &naive {
        report.layer_median("core.engine.naive_step_ms_p50", "ms", naive_ms);
        report.ops(naive_ms.len() as u64, 0);
        report.check_scope = "naive.";
        check_solution(&mut report, naive, problem.solver);
        check_comm_closed_forms(&mut report, naive, (m, n, problem.k));
        report.check_scope = "";
    }
    drop(naive);
    let seq = sequential_baseline(&problem, &shared);
    check_against_sequential(&mut report, &records, &seq);

    if ctx.traced {
        let late = trace::in_span("core.factors", || model.factors());
        let early = early.unwrap_or_else(|| late.clone());
        drop(model);
        drop(shared);
        let input = trace::in_span("data.gen", || problem.generate());
        layers::probe_all(
            &mut report,
            &problem,
            &input,
            &records,
            &step_ms,
            &early,
            &late,
            &seq,
            &ctx.tmp,
        );
    }
    report
}
