//! `lifecycle`: the session verbs around stepping, not stepping itself.
//!
//! One cycle does, in order: a cold `SharedInput`; `build`; two MU
//! iterations; `save`; `Model::load_shared`; `Model::load_regrid_shared`
//! onto the transposed grid; `refit` at k=16; `factors`. Work moved
//! into set-up (packing, the CSC build, the shard cache) or into the
//! checkpoint path shows here and on no other workload.

use crate::host;
use crate::layers;
use crate::problem::{sequential_baseline, timed, timed_span, Ctx, Problem, TaskRow};
use crate::report::Report;
use crate::stats::Samples;
use crate::trace;
use crate::workloads::solve;
use hpc_nmf::prelude::*;
use hpc_nmf::{IterRecord, NmfError};
use nmf_matrix::Mat;
use std::path::Path;
use std::time::Instant;

const STEPS_PER_CYCLE: usize = 2;
const REFIT_K: usize = 16;
const MIN_CYCLES: u64 = 3;

/// Wall time of each verb of every measured cycle.
#[derive(Default)]
struct CycleSamples {
    cycle_ms: Samples,
    setup_s: Samples,
    step_ms: Samples,
    save_ms: Samples,
    load_ms: Samples,
    regrid_ms: Samples,
    refit_ms: Samples,
    factors_ms: Samples,
    records: Vec<IterRecord>,
}

/// What the last cycle leaves behind for the traced run's counters.
struct CycleEnd {
    extractions: usize,
    resident_bytes: usize,
}

/// Where a cycle regrids its checkpoint to: the transposed grid of the
/// one the problem builds on.
fn regrid_target(problem: &Problem, (m, n): (usize, usize)) -> RegridTarget {
    let grid = problem.algo.grid(m, n, problem.ranks);
    RegridTarget::new().grid(layers::regrid_target(grid))
}

fn one_cycle(
    problem: &Problem,
    matrix: Input,
    ckpt: &Path,
    out: &mut CycleSamples,
) -> Result<CycleEnd, NmfError> {
    let _guard = trace::span("lifecycle.cycle");
    let target = regrid_target(problem, matrix.shape());
    let t0 = Instant::now();
    let ((shared, mut model), setup_s) = timed_span("setup", || {
        let shared = trace::in_span("core.shared.new", || SharedInput::new(matrix));
        let model = trace::in_span("core.build", || problem.build(&shared));
        (shared, model)
    });
    for _ in 0..STEPS_PER_CYCLE {
        let (_, s) = timed_span("core.step", || {
            model.step();
        });
        out.step_ms.push(s * 1e3);
    }
    out.records.extend_from_slice(model.records());
    let (saved, save_s) = timed_span("core.checkpoint.save", || model.save(ckpt));
    saved?;
    let (resumed, load_s) =
        timed_span("core.checkpoint.load", || Model::load_shared(ckpt, &shared));
    drop(resumed?);
    let (regridded, regrid_s) = timed_span("core.regrid.load", || {
        Model::load_regrid_shared(ckpt, &shared, target)
    });
    drop(regridded?);
    let mut narrower = problem.config();
    narrower.k = REFIT_K;
    let (refit, refit_s) = timed_span("core.session.refit", || model.refit(narrower));
    refit?;
    let (factors, factors_s) = timed_span("core.session.factors", || model.factors());
    std::hint::black_box(&factors);
    let end = CycleEnd {
        extractions: shared.extractions(),
        resident_bytes: shared.resident_bytes(),
    };
    drop(factors);
    drop(model);
    drop(shared);
    out.cycle_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    out.setup_s.push(setup_s);
    out.save_ms.push(save_s * 1e3);
    out.load_ms.push(load_s * 1e3);
    out.regrid_ms.push(regrid_s * 1e3);
    out.refit_ms.push(refit_s * 1e3);
    out.factors_ms.push(factors_s * 1e3);
    Ok(end)
}

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The verbs of one cycle with the factors compared at every hand-over:
/// resumed against saved, regridded against saved after globalisation.
/// Runs after the measured window and returns the saved factors.
fn check_cycle(
    report: &mut Report,
    problem: &Problem,
    input: Input,
    ckpt: &Path,
) -> Option<layers::Factors> {
    let _guard = trace::span("check.lifecycle_cycle");
    let target = regrid_target(problem, input.shape());
    let shared = SharedInput::new(input);
    let mut model = problem.build(&shared);
    for _ in 0..STEPS_PER_CYCLE {
        model.step();
    }
    let saved = model.factors();
    if let Err(e) = model.save(ckpt) {
        report.check("checkpoint_save", false, e.to_string());
        return None;
    }
    match Model::load_shared(ckpt, &shared) {
        Ok(resumed) => {
            let (w, h) = resumed.factors();
            report.check(
                "resumed_factors_bit_identical",
                bits_equal(&w, &saved.0)
                    && bits_equal(&h, &saved.1)
                    && resumed.iterations() == STEPS_PER_CYCLE,
                format!("resumed at iteration {}", resumed.iterations()),
            );
        }
        Err(e) => report.check("resumed_factors_bit_identical", false, e.to_string()),
    }
    match Model::load_regrid_shared(ckpt, &shared, target) {
        Ok(regridded) => {
            let (w, h) = regridded.factors();
            report.check(
                "regridded_factors_equal_after_globalisation",
                bits_equal(&w, &saved.0)
                    && bits_equal(&h, &saved.1)
                    && Some(regridded.grid()) == target.grid,
                format!("{:?} -> {:?}", model.grid(), regridded.grid()),
            );
        }
        Err(e) => report.check(
            "regridded_factors_equal_after_globalisation",
            false,
            e.to_string(),
        ),
    }
    report.check(
        "factors_nonnegative",
        saved.0.all_nonnegative() && saved.1.all_nonnegative(),
        format!("W {:?}, H {:?}", saved.0.shape(), saved.1.shape()),
    );
    Some(saved)
}

pub fn run(ctx: &Ctx) -> Report {
    let problem = solve::spec("sparse_mu")
        .expect("sparse_mu is a solve workload")
        .problem(ctx);
    let mut report = Report::new("lifecycle", ctx.seed, ctx.seconds, ctx.traced, ctx.quick);
    report.oversubscribed = problem.oversubscribed();

    let ckpt = ctx.tmp.join("lifecycle.ckpt");

    // ---- the measured window: `seconds` of cycles ----
    // A cold `SharedInput` takes its matrix by value, so every cycle is
    // handed a freshly generated one, outside the cycle's clock: the
    // harness never holds a second copy, and the peak resident set is
    // the program's own.
    let mut generation = Samples::new();
    let mut samples = CycleSamples::default();
    let mut failed = 0;
    let mut end = None;
    let mut cycles = 0u64;
    let mut spent_s = 0.0;
    while cycles < MIN_CYCLES || spent_s < ctx.seconds {
        let (matrix, gen_s) = timed_span("data.gen", || problem.generate());
        generation.push(gen_s);
        let (outcome, s) = timed(|| one_cycle(&problem, matrix, &ckpt, &mut samples));
        spent_s += s;
        match outcome {
            Ok(e) => end = Some(e),
            Err(e) => {
                failed += 1;
                report.notes.push(format!("cycle {cycles} failed: {e}"));
            }
        }
        cycles += 1;
    }
    let peak_rss_mb = host::peak_rss_mb();
    // ---- end of the measured window ----
    report.layer_median("data.gen_s", "s", &generation);
    report.ops(cycles, failed);

    if samples.cycle_ms.is_empty() {
        report.check("a_cycle_completed", false, "every cycle failed");
        return report;
    }
    report.e2e_median("setup_s", &samples.setup_s);
    report.e2e_op(
        samples.cycle_ms.percentile(10.0),
        "core.session.cycle_ms_p50",
        &samples.cycle_ms,
    );
    report.e2e("peak_rss_mb", peak_rss_mb);
    // The cycles' own verbs are the layer numbers here.
    for (name, s) in [
        ("core.checkpoint.save_ms", &samples.save_ms),
        ("core.checkpoint.load_ms", &samples.load_ms),
        ("core.regrid.load_ms", &samples.regrid_ms),
        ("core.session.refit_ms", &samples.refit_ms),
        ("core.session.factors_ms", &samples.factors_ms),
    ] {
        report.layer_median(name, "ms", s);
    }

    let saved = check_cycle(&mut report, &problem, problem.generate(), &ckpt);
    if let (true, Some(saved), Some(end)) = (ctx.traced, saved, end) {
        let input = problem.generate();
        let (m, n) = input.shape();
        let step_mean_s = samples.step_ms.mean() * 1e-3;
        let row = TaskRow::from_records(&samples.records);
        layers::engine_row(&mut report, &row, step_mean_s);
        layers::comm_counters(&mut report, &samples.records, step_mean_s);
        let shared = SharedInput::new(input.clone());
        let seq = sequential_baseline(&problem, &shared);
        report.layer(
            "core.speedup_vs_seq",
            "ratio",
            seq.step_ms.median() / samples.step_ms.median(),
        );
        layers::shard_extract(&mut report, &problem, &input);
        drop(problem.build(&shared));
        let (warm, warm_s) = timed(|| problem.build(&shared));
        drop(warm);
        report.layer("core.session.build_warm_ms", "ms", warm_s * 1e3);
        report.layer("core.shared.extractions", "count", end.extractions as f64);
        report.layer(
            "core.shared.resident_bytes",
            "bytes",
            end.resident_bytes as f64,
        );
        drop(shared);
        layers::checkpoint_file(&mut report, &ckpt);
        layers::mm_kernels(&mut report, &problem, &input, &ctx.tmp);
        layers::gram_chol(&mut report, &problem, (m, n));
        let objectives: Vec<f64> = samples
            .records
            .iter()
            .take(STEPS_PER_CYCLE)
            .map(|r| r.objective)
            .collect();
        layers::nls(&mut report, &problem, &input, &saved, &saved, &objectives);
        let net = layers::vmpi(&mut report, &problem, (m, n));
        layers::model_residuals(&mut report, &problem, &input, &row, &net);
    }
    std::fs::remove_file(&ckpt).ok();
    report
}
