//! Shared infrastructure for the experiment binaries that regenerate
//! the paper's tables and figures. (Timing harnesses live in
//! `benchmark/`, not here.)
//!
//! Two complementary modes:
//!
//! * **measured** — real multithreaded runs of the actual drivers on
//!   scaled-down datasets (this machine cannot hold 600 cores or a
//!   172,800×115,200 dense matrix), with wall-clock per-task breakdowns
//!   from the instrumented drivers;
//! * **modeled** — the paper-scale α-β-γ projections of
//!   [`nmf_data::costmodel`], which reproduce the shape of the paper's
//!   plots at the original dimensions and processor counts.

use hpc_nmf::prelude::*;
use nmf_data::{Breakdown, Dataset, DatasetKind, PerfModel, Workload};
use nmf_vmpi::Op;

/// A per-iteration time breakdown row (seconds), in the paper's §6.3
/// task vocabulary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Row {
    pub mm: f64,
    pub nls: f64,
    pub gram: f64,
    pub all_gather: f64,
    pub reduce_scatter: f64,
    pub all_reduce: f64,
}

impl Row {
    pub fn total(&self) -> f64 {
        self.mm + self.nls + self.gram + self.all_gather + self.reduce_scatter + self.all_reduce
    }

    pub fn from_model(b: &Breakdown) -> Row {
        Row {
            mm: b.mm,
            nls: b.nls,
            gram: b.gram,
            all_gather: b.all_gather,
            reduce_scatter: b.reduce_scatter,
            all_reduce: b.all_reduce,
        }
    }
}

/// Runs `algo` on `p` ranks for `iters` iterations and returns the mean
/// per-iteration breakdown (critical-path across ranks), skipping the
/// first iteration as warmup when more than one was run.
pub fn measure(
    input: &Input,
    p: usize,
    algo: Algo,
    k: usize,
    iters: usize,
) -> Result<Row, NmfError> {
    let mut model = Nmf::on(input)
        .config(NmfConfig::new(k).with_max_iters(iters))
        .algo(algo)
        .ranks(p)
        .build()?;
    model.run();
    let out = model.into_output();
    let skip = usize::from(out.iters.len() > 1);
    let used = &out.iters[skip..];
    let denom = used.len().max(1) as f64;
    let mut row = Row::default();
    for rec in used {
        row.mm += rec.compute.mm.as_secs_f64();
        row.nls += rec.compute.nls.as_secs_f64();
        row.gram += rec.compute.gram.as_secs_f64();
        row.all_gather += rec.comm.op(Op::AllGather).time.as_secs_f64();
        row.reduce_scatter += rec.comm.op(Op::ReduceScatter).time.as_secs_f64();
        row.all_reduce += rec.comm.op(Op::AllReduce).time.as_secs_f64();
    }
    row.mm /= denom;
    row.nls /= denom;
    row.gram /= denom;
    row.all_gather /= denom;
    row.reduce_scatter /= denom;
    row.all_reduce /= denom;
    Ok(row)
}

/// Paper-scale workload of a dataset at rank `k`.
pub fn paper_workload(kind: DatasetKind, k: usize) -> Workload {
    let (m, n) = kind.paper_dims();
    if kind.is_sparse() {
        Workload::sparse(m, n, k, kind.paper_nnz())
    } else {
        Workload::dense(m, n, k)
    }
}

/// Modeled per-iteration breakdown for a dataset at paper scale.
pub fn model_row(pm: &PerfModel, kind: DatasetKind, algo: Algo, p: usize, k: usize) -> Row {
    Row::from_model(&pm.breakdown(&paper_workload(kind, k), algo, p))
}

/// The dataset scales used for *measured* runs on one machine (chosen so
/// the largest measured configuration stays in the hundreds of
/// milliseconds per iteration).
pub fn measured_scale(kind: DatasetKind) -> usize {
    match kind {
        DatasetKind::Dsyn => 120,
        DatasetKind::Ssyn => 60,
        DatasetKind::Video => 120,
        DatasetKind::Webbase => 120,
    }
}

/// Builds the measured-mode dataset for `kind`.
pub fn measured_dataset(kind: DatasetKind, seed: u64) -> Dataset {
    kind.build(measured_scale(kind), seed)
}

/// The three algorithms the paper benchmarks, in its order.
pub const PAPER_ALGOS: [Algo; 3] = [Algo::Naive, Algo::Hpc1D, Algo::Hpc2D];

/// Prints a breakdown table: one row per (label, Row).
pub fn print_table(title: &str, unit_note: &str, rows: &[(String, Row)]) {
    println!("\n=== {title} ===");
    println!("(seconds per iteration{unit_note})");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "config", "MM", "NLS", "Gram", "AllG", "RedSc", "AllR", "total"
    );
    for (label, r) in rows {
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.4}",
            label,
            r.mm,
            r.nls,
            r.gram,
            r.all_gather,
            r.reduce_scatter,
            r.all_reduce,
            r.total()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_positive_breakdown() {
        let data = measured_dataset(DatasetKind::Ssyn, 1);
        let row = measure(&data.input, 4, Algo::Hpc2D, 5, 3).expect("valid request");
        assert!(row.total() > 0.0);
        assert!(row.mm >= 0.0 && row.nls > 0.0);
    }

    #[test]
    fn paper_workloads_have_paper_dims() {
        let w = paper_workload(DatasetKind::Webbase, 50);
        assert_eq!((w.m, w.n), (1_000_005, 1_000_005));
        assert!(w.sparse);
        assert_eq!(w.nnz, 3_105_536);
    }
}
