//! The paper's evaluation (§6) at its own dimensions: Figure 3's
//! per-task breakdowns and Table 3's per-iteration totals for 24 to 600
//! cores, from the α-β-γ model of [`nmf_data::costmodel`] with its
//! Edison-like constants (`PerfModel::default()`). Nothing here runs a
//! factorization: one host holds neither 600 ranks nor a
//! 172,800×115,200 dense matrix.
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin paper
//! ```
//!
//! A measured breakdown row is one `nmf_cli --json` run at a scale the
//! host can hold (its `compute_seconds` and `comm` fields).

use hpc_nmf::prelude::*;
use nmf_data::{Breakdown, DatasetKind, PerfModel, Workload};
use std::process::exit;

/// The three algorithms the paper compares, in its order.
const ALGOS: [Algo; 3] = [Algo::Naive, Algo::Hpc1D, Algo::Hpc2D];

/// The core counts of Fig. 3 (b/d/f/h) and Table 3.
const CORES: [usize; 5] = [24, 96, 216, 384, 600];

/// `kind` at the paper's dimensions and rank `k`.
fn workload(kind: DatasetKind, k: usize) -> Workload {
    let (m, n) = kind.paper_dims();
    if kind.is_sparse() {
        Workload::sparse(m, n, k, kind.paper_nnz())
    } else {
        Workload::dense(m, n, k)
    }
}

fn model(kind: DatasetKind, algo: Algo, p: usize, k: usize) -> Breakdown {
    PerfModel::default().breakdown(&workload(kind, k), algo, p)
}

/// One breakdown table, a row per `(label, breakdown)`, in the paper's
/// §6.3 task order.
fn print_table(title: &str, rows: &[(String, Breakdown)]) {
    println!("\n=== {title} ===");
    println!("(seconds per iteration, modeled)");
    println!(
        "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>10}",
        "config", "MM", "NLS", "Gram", "AllG", "RedSc", "AllR", "total"
    );
    for (label, b) in rows {
        println!(
            "{:<22} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>9.4} {:>10.4}",
            label,
            b.mm,
            b.nls,
            b.gram,
            b.all_gather,
            b.reduce_scatter,
            b.all_reduce,
            b.total()
        );
    }
}

/// Fig. 3 rows for every algorithm at every point `x`, labelled
/// `{name}={x}`; `at(x)` is that point's `(p, k)`.
fn sweep(
    kind: DatasetKind,
    name: &str,
    points: &[usize],
    at: impl Fn(usize) -> (usize, usize),
) -> Vec<(String, Breakdown)> {
    let mut rows = Vec::new();
    for algo in ALGOS {
        for &x in points {
            let (p, k) = at(x);
            rows.push((
                format!("{:<12} {name}={x}", algo.name()),
                model(kind, algo, p, k),
            ));
        }
    }
    rows
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: paper (no arguments: every row comes from the model)");
        exit(2);
    }

    println!("Figure 3 (a/c/e/g): time breakdown vs k at p = 600");
    for kind in DatasetKind::ALL {
        let (m, n) = kind.paper_dims();
        let rows = sweep(kind, "k", &[10, 20, 30, 40, 50], |k| (600, k));
        print_table(&format!("{} {m}x{n}, p=600", kind.name()), &rows);
        // The paper reports up to 4.4x on SSYN.
        let naive = model(kind, Algo::Naive, 600, 10).total();
        let hpc2d = model(kind, Algo::Hpc2D, 600, 10).total();
        println!(
            "{}: Naive/HPC-2D speedup at k=10: {:.1}x",
            kind.name(),
            naive / hpc2d
        );
    }

    println!("\nFigure 3 (b/d/f/h): strong scaling at k = 50");
    for kind in DatasetKind::ALL {
        print_table(
            &format!("{}, k=50", kind.name()),
            &sweep(kind, "p", &CORES, |p| (p, 50)),
        );
        let speedup = |algo| model(kind, algo, 24, 50).total() / model(kind, algo, 600, 50).total();
        println!(
            "{}: 24->600 cores speedup — Naive {:.1}x, HPC-NMF-2D {:.1}x (ideal 25x)",
            kind.name(),
            speedup(Algo::Naive),
            speedup(Algo::Hpc2D),
        );
    }

    println!("\nTable 3: per-iteration running times (seconds) for k = 50\n");
    let columns = [
        DatasetKind::Dsyn,
        DatasetKind::Ssyn,
        DatasetKind::Video,
        DatasetKind::Webbase,
    ];
    print!("{:<8}", "cores");
    for algo in ALGOS {
        for kind in columns {
            let label = format!("{}/{}", algo.name().replace("HPC-NMF-", ""), kind.name());
            print!(" {label:>13}");
        }
    }
    println!();
    for p in CORES {
        print!("{p:<8}");
        for algo in ALGOS {
            for kind in columns {
                // The paper ran DSYN only from 216 cores up (memory).
                if kind == DatasetKind::Dsyn && p < 216 {
                    print!(" {:>13}", "-");
                } else {
                    print!(" {:>13.4}", model(kind, algo, p, 50).total());
                }
            }
        }
        println!();
    }

    println!("\n=== Grid choice: every pr x pc = 600 grid on DSYN, k=50 ===");
    let w = workload(DatasetKind::Dsyn, 50);
    let optimal = Grid::optimal(w.m, w.n, 600);
    for pr in (1..=600).filter(|pr| 600usize.is_multiple_of(*pr)) {
        let grid = Grid::new(pr, 600 / pr);
        let b = PerfModel::default().hpc(&w, grid);
        let marker = if grid == optimal {
            "  <- Grid::optimal"
        } else {
            ""
        };
        println!(
            "  {:>3} x {:<3} comm {:>8.4}s  total {:>8.4}s{marker}",
            grid.pr,
            grid.pc,
            b.comm(),
            b.total()
        );
    }
}
