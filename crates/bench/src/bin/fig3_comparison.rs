//! Figure 3 (a, c, e, g): algorithmic comparison — per-iteration time
//! breakdown vs low rank k ∈ {10..50} for Naive, HPC-NMF-1D, and
//! HPC-NMF-2D on all four datasets.
//!
//! Section A reports *measured* runs of the real drivers on scaled
//! datasets at machine-feasible p; Section B reports the paper-scale
//! α-β-γ model at the paper's p = 600.
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin fig3_comparison
//! ```

use hpc_nmf::prelude::*;
use nmf_bench::{measure, measured_dataset, model_row, print_table, Row, PAPER_ALGOS};
use nmf_data::{DatasetKind, PerfModel};

fn main() -> Result<(), NmfError> {
    let ks = [10usize, 20, 30, 40, 50];
    let p_measured = 16;
    let iters = 3;

    println!("Figure 3 (a/c/e/g): time breakdown vs k, all datasets");
    println!("Section A: measured on this machine (scaled datasets, p = {p_measured})");

    for kind in DatasetKind::ALL {
        let data = measured_dataset(kind, 42);
        let (m, n) = data.input.shape();
        let mut rows: Vec<(String, Row)> = Vec::new();
        for algo in PAPER_ALGOS {
            for &k in &ks {
                if k >= m.min(n) {
                    continue;
                }
                let row = measure(&data.input, p_measured, algo, k, iters)?;
                rows.push((format!("{:<12} k={k}", algo.name()), row));
            }
        }
        print_table(
            &format!("{} {}x{} measured, p={p_measured}", kind.name(), m, n),
            "",
            &rows,
        );
    }

    println!("\nSection B: paper-scale model (paper dims, p = 600, Edison-like machine)");
    let pm = PerfModel::default();
    for kind in DatasetKind::ALL {
        let (m, n) = kind.paper_dims();
        let mut rows: Vec<(String, Row)> = Vec::new();
        for algo in PAPER_ALGOS {
            for &k in &ks {
                rows.push((
                    format!("{:<12} k={k}", algo.name()),
                    model_row(&pm, kind, algo, 600, k),
                ));
            }
        }
        print_table(
            &format!("{} {}x{} modeled, p=600", kind.name(), m, n),
            " (modeled)",
            &rows,
        );

        // Headline ratio at k = 10 (the paper reports up to 4.4x on SSYN).
        let naive = model_row(&pm, kind, Algo::Naive, 600, 10).total();
        let hpc2d = model_row(&pm, kind, Algo::Hpc2D, 600, 10).total();
        println!(
            "{}: Naive/HPC-2D speedup at k=10: {:.1}x",
            kind.name(),
            naive / hpc2d
        );
    }
    Ok(())
}
