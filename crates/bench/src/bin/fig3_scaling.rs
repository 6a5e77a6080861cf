//! Figure 3 (b, d, f, h): strong scaling — per-iteration time breakdown
//! vs processor count at fixed k = 50, for all three algorithms on all
//! four datasets.
//!
//! Section A: measured runs at machine-feasible rank counts.
//! Section B: paper-scale model at the paper's p ∈ {24, 96, 216, 384, 600}.
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin fig3_scaling
//! ```

use hpc_nmf::prelude::*;
use nmf_bench::{measure, measured_dataset, model_row, print_table, Row, PAPER_ALGOS};
use nmf_data::{DatasetKind, PerfModel};

fn main() -> Result<(), NmfError> {
    let k = 50usize;
    let iters = 3;
    let ps_measured = [4usize, 8, 16];
    let ps_paper = [24usize, 96, 216, 384, 600];

    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("Figure 3 (b/d/f/h): strong scaling at k = {k}");
    println!("Section A: measured on this machine (scaled datasets)");
    println!(
        "NOTE: this host exposes {cores} hardware thread(s); virtual ranks timeshare them, \
         so measured wall-clock speedup saturates at ~{cores}x.\n\
         The *work distribution* (per-rank task times shrinking with p) and the counted \
         communication are still meaningful; Section B gives the paper-scale shape."
    );
    for kind in DatasetKind::ALL {
        let data = measured_dataset(kind, 43);
        let (m, n) = data.input.shape();
        let k_used = k.min(m.min(n) / 2).max(2);
        let mut rows: Vec<(String, Row)> = Vec::new();
        for algo in PAPER_ALGOS {
            for &p in &ps_measured {
                let row = measure(&data.input, p, algo, k_used, iters)?;
                rows.push((format!("{:<12} p={p}", algo.name()), row));
            }
        }
        print_table(
            &format!("{} {}x{} measured, k={k_used}", kind.name(), m, n),
            "",
            &rows,
        );
        // Parallel speedup of HPC-NMF-2D from the smallest to largest p.
        let lo = rows
            .iter()
            .find(|(l, _)| l.starts_with("HPC-NMF-2D") && l.ends_with("p=4"))
            .map(|(_, r)| r.total());
        let hi = rows
            .iter()
            .find(|(l, _)| l.starts_with("HPC-NMF-2D") && l.ends_with("p=16"))
            .map(|(_, r)| r.total());
        if let (Some(lo), Some(hi)) = (lo, hi) {
            println!(
                "{}: HPC-NMF-2D measured wall-clock ratio p=4 -> p=16: {:.1}x \
                 (ideal 4x with >=16 cores; ~1x expected on {cores} core(s))",
                kind.name(),
                lo / hi
            );
        }
    }

    println!("\nSection B: paper-scale model (paper dims, Edison-like machine)");
    let pm = PerfModel::default();
    for kind in DatasetKind::ALL {
        let mut rows: Vec<(String, Row)> = Vec::new();
        for algo in PAPER_ALGOS {
            for &p in &ps_paper {
                rows.push((
                    format!("{:<12} p={p}", algo.name()),
                    model_row(&pm, kind, algo, p, k),
                ));
            }
        }
        print_table(
            &format!("{} modeled, k={k}", kind.name()),
            " (modeled)",
            &rows,
        );

        let naive24 = model_row(&pm, kind, Algo::Naive, 24, k).total();
        let naive600 = model_row(&pm, kind, Algo::Naive, 600, k).total();
        let hpc24 = model_row(&pm, kind, Algo::Hpc2D, 24, k).total();
        let hpc600 = model_row(&pm, kind, Algo::Hpc2D, 600, k).total();
        println!(
            "{}: 24->600 cores speedup — Naive {:.1}x, HPC-NMF-2D {:.1}x (ideal 25x)",
            kind.name(),
            naive24 / naive600,
            hpc24 / hpc600,
        );
    }
    Ok(())
}
