//! Ablation: processor-grid choice. For a fixed p, sweeps every divisor
//! pair `pr × pc = p` on a squarish and a tall-skinny input and shows
//! that the paper's `m/pr ≈ n/pc` prescription minimizes communication
//! (words counted from real runs, plus modeled paper-scale totals).
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin ablation_grid
//! ```

use hpc_nmf::prelude::*;
use nmf_bench::paper_workload;
use nmf_data::{DatasetKind, PerfModel};
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;

fn divisor_grids(p: usize) -> Vec<Grid> {
    (1..=p)
        .filter(|pr| p.is_multiple_of(*pr))
        .map(|pr| Grid::new(pr, p / pr))
        .collect()
}

fn main() -> Result<(), NmfError> {
    let p = 16usize;
    let k = 8usize;
    let iters = 3usize;

    for (label, m, n) in [
        ("squarish 320x240", 320usize, 240usize),
        ("tall-skinny 2048x48", 2048, 48),
    ] {
        println!("\n=== grid sweep on {label}, p={p}, k={k} (measured words/rank/iter) ===");
        let input = Input::Dense(Mat::uniform(m, n, 5));
        let optimal = Grid::optimal(m, n, p);
        let mut best: Option<(Grid, u64)> = None;
        for grid in divisor_grids(p) {
            let mut model = Nmf::on(&input)
                .config(NmfConfig::new(k).with_max_iters(iters))
                .algo(Algo::HpcGrid(grid))
                .ranks(p)
                .build()?;
            model.run();
            let words = model.total_comm().total_words() / p as u64 / iters as u64;
            let marker = if grid == optimal {
                "  <- Grid::optimal"
            } else {
                ""
            };
            println!(
                "  {:>2} x {:<2} {:>10} words{marker}",
                grid.pr, grid.pc, words
            );
            if best.is_none_or(|(_, w)| words < w) {
                best = Some((grid, words));
            }
        }
        let (best_grid, _) = best.unwrap();
        println!(
            "  best measured grid: {}x{}; Grid::optimal chose {}x{}",
            best_grid.pr, best_grid.pc, optimal.pr, optimal.pc
        );
    }

    println!("\n=== paper-scale model: grid sweep on DSYN at p=600, k=50 ===");
    let pm = PerfModel::default();
    let w = paper_workload(DatasetKind::Dsyn, 50);
    let optimal = Grid::optimal(w.m, w.n, 600);
    for grid in divisor_grids(600) {
        let b = pm.hpc(&w, grid);
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
    Ok(())
}
