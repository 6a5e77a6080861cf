//! Ablation: the local NLS solver menu (paper §7). BPP costs more per
//! iteration than MU/HALS but converges in fewer iterations; with
//! cheaper solvers the relative weight of communication grows, which is
//! exactly why communication efficiency matters.
//!
//! ```sh
//! cargo run --release -p nmf_bench --bin ablation_solvers
//! ```

use hpc_nmf::prelude::*;
use nmf_bench::measured_dataset;
use nmf_data::DatasetKind;
use std::time::Instant;

fn main() -> Result<(), NmfError> {
    let p = 8usize;
    let k = 16usize;
    let iters = 20usize;

    for kind in [DatasetKind::Ssyn, DatasetKind::Dsyn] {
        let data = measured_dataset(kind, 45);
        let (m, n) = data.input.shape();
        println!(
            "\n=== solver ablation on {} {}x{} (p={p}, k={k}) ===",
            kind.name(),
            m,
            n
        );
        println!(
            "{:<6} {:>12} {:>12} {:>14} {:>14} {:>10}",
            "solver", "iters", "sec/iter", "objective", "rel_error", "comm %"
        );
        let mut results = Vec::new();
        for solver in SolverKind::ALL {
            let t0 = Instant::now();
            let mut model = Nmf::on(&data.input)
                .config(NmfConfig::new(k).with_max_iters(iters).with_solver(solver))
                .algo(Algo::Hpc2D)
                .ranks(p)
                .build()?;
            model.run();
            let out = model.into_output();
            let wall = t0.elapsed().as_secs_f64();
            let comm_time: f64 = out
                .iters
                .iter()
                .map(|r| r.comm.total_time().as_secs_f64())
                .sum();
            let compute_time: f64 = out
                .iters
                .iter()
                .map(|r| r.compute.total().as_secs_f64())
                .sum();
            let comm_pct = 100.0 * comm_time / (comm_time + compute_time).max(1e-12);
            println!(
                "{:<6} {:>12} {:>12.4} {:>14.6e} {:>14.4} {:>9.1}%",
                format!("{solver:?}"),
                out.iterations,
                wall / out.iterations.max(1) as f64,
                out.objective,
                out.rel_error,
                comm_pct
            );
            results.push((solver, out.objective));
        }
        let bpp = results
            .iter()
            .find(|(s, _)| *s == SolverKind::Bpp)
            .unwrap()
            .1;
        // MU and HALS, the paper's cheaper alternatives to BPP.
        let best_cheap = results
            .iter()
            .filter(|(s, _)| *s != SolverKind::Bpp)
            .map(|&(_, o)| o)
            .fold(f64::INFINITY, f64::min);
        println!(
            "after {iters} iterations BPP objective is {:.2}% of the better of MU and HALS",
            100.0 * bpp / best_cheap
        );
    }
    Ok(())
}
