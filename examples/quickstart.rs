//! Quickstart: build a factorization session, inspect it mid-run, drive
//! it to convergence, and round-trip it through a durable checkpoint.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_vmpi::Op;

fn main() {
    // A 600×400 dense nonnegative matrix with planted rank-8 structure.
    let (m, n, k) = (600, 400, 8);
    let planted_w = Mat::uniform(m, k, 11);
    let planted_h = Mat::uniform(k, n, 12);
    // Every build and every resume reads a `SharedInput`: the matrix,
    // held once, and the rank blocks cut from it.
    let a = SharedInput::new(Input::Dense(nmf_matrix::matmul(&planted_w, &planted_h)));
    println!("input: {}x{} dense, rank-{k} structure planted", m, n);

    // Build a session: 8 virtual MPI ranks, communication-optimal 2D
    // grid, BPP solver (the paper's configuration). The builder
    // validates everything up front — errors are values, not panics.
    let mut model = Nmf::on_shared(&a)
        .rank(k)
        .ranks(8)
        .algo(Algo::Hpc2D)
        .solver(SolverKind::Bpp)
        .max_iters(30)
        .tol(1e-9)
        .build()
        .expect("a valid factorization request");
    let grid = model.grid();
    println!(
        "running {} on p={} ranks, grid {}x{}, solver BPP",
        model.algo().name(),
        model.ranks(),
        grid.pr,
        grid.pc
    );

    // The model is a live handle: step a few iterations and peek at the
    // factors mid-run (what a serving layer would export).
    for _ in 0..3 {
        model.step();
    }
    let (w_mid, _) = model.factors();
    println!(
        "after 3 iterations: objective {:.3e}, mid-run W is {}x{} (nonnegative: {})",
        model.objective(),
        w_mid.nrows(),
        w_mid.ncols(),
        w_mid.all_nonnegative()
    );

    // Persist the in-flight run, then resume it in a fresh session —
    // the continuation is bit-identical to never having stopped.
    let ckpt = std::env::temp_dir().join("hpc_nmf_quickstart.ckpt");
    model.save(&ckpt).expect("checkpoint writes");
    drop(model);
    let mut model = Model::load_shared(&ckpt, &a).expect("checkpoint loads");
    println!(
        "resumed from {} at iteration {}",
        ckpt.display(),
        model.iterations()
    );
    let reason = model.run();
    println!(
        "\nstopped after {} total iterations ({})",
        model.iterations(),
        reason.as_str()
    );
    let _ = std::fs::remove_file(&ckpt);

    println!("relative error ‖A−WH‖/‖A‖ = {:.3e}", model.rel_error());
    let (w, h) = model.factors();
    println!(
        "W: {}x{} nonnegative: {}",
        w.nrows(),
        w.ncols(),
        w.all_nonnegative()
    );
    println!(
        "H: {}x{} nonnegative: {}",
        h.nrows(),
        h.ncols(),
        h.all_nonnegative()
    );

    println!("\nobjective history (first 10 post-resume):");
    for (i, rec) in model.records().iter().take(10).enumerate() {
        println!("  iter {i:>2}: {:.6e}", rec.objective);
    }

    let out = model.into_output();
    let comm = out.total_comm();
    println!("\ncommunication totals across all ranks:");
    for op in [Op::AllGather, Op::ReduceScatter, Op::AllReduce] {
        let s = comm.op(op);
        println!(
            "  {:<15} {:>9} words {:>6} messages  {:>9.3?}",
            op.name(),
            s.words,
            s.messages,
            s.time
        );
    }

    // Contrast with the naive algorithm's communication volume, per
    // iteration (the resumed session's counters cover only its own
    // iterations, so raw totals would not be comparable).
    let hpc_iters = out.iterations.max(1) as f64;
    let mut naive = Nmf::on_shared(&a)
        .config(NmfConfig::new(k).with_max_iters(30).with_tol(1e-9))
        .algo(Algo::Naive)
        .ranks(8)
        .build()
        .expect("a valid factorization request");
    naive.run();
    let naive_per_iter = naive.total_comm().total_words() as f64 / naive.iterations().max(1) as f64;
    let hpc_per_iter = comm.total_words() as f64 / hpc_iters;
    println!(
        "\nNaive (Algorithm 2) moved {naive_per_iter:.0} words/iteration; \
         HPC-NMF moved {hpc_per_iter:.0} ({:.1}x less)",
        naive_per_iter / hpc_per_iter.max(1.0)
    );
}
