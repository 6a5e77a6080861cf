//! Background subtraction in video via NMF (the paper's Video use case,
//! §6.1.1): the low-rank product `W·H` captures the static background,
//! and the residual `A − WH` isolates the moving object.
//!
//! The video is synthetic — a static rank-3 scene plus a small bright
//! block sweeping across the frame — standing in for the paper's Georgia
//! Tech intersection recording (which we obviously cannot ship).
//!
//! ```sh
//! cargo run --release --example video_background
//! ```

use hpc_nmf::prelude::*;
use nmf_data::DatasetKind;
use nmf_matrix::rng::Fill;
use nmf_matrix::{matmul, Mat};

fn main() -> Result<(), NmfError> {
    // ~10,134 pixels × 24 frames (paper dims divided by 100; still tall
    // and skinny, the regime the paper's 1D grid targets).
    let data = DatasetKind::Video.build(100, 77);
    let (m, n) = data.input.shape();
    println!("synthetic video: {m} pixels x {n} frames");

    let p = 8;
    let grid = Algo::Hpc2D.grid(m, n, p);
    println!(
        "optimal grid for this aspect ratio: {}x{} ({})",
        grid.pr,
        grid.pc,
        if grid.pc == 1 {
            "1D, as the paper prescribes for tall-skinny"
        } else {
            "2D"
        }
    );

    // Background model of rank 3 (the planted background rank).
    let mut model = Nmf::on(&data.input)
        .config(NmfConfig::new(3).with_max_iters(25))
        .algo(Algo::Hpc2D)
        .ranks(p)
        .build()?;
    model.run();
    let out = model.into_output();
    println!("background model fit: relative error {:.3}", out.rel_error);

    // Foreground = residual. The moving object is the brightest residual
    // run in each frame; check that its detected position sweeps
    // monotonically like the planted object does.
    let Input::Dense(a) = &data.input else {
        unreachable!("video is dense")
    };
    let background = matmul(&out.w, &out.h);
    let mut positions = Vec::with_capacity(n);
    for t in 0..n {
        let mut best_pixel = 0;
        let mut best_val = f64::NEG_INFINITY;
        for i in 0..m {
            let resid = a[(i, t)] - background[(i, t)];
            if resid > best_val {
                best_val = resid;
                best_pixel = i;
            }
        }
        positions.push(best_pixel);
    }

    let monotone_steps = positions
        .windows(2)
        .filter(|w| w[1] >= w[0].saturating_sub(m / 50))
        .count();
    println!(
        "detected object position sweeps forward in {}/{} frame transitions",
        monotone_steps,
        n - 1
    );
    println!(
        "object travels pixel {} -> {} over {} frames",
        positions.first().unwrap(),
        positions.last().unwrap(),
        n
    );

    // Summarize foreground energy vs background energy.
    let resid_energy: f64 = (0..m)
        .flat_map(|i| (0..n).map(move |t| (i, t)))
        .map(|(i, t)| {
            let r = a[(i, t)] - background[(i, t)];
            r * r
        })
        .sum();
    println!(
        "foreground (residual) energy fraction: {:.4}",
        resid_energy / a.fro_norm_sq()
    );
    assert!(
        monotone_steps as f64 >= 0.9 * (n - 1) as f64,
        "moving object should be recovered by the residual"
    );
    println!("OK: background/foreground separation recovered the moving object");

    // --- Streaming refit via the session API ---
    // New frames arrive and the scene drifts slightly (lighting change);
    // instead of re-solving from scratch, open a session warm-started
    // from the previous factors and run it under a windowed + wall-clock
    // convergence policy, watching progress through the observer.
    let mut drifted = a.clone();
    let noise = Mat::uniform(m, n, 1234);
    for (v, nz) in drifted.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *v += 0.01 * nz;
    }
    let window2 = Input::Dense(drifted);
    let mut ht_prev = out.h.transpose();
    ht_prev.project_nonnegative();
    let mut refit = Nmf::on(&window2)
        .rank(3)
        .max_iters(25)
        .convergence(ConvergencePolicy::WindowedBudget {
            window: 3,
            tol: 1e-5,
            budget: Some(std::time::Duration::from_secs(2)),
        })
        .warm_start(out.w.clone(), ht_prev)
        .build()
        .expect("a valid warm-started session");
    let reason = refit.run_observed(|it, rec| {
        println!("  refit iteration {it}: objective {:.4e}", rec.objective);
    });
    println!(
        "streaming refit stopped after {} iterations ({})",
        refit.iterations(),
        reason.as_str()
    );
    assert!(
        refit.iterations() < 25,
        "warm start should converge before the iteration cap"
    );
    Ok(())
}
