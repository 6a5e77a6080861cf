//! Checkpoint/resume determinism for the step-wise engine: running `N`
//! iterations, exporting the factors, and continuing in a *fresh* engine
//! must reproduce the uninterrupted trajectory **bit-for-bit**, for all
//! three algorithms.
//!
//! This is the property that makes the engine a serving substrate:
//! factors exported mid-run are complete checkpoints (no hidden solver
//! or workspace state carries information between iterations), so a
//! crashed or migrated worker resumes exactly where it left off.

use hpc_nmf::checkpoint::read_checkpoint;
use hpc_nmf::dist::Dist1D;
use hpc_nmf::engine::{AnlsEngine, Grid2D, Replicated1D, SplitBlocks};
use hpc_nmf::prelude::*;
use hpc_nmf::{init_ht, init_w};
use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{self, KernelPath};
use nmf_matrix::Mat;
use nmf_sparse::gen::chung_lu_power_law;
use nmf_vmpi::{universe, Comm};
use std::path::PathBuf;

const TOTAL: usize = 6;
const BREAK_AT: usize = 3;

fn test_input(m: usize, n: usize, seed: u64) -> Input {
    Input::Dense(Mat::uniform(m, n, seed))
}

fn config() -> NmfConfig {
    NmfConfig::new(4).with_max_iters(TOTAL).with_seed(11)
}

/// A one-rank world, whose 1×1 grid runs Algorithm 1.
fn solo() -> Comm {
    universe::seats(1).pop().expect("one seat").into_comm()
}

fn one_by_one(comm: &Comm, m: usize, n: usize, k: usize) -> Grid2D<'_> {
    Grid2D::new(comm, Grid::new(1, 1), (m, n), k)
}

#[test]
fn sequential_checkpoint_resume_is_bit_identical() {
    let comm = solo();
    let input = test_input(33, 26, 5);
    let (m, n) = input.shape();
    let block = input.block(0, 0, m, n);
    let cfg = config();
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);

    // Uninterrupted run.
    let mut full = AnlsEngine::new(
        one_by_one(&comm, m, n, cfg.k),
        &block,
        &cfg,
        w0.clone(),
        ht0.clone(),
    );
    for _ in 0..TOTAL {
        full.step();
    }

    // Interrupted at BREAK_AT: export factors, resume in a fresh engine.
    let mut first = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w0, ht0);
    for _ in 0..BREAK_AT {
        first.step();
    }
    let state = first.convergence_state();
    let (w_ck, ht_ck) = first.factors();
    let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
    drop(first);

    let mut resumed = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w_ck, ht_ck);
    resumed.restore_convergence_state(state);
    for _ in 0..(TOTAL - BREAK_AT) {
        resumed.step();
    }

    let (wf, htf) = full.factors();
    let (wr, htr) = resumed.factors();
    assert_eq!(wf, wr, "resumed W diverged from the uninterrupted run");
    assert_eq!(htf, htr, "resumed H diverged from the uninterrupted run");
    // Objective trajectories after the checkpoint agree bit-for-bit too.
    let tail: Vec<f64> = full.records()[BREAK_AT..]
        .iter()
        .map(|r| r.objective)
        .collect();
    let resumed_hist: Vec<f64> = resumed.records().iter().map(|r| r.objective).collect();
    assert_eq!(tail, resumed_hist, "objective trajectory diverged");
}

#[test]
fn stepped_engine_matches_run_to_completion_driver() {
    let comm = solo();
    let input = test_input(28, 21, 9);
    let (m, n) = input.shape();
    let block = input.block(0, 0, m, n);
    let cfg = config();
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);

    let mut driver = Nmf::on(&input)
        .config(cfg)
        .warm_start(w0.clone(), ht0.clone())
        .build()
        .expect("valid request");
    driver.run();
    let driver = driver.into_output();
    let mut engine = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w0, ht0);
    for _ in 0..TOTAL {
        engine.step();
    }
    let (w, ht) = engine.factors();
    assert_eq!(&driver.w, w, "step-wise W differs from driver");
    assert_eq!(driver.h, ht.transpose(), "step-wise H differs from driver");
}

/// Runs `p` ranks of the naive scheme; each rank steps `first` times,
/// then (if `resume`) exports its factors and continues in a fresh
/// engine for `second` steps. Returns each rank's final factors.
fn naive_factors(
    input: &Input,
    p: usize,
    cfg: &NmfConfig,
    first: usize,
    second: usize,
    resume: bool,
) -> Vec<(Mat, Mat)> {
    let (m, n) = input.shape();
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);
    let dist_m = Dist1D::new(m, p);
    let dist_n = Dist1D::new(n, p);
    universe::run(p, |comm| {
        let r = comm.rank();
        let rows = dist_m.part(r);
        let cols = dist_n.part(r);
        let row_block = input.block(rows.offset, 0, rows.len, n);
        let col_block = input.block(0, cols.offset, m, cols.len);
        let data = SplitBlocks::stripes(&row_block, &col_block);
        let scheme = Replicated1D::new(comm, (m, n), cfg.k);
        let mut engine = AnlsEngine::new(
            scheme,
            SplitBlocks::stripes(&row_block, &col_block),
            cfg,
            w0.rows_block(rows.offset, rows.len),
            ht0.rows_block(cols.offset, cols.len),
        );
        for _ in 0..first {
            engine.step();
        }
        if resume {
            let (w_ck, ht_ck) = engine.factors();
            let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
            drop(engine);
            let scheme = Replicated1D::new(comm, (m, n), cfg.k);
            engine = AnlsEngine::new(scheme, data, cfg, w_ck, ht_ck);
        }
        for _ in 0..second {
            engine.step();
        }
        let (w, ht) = engine.factors();
        (w.clone(), ht.clone())
    })
    .into_iter()
    .map(|r| r.result)
    .collect()
}

#[test]
fn naive_checkpoint_resume_is_bit_identical() {
    let input = test_input(30, 24, 7);
    let cfg = config();
    for p in [2usize, 3] {
        let full = naive_factors(&input, p, &cfg, TOTAL, 0, false);
        let resumed = naive_factors(&input, p, &cfg, BREAK_AT, TOTAL - BREAK_AT, true);
        for (rank, (f, r)) in full.iter().zip(&resumed).enumerate() {
            assert_eq!(f.0, r.0, "naive p={p} rank {rank}: W diverged after resume");
            assert_eq!(f.1, r.1, "naive p={p} rank {rank}: H diverged after resume");
        }
    }
}

/// The Grid2D analogue of [`naive_factors`].
fn hpc_factors(
    input: &Input,
    grid: Grid,
    cfg: &NmfConfig,
    first: usize,
    second: usize,
    resume: bool,
) -> Vec<(Mat, Mat)> {
    let (m, n) = input.shape();
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);
    let dist_m = Dist1D::new(m, grid.pr);
    let dist_n = Dist1D::new(n, grid.pc);
    universe::run(grid.size(), |comm| {
        let (i, j) = grid.coords(comm.rank());
        let rows = dist_m.part(i);
        let cols = dist_n.part(j);
        let local = input.block(rows.offset, cols.offset, rows.len, cols.len);
        let wpart = Dist1D::new(rows.len, grid.pc).part(j);
        let hpart = Dist1D::new(cols.len, grid.pr).part(i);
        let w0_local = w0.rows_block(rows.offset + wpart.offset, wpart.len);
        let ht0_local = ht0.rows_block(cols.offset + hpart.offset, hpart.len);
        let scheme = Grid2D::new(comm, grid, (m, n), cfg.k);
        let mut engine = AnlsEngine::new(scheme, &local, cfg, w0_local, ht0_local);
        for _ in 0..first {
            engine.step();
        }
        if resume {
            let (w_ck, ht_ck) = engine.factors();
            let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
            drop(engine);
            // A fresh scheme re-splits the grid communicators, exactly
            // as a restarted job would.
            let scheme = Grid2D::new(comm, grid, (m, n), cfg.k);
            engine = AnlsEngine::new(scheme, &local, cfg, w_ck, ht_ck);
        }
        for _ in 0..second {
            engine.step();
        }
        let (w, ht) = engine.factors();
        (w.clone(), ht.clone())
    })
    .into_iter()
    .map(|r| r.result)
    .collect()
}

#[test]
fn hpc_checkpoint_resume_is_bit_identical() {
    let input = test_input(36, 28, 13);
    let cfg = config();
    for grid in [
        Grid::new(2, 2),
        Grid::new(4, 1),
        Grid::new(1, 3),
        Grid::new(3, 2),
    ] {
        let full = hpc_factors(&input, grid, &cfg, TOTAL, 0, false);
        let resumed = hpc_factors(&input, grid, &cfg, BREAK_AT, TOTAL - BREAK_AT, true);
        for (rank, (f, r)) in full.iter().zip(&resumed).enumerate() {
            assert_eq!(
                f.0, r.0,
                "hpc {}x{} rank {rank}: W diverged after resume",
                grid.pr, grid.pc
            );
            assert_eq!(
                f.1, r.1,
                "hpc {}x{} rank {rank}: H diverged after resume",
                grid.pr, grid.pc
            );
        }
    }
}

#[test]
fn resume_preserves_early_stop_decisions() {
    let comm = solo();
    // With the convergence state restored, a resumed RelTol run stops at
    // the same global iteration as the uninterrupted one.
    let input = test_input(30, 22, 17);
    let (m, n) = input.shape();
    let block = input.block(0, 0, m, n);
    let cfg = NmfConfig::new(3)
        .with_max_iters(100)
        .with_tol(1e-7)
        .with_seed(5);
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);

    let mut full = AnlsEngine::new(
        one_by_one(&comm, m, n, cfg.k),
        &block,
        &cfg,
        w0.clone(),
        ht0.clone(),
    );
    let reason_full = full.run();
    let total = full.iterations();
    assert!(total < 100, "tolerance should stop well before max_iters");
    assert!(
        matches!(
            reason_full,
            StopReason::Converged | StopReason::ObjectiveIncreased
        ),
        "unexpected stop reason {reason_full:?}"
    );

    let brk = total / 2;
    let mut first = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w0, ht0);
    for _ in 0..brk {
        first.step();
    }
    let state = first.convergence_state();
    let (w_ck, ht_ck) = first.factors();
    let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
    let mut resumed = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w_ck, ht_ck);
    resumed.restore_convergence_state(state);
    let reason_resumed = resumed.run();
    assert_eq!(reason_resumed, reason_full);
    assert_eq!(
        resumed.iterations(),
        total,
        "resumed run must stop at the same global iteration"
    );
}

/* ---------------- durability: the same property, through disk ----------------
 *
 * The engine-level tests above prove factors are complete checkpoints in
 * memory; these prove the *file format* preserves that: save → load →
 * continue is bit-identical to an uninterrupted run for all three
 * communication schemes, and damaged files are rejected with specific
 * errors instead of resuming garbage.
 */

fn tmp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("hpc_nmf_ckpt_{}_{}.bin", tag, std::process::id()))
}

fn session(input: &Input, algo: Algo, p: usize, cfg: &NmfConfig) -> Model {
    Nmf::on(input)
        .config(*cfg)
        .algo(algo)
        .ranks(p)
        .build()
        .expect("valid session")
}

#[test]
fn disk_checkpoint_resume_is_bit_identical_for_all_schemes() {
    let input = test_input(34, 26, 21);
    let cfg = config();
    for (tag, algo, p) in [
        ("seq", Algo::Sequential, 1),
        ("naive", Algo::Naive, 3),
        ("hpc2d", Algo::Hpc2D, 4),
        ("hpcgrid", Algo::HpcGrid(Grid::new(3, 2)), 6),
    ] {
        // Uninterrupted run.
        let mut full = session(&input, algo, p, &cfg);
        for _ in 0..TOTAL {
            full.step();
        }
        let (wf, hf) = full.factors();

        // Interrupted run: save to disk, drop the whole session (its
        // universe threads included), reload, continue.
        let mut first = session(&input, algo, p, &cfg);
        for _ in 0..BREAK_AT {
            first.step();
        }
        let path = tmp_ckpt(tag);
        first.save(&path).expect("checkpoint writes");
        drop(first);

        let mut resumed =
            Model::load_shared(&path, &SharedInput::new(input.clone())).expect("checkpoint loads");
        assert_eq!(
            resumed.iterations(),
            BREAK_AT,
            "{tag}: resumed model must remember its iteration count"
        );
        for _ in 0..(TOTAL - BREAK_AT) {
            resumed.step();
        }
        let (wr, hr) = resumed.factors();
        assert_eq!(wf, wr, "{tag}: W diverged after a disk round-trip");
        assert_eq!(hf, hr, "{tag}: H diverged after a disk round-trip");

        let tail: Vec<f64> = full.records()[BREAK_AT..]
            .iter()
            .map(|r| r.objective)
            .collect();
        let rtail: Vec<f64> = resumed.records().iter().map(|r| r.objective).collect();
        assert_eq!(tail, rtail, "{tag}: objective trajectory diverged");
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn disk_resume_preserves_early_stop_decisions() {
    // A RelTol run checkpointed mid-flight stops at the same global
    // iteration with the same reason after a disk round-trip.
    let input = test_input(30, 22, 17);
    let cfg = NmfConfig::new(3)
        .with_max_iters(100)
        .with_tol(1e-7)
        .with_seed(5);
    let mut full = session(&input, Algo::Hpc2D, 4, &cfg);
    let reason_full = full.run();
    let total = full.iterations();
    assert!(total < 100);

    let mut first = session(&input, Algo::Hpc2D, 4, &cfg);
    for _ in 0..total / 2 {
        first.step();
    }
    let path = tmp_ckpt("earlystop");
    first.save(&path).expect("checkpoint writes");
    drop(first);
    let mut resumed =
        Model::load_shared(&path, &SharedInput::new(input.clone())).expect("checkpoint loads");
    let reason_resumed = resumed.run();
    assert_eq!(reason_resumed, reason_full);
    assert_eq!(resumed.iterations(), total);
    std::fs::remove_file(&path).ok();
}

/// An elastic resume on another host: a dense run at k = 32 (every GEMM
/// and dot product fuses) checkpointed on the AVX2 kernels after
/// `BREAK_AT` and `TOTAL` iterations, then resumed from `BREAK_AT` in a
/// child pinned to the portable kernels by `NMF_FORCE_SCALAR=1`, reaches
/// the uninterrupted run's factors. The child finds the checkpoints by
/// its parent's process id.
#[cfg(unix)]
#[test]
fn a_native_checkpoint_resumes_bit_identically_on_the_portable_kernels() {
    let ckpts = |writer: u32| {
        ["break", "total"]
            .map(|at| std::env::temp_dir().join(format!("hpc_nmf_cross_host_{at}_{writer}.bin")))
    };
    let input = test_input(80, 60, 31);
    if simd::active() == KernelPath::Scalar {
        let [at_break, at_total] = ckpts(std::os::unix::process::parent_id());
        if !at_total.exists() {
            return; // not the child of the AVX2 half
        }
        let shared = SharedInput::new(input);
        let mut resumed = Model::load_shared(&at_break, &shared).expect("checkpoint loads");
        for _ in BREAK_AT..TOTAL {
            resumed.step();
        }
        let full = Model::load_shared(&at_total, &shared).expect("checkpoint loads");
        let bits = |(w, h): (Mat, Mat)| {
            [w, h].map(|m| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>())
        };
        assert_eq!(
            bits(resumed.factors()),
            bits(full.factors()),
            "left the trajectory"
        );
        println!("resumed on the portable kernels");
        return;
    }
    let cfg = NmfConfig::new(32).with_max_iters(TOTAL).with_seed(11);
    let paths = ckpts(std::process::id());
    for (steps, path) in [BREAK_AT, TOTAL].into_iter().zip(&paths) {
        let mut model = session(&input, Algo::Hpc2D, 2, &cfg);
        for _ in 0..steps {
            model.step();
        }
        model.save(path).expect("checkpoint writes");
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["a_native_checkpoint_resumes", "--nocapture"])
        .env("NMF_FORCE_SCALAR", "1")
        .output()
        .expect("rerun the test binary");
    for path in &paths {
        std::fs::remove_file(path).ok();
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("resumed on the portable kernels"),
        "portable resume:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Writes `bytes` to a fresh temp file and returns the path.
fn write_tmp(tag: &str, bytes: &[u8]) -> PathBuf {
    let path = tmp_ckpt(tag);
    std::fs::write(&path, bytes).expect("test file writes");
    path
}

/// A valid checkpoint file's bytes, plus the input it belongs to.
fn valid_checkpoint_bytes(tag: &str) -> (Vec<u8>, Input) {
    let input = test_input(28, 20, 23);
    let mut model = session(&input, Algo::Hpc2D, 4, &config());
    model.step();
    model.step();
    let path = tmp_ckpt(tag);
    model.save(&path).expect("checkpoint writes");
    let bytes = std::fs::read(&path).expect("checkpoint reads");
    std::fs::remove_file(&path).ok();
    (bytes, input)
}

/// Re-stamps the header's checksum after a deliberate header edit
/// (`header_len` sits at bytes 12..20, the header follows it, then its
/// sum).
fn restamp_header(bytes: &mut [u8]) {
    let header_len = u64::from_le_bytes(bytes[12..20].try_into().unwrap()) as usize;
    let end = 20 + header_len;
    let sum = hpc_nmf::wire::checksum(&bytes[20..end]);
    bytes[end..end + 8].copy_from_slice(&sum.to_le_bytes());
}

#[test]
fn truncated_checkpoints_are_rejected() {
    let (bytes, input) = valid_checkpoint_bytes("trunc_src");
    for cut in [0, 7, 11, 30, bytes.len() / 2, bytes.len() - 1] {
        let path = write_tmp("trunc", &bytes[..cut]);
        let err = Model::load_shared(&path, &SharedInput::new(input.clone()))
            .expect_err("truncation must not load");
        assert!(
            matches!(err, NmfError::Corrupt { .. }),
            "cut at {cut}: expected Corrupt, got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn wrong_version_is_rejected_before_the_checksum() {
    let (mut bytes, input) = valid_checkpoint_bytes("ver_src");
    bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
    let path = write_tmp("ver", &bytes);
    let err = Model::load_shared(&path, &SharedInput::new(input.clone()))
        .expect_err("future version must not load");
    assert!(
        matches!(
            err,
            NmfError::UnsupportedVersion {
                found: 99,
                supported: 3,
                ..
            }
        ),
        "expected UnsupportedVersion, got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_byte_fails_the_checksum() {
    let (mut bytes, input) = valid_checkpoint_bytes("flip_src");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    let path = write_tmp("flip", &bytes);
    let err = Model::load_shared(&path, &SharedInput::new(input.clone()))
        .expect_err("corruption must not load");
    assert!(matches!(err, NmfError::Corrupt { .. }), "got {err:?}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_input_shape_is_rejected() {
    let (bytes, _input) = valid_checkpoint_bytes("shape_src");
    let path = write_tmp("shape", &bytes);
    // Same k, different m and n.
    let other = test_input(30, 20, 9);
    let err = Model::load_shared(&path, &SharedInput::new(other.clone()))
        .expect_err("wrong shape must not load");
    assert!(
        matches!(err, NmfError::CheckpointMismatch { .. }),
        "got {err:?}"
    );
    let other_n = test_input(28, 22, 9);
    let err = Model::load_shared(&path, &SharedInput::new(other_n.clone()))
        .expect_err("wrong n must not load");
    assert!(
        matches!(err, NmfError::CheckpointMismatch { .. }),
        "got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn edited_k_fails_the_fingerprint_or_shape_check() {
    // Bump the stored k inside the meta block and re-stamp the header's
    // checksum (simulating a deliberate header edit rather than random
    // corruption). Layout: magic(8) version(4) header_len(8), then meta =
    // m(8) n(8) ranks(8) algo(4) pr(8) pc(8) k(8) at meta offset 44.
    let (mut bytes, input) = valid_checkpoint_bytes("kedit_src");
    let k_off = 8 + 4 + 8 + 44;
    let old_k = u64::from_le_bytes(bytes[k_off..k_off + 8].try_into().unwrap());
    bytes[k_off..k_off + 8].copy_from_slice(&(old_k + 1).to_le_bytes());
    restamp_header(&mut bytes);
    let path = write_tmp("kedit", &bytes);
    let err = Model::load_shared(&path, &SharedInput::new(input.clone()))
        .expect_err("edited k must not load");
    assert!(
        matches!(
            err,
            NmfError::FingerprintMismatch { .. } | NmfError::CheckpointMismatch { .. }
        ),
        "got {err:?}"
    );
    std::fs::remove_file(&path).ok();
}

/* ---------------- elasticity: the regrid matrix ----------------
 *
 * A checkpoint taken on any scheme must seed a session on any other
 * (docs/elasticity.md): the decoder globalizes the per-rank blocks and
 * the resume builder re-shards them along the target layout. Both
 * halves are exact row copies, so the *factors* survive every
 * source→target combination bit-for-bit; the continued run then
 * reaches the same objective (only the new scheme's reduction orders
 * differ).
 */

/// Checkpoint sources: one per communication scheme.
fn regrid_sources() -> Vec<(&'static str, Algo, usize)> {
    vec![
        ("seq", Algo::Sequential, 1),
        ("hpc1d-4", Algo::Hpc1D, 4),
        ("grid4x2", Algo::HpcGrid(Grid::new(4, 2)), 8),
    ]
}

/// Resume targets: a different scheme, rank count, and grid each.
fn regrid_targets() -> Vec<(&'static str, RegridTarget)> {
    vec![
        ("seq", RegridTarget::new().algo(Algo::Sequential)),
        ("hpc1d-2", RegridTarget::new().algo(Algo::Hpc1D).ranks(2)),
        ("grid2x2", RegridTarget::new().grid(Grid::new(2, 2))),
        ("grid1x8", RegridTarget::new().grid(Grid::new(1, 8))),
    ]
}

#[test]
fn regridded_factors_globalize_bit_identically() {
    let input = test_input(28, 20, 31);
    let cfg = config();
    for (stag, algo, p) in regrid_sources() {
        let mut src = session(&input, algo, p, &cfg);
        for _ in 0..BREAK_AT {
            src.step();
        }
        let (w_src, h_src) = src.factors();
        let path = tmp_ckpt(&format!("regrid_{stag}"));
        src.save(&path).expect("checkpoint writes");
        drop(src);

        // The decoder's globalizer reassembles the exact factors the
        // blocks were sliced from.
        let ck = read_checkpoint(&path).expect("checkpoint reads");
        assert_eq!(ck.w, w_src, "{stag}: globalized W differs");
        assert_eq!(ck.ht.transpose(), h_src, "{stag}: globalized H differs");

        // ...and every regrid target re-shards them without losing a
        // bit: the resumed session's assembled factors are identical.
        for (ttag, target) in regrid_targets() {
            let resumed =
                Model::load_regrid_shared(&path, &SharedInput::new(input.clone()), target)
                    .unwrap_or_else(|e| panic!("{stag}->{ttag}: {e}"));
            assert_eq!(
                resumed.iterations(),
                BREAK_AT,
                "{stag}->{ttag}: iteration count lost"
            );
            let (w_r, h_r) = resumed.factors();
            assert_eq!(w_r, w_src, "{stag}->{ttag}: resharded W lost bits");
            assert_eq!(h_r, h_src, "{stag}->{ttag}: resharded H lost bits");
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn regridded_resume_reaches_the_same_objective() {
    let input = test_input(28, 20, 31);
    let cfg = config();
    for (stag, algo, p) in regrid_sources() {
        let mut full = session(&input, algo, p, &cfg);
        for _ in 0..TOTAL {
            full.step();
        }
        let obj_full = full.records().last().expect("records").objective;

        let mut first = session(&input, algo, p, &cfg);
        for _ in 0..BREAK_AT {
            first.step();
        }
        let path = tmp_ckpt(&format!("regrid_obj_{stag}"));
        first.save(&path).expect("checkpoint writes");
        drop(first);

        for (ttag, target) in regrid_targets() {
            let mut resumed =
                Model::load_regrid_shared(&path, &SharedInput::new(input.clone()), target)
                    .unwrap_or_else(|e| panic!("{stag}->{ttag}: {e}"));
            for _ in 0..(TOTAL - BREAK_AT) {
                resumed.step();
            }
            let obj_r = resumed.records().last().expect("records").objective;
            let rel = ((obj_r - obj_full) / obj_full).abs();
            assert!(
                rel < 1e-8,
                "{stag}->{ttag}: objective diverged after regrid: \
                 {obj_full} vs {obj_r} (rel {rel:e})"
            );
        }
        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn pure_resume_through_the_regrid_path_stays_bit_identical() {
    // An empty target replays the recorded grid: the regrid entry
    // points continue the exact trajectory, same as Model::load_shared.
    let input = test_input(28, 20, 31);
    let cfg = config();
    let mut full = session(&input, Algo::Hpc2D, 4, &cfg);
    for _ in 0..TOTAL {
        full.step();
    }
    let (wf, hf) = full.factors();

    let mut first = session(&input, Algo::Hpc2D, 4, &cfg);
    for _ in 0..BREAK_AT {
        first.step();
    }
    let path = tmp_ckpt("regrid_pure");
    first.save(&path).expect("checkpoint writes");
    drop(first);

    let ck = read_checkpoint(&path).expect("checkpoint reads");
    let mut resumed = Nmf::resume_from(ck, &SharedInput::new(input.clone()))
        .build()
        .expect("builds");
    assert_eq!(resumed.algo(), Algo::Hpc2D);
    assert_eq!(resumed.ranks(), 4);
    for _ in 0..(TOTAL - BREAK_AT) {
        resumed.step();
    }
    let (wr, hr) = resumed.factors();
    assert_eq!(wf, wr, "pure resume W diverged");
    assert_eq!(hf, hr, "pure resume H diverged");
    std::fs::remove_file(&path).ok();
}

#[test]
fn regrid_keeps_the_recorded_k_and_solver() {
    // k, solver, and seed define the trajectory being continued; no
    // regrid target can alter them.
    let input = test_input(28, 20, 31);
    let cfg = config();
    let mut src = session(&input, Algo::Hpc2D, 4, &cfg);
    src.step();
    let path = tmp_ckpt("regrid_pins");
    src.save(&path).expect("checkpoint writes");
    drop(src);
    for (_, target) in regrid_targets() {
        let resumed = Model::load_regrid_shared(&path, &SharedInput::new(input.clone()), target)
            .expect("loads");
        assert_eq!(resumed.config().k, cfg.k);
        assert_eq!(resumed.config().solver, cfg.solver);
        assert_eq!(resumed.config().seed, cfg.seed);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn regrid_rejects_a_mismatched_input_shape() {
    let input = test_input(28, 20, 31);
    let mut src = session(&input, Algo::Hpc2D, 4, &config());
    src.step();
    let path = tmp_ckpt("regrid_shape");
    src.save(&path).expect("checkpoint writes");
    drop(src);
    // The relaxed compatibility contract still pins the input shape:
    // the factors are meaningless against a different matrix.
    for other in [test_input(30, 20, 9), test_input(28, 22, 9)] {
        let err = Model::load_regrid_shared(
            &path,
            &SharedInput::new(other.clone()),
            RegridTarget::new().grid(Grid::new(2, 2)),
        )
        .expect_err("wrong shape must not regrid");
        assert!(
            matches!(err, NmfError::CheckpointMismatch { .. }),
            "got {err:?}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn regrid_rejects_an_unfittable_target_grid() {
    let input = test_input(28, 20, 31);
    let mut src = session(&input, Algo::Hpc2D, 4, &config());
    src.step();
    let path = tmp_ckpt("regrid_toobig");
    src.save(&path).expect("checkpoint writes");
    drop(src);
    // 16x16 over 28x20 leaves ranks without factor rows; the resume
    // builder runs the full build validation, so the usual actionable
    // error comes back instead of a bad session.
    let err = Model::load_regrid_shared(
        &path,
        &SharedInput::new(input.clone()),
        RegridTarget::new().grid(Grid::new(16, 16)),
    )
    .expect_err("unfittable grid must not build");
    assert!(matches!(err, NmfError::GridTooLarge { .. }), "got {err:?}");
    assert!(
        !fitting_grids(28, 20, 256).contains(&Grid::new(16, 16)),
        "fitting_grids must agree with the builder"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn windowed_policy_resume_stops_at_same_iteration() {
    let comm = solo();
    // The windowed look-back and the budget clock live in
    // ConvergenceState, so a resumed WindowedBudget run reproduces the
    // uninterrupted run's stopping decision even when the window spans
    // the checkpoint boundary.
    let input = test_input(32, 24, 19);
    let (m, n) = input.shape();
    let block = input.block(0, 0, m, n);
    let cfg = NmfConfig::new(3)
        .with_max_iters(80)
        .with_seed(5)
        .with_convergence(ConvergencePolicy::WindowedBudget {
            window: 3,
            tol: 1e-6,
            budget: None,
        });
    let w0 = init_w(m, cfg.k, cfg.seed);
    let ht0 = init_ht(n, cfg.k, cfg.seed);

    let mut full = AnlsEngine::new(
        one_by_one(&comm, m, n, cfg.k),
        &block,
        &cfg,
        w0.clone(),
        ht0.clone(),
    );
    let reason_full = full.run();
    let total = full.iterations();
    assert!(
        total < 80,
        "windowed tolerance should stop before max_iters"
    );

    // Break one iteration before the stop, so the window straddles the
    // checkpoint.
    let brk = total - 1;
    let mut first = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w0, ht0);
    for _ in 0..brk {
        first.step();
    }
    let state = first.convergence_state();
    let (w_ck, ht_ck) = first.factors();
    let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
    let mut resumed = AnlsEngine::new(one_by_one(&comm, m, n, cfg.k), &block, &cfg, w_ck, ht_ck);
    resumed.restore_convergence_state(state);
    let reason_resumed = resumed.run();
    assert_eq!(reason_resumed, reason_full);
    assert_eq!(
        resumed.iterations(),
        total,
        "windowed stop must land on the same global iteration after resume"
    );
}

/* ------------------------------------------------------------------ *
 * Relabelled inputs
 *
 * A skewed sparse input is dealt to ranks in a balanced order, not in
 * index order (docs/sharded-input.md, "Balanced dealing"). Checkpoints
 * hold factors in original row order whatever the dealing, so every
 * property above must hold unchanged on such an input — whether it is
 * handed in whole (`Nmf::on` wraps a fresh `SharedInput`) or shared.
 */

/// A power-law digraph whose heavy nodes come first: its rows and
/// columns are both relabelled.
fn power_law_input() -> Input {
    Input::Sparse(chung_lu_power_law(240, 1400, 2.1, 17))
}

#[test]
fn relabelled_input_resumes_bit_identically_through_either_input_arm() {
    let input = power_law_input();
    let shared = SharedInput::new(input.clone());
    assert!(shared.balance().rows.is_some_and(|d| d.relabelled));
    let cfg = config();
    let on_shared = |algo, p| {
        Nmf::on_shared(&shared)
            .config(cfg)
            .algo(algo)
            .ranks(p)
            .build()
            .expect("valid session")
    };
    for (tag, algo, p) in [
        ("seq", Algo::Sequential, 1),
        ("naive", Algo::Naive, 3),
        ("hpc2d", Algo::Hpc2D, 4),
        ("hpcgrid", Algo::HpcGrid(Grid::new(3, 2)), 6),
    ] {
        let mut full = session(&input, algo, p, &cfg);
        for _ in 0..TOTAL {
            full.step();
        }
        let (wf, hf) = full.factors();
        let tail: Vec<f64> = full.records()[BREAK_AT..]
            .iter()
            .map(|r| r.objective)
            .collect();

        // Written through one arm, resumed under the other, both ways.
        for written_whole in [true, false] {
            let mut first = if written_whole {
                session(&input, algo, p, &cfg)
            } else {
                on_shared(algo, p)
            };
            for _ in 0..BREAK_AT {
                first.step();
            }
            let path = tmp_ckpt(&format!("relabelled_{tag}_{written_whole}"));
            first.save(&path).expect("checkpoint writes");
            drop(first);

            let mut resumed = if written_whole {
                Model::load_shared(&path, &shared)
            } else {
                Model::load_shared(&path, &SharedInput::new(input.clone()))
            }
            .expect("checkpoint loads");
            assert_eq!(resumed.iterations(), BREAK_AT);
            for _ in 0..(TOTAL - BREAK_AT) {
                resumed.step();
            }
            let (wr, hr) = resumed.factors();
            assert_eq!(wf, wr, "{tag}: W diverged after a disk round-trip");
            assert_eq!(hf, hr, "{tag}: H diverged after a disk round-trip");
            let rtail: Vec<f64> = resumed.records().iter().map(|r| r.objective).collect();
            assert_eq!(tail, rtail, "{tag}: objective trajectory diverged");
            std::fs::remove_file(&path).ok();
        }
    }
}

#[test]
fn regrid_of_a_relabelled_input_globalizes_bit_identically() {
    let input = power_law_input();
    let cfg = config();
    let mut full = session(&input, Algo::Sequential, 1, &cfg);
    for _ in 0..TOTAL {
        full.step();
    }
    let obj_full = full.objective();
    for (stag, algo, p) in [
        ("seq", Algo::Sequential, 1),
        ("hpc1d-4", Algo::Hpc1D, 4),
        ("grid2x2", Algo::HpcGrid(Grid::new(2, 2)), 4),
    ] {
        let mut src = session(&input, algo, p, &cfg);
        for _ in 0..BREAK_AT {
            src.step();
        }
        let (w_src, h_src) = src.factors();
        let path = tmp_ckpt(&format!("regrid_relabelled_{stag}"));
        src.save(&path).expect("checkpoint writes");
        drop(src);

        // The file holds the factors in original row order.
        let ck = read_checkpoint(&path).expect("checkpoint reads");
        assert_eq!(ck.w, w_src, "{stag}: globalized W differs");
        assert_eq!(ck.ht.transpose(), h_src, "{stag}: globalized H differs");

        for (ttag, target) in [
            ("seq", RegridTarget::new().algo(Algo::Sequential)),
            ("hpc1d-2", RegridTarget::new().algo(Algo::Hpc1D).ranks(2)),
            ("grid1x4", RegridTarget::new().grid(Grid::new(1, 4))),
        ] {
            let mut resumed =
                Model::load_regrid_shared(&path, &SharedInput::new(input.clone()), target)
                    .unwrap_or_else(|e| panic!("{stag}->{ttag}: {e}"));
            let (w_r, h_r) = resumed.factors();
            assert_eq!(w_r, w_src, "{stag}->{ttag}: resharded W lost bits");
            assert_eq!(h_r, h_src, "{stag}->{ttag}: resharded H lost bits");
            for _ in 0..(TOTAL - BREAK_AT) {
                resumed.step();
            }
            let rel = ((resumed.objective() - obj_full) / obj_full).abs();
            assert!(rel < 1e-8, "{stag}->{ttag}: objective off by {rel:e}");
        }
        std::fs::remove_file(&path).ok();
    }
}
