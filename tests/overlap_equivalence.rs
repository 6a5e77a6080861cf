//! The split-phase (overlapped) Grid2D schedule is a pure *scheduling*
//! change: same collectives, same words, same tags — so the factor
//! trajectory must be **bit-identical** to the synchronous schedule, the
//! communication counters must match exactly, and checkpoints taken
//! through the overlapped schedule must resume cleanly under either
//! mode. See `docs/comm-overlap.md`.

use hpc_nmf::dist::Dist1D;
use hpc_nmf::engine::{AnlsEngine, Grid2D};
use hpc_nmf::prelude::*;
use hpc_nmf::{init_ht, init_w};
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_vmpi::{universe, CommStats};
use std::path::PathBuf;
use std::time::Duration;

const ITERS: usize = 5;

fn test_input(m: usize, n: usize, seed: u64) -> Input {
    Input::Dense(Mat::uniform(m, n, seed))
}

fn config() -> NmfConfig {
    NmfConfig::new(4).with_max_iters(ITERS).with_seed(23)
}

/// Runs `first` iterations with `overlap_first`, then (when `second > 0`)
/// exports the factors and continues in a fresh engine for `second`
/// iterations with `overlap_second` — the restart path a real job takes.
/// Returns each rank's final factors and its summed per-iteration
/// communication counters.
fn grid_run(
    input: &Input,
    grid: Grid,
    cfg: &NmfConfig,
    first: usize,
    overlap_first: bool,
    second: usize,
    overlap_second: bool,
) -> Vec<(Mat, Mat, CommStats)> {
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
        let scheme = Grid2D::new(comm, grid, (m, n), cfg.k).with_overlap(overlap_first);
        let mut engine = AnlsEngine::new(scheme, &local, cfg, w0_local, ht0_local);
        for _ in 0..first {
            engine.step();
        }
        let mut comm_total = CommStats::new();
        for rec in engine.records() {
            comm_total.merge(&rec.comm);
        }
        if second > 0 {
            let (w_ck, ht_ck) = engine.factors();
            let (w_ck, ht_ck) = (w_ck.clone(), ht_ck.clone());
            drop(engine);
            let scheme = Grid2D::new(comm, grid, (m, n), cfg.k).with_overlap(overlap_second);
            engine = AnlsEngine::new(scheme, &local, cfg, w_ck, ht_ck);
            for _ in 0..second {
                engine.step();
            }
            for rec in engine.records() {
                comm_total.merge(&rec.comm);
            }
        }
        let (w, ht) = engine.factors();
        (w.clone(), ht.clone(), comm_total)
    })
    .into_iter()
    .map(|r| r.result)
    .collect()
}

#[test]
fn overlapped_and_sync_factors_are_bit_identical() {
    let input = test_input(37, 29, 3);
    let cfg = config();
    // Pow2, prime, degenerate-1D, ragged non-pow2, and 16-rank grids.
    for grid in [
        Grid::new(2, 2),
        Grid::new(1, 3),
        Grid::new(4, 1),
        Grid::new(3, 2),
        Grid::new(2, 3),
        Grid::new(4, 4),
    ] {
        let sync = grid_run(&input, grid, &cfg, ITERS, false, 0, false);
        let ovl = grid_run(&input, grid, &cfg, ITERS, true, 0, true);
        for (rank, (s, o)) in sync.iter().zip(&ovl).enumerate() {
            assert_eq!(
                s.0, o.0,
                "{}x{} rank {rank}: W diverged under overlap",
                grid.pr, grid.pc
            );
            assert_eq!(
                s.1, o.1,
                "{}x{} rank {rank}: H diverged under overlap",
                grid.pr, grid.pc
            );
        }
    }
}

#[test]
fn overlapped_schedule_moves_the_same_words_and_messages() {
    let input = test_input(41, 33, 5);
    let cfg = config();
    for grid in [Grid::new(2, 2), Grid::new(3, 2)] {
        let sync = grid_run(&input, grid, &cfg, ITERS, false, 0, false);
        let ovl = grid_run(&input, grid, &cfg, ITERS, true, 0, true);
        for (rank, (s, o)) in sync.iter().zip(&ovl).enumerate() {
            for op in nmf_vmpi::Op::ALL {
                assert_eq!(
                    s.2.op(op).words,
                    o.2.op(op).words,
                    "{}x{} rank {rank}: {} words changed under overlap",
                    grid.pr,
                    grid.pc,
                    op.name()
                );
                assert_eq!(
                    s.2.op(op).messages,
                    o.2.op(op).messages,
                    "{}x{} rank {rank}: {} messages changed under overlap",
                    grid.pr,
                    grid.pc,
                    op.name()
                );
            }
        }
    }
}

#[test]
fn overlap_stats_expose_posts_and_a_nonzero_window() {
    let input = test_input(48, 40, 7);
    let cfg = config();
    let grid = Grid::new(2, 2);

    let sync = grid_run(&input, grid, &cfg, ITERS, false, 0, false);
    for (rank, r) in sync.iter().enumerate() {
        assert_eq!(r.2.total_posts(), 0, "sync rank {rank} recorded posts");
        assert_eq!(r.2.total_overlap(), Duration::ZERO);
    }

    let ovl = grid_run(&input, grid, &cfg, ITERS, true, 0, true);
    for (rank, r) in ovl.iter().enumerate() {
        // Seven collectives go split-phase per iteration: two Gram
        // all-reduces, two gathers, two reduce-scatters, and the
        // objective reduction (driven split-phase so its waits advance
        // the prefetched next-iteration ops).
        assert_eq!(
            r.2.total_posts(),
            7 * ITERS as u64,
            "rank {rank}: wrong split-phase post count"
        );
        assert!(
            r.2.total_overlap() > Duration::ZERO,
            "rank {rank}: no compute was hidden behind in-flight collectives"
        );
        for op in [
            nmf_vmpi::Op::AllGather,
            nmf_vmpi::Op::ReduceScatter,
            nmf_vmpi::Op::AllReduce,
        ] {
            let st = r.2.op(op);
            let expected = if op == nmf_vmpi::Op::AllReduce { 3 } else { 2 };
            assert_eq!(
                st.posts,
                expected * ITERS as u64,
                "rank {rank}: {} posts",
                op.name()
            );
            assert!(
                st.inflight >= st.overlap,
                "rank {rank}: {} inflight below its overlap window",
                op.name()
            );
        }
    }
}

/// A grid dimension of one rank is the identity: its gather and
/// reduce-scatter are skipped, never posted. Seven split-phase
/// collectives per iteration on a 2×2 grid, five on 2×1 and 1×2 (one
/// side local), three on 1×1 (only the world's two Gram reductions and
/// the objective's) — and the words and messages are those of the
/// synchronous schedule, where a size-1 collective would send nothing.
#[test]
fn degenerate_grid_dimensions_post_nothing() {
    let input = test_input(30, 26, 13);
    let cfg = config();
    for (grid, posts) in [
        (Grid::new(2, 2), 7),
        (Grid::new(2, 1), 5),
        (Grid::new(1, 2), 5),
        (Grid::new(1, 1), 3),
    ] {
        let sync = grid_run(&input, grid, &cfg, ITERS, false, 0, false);
        let ovl = grid_run(&input, grid, &cfg, ITERS, true, 0, true);
        for (rank, (s, o)) in sync.iter().zip(&ovl).enumerate() {
            let at = format!("{}x{} rank {rank}", grid.pr, grid.pc);
            assert_eq!(o.2.total_posts(), posts * ITERS as u64, "{at}: posts");
            assert_eq!(s.2.total_posts(), 0, "{at}: sync posts");
            for op in nmf_vmpi::Op::ALL {
                assert_eq!(s.2.op(op).words, o.2.op(op).words, "{at}: {}", op.name());
                assert_eq!(
                    s.2.op(op).messages,
                    o.2.op(op).messages,
                    "{at}: {}",
                    op.name()
                );
            }
            assert_eq!((&s.0, &s.1), (&o.0, &o.1), "{at}: factors");
        }
    }
}

#[test]
fn overlap_mode_can_flip_at_a_resume_boundary() {
    let input = test_input(35, 27, 11);
    let cfg = config();
    let brk = 2;
    for grid in [Grid::new(2, 2), Grid::new(3, 2)] {
        let reference = grid_run(&input, grid, &cfg, ITERS, false, 0, false);
        // Overlapped up to the checkpoint, synchronous after — and the
        // reverse — both reproduce the uninterrupted trajectory.
        let on_off = grid_run(&input, grid, &cfg, brk, true, ITERS - brk, false);
        let off_on = grid_run(&input, grid, &cfg, brk, false, ITERS - brk, true);
        for (rank, ((f, a), b)) in reference.iter().zip(&on_off).zip(&off_on).enumerate() {
            assert_eq!(
                f.0, a.0,
                "{}x{} rank {rank}: overlap→sync resume diverged",
                grid.pr, grid.pc
            );
            assert_eq!(
                f.1, a.1,
                "{}x{} rank {rank}: overlap→sync resume diverged",
                grid.pr, grid.pc
            );
            assert_eq!(
                f.0, b.0,
                "{}x{} rank {rank}: sync→overlap resume diverged",
                grid.pr, grid.pc
            );
            assert_eq!(
                f.1, b.1,
                "{}x{} rank {rank}: sync→overlap resume diverged",
                grid.pr, grid.pc
            );
        }
    }
}

fn tmp_ckpt(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "hpc_nmf_overlap_ckpt_{}_{}.bin",
        tag,
        std::process::id()
    ))
}

/// Durable checkpoints written mid-run under the overlapped schedule
/// resume bit-identically for all three algorithms (the naive scheme
/// takes the defaulted synchronous hooks; HPC, sequential included as
/// its 1×1 grid, runs split-phase).
#[test]
fn disk_checkpoint_resume_through_overlapped_schedule_all_schemes() {
    let input = test_input(34, 26, 19);
    let cfg = config();
    let brk = 2;
    for (tag, algo, p) in [
        ("seq", Algo::Sequential, 1),
        ("naive", Algo::Naive, 3),
        ("hpc2d", Algo::Hpc2D, 4),
    ] {
        let session = |iters: usize| {
            let mut m = Nmf::on(&input)
                .config(cfg)
                .algo(algo)
                .ranks(p)
                .build()
                .expect("valid session");
            for _ in 0..iters {
                m.step();
            }
            m
        };

        let full = session(ITERS);

        let mid = session(brk);
        let path = tmp_ckpt(tag);
        mid.save(&path).expect("checkpoint write");
        let mut resumed =
            Model::load_shared(&path, &SharedInput::new(input.clone())).expect("checkpoint read");
        for _ in 0..(ITERS - brk) {
            resumed.step();
        }
        std::fs::remove_file(&path).ok();

        assert_eq!(
            full.factors(),
            resumed.factors(),
            "{tag}: factors diverged across a durable checkpoint"
        );
    }
}
