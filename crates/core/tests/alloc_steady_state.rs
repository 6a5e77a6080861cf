//! Proof of the zero-allocation hot path: a counting global allocator
//! measures whole factorizations at different iteration counts. If the
//! steady-state loop is allocation-free, the total allocation count is
//! *independent of the iteration count* for the sequential driver (no
//! transport), and grows by a near-constant per-iteration amount for
//! the distributed driver (the channel-transport message boxes — the
//! virtual interconnect, which is outside the compute path — with a few
//! allocations of amortized channel block storage).
//!
//! All three shape-static solvers are covered, sequentially on a dense
//! and a sparse block: HALS and MU work in place, and BPP's scratch
//! (sort keys, the `k×k` factor, the right-hand-side chunk) is sized by
//! the problem shape alone, never by how many distinct passive sets an
//! iteration happens to produce.

use hpc_nmf::engine::{AnlsEngine, Grid2D};
use hpc_nmf::prelude::*;
use hpc_nmf::{init_ht, init_w};
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_sparse::gen::erdos_renyi;
use nmf_vmpi::universe::seats;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's share of `ALLOCATIONS`: the sequential driver runs
    /// on the calling thread, so its exact-equality test reads this and
    /// is not disturbed by the test harness allocating on its own
    /// threads meanwhile. (Const-initialized, no destructor: safe to
    /// touch from inside the allocator.)
    static THREAD_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    let _ = THREAD_ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The two tests share one global counter; serialize them (ignoring
/// poisoning so one failure doesn't cascade into the other).
static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn serial_guard() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Allocations by every thread of the process while `f` runs.
fn count<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    drop(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// Allocations by the calling thread while `f` runs.
fn count_on_this_thread<T>(f: impl FnOnce() -> T) -> u64 {
    let before = THREAD_ALLOCATIONS.with(Cell::get);
    let out = f();
    drop(out);
    THREAD_ALLOCATIONS.with(Cell::get) - before
}

fn run_seq(input: &Input, iters: usize, solver: SolverKind) -> u64 {
    let (m, n) = (input.nrows(), input.ncols());
    let block = input.block(0, 0, m, n);
    let config = NmfConfig::new(5)
        .with_max_iters(iters)
        .with_solver(solver)
        .with_seed(3);
    // Algorithm 1's engine — Algorithm 3 on a 1×1 grid — built and run
    // on this thread (a `Model` would run it on a rank thread of its own).
    count_on_this_thread(|| {
        let comm = seats(1).pop().expect("one seat").into_comm();
        let (w0, ht0) = (init_w(m, 5, 3), init_ht(n, 5, 3));
        let scheme = Grid2D::new(&comm, Grid::new(1, 1), (m, n), 5);
        let mut engine = AnlsEngine::new(scheme, &block, &config, w0, ht0);
        engine.run();
        engine.into_output()
    })
}

#[test]
fn sequential_steady_state_iterations_allocate_nothing() {
    let _guard = serial_guard();
    // The sparse block runs the CSR kernels (`A·Hᵀ` and the `Aᵀ·W` pass;
    // a block this small never routes to the CSC kernel).
    let dense = Input::Dense(Mat::uniform(48, 36, 11));
    let sparse = Input::Sparse(erdos_renyi(48, 36, 0.2, 11));
    for input in [&dense, &sparse] {
        for solver in [SolverKind::Hals, SolverKind::Mu, SolverKind::Bpp] {
            // Warm once: the first run on a thread pays lazy initialization
            // (kernel dispatch, thread-local packing scratch).
            let _ = run_seq(input, 2, solver);
            let base = run_seq(input, 2, solver);
            let more = run_seq(input, 6, solver);
            let kind = if input.is_sparse() { "sparse" } else { "dense" };
            assert_eq!(
                more, base,
                "{kind} {solver:?}: 4 extra iterations changed the allocation count \
                 ({base} for 2 iters vs {more} for 6) — the steady-state loop allocated"
            );
        }
    }
}

fn run_parallel(algo: Algo, p: usize, iters: usize, solver: SolverKind) -> u64 {
    let input = Input::Dense(Mat::uniform(40, 32, 19));
    let config = NmfConfig::new(4)
        .with_max_iters(iters)
        .with_solver(solver)
        .with_seed(7);
    count(|| {
        let mut model = Nmf::on(&input)
            .config(config)
            .algo(algo)
            .ranks(p)
            .build()
            .expect("valid request");
        model.run();
        model.into_output()
    })
}

#[test]
fn hpc_per_iteration_allocations_are_exactly_the_transport() {
    let _guard = serial_guard();
    // Naive on 3 ranks splits 40 and 32 rows raggedly, so its all-gathers
    // run the machines with `Counts::Var` and the arena's index tables.
    for (algo, p) in [(Algo::Hpc2D, 4), (Algo::Naive, 3)] {
        let mut per_iteration = Vec::new();
        for solver in [SolverKind::Hals, SolverKind::Mu, SolverKind::Bpp] {
            // Warm once (thread-spawn and lazy-init costs of the first run).
            let _ = run_parallel(algo, p, 2, solver);
            let a2 = run_parallel(algo, p, 2, solver);
            let a4 = run_parallel(algo, p, 4, solver);
            let a6 = run_parallel(algo, p, 6, solver);
            let d1 = a4 - a2;
            let d2 = a6 - a4;
            // The per-iteration delta is the transport traffic (boxed message
            // payloads). It is *nearly* constant — the channel's internal block
            // storage amortizes one allocation per ~32 messages, so consecutive
            // deltas can differ by a few block allocations, but never by
            // anything matrix-shaped.
            let spread = d1.abs_diff(d2);
            assert!(
                spread <= 16,
                "{algo:?} {solver:?}: per-iteration allocation delta varies too much ({d1} vs {d2}) — \
                 something in the iteration loop allocates beyond the message transport"
            );
            // Sanity: the per-iteration count is a few dozen boxed messages for
            // 4 ranks, not matrix-sized churn.
            assert!(
                d1 / 2 < 400,
                "{algo:?} {solver:?}: per-iteration allocation count {} is too high to be transport-only",
                d1 / 2
            );
            per_iteration.push(d1 / 2);
        }
        // The transport does not know which solver runs between its
        // messages: every solver pays the same per-iteration constant.
        let (lo, hi) = (
            per_iteration.iter().min().expect("three solvers"),
            per_iteration.iter().max().expect("three solvers"),
        );
        assert!(
            hi - lo <= 8,
            "{algo:?}: per-iteration allocations differ by solver: {per_iteration:?} (HALS, MU, BPP)"
        );
    }
}
