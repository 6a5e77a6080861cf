//! Table 2's memory column, sparse half, pinned: a sparse rank reads its
//! block of `A` in place. Every rank block of a sparse [`SharedInput`] is
//! a window of its one CSR source — a full-width row stripe reads the
//! source's row pointers, a narrower window holds 16 bytes per row of
//! where each row starts and ends — and a block's CSC view (16 bytes per
//! nonzero) exists only where its `Aᵀ·W` is routed to it. The sparse twin
//! of `dense_block_views.rs`, on the same byte-counting allocator.

mod byte_counting;

use byte_counting::bytes_during;
use hpc_nmf::prelude::*;
use hpc_nmf::{AtW, ShardKey};
use nmf_sparse::gen::erdos_renyi;
use std::sync::Mutex;

/// The tests share one global byte counter; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const M: usize = 600;
const N: usize = 400;
const K: usize = 2;

/// 72 000 nonzeros, 120 per row: a copy of `A` or a CSC view of it
/// costs far more than the 16 bytes per row a window may hold.
fn sparse_input() -> SharedInput {
    SharedInput::new(Input::Sparse(erdos_renyi(M, N, 0.3, 5)))
}

/// Heap bytes of the CSR source: values and column indices per
/// nonzero, plus the row pointers.
fn source_bytes(shared: &SharedInput) -> u64 {
    (16 * shared.nnz() + 8 * (M + 1)) as u64
}

const KEYS: [ShardKey; 4] = [
    ShardKey::Grid { pr: 1, pc: 1 },
    ShardKey::Naive { p: 3 },
    ShardKey::Grid { pr: 2, pc: 1 },
    ShardKey::Grid { pr: 2, pc: 2 },
];

/// Rows of the blocks under `key` that are narrower than `A`, each of
/// which holds two words of row bounds: Naive's column stripes (its row
/// stripes are full width) and the blocks of a grid with `pc > 1`.
fn window_rows(key: ShardKey) -> u64 {
    key.layouts(M, N)
        .iter()
        .map(|lay| match key {
            ShardKey::Naive { .. } => M,
            _ if lay.cols.len < N => lay.rows.len,
            _ => 0,
        })
        .sum::<usize>() as u64
}

/// Per-block bookkeeping of a sharding (its `Arc`s, the rank layouts and
/// the result vector) with room to spare; a copy of any block's nonzeros
/// is over 50 times this.
const BOOKKEEPING: u64 = 4096;

#[test]
fn sparse_sharding_allocates_row_bounds_not_a_copy_of_a() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let shared = sparse_input();
    // The kernel rule reads the cache size from sysfs once per process;
    // that probe is not the sharding's.
    nmf_sparse::csc_chosen(N, K);
    let mut bounds = 0;
    for key in KEYS {
        // `at_w` shards on a cache miss and reports each rank's kernel.
        let (kernels, allocated) = bytes_during(|| shared.at_w(key, K).unwrap());
        assert_eq!(kernels.len(), key.ranks());
        let rows = window_rows(key);
        assert!(
            allocated <= 16 * rows + BOOKKEEPING,
            "{key:?}: sharding allocated {allocated} bytes; its windows hold {rows} rows of \
             bounds, and the source is {} bytes",
            source_bytes(&shared)
        );
        bounds += 16 * rows;
    }
    assert_eq!(shared.extractions(), KEYS.len(), "one sharding per key");
    assert_eq!(
        shared.resident_bytes() as u64,
        source_bytes(&shared) + bounds,
        "four cached sparse shardings hold the source once, plus their windows' row bounds"
    );
}

#[test]
fn a_sparse_model_builds_no_column_view_its_kernels_do_not_read() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Factors, their gathers and scatters, the workspace, the transport
    // and the rank threads' bookkeeping: O((m + n)·k) words, bounded as
    // in `dense_block_views.rs`. A CSC view's row indices and value
    // positions alone are 16 bytes per nonzero.
    let factor_terms = 32 * 8 * ((M + N) * K) as u64;
    for (algo, ranks, key) in [
        (Algo::Sequential, 1, ShardKey::Grid { pr: 1, pc: 1 }),
        (Algo::Naive, 3, ShardKey::Naive { p: 3 }),
        (
            Algo::HpcGrid(Grid::new(2, 1)),
            2,
            ShardKey::Grid { pr: 2, pc: 1 },
        ),
        (
            Algo::HpcGrid(Grid::new(2, 2)),
            4,
            ShardKey::Grid { pr: 2, pc: 2 },
        ),
    ] {
        let shared = sparse_input();
        let csc_bytes = 16 * shared.nnz() as u64;
        let bounds = 16 * window_rows(key);
        assert!(factor_terms + bounds + BOOKKEEPING < csc_bytes / 2);
        let ((), allocated) = bytes_during(|| {
            let mut model = Nmf::on_shared(&shared)
                .rank(K)
                .ranks(ranks)
                .algo(algo)
                .solver(SolverKind::Mu)
                .max_iters(2)
                .build()
                .expect("valid request");
            assert_eq!(model.shard_key(), key);
            model.step();
            model.step();
        });
        assert!(
            shared.at_w(key, K).unwrap().iter().all(|&k| k == AtW::Csr),
            "{key:?}: an {N}-column block's output stays in cache, so Aᵀ·W runs on the CSR"
        );
        assert!(
            allocated <= factor_terms + bounds + BOOKKEEPING,
            "{key:?}: build + 2 steps allocated {allocated} bytes; the row bounds are \
             {bounds}, the factor terms at most {factor_terms}, a column view {csc_bytes}"
        );
        assert_eq!(
            shared.resident_bytes() as u64,
            source_bytes(&shared) + bounds,
            "{key:?}: no column view was built"
        );
    }
}

/// Rank of the slab test: wide enough that the slabs, not the
/// bookkeeping, set what a build allocates.
const SLAB_K: usize = 24;

/// The rank threads' bookkeeping beyond what the slab test counts term
/// by term (communicators, channels, records, the engines' solvers):
/// measured at about 78 KB, and under the 346 KB the `W` gather and
/// `W`-side reduce-scatter output would add as buffers of their own.
const RANK_BOOKKEEPING: u64 = 128 * 1024;

/// Table 2's memory column for a sparse model, term by term: a 1×2 model
/// built and stepped twice allocates the initial factors and the rows
/// dealt from them, two `k`-wide slabs and three `k×k` Grams per rank,
/// MU's denominator, the words its collectives moved (each boxed once)
/// and the staging of one reduce-scatter input per rank, and nothing
/// else beyond bookkeeping.
#[test]
fn a_sparse_model_allocates_factors_two_slabs_solver_scratch_and_transport() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let key = ShardKey::Grid { pr: 1, pc: 2 };
    let shared = sparse_input();
    nmf_sparse::csc_chosen(N, SLAB_K);
    let ((words, workspace), allocated) = bytes_during(|| {
        let mut model = Nmf::on_shared(&shared)
            .rank(SLAB_K)
            .ranks(2)
            .algo(Algo::HpcGrid(Grid::new(1, 2)))
            .solver(SolverKind::Mu)
            .max_iters(2)
            .build()
            .expect("valid request");
        assert_eq!(model.shard_key(), key);
        model.step();
        model.step();
        (model.total_comm().total_words(), model.workspace_bytes())
    });
    let lays = key.layouts(M, N);
    let words_of = |rows: usize| (8 * rows * SLAB_K) as u64;
    let factors = 2 * words_of(M + N);
    // p_r = 1: the row slab holds A·Hᵀ and the W gather, both m/p_r
    // rows; the column slab Aᵀ·W (n/p_c rows) and the W-side
    // reduce-scatter output (m/p rows). Each slab also holds 7 entries
    // of room to start on a cache line.
    let slabs: u64 = lays
        .iter()
        .map(|l| {
            words_of(l.rows.len + l.cols.len.max(l.w.len))
                + (8 * (2 * 7 + 3 * SLAB_K * SLAB_K)) as u64
        })
        .sum();
    assert_eq!(
        workspace as u64, slabs,
        "two slabs and three Grams per rank"
    );
    let solver: u64 = lays.iter().map(|l| words_of(l.w.len.max(l.ht.len))).sum();
    let staging: u64 = lays.iter().map(|l| words_of(l.rows.len)).sum();
    let transport = 8 * words + staging;
    let six_buffers: u64 = lays.iter().map(|l| words_of(l.rows.len + l.w.len)).sum();
    assert!(RANK_BOOKKEEPING < six_buffers);
    let bound = factors + slabs + solver + transport + RANK_BOOKKEEPING;
    assert!(
        allocated <= bound,
        "build + 2 steps allocated {allocated} bytes; factors {factors}, slabs {slabs}, \
         MU scratch {solver}, transport {transport} and bookkeeping {RANK_BOOKKEEPING} \
         come to {bound}"
    );
}

/// `Nmf::on(&Input)` copies the CSR once, into the source of the
/// `SharedInput` it wraps, and Naive's row and column stripes are both
/// windows of that copy: the build holds one CSR copy, not two.
#[test]
fn a_sparse_naive_model_on_a_whole_input_holds_one_copy_of_a() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let factor_terms = 32 * 8 * ((M + N) * K) as u64;
    let key = ShardKey::Naive { p: 3 };
    let input = Input::Sparse(erdos_renyi(M, N, 0.3, 5));
    let one_copy = source_bytes(&SharedInput::new(input.clone()));
    let bounds = 16 * window_rows(key);
    assert!(factor_terms + bounds + BOOKKEEPING < one_copy / 2);
    let ((), allocated) = bytes_during(|| {
        let mut model = Nmf::on(&input)
            .rank(K)
            .ranks(3)
            .algo(Algo::Naive)
            .solver(SolverKind::Mu)
            .max_iters(2)
            .build()
            .expect("valid request");
        assert_eq!(model.shard_key(), key);
        model.step();
        model.step();
    });
    assert!(
        allocated <= one_copy + factor_terms + bounds + BOOKKEEPING,
        "build + 2 steps allocated {allocated} bytes; one copy of A is {one_copy}, the row \
         bounds {bounds} and the factor terms at most {factor_terms}"
    );
}
