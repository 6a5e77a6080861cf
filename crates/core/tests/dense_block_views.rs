//! Table 2's memory column, pinned: a dense rank holds `A` once. The
//! paper charges each rank `mn/p` words for the data matrix; here every
//! rank block of a dense [`SharedInput`] is a view of its one source, so
//! sharding allocates no bytes of `A`, and a built model adds only
//! factor-sized buffers: both products read the block in place, `Aᵀ·W`
//! as `(Wᵀ·A)ᵀ`. A build on a whole [`Input`] adds one copy of `A`, the
//! source of the `SharedInput` it wraps, and reads it the same way.
//! The dense twin of `sparse_block_extraction.rs`, on the same
//! byte-counting allocator.

mod byte_counting;

use byte_counting::bytes_during;
use hpc_nmf::prelude::*;
use hpc_nmf::ShardKey;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use std::sync::Mutex;

/// The tests share one global byte counter; one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

const M: usize = 960;
const N: usize = 640;
const K: usize = 4;
const DENSE_BYTES: u64 = 8 * (M * N) as u64;

fn dense_input() -> SharedInput {
    SharedInput::new(Input::Dense(Mat::uniform(M, N, 5)))
}

const KEYS: [ShardKey; 3] = [
    ShardKey::Grid { pr: 1, pc: 1 },
    ShardKey::Naive { p: 3 },
    ShardKey::Grid { pr: 2, pc: 2 },
];

/// One run per key of [`KEYS`]: the algorithm and rank count that shard
/// the input under it.
const RUNS: [(Algo, usize, ShardKey); 3] = [
    (Algo::Sequential, 1, KEYS[0]),
    (Algo::Naive, 3, KEYS[1]),
    (Algo::HpcGrid(Grid { pr: 2, pc: 2 }), 4, KEYS[2]),
];

/// Factors, the workspace's two slabs, the transport, `B`-tile scratch
/// and the rank threads' bookkeeping: O((m + n)·k) words, measured at
/// 5.0 (1×1), 15.7 (2×2) and 18.8 (Naive, p = 3) of them on 960×640 at
/// k = 4, bounded with 6 % to spare and well under the 8·m·n bytes an
/// extracted block or packed `Aᵀ` panels would add.
const FACTOR_TERMS: u64 = 20 * 8 * ((M + N) * K) as u64;

/// Builds a HALS model for `run` through `builder` and steps it twice.
fn build_and_step((algo, ranks, key): (Algo, usize, ShardKey), builder: NmfBuilder) {
    let mut model = builder
        .rank(K)
        .ranks(ranks)
        .algo(algo)
        .solver(SolverKind::Hals)
        .max_iters(2)
        .build()
        .expect("valid request");
    assert_eq!(model.shard_key(), key);
    model.step();
    model.step();
}

#[test]
fn dense_sharding_allocates_no_bytes_of_a() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let shared = dense_input();
    for key in KEYS {
        // `rank_loads` shards on a cache miss (and counts what each rank
        // holds, in O(m + n) bytes).
        let (loads, allocated) = bytes_during(|| shared.rank_loads(key).unwrap());
        assert_eq!(loads.len(), key.ranks());
        assert!(
            allocated < DENSE_BYTES / 100,
            "{key:?}: sharding allocated {allocated} bytes of a {DENSE_BYTES}-byte input; \
             a dense block must be a view of the source, not a copy"
        );
    }
    assert_eq!(shared.extractions(), 3, "one sharding per key");
    assert_eq!(
        shared.resident_bytes() as u64,
        DENSE_BYTES,
        "three cached dense shardings hold the source once"
    );
}

#[test]
fn a_dense_model_allocates_nothing_beyond_the_factors() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let factor_terms = FACTOR_TERMS;
    assert!(factor_terms < DENSE_BYTES / 2);
    for run in RUNS {
        let key = run.2;
        let shared = dense_input();
        let ((), allocated) = bytes_during(|| build_and_step(run, Nmf::on_shared(&shared)));
        assert!(
            allocated <= factor_terms,
            "{key:?}: build + 2 steps allocated {allocated} bytes; the factor terms are \
             at most {factor_terms}"
        );
        assert_eq!(shared.resident_bytes() as u64, DENSE_BYTES);
    }
}

/// `Nmf::on(&Input)` copies `A` once, into the source of the
/// `SharedInput` it wraps, and every sharding is views of that copy: no
/// key — Naive's row and column stripes included — cuts blocks of its own.
#[test]
fn a_dense_model_on_a_whole_input_holds_one_copy_of_a() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let input = Input::Dense(Mat::uniform(M, N, 5));
    for run in RUNS {
        let key = run.2;
        let ((), allocated) = bytes_during(|| build_and_step(run, Nmf::on(&input)));
        assert!(
            allocated <= DENSE_BYTES + FACTOR_TERMS,
            "{key:?}: build + 2 steps allocated {allocated} bytes; one copy of A is \
             {DENSE_BYTES} and the factor terms at most {FACTOR_TERMS}"
        );
    }
}
