//! Shared pre-sharded inputs ride the exact same extraction code as a
//! fresh build — so sharing must be invisible in the factors (bit for
//! bit) and visible only in the extraction counter and the mmap path's
//! memory profile. See `docs/sharded-input.md`.

use hpc_nmf::prelude::*;
use hpc_nmf::ShardKey;
use nmf_data::materialize_nmfs;
use nmf_data::DatasetKind;
use nmf_matrix::Mat;
use nmf_sparse::gen::erdos_renyi;

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

fn config(k: usize) -> NmfConfig {
    NmfConfig::new(k).with_max_iters(4).with_seed(11)
}

fn fit_fresh(input: &Input, k: usize) -> (Mat, Mat) {
    let mut model = Nmf::on(input)
        .config(config(k))
        .algo(Algo::Hpc2D)
        .ranks(4)
        .build()
        .expect("valid request");
    model.run();
    model.factors()
}

/// Two builds and a refit off one `SharedInput` reproduce the factors
/// of three fresh extractions, bit for bit.
#[test]
fn shared_input_is_bit_identical_to_fresh_extraction() {
    let input = Input::Sparse(erdos_renyi(48, 36, 0.2, 3));
    let shared = SharedInput::new(input.clone());

    let mut first = Nmf::on_shared(&shared)
        .config(config(4))
        .algo(Algo::Hpc2D)
        .ranks(4)
        .build()
        .expect("valid request");
    first.run();
    let (w1, h1) = first.factors();

    let mut second = Nmf::on_shared(&shared)
        .config(config(5))
        .algo(Algo::Hpc2D)
        .ranks(4)
        .build()
        .expect("valid request");
    second.run();
    let (w2, h2) = second.factors();

    second.refit(config(6)).expect("refit");
    second.run();
    let (w3, h3) = second.factors();

    for (k, (w, h)) in [(4, (&w1, &h1)), (5, (&w2, &h2)), (6, (&w3, &h3))] {
        let (fw, fh) = fit_fresh(&input, k);
        assert!(
            bits_equal(w, &fw) && bits_equal(h, &fh),
            "shared-input factors diverged from fresh extraction at k={k}"
        );
    }

    // Two builds + one refit over one grid shape: exactly one
    // extraction — the acceptance metric for block-extraction sharing.
    assert_eq!(shared.extractions(), 1);
    assert_eq!(shared.cached_shardings(), 1);
}

/// A three-value rank sweep — build once, refit twice — extracts the
/// per-rank blocks exactly once.
#[test]
fn rank_sweep_extracts_exactly_once() {
    let shared = SharedInput::new(Input::Sparse(erdos_renyi(40, 30, 0.15, 9)));
    let mut model: Option<Model> = None;
    for k in [3, 5, 7] {
        match &mut model {
            None => {
                model = Some(
                    Nmf::on_shared(&shared)
                        .config(config(k))
                        .algo(Algo::Hpc2D)
                        .ranks(4)
                        .build()
                        .expect("valid request"),
                );
            }
            Some(m) => m.refit(config(k)).expect("refit"),
        }
        model.as_mut().expect("built").run();
    }
    assert_eq!(
        shared.extractions(),
        1,
        "a rank sweep over one grid shape must shard the input once"
    );
}

/// Algorithm 1 is Algorithm 3 on a 1×1 grid, so `Sequential` and a
/// one-rank `Hpc2D` run on one sharding: over an mmap-backed input the
/// second build extracts nothing, and the two fit the same factors.
#[test]
fn sequential_and_one_rank_hpc2d_share_one_sharding() {
    let path = std::env::temp_dir().join(format!("nmf-shared-seq-{}.nmfs", std::process::id()));
    materialize_nmfs(DatasetKind::Ssyn, 2400, 5, &path).expect("materialize");
    let mapped = SharedInput::open_mmap(&path).expect("open NMFS");
    let fit = |algo: Algo| {
        let mut model = Nmf::on_shared(&mapped)
            .config(config(4))
            .algo(algo)
            .ranks(1)
            .build()
            .expect("valid request");
        model.run();
        (model.shard_key(), model.factors())
    };
    let (seq_key, (ws, hs)) = fit(Algo::Sequential);
    let (hpc_key, (wh, hh)) = fit(Algo::Hpc2D);
    assert_eq!(seq_key, ShardKey::Grid { pr: 1, pc: 1 });
    assert_eq!(hpc_key, seq_key);
    assert_eq!(mapped.extractions(), 1);
    assert_eq!(mapped.cached_shardings(), 1);
    assert!(
        bits_equal(&ws, &wh) && bits_equal(&hs, &hh),
        "one sharding, one computation: the factors must agree"
    );
    std::fs::remove_file(&path).ok();
}

/// An mmap-ingested NMFS file factorizes bit-identically to the same
/// matrix resident in RAM, for both the 2D-grid and the naive (split
/// row/column stripe) distributions.
#[test]
fn mmap_ingest_is_bit_identical_to_resident() {
    let path = std::env::temp_dir().join(format!("nmf-shared-it-{}.nmfs", std::process::id()));
    materialize_nmfs(DatasetKind::Ssyn, 2400, 5, &path).expect("materialize");
    let resident = SharedInput::new(DatasetKind::Ssyn.build(2400, 5).input);
    let mapped = SharedInput::open_mmap(&path).expect("open NMFS");
    assert!(mapped.is_mmap() && mapped.is_sparse());
    assert_eq!(mapped.shape(), resident.shape());

    for algo in [Algo::Hpc2D, Algo::Naive] {
        let fit = |shared: &SharedInput| {
            let mut model = Nmf::on_shared(shared)
                .config(config(4))
                .algo(algo)
                .ranks(4)
                .build()
                .expect("valid request");
            model.run();
            (model.objective(), model.factors())
        };
        let (obj_r, (wr, hr)) = fit(&resident);
        let (obj_m, (wm, hm)) = fit(&mapped);
        assert_eq!(
            obj_m.to_bits(),
            obj_r.to_bits(),
            "{algo:?}: objective diverged between mmap and resident"
        );
        assert!(
            bits_equal(&wm, &wr) && bits_equal(&hm, &hr),
            "{algo:?}: factors diverged between mmap and resident"
        );
    }
    std::fs::remove_file(&path).ok();
}
