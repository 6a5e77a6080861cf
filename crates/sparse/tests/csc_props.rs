//! Property tests over the sparse layer: the CSC view is a faithful
//! re-indexing of its CSR, and the CSC-driven `Aᵀ·W` kernel is
//! **bit-for-bit** identical to the CSR transposed pass — on ragged
//! matrices with empty rows and empty columns, and on adversarial
//! payloads (`-0.0`, NaN) where a tolerance check would hide a
//! reordered sum.
//!
//! Bit-identity is the contract `SharedInput` relies on: swapping the
//! kernel orientation must not perturb any factorization trajectory, and
//! neither must reading a rank's block as a window of the shared matrix
//! instead of an extracted copy (see `docs/sharded-input.md`).

use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use nmf_sparse::io::{read_csr_binary, write_csr_binary};
use nmf_sparse::{
    spmm_at_dense, spmm_at_dense_csc, spmm_at_dense_csc_into, spmm_at_dense_into,
    spmm_dense_t_into, CscView, Csr,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ragged sparse matrix: every row draws its own degree, with zero
/// common — so empty rows, near-dense rows, and empty columns all
/// occur. Values are signed to exercise cancellation.
fn ragged(m: usize, n: usize, max_deg: usize, seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut indptr = vec![0usize];
    let mut indices = Vec::new();
    let mut values = Vec::new();
    for _ in 0..m {
        let deg = rng.gen_range(0..max_deg.min(n) + 1);
        let mut cols: Vec<usize> = (0..deg).map(|_| rng.gen_range(0..n)).collect();
        cols.sort_unstable();
        cols.dedup();
        for j in cols {
            indices.push(j);
            values.push(rng.gen::<f64>() * 2.0 - 1.0);
        }
        indptr.push(indices.len());
    }
    Csr::from_parts(m, n, indptr, indices, values)
}

/// `a` with every fifth value replaced by `-0.0` and every seventh by
/// NaN: payloads a reordered or dropped term would show in the bits.
fn with_specials(a: Csr) -> Csr {
    let values = a
        .values()
        .iter()
        .enumerate()
        .map(|(p, &v)| match p {
            p if p % 7 == 3 => f64::NAN,
            p if p % 5 == 1 => -0.0,
            _ => v,
        })
        .collect();
    let (m, n) = a.shape();
    Csr::from_parts(m, n, a.indptr().to_vec(), a.indices().to_vec(), values)
}

/// A window `(r0, nr, c0, nc)` of an `m×n` matrix: by `shape`, an empty
/// one, a full-width row stripe, a full-height column stripe, one that
/// starts past column 0, or any.
fn window(m: usize, n: usize, shape: usize, cuts: &[usize]) -> (usize, usize, usize, usize) {
    let range = |len: usize, x: usize, y: usize| {
        let (a, b) = (x % (len + 1), y % (len + 1));
        (a.min(b), a.abs_diff(b))
    };
    let (r0, nr) = range(m, cuts[0], cuts[1]);
    let (c0, nc) = range(n, cuts[2], cuts[3]);
    match shape {
        0 if cuts[0].is_multiple_of(2) => (r0, 0, c0, nc),
        0 => (r0, nr, c0, 0),
        1 => (r0, nr, 0, n),
        2 => (0, m, c0, nc),
        3 if n > 0 => {
            let c0 = 1 + c0 % n;
            (r0, nr, c0, nc.min(n - c0))
        }
        _ => (r0, nr, c0, nc),
    }
}

fn bits_equal(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn csc_round_trips_to_the_same_csr(
        m in 0usize..40,
        n in 0usize..40,
        max_deg in 0usize..12,
        seed in 0u64..10_000,
    ) {
        let a = ragged(m, n, max_deg, seed);
        let view = CscView::from_csr(&a);
        prop_assert!(view.matches(&a));
        // Column structure is a permutation of the CSR's nonzeros...
        prop_assert_eq!(view.nnz(), a.nnz());
        // ...and transposing it back reproduces the CSR exactly,
        // values routed through the shared ordering.
        prop_assert_eq!(view.to_csr(a.values()), a);
    }

    #[test]
    fn csc_kernel_is_bit_identical_to_transposed_pass(
        m in 0usize..40,
        n in 0usize..40,
        max_deg in 0usize..12,
        k in 1usize..9,
        seed in 0u64..10_000,
    ) {
        let a = ragged(m, n, max_deg, seed);
        let view = CscView::from_csr(&a);
        let w = Mat::uniform(m, k, seed ^ 0x57);
        let expect = spmm_at_dense(&a, &w);
        let got = spmm_at_dense_csc(&a, &view, &w);
        prop_assert!(bits_equal(&got, &expect), "csc kernel diverged on {m}x{n} k={k}");
        // The into-variant over a dirty output must fully overwrite.
        let mut y = Mat::uniform(n, k, seed ^ 0xD1);
        spmm_at_dense_csc_into(&a, &view, &w, &mut y);
        prop_assert!(bits_equal(&y, &expect), "into-variant left stale output");
    }

    #[test]
    fn windows_are_bit_identical_to_extracted_blocks(
        m in 0usize..40,
        n in 0usize..40,
        max_deg in 0usize..12,
        k in 1usize..9,
        seed in 0u64..10_000,
        shape in 0usize..5,
        cuts in vec(0usize..1000, 4),
    ) {
        let src = with_specials(ragged(m, n, max_deg, seed));
        let (r0, nr, c0, nc) = window(m, n, shape, &cuts);
        let bounds = src.window_bounds(r0, c0, nr, nc);
        let view = src.window(r0, c0, nr, nc, bounds.as_deref());
        let block = src.block(r0, c0, nr, nc);
        let at = format!("{nr}x{nc} window at ({r0}, {c0}) of {m}x{n}");
        prop_assert_eq!(view.shape(), block.shape(), "{}", at);
        prop_assert_eq!(view.nnz(), block.nnz(), "{}", at);
        prop_assert_eq!(
            view.fro_norm_sq().to_bits(),
            block.fro_norm_sq().to_bits(),
            "norm over the {}", at
        );
        // Outputs start dirty: every kernel must overwrite them.
        let dirty = |rows| Mat::uniform(rows, k, seed ^ 0xD1);
        let (ht, w) = (Mat::uniform(nc, k, seed ^ 0x11), Mat::uniform(nr, k, seed ^ 0x57));
        let (mut got, mut want) = (dirty(nr), dirty(nr));
        spmm_dense_t_into(view, &ht, &mut got);
        spmm_dense_t_into(&block, &ht, &mut want);
        prop_assert!(bits_equal(&got, &want), "A·Hᵀ over the {}", at);
        let (mut got, mut want) = (dirty(nc), dirty(nc));
        spmm_at_dense_into(view, &w, &mut got);
        spmm_at_dense_into(&block, &w, &mut want);
        prop_assert!(bits_equal(&got, &want), "CSR Aᵀ·W over the {}", at);
        let (csc, block_csc) = (CscView::from_csr(view), CscView::from_csr(&block));
        prop_assert!(csc.matches(view) && block_csc.matches(&block), "{}", at);
        let (mut got, mut want) = (dirty(nc), dirty(nc));
        spmm_at_dense_csc_into(view, &csc, &w, &mut got);
        spmm_at_dense_csc_into(&block, &block_csc, &w, &mut want);
        prop_assert!(bits_equal(&got, &want), "CSC Aᵀ·W over the {}", at);
    }

    #[test]
    fn nmfs_round_trip_is_bit_exact(
        m in 0usize..30,
        n in 0usize..30,
        max_deg in 0usize..10,
        seed in 0u64..10_000,
    ) {
        let a = ragged(m, n, max_deg, seed);
        let mut buf = Vec::new();
        write_csr_binary(&a, &mut buf).expect("in-memory write");
        let back = read_csr_binary(buf.as_slice()).expect("well-formed bytes");
        prop_assert_eq!(back.indptr(), a.indptr());
        prop_assert_eq!(back.indices(), a.indices());
        for (x, y) in back.values().iter().zip(a.values()) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}

/// `-0.0` and NaN survive the CSC orientation unchanged: the kernel
/// performs the same additions in the same order as the transposed
/// pass, so even non-finite payloads land bit-identically (mirrors the
/// dense suite in `crates/matrix/tests/kernel_equivalence.rs`).
#[test]
fn csc_kernel_propagates_negative_zero_and_nan() {
    let a = Csr::from_parts(
        3,
        4,
        vec![0, 2, 2, 4],
        vec![0, 2, 1, 2],
        vec![-0.0, f64::NAN, 1.0, -1.0],
    );
    let view = CscView::from_csr(&a);
    let mut w = Mat::zeros(3, 2);
    w[(0, 0)] = -0.0;
    w[(0, 1)] = 5.0;
    w[(2, 0)] = f64::NAN;
    w[(2, 1)] = -2.0;
    let expect = spmm_at_dense(&a, &w);
    let got = spmm_at_dense_csc(&a, &view, &w);
    assert!(
        expect.as_slice().iter().any(|v| v.is_nan()),
        "case must actually exercise NaN propagation"
    );
    for (x, y) in got.as_slice().iter().zip(expect.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
}
