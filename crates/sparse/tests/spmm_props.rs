//! The sparse kernels against an oracle: the per-nonzero axpy loops
//! they replaced, kept here as reference functions. Every output element
//! of `A·Hᵀ`, of the CSR `Aᵀ·W` pass and of the CSC kernel must have the
//! oracle's bits — the same products added in the same nonzero order
//! from `+0.0` — for every rank `k` the column slabs cut differently,
//! on whole matrices, full-width row stripes and column windows with
//! `c0 > 0`, with empty rows, and with `-0.0`, NaN, ±∞ and subnormals in
//! both operands.
//!
//! `csc_props.rs` compares kernels with each other, which now share one
//! slab body; this suite compares them with code that shares nothing.
//! It runs under whichever kernel copy the process dispatched to, and,
//! where that is the AVX2 copy, again in a child process pinned to the
//! portable copy by `NMF_FORCE_SCALAR=1`.

use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{self, KernelPath};
use nmf_matrix::Mat;
use nmf_sparse::{
    spmm_at_dense_csc_into, spmm_at_dense_into, spmm_dense_t_into, CscView, Csr, CsrRef,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ranks on both sides of every slab width (32, 16, 8, 4, 2, 1).
const KS: [usize; 19] = [
    0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40, 63, 64, 65, 100,
];

/// `-0.0` and subnormals: finite values whose products and sums round
/// in ways a reordered or fused operation would show.
const FINITE_SPECIALS: [f64; 3] = [-0.0, 5e-324, -2.5e-310];
const ALL_SPECIALS: [f64; 6] = [
    -0.0,
    5e-324,
    -2.5e-310,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Oracle `A·Bᵀ`: one axpy of `Bt`'s row per nonzero into the output row.
fn oracle_a_ht(a: CsrRef<'_>, bt: &Mat) -> Mat {
    let mut v = Mat::zeros(a.nrows(), bt.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &x) in cols.iter().zip(vals) {
            axpy(x, bt.row(j - a.col_offset()), v.row_mut(i));
        }
    }
    v
}

/// Oracle `Aᵀ·W`: one axpy of `W`'s row `i` per nonzero of row `i`.
fn oracle_at_w(a: CsrRef<'_>, w: &Mat) -> Mat {
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for (&j, &x) in cols.iter().zip(vals) {
            axpy(x, w.row(i), y.row_mut(j - a.col_offset()));
        }
    }
    y
}

fn value(rng: &mut StdRng, specials: &[f64]) -> f64 {
    if rng.gen_range(0..8) == 0 {
        specials[rng.gen_range(0..specials.len())]
    } else {
        rng.gen::<f64>() * 2.0 - 1.0
    }
}

/// Ragged `m×n` matrix: each row draws its degree from `0..=max_deg`,
/// so empty rows, rows longer than the prefetch distance and empty
/// columns all occur.
fn ragged(m: usize, n: usize, max_deg: usize, specials: &[f64], seed: u64) -> Csr {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut indptr, mut indices, mut values) = (vec![0], Vec::new(), Vec::new());
    for _ in 0..m {
        let deg = rng.gen_range(0..max_deg.min(n) + 1);
        let mut cols: Vec<usize> = (0..deg).map(|_| rng.gen_range(0..n)).collect();
        cols.sort_unstable();
        cols.dedup();
        for j in cols {
            indices.push(j);
            values.push(value(&mut rng, specials));
        }
        indptr.push(indices.len());
    }
    Csr::from_parts(m, n, indptr, indices, values)
}

/// A dense `r×k` operand with every eleventh element from `specials`.
fn operand(r: usize, k: usize, specials: &[f64], seed: u64) -> Mat {
    let mut d = Mat::uniform(r, k, seed);
    for (p, x) in d.as_mut_slice().iter_mut().enumerate().skip(3).step_by(11) {
        *x = specials[p % specials.len()];
    }
    d
}

/// Every element's bits, NaN as one value: Rust leaves the sign and
/// payload of a NaN result unspecified (LLVM may commute a multiply's
/// operands), so which elements are NaN is the kernel's property, and
/// the bits of all the others.
fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice()
        .iter()
        .map(|x| {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        })
        .collect()
}

/// All three kernels on `a` at rank `k`, from dirty outputs, against
/// the oracles.
fn check(a: CsrRef<'_>, k: usize, specials: &[f64], seed: u64, what: &str) {
    let (m, n) = a.shape();
    let at = format!("{what} ({m}x{n}, k = {k}, {:?})", simd::active());
    let (ht, w) = (
        operand(n, k, specials, seed),
        operand(m, k, specials, seed ^ 1),
    );
    let mut v = Mat::filled(m, k, f64::NAN);
    spmm_dense_t_into(a, &ht, &mut v);
    assert_eq!(bits(&v), bits(&oracle_a_ht(a, &ht)), "A·Hᵀ on {at}");
    let want = bits(&oracle_at_w(a, &w));
    let mut y = Mat::filled(n, k, f64::NAN);
    spmm_at_dense_into(a, &w, &mut y);
    assert_eq!(bits(&y), want, "CSR Aᵀ·W on {at}");
    let mut y = Mat::filled(n, k, -1.0);
    spmm_at_dense_csc_into(a, &CscView::from_csr(a), &w, &mut y);
    assert_eq!(bits(&y), want, "CSC Aᵀ·W on {at}");
}

#[test]
fn kernels_match_the_axpy_oracle() {
    if std::env::var_os("NMF_FORCE_SCALAR").is_some_and(|v| v == "1") {
        assert_eq!(simd::active(), KernelPath::Scalar);
    }
    let (m, n) = (37, 29);
    for (flavour, specials) in [("finite", &FINITE_SPECIALS[..]), ("special", &ALL_SPECIALS)] {
        for (s, &k) in KS.iter().enumerate() {
            let seed = 100 * s as u64 + specials.len() as u64;
            let src = ragged(m, n, 20, specials, seed);
            let what = format!("whole {flavour}");
            check((&src).into(), k, specials, seed, &what);
            for (r0, nr) in [(0, m), (m / 3, m / 2), (m - 1, 1)] {
                let stripe = src.window(r0, 0, nr, n, None);
                let what = format!("{flavour} stripe {r0}+{nr}");
                check(stripe, k, specials, seed, &what);
            }
            for (r0, nr, c0, nc) in [
                (0, m, 1, n - 1),
                (m / 4, m / 2, n / 3, n / 2),
                (2, m - 3, n - 5, 5),
            ] {
                let bounds = src.window_bounds(r0, c0, nr, nc);
                let window = src.window(r0, c0, nr, nc, bounds.as_deref());
                let what = format!("{flavour} window ({r0}, {c0}) {nr}x{nc}");
                check(window, k, specials, seed, &what);
            }
            for (em, en) in [(0, 0), (6, 0), (0, 6), (6, 9)] {
                let empty = Csr::empty(em, en);
                check((&empty).into(), k, specials, seed, "empty matrix");
            }
        }
        // Tall enough that the CSC kernel sweeps several row panels
        // (about 1300 rows each at k = 100 on a 2 MiB L2), each of which
        // must resume the output rows the previous one left.
        let tall = ragged(4000, 40, 6, specials, 7);
        check((&tall).into(), 100, specials, 7, &format!("tall {flavour}"));
    }
}

/// Where this process runs the AVX2 copy, the portable copy is checked
/// by rerunning the oracle test in a child pinned by `NMF_FORCE_SCALAR`
/// (the kernel dispatch is decided once per process).
#[test]
fn portable_copy_matches_the_axpy_oracle_too() {
    if simd::active() != KernelPath::Avx2Fma {
        return; // this process already runs the portable copy
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args([
            "--exact",
            "kernels_match_the_axpy_oracle",
            "--test-threads",
            "1",
        ])
        .env("NMF_FORCE_SCALAR", "1")
        .output()
        .expect("rerun the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("1 passed"),
        "portable copy:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
