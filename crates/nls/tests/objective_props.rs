//! `nls_objective` against the dense form, **bit for bit**.
//!
//! The objective sums a row over its support when it can: each
//! `(G·xᵢ)ⱼ` from the support's products alone, in the lane order of the
//! dispatched `dot4`/`dot` reduction, every left-out product and term a
//! signed zero. For finite inputs the value must equal the dense form —
//! `X·Gᵀ` through `matmul_tb`, then a running sum over `(i, j)`, as
//! `bpp_oracle.rs` computes it. With `±∞` or NaN in `G` or `Cᵀb` the dense
//! form is NaN wherever a zero meets an infinity, also in 4-column blocks
//! where `x` is all zero and that the objective has always skipped, so
//! there the reference is the block form: one `dot4` per 4-column block
//! holding a nonzero, one `dot` per nonzero tail column.
//!
//! Rows mix all-zero rows (`+0.0` and `-0.0`), single nonzeros, full
//! rows, wide and narrow supports with zeros (of both signs) inside
//! nonzero blocks, subnormals and negatives. Where this
//! process runs the AVX2 reductions, the portable ones are checked by
//! rerunning both properties in a child pinned by `NMF_FORCE_SCALAR=1`.

use nmf_matrix::gemm::{dot, dot4};
use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{self, KernelPath};
use nmf_matrix::{matmul_tb, Mat};
use nmf_nls::nls_objective;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 11] = [1, 3, 4, 5, 8, 31, 32, 33, 64, 65, 128];

fn dense_objective(gram: &Mat, ctb: &Mat, x: &Mat) -> f64 {
    let xg = matmul_tb(x, gram);
    let mut obj = 0.0;
    for i in 0..x.nrows() {
        for j in 0..x.ncols() {
            obj += x[(i, j)] * xg[(i, j)] - 2.0 * x[(i, j)] * ctb[(i, j)];
        }
    }
    obj
}

fn block_objective(gram: &Mat, ctb: &Mat, x: &Mat) -> f64 {
    let k = gram.nrows();
    let k4 = k - k % 4;
    let mut obj = 0.0;
    for i in 0..x.nrows() {
        let (xi, bi) = (x.row(i), ctb.row(i));
        for j in (0..k4).step_by(4) {
            if xi[j..j + 4].iter().all(|&v| v == 0.0) {
                continue;
            }
            let (g0, g1, g2, g3) = (
                gram.row(j),
                gram.row(j + 1),
                gram.row(j + 2),
                gram.row(j + 3),
            );
            let (s0, s1, s2, s3) = dot4(xi, g0, g1, g2, g3);
            for (jj, s) in (j..).zip([s0, s1, s2, s3]) {
                obj += xi[jj] * s - 2.0 * xi[jj] * bi[jj];
            }
        }
        for jj in k4..k {
            if xi[jj] != 0.0 {
                obj += xi[jj] * dot(xi, gram.row(jj)) - 2.0 * xi[jj] * bi[jj];
            }
        }
    }
    obj
}

/// A nonzero entry: mostly of order one (so that no row swamps the
/// rounding of the others), sometimes subnormal or negative.
fn value(rng: &mut StdRng) -> f64 {
    let v = rng.gen::<f64>() + 0.01;
    match rng.gen_range(0..10) {
        0 => v * f64::MIN_POSITIVE * 1e-3,
        1 => -v,
        _ => v,
    }
}

/// `r×k` with one kind of row per `i % 8`.
fn rows(r: usize, k: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut x = Mat::zeros(r, k);
    for i in 0..r {
        let row = x.row_mut(i);
        match i % 8 {
            0 => {}
            1 => row.fill(-0.0),
            2 => row[rng.gen_range(0..k)] = value(&mut rng),
            3 => row.iter_mut().for_each(|v| *v = value(&mut rng)),
            4 => {
                // A few nonzeros, each with signed zeros around it in its
                // 4-column block.
                for _ in 0..rng.gen_range(1..5) {
                    let j = rng.gen_range(0..k);
                    row[j] = value(&mut rng);
                    let b = j - j % 4;
                    let block = &mut row[b..(b + 4).min(k)];
                    for (z, v) in (b..).zip(block) {
                        if z != j && rng.gen_range(0..2) == 0 {
                            *v = if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 };
                        }
                    }
                }
            }
            5 | 6 => {
                // Up to a quarter of the row (so that it is summed over
                // its support), every reduction lane holding several
                // nonzeros, and always the last column: a `k % 4` tail
                // column when there is one.
                for _ in 1..rng.gen_range(2..(k / 4).max(2) + 1) {
                    row[rng.gen_range(0..k)] = value(&mut rng);
                }
                row[k - 1] = value(&mut rng);
            }
            _ => {
                // Wide: about two thirds of the entries.
                for v in row.iter_mut() {
                    if rng.gen_range(0..3) != 0 {
                        *v = value(&mut rng);
                    }
                }
            }
        }
    }
    x
}

/// Equal bits, or both NaN: which NaN an addition propagates depends on
/// the order of its operands, which the compiler is free to swap.
fn assert_same(got: f64, want: f64, what: &str) {
    let (got_bits, want_bits) = if want.is_nan() {
        (got.is_nan() as u64, 1)
    } else {
        (got.to_bits(), want.to_bits())
    };
    assert_eq!(
        got_bits,
        want_bits,
        "{what} ({:?}): got {got:e}, want {want:e}",
        simd::active()
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn finite_inputs_match_the_dense_form(ki in 0usize..11, r in 1usize..60, seed in 0u64..10_000) {
        if std::env::var_os("NMF_FORCE_SCALAR").is_some_and(|v| v == "1") {
            assert_eq!(simd::active(), KernelPath::Scalar);
        }
        let k = KS[ki];
        let gram = Mat::gaussian(k, k, seed);
        let ctb = Mat::gaussian(r, k, seed + 1);
        let x = rows(r, k, seed + 2);
        let what = format!("k = {k}, r = {r}, seed {seed}");
        assert_same(nls_objective(&gram, &ctb, &x), dense_objective(&gram, &ctb, &x), &what);
    }

    #[test]
    fn non_finite_inputs_match_the_block_form(
        ki in 0usize..11,
        r in 1usize..40,
        specials in 1usize..6,
        seed in 0u64..10_000,
    ) {
        let k = KS[ki];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gram = Mat::gaussian(k, k, seed);
        let mut ctb = Mat::gaussian(r, k, seed + 1);
        let x = rows(r, k, seed + 2);
        // `specials` entries of G, C^T b or both become ±∞ or NaN.
        let target = rng.gen_range(0..3);
        for _ in 0..specials {
            let v = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][rng.gen_range(0..3usize)];
            if target != 1 {
                gram[(rng.gen_range(0..k), rng.gen_range(0..k))] = v;
            }
            if target != 0 {
                // Half of them where a zero of x shares a 4-column block
                // with a nonzero: the support skips that term, the block
                // form does not.
                let i = rng.gen_range(0..r);
                let xi = x.row(i);
                let hidden: Vec<usize> = (0..k)
                    .filter(|&j| xi[j] == 0.0 && xi[j - j % 4..(j - j % 4 + 4).min(k)].iter().any(|&v| v != 0.0))
                    .collect();
                let j = match hidden.len() {
                    0 => rng.gen_range(0..k),
                    n if rng.gen_range(0..2) == 0 => hidden[rng.gen_range(0..n)],
                    _ => rng.gen_range(0..k),
                };
                ctb[(i, j)] = v;
            }
        }
        let what = format!("k = {k}, r = {r}, seed {seed}, target {target}");
        assert_same(nls_objective(&gram, &ctb, &x), block_objective(&gram, &ctb, &x), &what);
    }
}

#[test]
fn portable_reductions_match_too() {
    if simd::active() != KernelPath::Avx2Fma {
        return; // this process already runs the portable reductions
    }
    let out = std::process::Command::new(std::env::current_exe().expect("test binary path"))
        .args(["inputs_match_the", "--test-threads", "1"])
        .env("NMF_FORCE_SCALAR", "1")
        .output()
        .expect("rerun the test binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success() && stdout.contains("2 passed"),
        "portable reductions:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
