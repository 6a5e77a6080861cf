//! The `NMF_FORCE_SCALAR` escape hatch: pins the dots and SpMM to their
//! portable copies and the GEMM to its 8-wide build, regardless of host
//! CPU features.
//!
//! Dispatch is decided once per process and cached, so this lives in its
//! own integration-test binary (its process sets the variable before the
//! first kernel call) and is a single test function (a sibling test
//! could otherwise race the dispatch cache).

use nmf_matrix::pack::MR;
use nmf_matrix::rng::Fill;
use nmf_matrix::{
    matmul, matmul_packed_into, matmul_packed_scratch_into, matmul_scratch_into, matmul_ta, simd,
    Mat, PackedPanels,
};

#[test]
fn forced_scalar_dispatch_is_pinned_and_correct() {
    // Must precede any dispatch query in this process.
    std::env::set_var("NMF_FORCE_SCALAR", "1");

    // The dots and SpMM take their portable copies, and the GEMM its
    // 8-wide body: under FMA where the CPU has it, plain elsewhere.
    assert_eq!(simd::active(), simd::KernelPath::Scalar);
    let fma = simd::GemmBuild::Fma.supported();
    let want = [simd::GemmBuild::Portable, simd::GemmBuild::Fma][fma as usize];
    assert_eq!(simd::gemm_build(), want);
    assert_eq!(
        simd::active_name(),
        ["portable-6x8", "fma-6x8"][fma as usize]
    );

    // The forced path must be fully correct, including packed panels,
    // which have the same 6-row geometry on every build.
    let naive = |a: &Mat, b: &Mat| -> Mat {
        let mut c = Mat::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut s = 0.0;
                for kk in 0..a.ncols() {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    };

    for &(m, kdim, n) in &[(7usize, 300usize, 9usize), (12, 257, 8), (4, 8, 8)] {
        let a = Mat::uniform(m, kdim, 21);
        let b = Mat::uniform(kdim, n, 22);
        let expect = naive(&a, &b);
        assert!(
            matmul(&a, &b).max_abs_diff(&expect) < 1e-10,
            "forced-scalar matmul wrong at {m}x{kdim}x{n}"
        );
        let p = PackedPanels::pack(&a);
        assert_eq!(
            p.packed_bytes(),
            8 * m.div_ceil(MR) * MR * kdim,
            "panels are MR = 6 rows on the forced path too"
        );
        let mut c = Mat::zeros(m, n);
        matmul_packed_into(&p, &b, &mut c);
        assert!(
            c.max_abs_diff(&expect) < 1e-10,
            "forced-scalar prepacked matmul wrong at {m}x{kdim}x{n}"
        );
        let at = Mat::uniform(kdim, m, 23);
        let bt = Mat::uniform(kdim, n, 24);
        let expect_ta = naive(&at.transpose(), &bt);
        assert!(
            matmul_ta(&at, &bt).max_abs_diff(&expect_ta) < 1e-10,
            "forced-scalar matmul_ta wrong at {m}x{kdim}x{n}"
        );
    }

    // A left operand read in place: a 7×300 block at (2, 3) of a wider
    // matrix (ld = 305), so it straddles KC and ends in a 1-row edge
    // panel under MR = 6. The fence around the block is NaN; the full
    // panel holds a -0.0 and the edge panel a NaN. Same bits as the block
    // packed, and the fence never reaches a stored element.
    let (m, kdim, n, r0, c0) = (7usize, 300usize, 9usize, 2usize, 3usize);
    let mut big = Mat::uniform(r0 + m + 1, c0 + kdim + 2, 25);
    big.row_mut(r0 + m).fill(f64::NAN);
    for i in r0..r0 + m {
        big[(i, c0 - 1)] = f64::NAN;
        big[(i, c0 + kdim)] = f64::NAN;
    }
    big[(r0 + 4, c0 + 1)] = -0.0;
    big[(r0 + m - 1, c0 + 17)] = f64::NAN;
    let a = big.view(r0, c0, m, kdim);
    let b = Mat::uniform(kdim, n, 26);
    let bits = |c: &Mat| c.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut packed = Mat::zeros(m, n);
    matmul_packed_scratch_into(&PackedPanels::pack(a), &b, &mut packed, &mut Vec::new());
    let mut in_place = Mat::zeros(m, n);
    matmul_scratch_into(a, &b, &mut in_place, &mut Vec::new());
    assert_eq!(
        bits(&in_place),
        bits(&packed),
        "forced-scalar in-place GEMM"
    );
    for i in 0..m {
        let poisoned = in_place.row(i).iter().any(|x| x.is_nan());
        assert_eq!(poisoned, i == m - 1, "row {i}: the NaN fence leaked");
    }
}
