//! Property-based equivalence of every GEMM path against a naive
//! triple loop, on randomized shapes chosen to straddle the microkernel
//! geometry boundaries: `MR = 6`, `NR = 16`, the `NC = 32` column
//! blocks and the `KC = 256` depth blocking; and, bit for bit, the
//! microkernel's 16-wide body against its 8-wide one and the driver
//! against a KC-outer reference loop.
//!
//! The naive loop computes the same sums in a different association
//! order, so agreement with it is to a tolerance scaled well below the
//! 1e-10 the kernel contract promises on O(1) entries. Which build runs
//! depends on the host (and `NMF_FORCE_SCALAR`); the properties hold
//! under either dispatch — CI runs this suite both ways.

use nmf_matrix::pack::{b_scratch_len, KC, MR, NC, NR};
use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{microkernel, GemmBuild, Tile};
use nmf_matrix::{
    matmul_into, matmul_packed_into, matmul_packed_scratch_into, matmul_scratch_into,
    matmul_ta_into, matmul_tb_into, Mat, PackedPanels,
};
use proptest::prelude::*;

const TOL: f64 = 1e-10;

fn bits(c: &Mat) -> Vec<u64> {
    c.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// An `m×kdim` block at `(r0, c0)` of a larger matrix whose row stride
/// exceeds the block's width, fenced by `NaN`s: the row below the block
/// and the columns on either side of it. The block's last `MR`-row panel
/// holds a `-0.0` in its first row and a `NaN` in its last row.
fn fenced_block(m: usize, kdim: usize, (r0, c0): (usize, usize), seed: u64) -> Mat {
    let mut big = Mat::uniform(r0 + m + 1, c0 + kdim + 2, seed);
    big.row_mut(r0 + m).fill(f64::NAN);
    for i in r0..r0 + m {
        big[(i, c0 - 1)] = f64::NAN;
        big[(i, c0 + kdim)] = f64::NAN;
    }
    let edge = (m - 1) / MR * MR;
    big[(r0 + edge, c0)] = -0.0;
    big[(r0 + m - 1, c0 + kdim - 1)] = f64::NAN;
    big
}

fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
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
}

/// Dimension straddling the register-block edges: values within ±2 of
/// each MR multiple, around the half and whole of NR and around NC,
/// plus tiny and awkward primes.
fn edge_dim(raw: usize) -> usize {
    const EDGES: [usize; 21] = [
        1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 15, 16, 17, 18, 31, 33, 47, 48, 49,
    ];
    EDGES[raw % EDGES.len()]
}

/// Inner dimension straddling the `KC = 256` depth blocking.
fn edge_kdim(raw: usize) -> usize {
    const EDGES: [usize; 10] = [1, 3, 8, 31, 64, 255, 256, 257, 300, 511];
    EDGES[raw % EDGES.len()]
}

/// `C = A·B` as a KC-outer loop: each depth block's fused chain from
/// `+0.0`, added to `C` block by block in depth order — the bits every
/// build and loop order of the driver must keep.
fn kc_outer_reference(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    for k0 in (0..a.ncols()).step_by(KC) {
        let depth = k0..(k0 + KC).min(a.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let chain = depth
                    .clone()
                    .fold(0.0, |acc, d| a[(i, d)].mul_add(b[(d, j)], acc));
                c[(i, j)] += chain;
            }
        }
    }
    c
}

#[test]
fn driver_past_kc_and_nc_matches_a_kc_outer_loop_bit_for_bit() {
    for (m, kdim, n) in [
        (13, 2 * KC + 88, NC + 19),
        (6, KC + 1, 2 * NC),
        (1, 3 * KC, NC + 1),
        (8, KC, NC + 8),
        (7, KC + 3, NR),
        (9, KC + 5, NC + NR),
        (5, 2 * KC, 2 * NC + NR),
    ] {
        let at = format!("{m}x{kdim}x{n}");
        let a = Mat::uniform(m, kdim, 31);
        let b = Mat::uniform(kdim, n, 32);
        let want = bits(&kc_outer_reference(&a, &b));

        // Read in place, with the scratch pre-sized: it never grows.
        let mut scratch = vec![0.0; b_scratch_len(kdim, n)];
        let mut c = Mat::filled(m, n, 7.0);
        matmul_scratch_into(&a, &b, &mut c, &mut scratch);
        assert_eq!(bits(&c), want, "in place, {at}");
        assert_eq!(scratch.len(), b_scratch_len(kdim, n), "{at}");

        // A block of a wider matrix, read where it lies.
        let big = fenced_block(m, kdim, (1, 2), 33);
        let view = big.view(1, 2, m, kdim);
        let mut c = Mat::filled(m, n, 7.0);
        matmul_scratch_into(view, &b, &mut c, &mut Vec::new());
        let want_view = bits(&kc_outer_reference(&big.block(1, 2, m, kdim), &b));
        assert_eq!(bits(&c), want_view, "view, {at}");

        // Packed panels, and the transposed product that packs them.
        let mut c = Mat::filled(m, n, 7.0);
        matmul_packed_scratch_into(&PackedPanels::pack(&a), &b, &mut c, &mut scratch);
        assert_eq!(bits(&c), want, "packed, {at}");
        assert_eq!(scratch.len(), b_scratch_len(kdim, n), "{at}");
        let mut c = Mat::filled(m, n, 7.0);
        matmul_ta_into(&a.transpose(), &b, &mut c);
        assert_eq!(bits(&c), want, "transposed, {at}");
    }
}

/// The microkernel's 16-wide body (the `avx512f` build) against its
/// 8-wide one (the `fma` build, two passes per tile), bit for bit, over
/// every stored shape of a tile and both operand forms.
#[test]
fn wide_body_matches_narrow_body_bit_for_bit() {
    if !GemmBuild::Avx512f.supported() {
        eprintln!("skipped: no avx512f on this CPU, so only the 8-wide body runs here");
        return;
    }
    for kc in [1, 19, 256, 257] {
        // A packed panel (strides (1, MR)) and the same panel as the rows
        // of a row-major block (strides (kc, 1)), with a -0.0 in each.
        let mut pa: Vec<f64> = (0..MR * kc).map(|i| (i as f64 * 0.37).sin()).collect();
        pa[MR * kc / 2] = -0.0;
        let rows: Vec<f64> = (0..MR * kc).map(|i| pa[(i % kc) * MR + i / kc]).collect();
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i as f64 * 0.91).cos()).collect();
        for (a, (rs, ds)) in [(&pa, (1, MR)), (&rows, (kc, 1))] {
            for mr_eff in 1..=MR {
                for nr_eff in 1..=NR {
                    let run = |build: GemmBuild| {
                        let mut c = Mat::filled(MR, NR, 0.5);
                        let t = Tile {
                            pa: a.as_ptr(),
                            rs,
                            ds,
                            pb: pb.as_ptr(),
                            kc,
                            c: c.as_mut_slice().as_mut_ptr(),
                            ldc: NR,
                            mr_eff,
                            nr_eff,
                        };
                        assert!(build.supported());
                        // SAFETY: the build was checked above; `a` holds an
                        // MR×kc panel at (rs, ds), `pb` a kc×NR tile, `c` an
                        // MR×NR tile at row stride NR.
                        unsafe { microkernel(build, t) };
                        bits(&c)
                    };
                    assert_eq!(
                        run(GemmBuild::Avx512f),
                        run(GemmBuild::Fma),
                        "kc {kc}, {mr_eff}x{nr_eff}, strides ({rs}, {ds})"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_gemm_paths_match_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        let m = edge_dim(mraw);
        let kdim = edge_kdim(kraw);
        let n = edge_dim(nraw);
        let a = Mat::uniform(m, kdim, seed);
        let b = Mat::uniform(kdim, n, seed + 1);
        let expect = naive_matmul(&a, &b);
        // Tolerance scaled by the inner-dimension magnitude.
        let tol = TOL * (kdim as f64);

        let mut c = Mat::zeros(m, n);
        matmul_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "dispatched {m}x{kdim}x{n}");

        let p = PackedPanels::pack(&a);
        matmul_packed_into(&p, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "prepacked {m}x{kdim}x{n}");

        // Caller-owned scratch (the engine's workspace path), entered
        // cold to prove the pre-size bound is merely an optimization.
        let mut scratch = Vec::new();
        matmul_packed_scratch_into(&p, &b, &mut c, &mut scratch);
        prop_assert!(c.max_abs_diff(&expect) < tol, "packed+scratch {m}x{kdim}x{n}");
    }

    #[test]
    fn in_place_left_operand_matches_packed_bits(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        r0 in 0usize..3,
        c0 in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // A block read where it lies — nonzero offset, row stride wider
        // than the block — must give the bits of the same block packed.
        let m = edge_dim(mraw);
        let kdim = edge_kdim(kraw);
        let n = edge_dim(nraw);
        let big = fenced_block(m, kdim, (r0, c0), seed);
        let a = big.view(r0, c0, m, kdim);
        let b = Mat::uniform(kdim, n, seed + 1);

        let mut packed = Mat::zeros(m, n);
        matmul_packed_scratch_into(&PackedPanels::pack(a), &b, &mut packed, &mut Vec::new());
        let mut in_place = Mat::filled(m, n, 7.0);
        matmul_scratch_into(a, &b, &mut in_place, &mut Vec::new());
        prop_assert_eq!(bits(&in_place), bits(&packed), "{}x{}x{} at ({}, {})", m, kdim, n, r0, c0);

        // The fence never reaches a stored element: only the row holding
        // the planted NaN is NaN.
        for i in 0..m {
            let poisoned = in_place.row(i).iter().any(|x| x.is_nan());
            prop_assert_eq!(poisoned, i == m - 1, "row {} of {}", i, m);
        }
        // A contiguous copy of the block, through the thread-local path.
        let mut copy = Mat::zeros(m, n);
        matmul_into(&big.block(r0, c0, m, kdim), &b, &mut copy);
        prop_assert_eq!(bits(&copy), bits(&packed));
    }

    #[test]
    fn transposed_paths_match_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        // C = Aᵀ·B with A of shape inner×m (inner is the big dimension).
        let m = edge_dim(mraw);
        let inner = edge_kdim(kraw);
        let n = edge_dim(nraw);
        let a = Mat::uniform(inner, m, seed);
        let b = Mat::uniform(inner, n, seed + 1);
        let expect = naive_matmul(&a.transpose(), &b);
        let tol = TOL * (inner as f64);

        let mut c = Mat::zeros(m, n);
        matmul_ta_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "ta dispatched {m}x{inner}x{n}");

        let p = PackedPanels::pack_transposed(&a);
        matmul_packed_into(&p, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "ta prepacked {m}x{inner}x{n}");
    }

    #[test]
    fn dot_form_matches_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        // C = A·Bᵀ: every entry a row-row dot product (exercises the
        // dispatched dot/dot4 reductions across the SIMD length cutoff).
        let m = edge_dim(mraw);
        let k = edge_dim(nraw);
        let inner = edge_kdim(kraw);
        let a = Mat::uniform(m, inner, seed);
        let b = Mat::uniform(k, inner, seed + 1);
        let expect = naive_matmul(&a, &b.transpose());
        let tol = TOL * (inner as f64);

        let mut c = Mat::zeros(m, k);
        matmul_tb_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "tb {m}x{inner}x{k}");
    }
}
