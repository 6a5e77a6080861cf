//! Property-based equivalence of every GEMM path against a naive
//! triple loop, on randomized shapes chosen to straddle the microkernel
//! geometry boundaries: `MR = 6`, `NR = 16`, the `NC = 32` column
//! blocks and the `KC = 256` depth blocking; and, bit for bit, the
//! microkernel's 16-wide body against its 8-wide one, the driver against
//! a KC-outer reference loop, and `Aᵀ·W` read in place as `(Wᵀ·A)ᵀ`
//! against the same product over packed `Aᵀ` panels.
//!
//! The naive loop computes the same sums in a different association
//! order, so agreement with it is to a tolerance scaled well below the
//! 1e-10 the kernel contract promises on O(1) entries. Which build runs
//! depends on the host (and `NMF_FORCE_SCALAR`); the properties hold
//! under either dispatch — CI runs this suite both ways.

use nmf_matrix::pack::{b_scratch_len, KC, MR, NC, NR};
use nmf_matrix::rng::Fill;
use nmf_matrix::simd::{microkernel, Chain, GemmBuild, Tile, MR_WIDE};
use nmf_matrix::{
    matmul_into, matmul_packed_scratch_into, matmul_scratch_into, matmul_ta_into,
    matmul_ta_scratch_into, matmul_tb_into, ta_scratch_len, Mat, PackedPanels,
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

/// Inner dimension straddling the `KC = 256` depth blocking and the
/// 32-row parts the transposed driver runs a depth block as.
fn edge_kdim(raw: usize) -> usize {
    const EDGES: [usize; 12] = [1, 3, 8, 31, 32, 33, 64, 255, 256, 257, 300, 511];
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

/// `Aᵀ·W` over blocks wide enough that the transposed driver walks them
/// as several groups of tiles (as many as 256 KiB of held chains covers:
/// 128 tiles at `k = 16` and 8-row panels, 113 at 6-row ones; 42 at
/// `k = 48`; 256 or 341 at `k = 5`), against packed `Aᵀ` panels bit for
/// bit, including a last group that is one narrow tile. The scratch,
/// pre-sized, never grows, and only the `NaN`'s output row is poisoned.
#[test]
fn transposed_groups_of_tiles_match_packed_panels_bit_for_bit() {
    for (depth, width, k) in [
        (300, 2100, 16),
        (33, 2063, 16),
        (KC + 40, 700, 48),
        (70, 5500, 5),
    ] {
        let at = format!("{depth}x{width}, k {k}");
        let big = fenced_block(depth, width, (1, 2), 41);
        let a = big.view(1, 2, depth, width);
        let w = Mat::uniform(depth, k, 42);
        let mut packed = Mat::zeros(width, k);
        let panels = PackedPanels::pack_transposed(a);
        matmul_packed_scratch_into(&panels, &w, &mut packed, &mut Vec::new());
        let mut scratch = vec![0.0; ta_scratch_len(depth, width, k)];
        let mut in_place = Mat::filled(width, k, 7.0);
        matmul_ta_scratch_into(a, &w, &mut in_place, &mut scratch);
        assert_eq!(bits(&in_place), bits(&packed), "{at}");
        assert_eq!(scratch.len(), ta_scratch_len(depth, width, k), "{at}");
        for j in 0..width {
            let poisoned = in_place.row(j).iter().any(|x| x.is_nan());
            assert_eq!(poisoned, j == width - 1, "row {j} of {at}");
        }
    }
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
/// 8-wide one (the `fma` build, two passes per tile), bit for bit, at both
/// register heights, over every stored shape of a tile, both left-operand
/// forms, a right tile packed or read at a wider row stride, and `C`
/// stored row-major or transposed.
#[test]
fn wide_body_matches_narrow_body_bit_for_bit() {
    if !GemmBuild::Avx512f.supported() {
        eprintln!("skipped: no avx512f on this CPU, so only the 8-wide body runs here");
        return;
    }
    for (rows, kc) in [MR, MR_WIDE]
        .into_iter()
        .flat_map(|r| [1, 19, 256, 257].map(|kc| (r, kc)))
    {
        // A packed panel (strides (1, rows)) and the same panel as the rows
        // of a row-major block (strides (kc, 1)), with a -0.0 in each.
        let mut pa: Vec<f64> = (0..rows * kc).map(|i| (i as f64 * 0.37).sin()).collect();
        pa[rows * kc / 2] = -0.0;
        let by_row: Vec<f64> = (0..rows * kc)
            .map(|i| pa[(i % kc) * rows + i / kc])
            .collect();
        // A packed tile (row stride NR) and the same tile as 16 columns
        // of a wider block (row stride NR + 5).
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i as f64 * 0.91).cos()).collect();
        let ldb = NR + 5;
        let wide: Vec<f64> = (0..ldb * kc)
            .map(|i| match i % ldb < NR {
                true => pb[i / ldb * NR + i % ldb],
                false => f64::NAN,
            })
            .collect();
        let lefts = [(&pa, (1, rows)), (&by_row, (kc, 1))];
        let rights = [(&pb, NR), (&wide, ldb)];
        // Row-major (ldc NR, column stride 1) and transposed (1, rows).
        let stores = [(NR, 1), (1, rows)];
        for ((a, (rs, ds)), (b, ldb)) in lefts.into_iter().zip(rights) {
            for (ldc, cs) in stores {
                for mr_eff in 1..=rows {
                    for nr_eff in 1..=NR {
                        let run = |build: GemmBuild| {
                            let mut c = Mat::filled(rows, NR, 0.5);
                            let t = Tile {
                                pa: a.as_ptr(),
                                rs,
                                ds,
                                pb: b.as_ptr(),
                                ldb,
                                kc,
                                chain: Chain::Whole,
                                c: c.as_mut_slice().as_mut_ptr(),
                                ldc,
                                cs,
                                rows,
                                mr_eff,
                                nr_eff,
                            };
                            assert!(build.supported());
                            // SAFETY: the build was checked above; `a` holds
                            // a rows×kc panel at (rs, ds), `b` a kc×NR tile at
                            // row stride ldb, `c` rows·NR elements, of which
                            // the tile writes r*ldc + j*cs < rows·NR.
                            unsafe { microkernel(build, t) };
                            bits(&c)
                        };
                        assert_eq!(
                            run(GemmBuild::Avx512f),
                            run(GemmBuild::Fma),
                            "{rows} rows, kc {kc}, {mr_eff}x{nr_eff}, strides ({rs}, {ds}), \
                             ldb {ldb}, store ({ldc}, {cs})"
                        );
                    }
                }
            }
        }
    }
}

/// Columns of `W` straddling the `MR = 6` and `MR_WIDE = 8` panels of
/// `Wᵀ`, the `NR = 16` tiles of `A·W`'s `B`, and the `NC = 32` blocks.
fn edge_k(raw: usize) -> usize {
    const EDGES: [usize; 13] = [1, 2, 5, 6, 7, 12, 16, 17, 31, 32, 33, 47, 48];
    EDGES[raw % EDGES.len()]
}

/// Block widths (the columns of `A` that `Aᵀ·W` reads as `NR`-wide
/// tiles) straddling `NR`, `NC` and their multiples.
fn edge_width(raw: usize) -> usize {
    const EDGES: [usize; 14] = [1, 5, 6, 7, 15, 16, 17, 31, 32, 33, 47, 48, 49, 83];
    EDGES[raw % EDGES.len()]
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

        // Caller-owned scratch, entered cold to prove the pre-size bound
        // is merely an optimization.
        let p = PackedPanels::pack(&a);
        matmul_packed_scratch_into(&p, &b, &mut c, &mut Vec::new());
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
    fn transposed_in_place_matches_packed_panels_bit_for_bit(
        draw in 0usize..100,
        wraw in 0usize..100,
        kraw in 0usize..100,
        r0 in 0usize..3,
        c0 in 1usize..4,
        seed in 0u64..10_000,
    ) {
        // Aᵀ·W with A a block read where it lies — nonzero offset, row
        // stride wider than the block — run as (Wᵀ·A)ᵀ, against the same
        // product over A's packed transpose.
        let depth = edge_kdim(draw);
        let width = edge_width(wraw);
        let k = edge_k(kraw);
        let big = fenced_block(depth, width, (r0, c0), seed);
        let a = big.view(r0, c0, depth, width);
        let w = Mat::uniform(depth, k, seed + 1);

        let mut packed = Mat::zeros(width, k);
        let panels = PackedPanels::pack_transposed(a);
        matmul_packed_scratch_into(&panels, &w, &mut packed, &mut Vec::new());
        let mut in_place = Mat::filled(width, k, 7.0);
        matmul_ta_into(a, &w, &mut in_place);
        prop_assert_eq!(
            bits(&in_place), bits(&packed),
            "{}x{} block at ({}, {}), k {}", depth, width, r0, c0, k
        );

        // The fence never reaches a stored element: only the output row
        // of the column holding the planted NaN is NaN.
        for j in 0..width {
            let poisoned = in_place.row(j).iter().any(|x| x.is_nan());
            prop_assert_eq!(poisoned, j == width - 1, "row {} of {}", j, width);
        }
        // A contiguous copy of the block gives the same bits.
        let mut copy = Mat::zeros(width, k);
        matmul_ta_into(&big.block(r0, c0, depth, width), &w, &mut copy);
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
        matmul_packed_scratch_into(&p, &b, &mut c, &mut Vec::new());
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
