//! Dense matrix-multiply kernels: packed SIMD GEMM with runtime dispatch.
//!
//! Three transpose combinations cover everything the NMF algorithms need:
//!
//! * `C = A·B`   — reconstruction `W·H`, and `A·Hᵀ` (the left-factor
//!   update input, with `Hᵀ` stored row-major);
//! * `C = Aᵀ·B`  — `WᵀA` (the right-factor update input);
//! * `C = A·Bᵀ`  — dot-product form, used for `X·G` with symmetric `G`.
//!
//! # Performance notes
//!
//! Every product runs through one driver, the GotoBLAS decomposition
//! (Goto & van de Geijn, *Anatomy of High-Performance Matrix
//! Multiplication*):
//!
//! 1. **Operands** ([`pack`](crate::pack)): the right operand is packed
//!    per call into `NR`-column tiles over its whole depth, `NC` columns
//!    at a time. The left operand is read in `MR`-row panels at a (row
//!    stride, depth stride) pair: in place when it is a row-major matrix
//!    or a [`MatRef`] block of one ([`matmul_into`],
//!    [`matmul_scratch_into`]; `(ld, 1)`), or from [`PackedPanels`]
//!    ([`matmul_packed_into`]; `(1, MR)`). It is packed only where its
//!    storage is the wrong way round: `C = Aᵀ·B` ([`matmul_ta_into`])
//!    packs `Aᵀ`'s panels from `A`'s rows
//!    ([`PackedPanels::pack_transposed`]), never forming a transpose.
//! 2. **Loop order**: each `MR`-row panel streams through all of its
//!    `KC`-deep blocks in order, each against every packed tile; the
//!    panel's rows are read front to back once, the packed `B` stays in L2
//!    (for `kdim` up to a few thousand).
//! 3. **Microkernel** ([`simd`]): a 6×16 register block of `C`, one
//!    portable body compiled 16 lanes wide under `avx512f` and 8 wide
//!    under `fma` or plain, chosen once per process.
//! 4. **Amortized packing**: scratch grows once and is reused, and a left
//!    operand that must be packed is packed **once per session** into a
//!    [`PackedPanels`] — the data matrix never changes across ANLS
//!    iterations, so `crates/core` packs `Aᵀ` at engine construction.
//!
//! Every build, both operand forms and the loop order give the same bits:
//! each output element is `+0.0` plus one FMA chain per `KC` block, added
//! in depth order — what a KC-outer loop computes.
//!
//! `*_into` variants write into caller-owned storage so per-iteration
//! workspaces can be reused; the allocating wrappers exist for
//! convenience at call sites that are not on a hot path.
//!
//! Every kernel here is serial. Parallelism is across ranks, as in the
//! paper: each virtual-MPI rank is one OS thread that calls these
//! kernels on its local blocks.

use crate::mat::{Mat, MatRef};
use crate::pack::{pack_b, pack_panel, PackedPanels, KC, MR, NC, NR};
use crate::simd;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing scratch: grows to the largest operands seen,
    /// then every subsequent GEMM on this thread packs into the same
    /// storage — steady-state iterations allocate nothing.
    static SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::default());
}

#[derive(Default)]
struct GemmScratch {
    /// `Aᵀ` panels of [`matmul_ta_into`].
    apack: PackedPanels,
    bpack: Vec<f64>,
}

/// `C = A·B`, allocating the output.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    matmul_into(a, b, &mut c);
    c
}

/// `C = A·B` into caller-owned `c` (overwritten). Reads `A` in place,
/// packs `B` into thread-local scratch and runs the dispatched
/// microkernel build; see the module docs.
pub fn matmul_into(a: &Mat, b: &Mat, c: &mut Mat) {
    SCRATCH.with(|s| matmul_scratch_into(a, b, c, &mut s.borrow_mut().bpack));
}

/// `C = A·B` into caller-owned `c` (overwritten) for a left operand read
/// in place — a [`Mat`] or a [`MatRef`] block of one, such as a rank's
/// block of a matrix other ranks share — with caller-owned `B`-tile
/// scratch. Pre-sized via [`b_scratch_len`](crate::pack::b_scratch_len)
/// for `a.ncols()` and `b.ncols()`, the call allocates nothing.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_scratch_into<'a>(
    a: impl Into<MatRef<'a>>,
    b: &Mat,
    c: &mut Mat,
    bpack: &mut Vec<f64>,
) {
    let a = a.into();
    assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.nrows(), b.ncols()),
        "matmul output shape mismatch"
    );
    c.as_mut_slice().fill(0.0);
    gemm(
        Left::InPlace(a),
        b.as_slice(),
        b.ncols(),
        c.as_mut_slice(),
        bpack,
    );
}

/// `C = P·B` where `P` is a pre-packed left operand (see
/// [`PackedPanels`]): the steady-state entry point — no repacking of
/// `P`, only the (cheap, `kdim×n`) `B` tiles are packed per call.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_packed_into(p: &PackedPanels, b: &Mat, c: &mut Mat) {
    SCRATCH.with(|s| {
        matmul_packed_scratch_into(p, b, c, &mut s.borrow_mut().bpack);
    });
}

/// [`matmul_packed_into`] with caller-owned `B`-tile scratch instead of
/// the thread-local buffer. Hot-loop callers that must not touch any
/// hidden allocation (the engine's counting-allocator invariant) hold
/// the scratch in their workspace, pre-sized via
/// [`b_scratch_len`](crate::pack::b_scratch_len), so steady-state calls allocate
/// nothing — including on the very first iteration.
///
/// # Panics
/// Same contract as [`matmul_packed_into`].
pub fn matmul_packed_scratch_into(p: &PackedPanels, b: &Mat, c: &mut Mat, bpack: &mut Vec<f64>) {
    let (m, kdim) = p.shape();
    assert_eq!(kdim, b.nrows(), "matmul_packed inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (m, b.ncols()),
        "matmul_packed output shape mismatch"
    );
    c.as_mut_slice().fill(0.0);
    gemm(
        Left::Packed(p),
        b.as_slice(),
        b.ncols(),
        c.as_mut_slice(),
        bpack,
    );
}

/// Where the GEMM driver reads its `m×kdim` left operand from.
#[derive(Clone, Copy)]
enum Left<'a> {
    /// Panels packed ahead of time, read at strides `(1, MR)`.
    Packed(&'a PackedPanels),
    /// Rows of a row-major block, read in place at strides `(ld, 1)`.
    InPlace(MatRef<'a>),
}

/// The GEMM driver: `c += A·b` where `A` is the `m×kdim` left operand,
/// `b` is `kdim×n` row-major, `c` is `m×n` (leading dimension `n`,
/// pre-initialized). For each `NC`-column block of `b`, packed whole into
/// `bpack` (or read in place if `b` is one tile wide, see `pack_b`), each
/// `MR`-row panel of `A` runs its `KC`-deep blocks in order
/// against every tile; with `kdim ≤ KC` this is the KC-outer loop. An
/// in-place operand's last panel, when fewer than `MR` rows are left, is
/// copied into a zero-padded stack panel first, so the kernel never reads
/// a row outside the block and pad rows never reach a stored element.
fn gemm(left: Left<'_>, b: &[f64], n: usize, c: &mut [f64], bpack: &mut Vec<f64>) {
    let (m, kdim) = match left {
        Left::Packed(p) => p.shape(),
        Left::InPlace(a) => a.shape(),
    };
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    let build = simd::gemm_build();
    let mut edge = [0.0f64; MR * KC];
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        let tiles = pack_b(b, n, (j0, nc), bpack);
        for i0 in (0..m).step_by(MR) {
            let mr_eff = MR.min(m - i0);
            for k0 in (0..kdim).step_by(KC) {
                let kc = KC.min(kdim - k0);
                let (pa, rs, ds) = match left {
                    Left::Packed(p) => (p.panel(k0, kc, i0), 1, MR),
                    Left::InPlace(a) if mr_eff == MR => (a.tail(i0, k0), a.ld(), 1),
                    Left::InPlace(a) => {
                        pack_panel(a, (i0, mr_eff), (k0, kc), &mut edge);
                        (&edge[..MR * kc], 1, MR)
                    }
                };
                // What the kernel's reads of `pa` rely on.
                assert!(
                    pa.len() > (MR - 1) * rs + (kc - 1) * ds,
                    "left-operand panel shorter than its strides"
                );
                for jt in 0..nc.div_ceil(NR) {
                    let at = jt * NR * kdim + k0 * NR;
                    let pbt = &tiles[at..at + NR * kc];
                    let t = simd::Tile {
                        pa: pa.as_ptr(),
                        rs,
                        ds,
                        pb: pbt.as_ptr(),
                        kc,
                        c: c[i0 * n + j0 + jt * NR..].as_mut_ptr(),
                        ldc: n,
                        mr_eff,
                        nr_eff: NR.min(nc - jt * NR),
                    };
                    // SAFETY: `build` is the detected one; the assert above
                    // covers every `pa` read at `r*rs + d*ds` (`r < MR`,
                    // `d < kc`); `pbt` is a full `NR*kc` tile; the `c` tile
                    // holds `mr_eff` rows of the `nr_eff` elements left in
                    // the block at row stride `n`.
                    unsafe { simd::microkernel(build, t) };
                }
            }
        }
    }
}

/// `C = Aᵀ·B`, allocating the output. `A` is `m×k`, `B` is `m×n`, `C` is `k×n`.
pub fn matmul_ta(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.ncols(), b.ncols());
    matmul_ta_into(a, b, &mut c);
    c
}

/// `C = Aᵀ·B` into caller-owned `c` (overwritten). Packs `Aᵀ` directly
/// from `A`'s rows (no transpose materialization) into thread-local
/// scratch and runs the same driver as [`matmul_into`].
pub fn matmul_ta_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.nrows(), b.nrows(), "matmul_ta inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.ncols(), b.ncols()),
        "matmul_ta output shape mismatch"
    );
    c.as_mut_slice().fill(0.0);
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        scratch.apack.pack_transposed_into(a);
        gemm(
            Left::Packed(&scratch.apack),
            b.as_slice(),
            b.ncols(),
            c.as_mut_slice(),
            &mut scratch.bpack,
        );
    });
}

/// `C = A·Bᵀ`, allocating the output. `A` is `m×n`, `B` is `k×n`, `C` is `m×k`.
pub fn matmul_tb(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.nrows());
    matmul_tb_into(a, b, &mut c);
    c
}

/// `C = A·Bᵀ` into caller-owned `c` (overwritten).
///
/// Each output entry is a dot product of two contiguous rows; four
/// output columns are computed per pass (via the dispatched [`dot4`])
/// so the `A` row streams once per four rows of `B`.
pub fn matmul_tb_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.ncols(), b.ncols(), "matmul_tb inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.nrows(), b.nrows()),
        "matmul_tb output shape mismatch"
    );
    let k = b.nrows();
    let k4 = k - k % 4;
    for i in 0..a.nrows() {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        let mut j = 0;
        while j < k4 {
            let (s0, s1, s2, s3) = dot4(arow, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            crow[j] = s0;
            crow[j + 1] = s1;
            crow[j + 2] = s2;
            crow[j + 3] = s3;
            j += 4;
        }
        for (jj, cv) in crow.iter_mut().enumerate().skip(k4) {
            *cv = dot(arow, b.row(jj));
        }
    }
}

/// Minimum slice length before the dispatched dot products fuse; below
/// this the call overhead dominates.
const DOT_SIMD_MIN: usize = 32;

/// Whether [`dot`] and [`dot4`] of slices of length `len` take the fused
/// reductions (AVX2 or portable, with the same bits) rather than the
/// unfused loops. Code that reproduces their rounding branches on this.
#[inline]
pub fn dot_is_fused(len: usize) -> bool {
    len >= DOT_SIMD_MIN
}

/// Dot product of two equal-length slices: the fused reduction for long
/// slices (AVX2 intrinsics where dispatched), otherwise 4-way unrolled
/// scalar.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    if dot_is_fused(x.len()) {
        #[cfg(target_arch = "x86_64")]
        if simd::active() == simd::KernelPath::Avx2Fma {
            // SAFETY: the Avx2Fma path implies the detector observed AVX2
            // and FMA support on this CPU.
            return unsafe { simd::dot_avx2(x, y) };
        }
        return simd::dot_fused(x, y);
    }
    let chunks = x.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = c * 4;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Four simultaneous dot products sharing the left operand: returns
/// `(x·y0, x·y1, x·y2, x·y3)`. `x` streams through cache once; long
/// slices take the fused quad reduction.
#[inline]
pub fn dot4(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> (f64, f64, f64, f64) {
    debug_assert!(
        x.len() == y0.len() && x.len() == y1.len() && x.len() == y2.len() && x.len() == y3.len()
    );
    if dot_is_fused(x.len()) {
        #[cfg(target_arch = "x86_64")]
        if simd::active() == simd::KernelPath::Avx2Fma {
            // SAFETY: the Avx2Fma path implies the detector observed AVX2
            // and FMA support on this CPU.
            return unsafe { simd::dot4_avx2(x, y0, y1, y2, y3) };
        }
        let [s0, s1, s2, s3] = simd::dot4_fused(x, [y0, y1, y2, y3]);
        return (s0, s1, s2, s3);
    }
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..x.len() {
        let xv = x[i];
        s0 += xv * y0[i];
        s1 += xv * y1[i];
        s2 += xv * y2[i];
        s3 += xv * y3[i];
    }
    (s0, s1, s2, s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Fill;

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

    #[test]
    fn matmul_matches_naive() {
        let a = Mat::uniform(17, 9, 42);
        let b = Mat::uniform(9, 13, 43);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn dispatched_matches_naive_across_edge_shapes() {
        // Shapes chosen to exercise every remainder path of MR = 6 and
        // the NR/KC boundaries.
        for &(m, kk, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (6, 12, 16),
            (7, 300, 17),
            (8, 256, 8),
            (9, 257, 31),
            (12, 511, 33),
            (13, 40, 7),
            (64, 513, 40),
        ] {
            let a = Mat::uniform(m, kk, (m * 1000 + n) as u64);
            let b = Mat::uniform(kk, n, (n * 1000 + kk) as u64);
            let expect = naive_matmul(&a, &b);
            let c = matmul(&a, &b);
            assert!(
                c.max_abs_diff(&expect) < 1e-10,
                "dispatched GEMM wrong at {m}x{kk}x{n}"
            );
        }
    }

    #[test]
    fn prepacked_matches_dispatched() {
        for &(m, kk, n) in &[(5usize, 3usize, 9usize), (48, 300, 17), (64, 257, 40)] {
            let a = Mat::uniform(m, kk, 77);
            let b = Mat::uniform(kk, n, 78);
            let p = PackedPanels::pack(&a);
            let mut c = Mat::zeros(m, n);
            matmul_packed_into(&p, &b, &mut c);
            assert!(
                c.max_abs_diff(&matmul(&a, &b)) < 1e-12,
                "prepacked GEMM wrong at {m}x{kk}x{n}"
            );
        }
    }

    #[test]
    fn matmul_ta_matches_explicit_transpose() {
        for &(m, k, n) in &[
            (23usize, 7usize, 11usize),
            (24, 8, 8),
            (25, 9, 13),
            (300, 6, 10),
            (3, 2, 2),
        ] {
            let a = Mat::uniform(m, k, 1);
            let b = Mat::uniform(m, n, 2);
            let c = matmul_ta(&a, &b);
            let expect = naive_matmul(&a.transpose(), &b);
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "matmul_ta wrong at {m}x{k}x{n}"
            );
            let p = PackedPanels::pack_transposed(&a);
            let mut cp = Mat::zeros(k, n);
            matmul_packed_into(&p, &b, &mut cp);
            assert!(
                cp.max_abs_diff(&expect) < 1e-12,
                "prepacked matmul_ta wrong at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        for &(m, k, n) in &[(19usize, 5usize, 8usize), (19, 8, 8), (6, 9, 4), (2, 1, 3)] {
            let a = Mat::uniform(m, n, 3);
            let b = Mat::uniform(k, n, 4);
            let c = matmul_tb(&a, &b);
            let expect = naive_matmul(&a, &b.transpose());
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "matmul_tb wrong at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn into_variants_reuse_storage() {
        let a = Mat::uniform(6, 4, 7);
        let b = Mat::uniform(4, 5, 8);
        let mut c = Mat::filled(6, 5, f64::NAN);
        matmul_into(&a, &b, &mut c);
        assert!(c.all_finite());
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
        // Reuse the same buffer for a second product.
        let a2 = Mat::uniform(6, 4, 9);
        matmul_into(&a2, &b, &mut c);
        assert!(c.max_abs_diff(&naive_matmul(&a2, &b)) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::uniform(9, 9, 10);
        assert!(matmul(&a, &Mat::eye(9)).max_abs_diff(&a) < 1e-15);
        assert!(matmul(&Mat::eye(9), &a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn mismatched_dims_panic() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        matmul(&a, &b);
    }

    #[test]
    fn dot_handles_remainders() {
        for n in 0..10 {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let y: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let expect: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot(&x, &y), expect);
        }
    }

    #[test]
    fn dot4_matches_four_dots() {
        for len in [5usize, 37, 64, 130] {
            let x = Mat::uniform(1, len, 11);
            let ys = Mat::uniform(4, len, 12);
            let (s0, s1, s2, s3) = dot4(x.row(0), ys.row(0), ys.row(1), ys.row(2), ys.row(3));
            for (got, j) in [(s0, 0), (s1, 1), (s2, 2), (s3, 3)] {
                assert!((got - dot(x.row(0), ys.row(j))).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn negative_zero_and_nan_propagate_through_edge_tiles() {
        // Edge tiles must not skip explicit zeros: a NaN in B must
        // poison the product even when the matching A entry is 0.0.
        let mut a = Mat::zeros(3, 2); // 3 rows → an MR edge tile
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        let mut b = Mat::zeros(2, 3); // 3 cols → NR edge tile
        b[(0, 0)] = f64::NAN;
        b[(1, 1)] = 2.0;
        let c = matmul(&a, &b);
        assert!(c[(0, 0)].is_nan(), "0.0·NaN must propagate, not be skipped");
        assert_eq!(c[(0, 1)], 2.0);
    }
}
