//! Runtime-dispatched SIMD microkernels (`std::arch`, AVX2 + FMA).
//!
//! The GEMM driver in [`gemm`](crate::gemm) is written against an
//! abstract `MR×NR` register microkernel that consumes a packed `B` tile
//! (see [`pack`](crate::pack)) and an `MR`-row panel of the left operand
//! addressed by a pointer plus a (row stride, depth stride) pair: `(1,
//! MR)` for packed panels, `(ld, 1)` for the rows of a row-major block
//! read in place. This module provides the two implementations, which
//! give the same bits, and the once-per-process choice between them:
//!
//! * [`kernel_6x8_avx2`] — a 6×8 `f64` microkernel using 256-bit
//!   AVX2 + FMA intrinsics: twelve `ymm` accumulators (6 rows × 2
//!   vectors of 4 lanes), two packed-`B` loads and six `A` broadcasts
//!   per inner-product step. Twelve independent FMA chains keep both
//!   FMA ports busy past the 4-5-cycle FMA latency.
//! * [`kernel_6x8_scalar`] — the portable fallback: plain Rust over the
//!   same 6×8 block, adding each product with `mul_add` in the AVX2
//!   kernel's order.
//!
//! ## Dispatch
//!
//! [`active`] detects AVX2 + FMA once (`is_x86_feature_detected!`),
//! caches the decision in a `OnceLock`, and every GEMM call reads it.
//! Setting `NMF_FORCE_SCALAR=1` in the environment before the first
//! kernel call forces the portable path — the hook the forced-scalar CI
//! job and the `forced_scalar` integration test use to exercise the
//! fallback on AVX2 hosts. The reductions behind [`dot`](crate::gemm::dot)
//! and [`dot4`](crate::gemm::dot4) from 32 elements on come in the same
//! two copies: [`dot_avx2`] / [`dot4_avx2`] and [`dot_fused`] / [`dot4_fused`].

use std::sync::OnceLock;

/// Columns of `C` produced per microkernel call (shared by both paths;
/// packed `B` tiles are `KC×NR`).
pub const NR: usize = 8;
/// Inner-dimension panel depth shared by packing and the drivers: a
/// `KC×NR` tile of `B` (16 KiB) sits comfortably in L1 while an `MR×KC`
/// panel of `A` streams beside it.
pub const KC: usize = 256;
/// Rows of `C` per microkernel call; packed `A` panels are `MR×KC`.
pub const MR: usize = 6;

/// Which microkernel family the process dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// 256-bit AVX2 + FMA intrinsics.
    Avx2Fma,
    /// Portable Rust with the same bits.
    Scalar,
}

static ACTIVE: OnceLock<KernelPath> = OnceLock::new();

fn detect() -> KernelPath {
    let forced_scalar = std::env::var("NMF_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    #[cfg(target_arch = "x86_64")]
    {
        if !forced_scalar && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return KernelPath::Avx2Fma;
        }
    }
    let _ = forced_scalar;
    KernelPath::Scalar
}

/// The process-wide kernel path (detected once, then cached).
#[inline]
pub fn active() -> KernelPath {
    *ACTIVE.get_or_init(detect)
}

/// Human-readable name of the active microkernel, for benchmark
/// methodology records and the forced-scalar test.
pub fn active_name() -> &'static str {
    match active() {
        KernelPath::Avx2Fma => "avx2+fma-6x8",
        KernelPath::Scalar => "scalar-6x8",
    }
}

/// Runs `$body`, an `#[inline(always)]` portable body, compiled with FMA
/// where the CPU has it so that `mul_add` is one instruction, and plain
/// elsewhere, where it is libm's `fma`: the same bits, ~14× slower.
macro_rules! with_fma {
    ($body:ident($($arg:ident: $ty:ty),*) -> $ret:ty) => {{
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("fma") {
            #[target_feature(enable = "fma")]
            unsafe fn fma($($arg: $ty),*) -> $ret {
                $body($($arg),*)
            }
            // SAFETY: the CPU has FMA; `$body`'s own contract is the caller's.
            return unsafe { fma($($arg),*) };
        }
        $body($($arg),*)
    }};
}

/// `C[0..mr_eff, 0..nr_eff] += A · PB` for one panel pair: `pa` points at
/// element `(0, 0)` of an `MR×kc` panel of the left operand, whose
/// element `(r, d)` is `pa[r*rs + d*ds]` — `(rs, ds) = (1, MR)` for
/// a [`PackedPanels`](crate::PackedPanels) panel, `(ld, 1)` for rows of a
/// row-major block read in place. `pb` is a `kc×NR` packed `B` tile
/// (`pb[d*NR + t]`), `c` the top-left element of the output tile with
/// row stride `ldc`. Rows ≥ `mr_eff` / columns ≥ `nr_eff` of the register
/// tile are computed but not stored. The strides change only where each
/// `A` element is loaded from: every output element's FMA chain is the
/// same for both operand forms.
///
/// # Safety
///
/// * The caller must have verified AVX2 and FMA support (this function
///   is `#[target_feature]`-compiled); call only when
///   [`active`]`() == KernelPath::Avx2Fma`.
/// * `pa` must be valid for reads at `r*rs + d*ds` for all
///   `r < MR`, `d < kc`; `pb` must hold at least `NR*kc` elements.
/// * `c` must be valid for reads and writes at `r*ldc + t` for all
///   `r < mr_eff`, `t < nr_eff`, with `mr_eff ≤ MR`, `nr_eff ≤ NR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
#[allow(clippy::too_many_arguments)]
pub unsafe fn kernel_6x8_avx2(
    pa: *const f64,
    rs: usize,
    ds: usize,
    pb: *const f64,
    kc: usize,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    use std::arch::x86_64::*;
    let mut acc: [[__m256d; 2]; MR] = [[_mm256_setzero_pd(); 2]; MR];
    let mut pa = pa;
    let mut pb = pb;
    // Two inner-product steps per trip: halves the loop overhead and
    // gives the prefetcher a longer window on the streamed panels. The
    // row loops are fully unrolled by LLVM (constant trip count): six
    // broadcasts feeding twelve independent FMA chains per step.
    let paired = kc / 2;
    for _ in 0..paired {
        _mm_prefetch(pb.cast::<i8>().add(16 * NR), _MM_HINT_T0);
        let b0 = _mm256_loadu_pd(pb);
        let b1 = _mm256_loadu_pd(pb.add(4));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_pd(*pa.add(r * rs));
            acc_r[0] = _mm256_fmadd_pd(ar, b0, acc_r[0]);
            acc_r[1] = _mm256_fmadd_pd(ar, b1, acc_r[1]);
        }
        pa = pa.add(ds);
        let c0 = _mm256_loadu_pd(pb.add(NR));
        let c1 = _mm256_loadu_pd(pb.add(NR + 4));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_pd(*pa.add(r * rs));
            acc_r[0] = _mm256_fmadd_pd(ar, c0, acc_r[0]);
            acc_r[1] = _mm256_fmadd_pd(ar, c1, acc_r[1]);
        }
        pa = pa.add(ds);
        pb = pb.add(2 * NR);
    }
    if kc % 2 == 1 {
        let b0 = _mm256_loadu_pd(pb);
        let b1 = _mm256_loadu_pd(pb.add(4));
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_pd(*pa.add(r * rs));
            acc_r[0] = _mm256_fmadd_pd(ar, b0, acc_r[0]);
            acc_r[1] = _mm256_fmadd_pd(ar, b1, acc_r[1]);
        }
    }
    if mr_eff == MR && nr_eff == NR {
        for (r, acc_r) in acc.iter().enumerate() {
            let cp = c.add(r * ldc);
            _mm256_storeu_pd(cp, _mm256_add_pd(_mm256_loadu_pd(cp), acc_r[0]));
            let cp4 = cp.add(4);
            _mm256_storeu_pd(cp4, _mm256_add_pd(_mm256_loadu_pd(cp4), acc_r[1]));
        }
    } else {
        // Edge tile: spill the register block and add the valid region.
        let mut tmp = [0.0f64; MR * NR];
        for (r, acc_r) in acc.iter().enumerate() {
            _mm256_storeu_pd(tmp.as_mut_ptr().add(r * NR), acc_r[0]);
            _mm256_storeu_pd(tmp.as_mut_ptr().add(r * NR + 4), acc_r[1]);
        }
        for r in 0..mr_eff {
            for t in 0..nr_eff {
                *c.add(r * ldc + t) += tmp[r * NR + t];
            }
        }
    }
}

/// Portable [`kernel_6x8_avx2`], with its bits: each accumulator starts
/// at zero, adds `a·b` fused in depth order, and is added to `C` once.
///
/// # Safety
/// The pointer contract of [`kernel_6x8_avx2`]; any CPU will do.
#[allow(clippy::too_many_arguments)]
pub unsafe fn kernel_6x8_scalar(
    pa: *const f64,
    rs: usize,
    ds: usize,
    pb: *const f64,
    kc: usize,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    with_fma!(kernel_6x8_body(pa: *const f64, rs: usize, ds: usize, pb: *const f64,
        kc: usize, c: *mut f64, ldc: usize, mr_eff: usize, nr_eff: usize) -> ())
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn kernel_6x8_body(
    pa: *const f64,
    rs: usize,
    ds: usize,
    pb: *const f64,
    kc: usize,
    c: *mut f64,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f64; NR]; MR];
    for d in 0..kc {
        let bd = &*pb.add(d * NR).cast::<[f64; NR]>();
        for (r, acc_r) in acc.iter_mut().enumerate() {
            let ar = *pa.add(r * rs + d * ds);
            for (av, &bv) in acc_r.iter_mut().zip(bd) {
                *av = ar.mul_add(bv, *av);
            }
        }
    }
    for (r, acc_r) in acc.iter().enumerate().take(mr_eff) {
        for (t, &av) in acc_r.iter().enumerate().take(nr_eff) {
            *c.add(r * ldc + t) += av;
        }
    }
}

/// AVX2 + FMA dot product: four vector accumulators (16 lanes in
/// flight), horizontally reduced once at the end.
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support (dispatch through
/// [`active`]). `x` and `y` must have equal lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot_avx2(x: &[f64], y: &[f64]) -> f64 {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), y.len());
    let n = x.len();
    let xp = x.as_ptr();
    let yp = y.as_ptr();
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    let mut a2 = _mm256_setzero_pd();
    let mut a3 = _mm256_setzero_pd();
    let chunks = n / 16;
    for cidx in 0..chunks {
        let i = cidx * 16;
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), a0);
        a1 = _mm256_fmadd_pd(
            _mm256_loadu_pd(xp.add(i + 4)),
            _mm256_loadu_pd(yp.add(i + 4)),
            a1,
        );
        a2 = _mm256_fmadd_pd(
            _mm256_loadu_pd(xp.add(i + 8)),
            _mm256_loadu_pd(yp.add(i + 8)),
            a2,
        );
        a3 = _mm256_fmadd_pd(
            _mm256_loadu_pd(xp.add(i + 12)),
            _mm256_loadu_pd(yp.add(i + 12)),
            a3,
        );
    }
    let mut i = chunks * 16;
    while i + 4 <= n {
        a0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), a0);
        i += 4;
    }
    let v = _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
    let hi = _mm256_extractf128_pd(v, 1);
    let lo = _mm256_castpd256_pd128(v);
    let s2 = _mm_add_pd(lo, hi);
    let s1 = _mm_add_sd(s2, _mm_unpackhi_pd(s2, s2));
    let mut s = _mm_cvtsd_f64(s1);
    for j in i..n {
        s += *xp.add(j) * *yp.add(j);
    }
    s
}

/// AVX2 + FMA quad dot product sharing the left operand: `x` streams
/// once against four right operands (one accumulator vector each).
///
/// # Safety
///
/// The caller must have verified AVX2 and FMA support (dispatch through
/// [`active`]). All five slices must have equal lengths.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
pub unsafe fn dot4_avx2(
    x: &[f64],
    y0: &[f64],
    y1: &[f64],
    y2: &[f64],
    y3: &[f64],
) -> (f64, f64, f64, f64) {
    use std::arch::x86_64::*;
    debug_assert!(
        x.len() == y0.len() && x.len() == y1.len() && x.len() == y2.len() && x.len() == y3.len()
    );
    let n = x.len();
    let xp = x.as_ptr();
    let mut a0 = _mm256_setzero_pd();
    let mut a1 = _mm256_setzero_pd();
    let mut a2 = _mm256_setzero_pd();
    let mut a3 = _mm256_setzero_pd();
    let chunks = n / 4;
    for cidx in 0..chunks {
        let i = cidx * 4;
        let xv = _mm256_loadu_pd(xp.add(i));
        a0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y0.as_ptr().add(i)), a0);
        a1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y1.as_ptr().add(i)), a1);
        a2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y2.as_ptr().add(i)), a2);
        a3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(y3.as_ptr().add(i)), a3);
    }
    #[inline]
    unsafe fn hsum(v: std::arch::x86_64::__m256d) -> f64 {
        let hi = _mm256_extractf128_pd(v, 1);
        let lo = _mm256_castpd256_pd128(v);
        let s2 = _mm_add_pd(lo, hi);
        _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)))
    }
    let (mut s0, mut s1, mut s2, mut s3) = (hsum(a0), hsum(a1), hsum(a2), hsum(a3));
    for i in chunks * 4..n {
        let xv = *xp.add(i);
        s0 += xv * y0[i];
        s1 += xv * y1[i];
        s2 += xv * y2[i];
        s3 += xv * y3[i];
    }
    (s0, s1, s2, s3)
}

/// Portable [`dot_avx2`], with its bits: four 4-lane accumulators over
/// 16-wide chunks, the 4-wide steps after them into the first,
/// `(a0 + a1) + (a2 + a3)`, the horizontal sum, then the unfused tail.
pub fn dot_fused(x: &[f64], y: &[f64]) -> f64 {
    with_fma!(dot_body(x: &[f64], y: &[f64]) -> f64)
}

/// Portable [`dot4_avx2`], with its bits: one 4-lane accumulator per
/// output over 4-wide steps, the horizontal sum, then the unfused tail.
pub fn dot4_fused(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    with_fma!(dot4_body(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4])
}

#[inline(always)]
fn dot_body(x: &[f64], y: &[f64]) -> f64 {
    let (n, y) = (x.len(), &y[..x.len()]);
    let (mut a, mut i) = ([[0.0f64; 4]; 4], 0);
    while i + 16 <= n {
        for (q, a_q) in a.iter_mut().enumerate() {
            fma4(a_q, &x[i + 4 * q..], &y[i + 4 * q..]);
        }
        i += 16;
    }
    while i + 4 <= n {
        fma4(&mut a[0], &x[i..], &y[i..]);
        i += 4;
    }
    finish(
        std::array::from_fn(|l| (a[0][l] + a[1][l]) + (a[2][l] + a[3][l])),
        x,
        y,
        i,
    )
}

#[inline(always)]
fn dot4_body(x: &[f64], ys: [&[f64]; 4]) -> [f64; 4] {
    let (ys, mut a, mut i) = (ys.map(|y| &y[..x.len()]), [[0.0f64; 4]; 4], 0);
    while i + 4 <= x.len() {
        for (a_j, y) in a.iter_mut().zip(ys) {
            fma4(a_j, &x[i..], &y[i..]);
        }
        i += 4;
    }
    std::array::from_fn(|j| finish(a[j], x, ys[j], i))
}

/// `acc[l] = x[l]·y[l] + acc[l]`, fused, for the four lanes.
#[inline(always)]
fn fma4(acc: &mut [f64; 4], x: &[f64], y: &[f64]) {
    let (x, y) = (&x[..4], &y[..4]);
    acc[0] = x[0].mul_add(y[0], acc[0]);
    acc[1] = x[1].mul_add(y[1], acc[1]);
    acc[2] = x[2].mul_add(y[2], acc[2]);
    acc[3] = x[3].mul_add(y[3], acc[3]);
}

/// The horizontal sum `(l0 + l2) + (l1 + l3)`, then the unfused tail from `i`.
#[inline(always)]
fn finish([l0, l1, l2, l3]: [f64; 4], x: &[f64], y: &[f64], i: usize) -> f64 {
    (i..x.len()).fold((l0 + l2) + (l1 + l3), |s, j| s + x[j] * y[j])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_cached_and_consistent() {
        assert_eq!(active(), active());
        assert_eq!(ACTIVE.get(), Some(&detect()));
    }

    /// `0.5 + A·B` on an `MR×NR` tile clipped to `clip`, as bits, by the
    /// AVX2 kernel or the portable one, reading `A` at strides `(rs, ds)`.
    fn tile(
        avx2: bool,
        a: &[f64],
        (rs, ds): (usize, usize),
        pb: &[f64],
        clip: (usize, usize),
    ) -> Vec<u64> {
        let (kc, mut c) = (pb.len() / NR, vec![0.5f64; MR * NR]);
        let kernel = match avx2 {
            #[cfg(target_arch = "x86_64")]
            true => kernel_6x8_avx2,
            _ => kernel_6x8_scalar,
        };
        // SAFETY: AVX2 is asked for only where AVX2 and FMA were detected;
        // `a` holds an MR×kc panel at (rs, ds), `pb` a kc×NR tile.
        unsafe {
            kernel(
                a.as_ptr(),
                rs,
                ds,
                pb.as_ptr(),
                kc,
                c.as_mut_ptr(),
                NR,
                clip.0,
                clip.1,
            )
        };
        bits(&c)
    }

    #[test]
    fn scalar_kernel_matches_reference_on_packed_panels() {
        // 6×8 panel over kc=5: pa[d*6+r] = A[r][d], pb[d*8+t] = B[d][t].
        // Small multiples of 0.5, so every sum is exact.
        let kc = 5;
        let pa: Vec<f64> = (0..MR * kc).map(|i| (i % 7) as f64 - 3.0).collect();
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i % 5) as f64 * 0.5).collect();
        let want: Vec<f64> = (0..MR * NR)
            .map(|i| (0..kc).fold(0.5, |s, d| s + pa[d * MR + i / NR] * pb[d * NR + i % NR]))
            .collect();
        assert_eq!(tile(false, &pa, (1, MR), &pb, (MR, NR)), bits(&want));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_scalar_reference() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return; // nothing to test on this host
        }
        for kc in [1, 19, 256] {
            // A panel (strides (1, MR)) and the same panel as the rows of
            // a row-major block (strides (kc, 1)).
            let pa: Vec<f64> = (0..MR * kc).map(|i| (i as f64 * 0.37).sin()).collect();
            let pb: Vec<f64> = (0..NR * kc).map(|i| (i as f64 * 0.91).cos()).collect();
            let rows: Vec<f64> = (0..MR * kc).map(|i| pa[(i % kc) * MR + i / kc]).collect();
            for clip in [(MR, NR), (3, NR), (1, NR), (MR, 5), (2, 3)] {
                for (a, strides) in [(&pa, (1, MR)), (&rows, (kc, 1))] {
                    assert_eq!(
                        tile(true, a, strides, &pb, clip),
                        tile(false, a, strides, &pb, clip),
                        "kc {kc}, clip {clip:?}, strides {strides:?}"
                    );
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dots_match_scalar() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        for n in [
            0usize, 3, 4, 16, 31, 32, 33, 37, 64, 65, 127, 128, 1000, 31_250,
        ] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let ys: Vec<Vec<f64>> = (0..4)
                .map(|s| (0..n).map(|i| ((i + s) as f64).cos()).collect())
                .collect();
            let (y0, y1, y2, y3) = (&ys[0], &ys[1], &ys[2], &ys[3]);
            // SAFETY: AVX2 and FMA were detected above; all lengths are n.
            let (d, quad) = unsafe { (dot_avx2(&x, y0), dot4_avx2(&x, y0, y1, y2, y3)) };
            assert_eq!(dot_fused(&x, y0).to_bits(), d.to_bits(), "dot, n = {n}");
            let portable = dot4_fused(&x, [y0, y1, y2, y3]);
            assert_eq!(
                bits(&portable),
                bits(&<[f64; 4]>::from(quad)),
                "dot4, n = {n}"
            );
        }
    }
}
