//! Runtime-dispatched SIMD microkernels (`std::arch`, AVX2 + FMA).
//!
//! The GEMM driver in [`gemm`](crate::gemm) is written against an
//! abstract `MR×NR` register microkernel that consumes a packed `B` tile
//! (see [`pack`](crate::pack)) and an `MR`-row panel of the left operand
//! addressed by a pointer plus a (row stride, depth stride) pair: `(1,
//! MR)` for packed panels, `(ld, 1)` for the rows of a row-major block
//! read in place. This module provides the two implementations and the
//! once-per-process choice between them:
//!
//! * [`kernel_6x8_avx2`] — a 6×8 `f64` microkernel using 256-bit
//!   AVX2 + FMA intrinsics: twelve `ymm` accumulators (6 rows × 2
//!   vectors of 4 lanes), two packed-`B` loads and six `A` broadcasts
//!   per inner-product step. Twelve independent FMA chains keep both
//!   FMA ports busy past the 4-5-cycle FMA latency.
//! * [`kernel_4x8_scalar`] — the portable fallback: a plain-Rust 4×8
//!   register microkernel over the same panel addressing, which LLVM
//!   autovectorizes to whatever the target baseline offers (SSE2 on
//!   x86-64).
//!
//! ## Dispatch
//!
//! [`active`] detects AVX2 + FMA once (`is_x86_feature_detected!`),
//! caches the decision in a `OnceLock`, and every GEMM call reads the
//! cached [`KernelCfg`]. Setting `NMF_FORCE_SCALAR=1` in the environment
//! before the first kernel call forces the scalar path — the hook the
//! forced-scalar CI job and the `forced_scalar` integration test use to
//! exercise the fallback on AVX2 hosts. Because the decision is cached,
//! the microkernel (and therefore the packed-panel geometry, which
//! depends on `MR`) never changes mid-process: packed operands built by
//! one call are always consumed by the same kernel family.
//!
//! The module also provides dispatched long-vector reductions
//! ([`dot`](crate::gemm::dot) / [`dot4`](crate::gemm::dot4) call into
//! [`dot_avx2`] / [`dot4_avx2`] above a length threshold).

use std::sync::OnceLock;

/// Columns of `C` produced per microkernel call (shared by both paths;
/// packed `B` tiles are `KC×NR`).
pub const NR: usize = 8;
/// Inner-dimension panel depth shared by packing and the drivers: a
/// `KC×NR` tile of `B` (16 KiB) sits comfortably in L1 while an `MR×KC`
/// panel of `A` streams beside it.
pub const KC: usize = 256;
/// `MR` of the AVX2 microkernel.
pub const MR_AVX2: usize = 6;
/// `MR` of the scalar fallback microkernel.
pub const MR_SCALAR: usize = 4;

/// Which microkernel family the process dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// 256-bit AVX2 + FMA 6×8 microkernel.
    Avx2Fma,
    /// Portable scalar 4×8 microkernel (autovectorized by LLVM).
    Scalar,
}

/// The cached dispatch decision: kernel path plus the register-block
/// geometry the packing layer must match.
#[derive(Clone, Copy, Debug)]
pub struct KernelCfg {
    pub path: KernelPath,
    /// Rows of `C` per microkernel call; packed `A` panels are `MR×KC`.
    pub mr: usize,
}

static ACTIVE: OnceLock<KernelCfg> = OnceLock::new();

fn detect() -> KernelCfg {
    let forced_scalar = std::env::var("NMF_FORCE_SCALAR")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false);
    #[cfg(target_arch = "x86_64")]
    {
        if !forced_scalar && is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            return KernelCfg {
                path: KernelPath::Avx2Fma,
                mr: MR_AVX2,
            };
        }
    }
    let _ = forced_scalar;
    KernelCfg {
        path: KernelPath::Scalar,
        mr: MR_SCALAR,
    }
}

/// The process-wide kernel configuration (detected once, then cached).
#[inline]
pub fn active() -> KernelCfg {
    *ACTIVE.get_or_init(detect)
}

/// Human-readable name of the active microkernel, for benchmark
/// methodology records and the forced-scalar test.
pub fn active_name() -> &'static str {
    match active().path {
        KernelPath::Avx2Fma => "avx2+fma-6x8",
        KernelPath::Scalar => "scalar-4x8",
    }
}

/// `C[0..mr_eff, 0..nr_eff] += A · PB` for one panel pair: `pa` points at
/// element `(0, 0)` of an `MR_AVX2×kc` panel of the left operand, whose
/// element `(r, d)` is `pa[r*rs + d*ds]` — `(rs, ds) = (1, MR_AVX2)` for
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
///   [`active`]`().path == KernelPath::Avx2Fma`.
/// * `pa` must be valid for reads at `r*rs + d*ds` for all
///   `r < MR_AVX2`, `d < kc`; `pb` must hold at least `NR*kc` elements.
/// * `c` must be valid for reads and writes at `r*ldc + t` for all
///   `r < mr_eff`, `t < nr_eff`, with `mr_eff ≤ MR_AVX2`, `nr_eff ≤ NR`.
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
    let mut acc: [[__m256d; 2]; MR_AVX2] = [[_mm256_setzero_pd(); 2]; MR_AVX2];
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
    if mr_eff == MR_AVX2 && nr_eff == NR {
        for (r, acc_r) in acc.iter().enumerate() {
            let cp = c.add(r * ldc);
            _mm256_storeu_pd(cp, _mm256_add_pd(_mm256_loadu_pd(cp), acc_r[0]));
            let cp4 = cp.add(4);
            _mm256_storeu_pd(cp4, _mm256_add_pd(_mm256_loadu_pd(cp4), acc_r[1]));
        }
    } else {
        // Edge tile: spill the register block and add the valid region.
        let mut tmp = [0.0f64; MR_AVX2 * NR];
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

/// Portable counterpart of [`kernel_6x8_avx2`] over `MR_SCALAR×kc`
/// panels addressed the same way (element `(r, d)` at `pa[r*rs + d*ds]`):
/// a 4×8 register block (32 accumulators — within what LLVM keeps in the
/// 16 SSE2 registers of baseline x86-64).
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn kernel_4x8_scalar(
    pa: &[f64],
    rs: usize,
    ds: usize,
    pb: &[f64],
    kc: usize,
    c: &mut [f64],
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    debug_assert!(pb.len() >= NR * kc);
    let mut acc = [[0.0f64; NR]; MR_SCALAR];
    for d in 0..kc {
        let ad: [f64; MR_SCALAR] = std::array::from_fn(|r| pa[r * rs + d * ds]);
        let bd: &[f64; NR] = pb[d * NR..d * NR + NR]
            .try_into()
            .expect("NR-wide packed B step");
        for (acc_r, &ar) in acc.iter_mut().zip(&ad) {
            for (av, &bv) in acc_r.iter_mut().zip(bd) {
                *av += ar * bv;
            }
        }
    }
    if mr_eff == MR_SCALAR && nr_eff == NR {
        for (r, acc_r) in acc.iter().enumerate() {
            let crow = &mut c[r * ldc..r * ldc + NR];
            for (cv, &av) in crow.iter_mut().zip(acc_r) {
                *cv += av;
            }
        }
    } else {
        for (r, acc_r) in acc.iter().enumerate().take(mr_eff) {
            let crow = &mut c[r * ldc..r * ldc + nr_eff];
            for (cv, &av) in crow.iter_mut().zip(acc_r) {
                *cv += av;
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_is_cached_and_consistent() {
        let first = active();
        let second = active();
        assert_eq!(first.path, second.path);
        assert_eq!(first.mr, second.mr);
        match first.path {
            KernelPath::Avx2Fma => assert_eq!(first.mr, MR_AVX2),
            KernelPath::Scalar => assert_eq!(first.mr, MR_SCALAR),
        }
    }

    #[test]
    fn scalar_kernel_matches_reference_on_packed_panels() {
        // 4×8 panel over kc=5: pa[d*4+r] = A[r][d], pb[d*8+t] = B[d][t].
        let kc = 5;
        let pa: Vec<f64> = (0..MR_SCALAR * kc).map(|i| (i % 7) as f64 - 3.0).collect();
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i % 5) as f64 * 0.5).collect();
        let mut c = vec![1.0f64; MR_SCALAR * NR];
        kernel_4x8_scalar(&pa, 1, MR_SCALAR, &pb, kc, &mut c, NR, MR_SCALAR, NR);
        for r in 0..MR_SCALAR {
            for t in 0..NR {
                let mut expect = 1.0;
                for d in 0..kc {
                    expect += pa[d * MR_SCALAR + r] * pb[d * NR + t];
                }
                assert!((c[r * NR + t] - expect).abs() < 1e-12);
            }
        }
        // The same panel read as rows of a row-major block (stride kc):
        // bit-identical output.
        let rows: Vec<f64> = (0..MR_SCALAR * kc)
            .map(|i| pa[(i % kc) * MR_SCALAR + i / kc])
            .collect();
        let mut c_rows = vec![1.0f64; MR_SCALAR * NR];
        kernel_4x8_scalar(&rows, kc, 1, &pb, kc, &mut c_rows, NR, MR_SCALAR, NR);
        assert_eq!(c_rows, c);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_scalar_reference() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return; // nothing to test on this host
        }
        let kc = 19;
        let pa: Vec<f64> = (0..MR_AVX2 * kc).map(|i| (i % 11) as f64 - 5.0).collect();
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i % 9) as f64 * 0.25).collect();
        for (mr_eff, nr_eff) in [(MR_AVX2, NR), (3, NR), (MR_AVX2, 5), (2, 3)] {
            let mut c = vec![0.5f64; MR_AVX2 * NR];
            unsafe {
                kernel_6x8_avx2(
                    pa.as_ptr(),
                    1,
                    MR_AVX2,
                    pb.as_ptr(),
                    kc,
                    c.as_mut_ptr(),
                    NR,
                    mr_eff,
                    nr_eff,
                );
            }
            // The same panel read as rows of a row-major block (stride
            // kc): bit-identical output.
            let rows: Vec<f64> = (0..MR_AVX2 * kc)
                .map(|i| pa[(i % kc) * MR_AVX2 + i / kc])
                .collect();
            let mut c_rows = vec![0.5f64; MR_AVX2 * NR];
            unsafe {
                kernel_6x8_avx2(
                    rows.as_ptr(),
                    kc,
                    1,
                    pb.as_ptr(),
                    kc,
                    c_rows.as_mut_ptr(),
                    NR,
                    mr_eff,
                    nr_eff,
                );
            }
            assert_eq!(c_rows, c);
            for r in 0..MR_AVX2 {
                for t in 0..NR {
                    let mut expect = 0.5;
                    if r < mr_eff && t < nr_eff {
                        for d in 0..kc {
                            expect += pa[d * MR_AVX2 + r] * pb[d * NR + t];
                        }
                    }
                    assert!(
                        (c[r * NR + t] - expect).abs() < 1e-12,
                        "mismatch at ({r},{t}) for clip {mr_eff}x{nr_eff}"
                    );
                }
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_dots_match_scalar() {
        if !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return;
        }
        for n in [0usize, 3, 16, 37, 64, 127] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
            let ys: Vec<Vec<f64>> = (0..4)
                .map(|s| (0..n).map(|i| ((i + s) as f64).cos()).collect())
                .collect();
            let reference: Vec<f64> = ys
                .iter()
                .map(|y| x.iter().zip(y).map(|(a, b)| a * b).sum())
                .collect();
            let d = unsafe { dot_avx2(&x, &ys[0]) };
            assert!((d - reference[0]).abs() < 1e-10 * (n.max(1) as f64));
            let (s0, s1, s2, s3) = unsafe { dot4_avx2(&x, &ys[0], &ys[1], &ys[2], &ys[3]) };
            for (got, want) in [s0, s1, s2, s3].iter().zip(&reference) {
                assert!((got - want).abs() < 1e-10 * (n.max(1) as f64));
            }
        }
    }
}
