//! The row kernel behind [`nls_objective`](crate::nls_objective) and
//! BPP's monotonicity guard.
//!
//! The value is defined by the dense form: `X·Gᵀ` ([`nmf_matrix::matmul_tb`],
//! which takes each `(G·xᵢ)ⱼ` from one dispatched [`dot4`]/[`dot`] call)
//! followed by a running sum of `xᵢⱼ·(G·xᵢ)ⱼ − 2·xᵢⱼ·bᵢⱼ` over `(i, j)` in
//! row-major order. A row is computed one of two ways, with the same
//! bits:
//!
//! * **over its support `S`** (the nonzeros of `xᵢ`, or any superset):
//!   a term for each `j ∈ S`, with `(G·xᵢ)ⱼ` built from `S` alone in the
//!   order of the reduction the dense form calls: below `k = 32` the
//!   unfused sequential (`dot4`) or four-lane (`dot`) sums, from 32 on,
//!   on every host, one fused 4-lane step per 4-column block meeting `S`
//!   (`dot4_avx2`'s single accumulator, or `dot_avx2`'s four for a
//!   `k % 4` tail column), the horizontal sum `(l0 + l2) + (l1 + l3)`,
//!   then the unfused tail `t ≥ k − k % 4` (only the AVX2 path has this
//!   support form; the portable one sums such rows dense). Every product
//!   and term left out has a zero factor `xᵢₜ`, so it is a signed zero
//!   when its other factors are finite. Adding a signed zero can only
//!   flip the sign of a zero partial sum, and a zero's sign reaches the
//!   total only through a term that is itself zero; the running sum
//!   starts at `+0.0` and never becomes `-0.0` (an exact cancellation
//!   rounds to `+0.0`), so the total is unchanged. The other factors are
//!   finite when `G` is, when `bᵢ` is on the blocks meeting `S` and on
//!   `S`, and when `|xᵢₜ| ≤ f64::MAX / (2k·max|G|)` on `S`, so that no
//!   product or partial sum of `(G·xᵢ)ⱼ` overflows;
//! * **dense**: one [`dot4`] per 4-column block holding a nonzero, one
//!   [`dot`] per nonzero tail column, exactly the dense form's calls (it
//!   skips only all-zero blocks, whose terms are signed zeros for finite
//!   inputs). A row that fails the conditions above takes it, since `0·∞`
//!   is NaN there, and so does a row whose support holds more than a
//!   quarter of its `k` variables, or with `k > 128` (a support is a
//!   `u128` mask).

use nmf_matrix::gemm::{dot, dot4, dot_is_fused};
use nmf_matrix::{simd, Mat};

/// A row is summed over its support when the support holds at most
/// `1 / SUPPORT_SHARE` of the `k` variables; denser rows take the dense
/// `dot4` blocks. The support form takes `|S|` fused steps per block
/// meeting `S` where the dense one takes `k`, but it pays a horizontal
/// sum and an index per variable and keeps no four outputs in flight: on
/// DSYN/60 at `k = 32`, whose rows hold 17 to 32 variables, a whole
/// objective took 0.74 ms over the supports and 0.43 ms dense, and on
/// 256×192 dense inputs at `k = 8` the dense blocks won too (2-vCPU
/// x86-64, AVX2 kernels).
const SUPPORT_SHARE: usize = 4;

/// The widest support summed over: a quarter of the widest row a `u128`
/// mask holds.
const SUPPORT_MAX: usize = 128 / SUPPORT_SHARE;

/// What one read of a row found.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RowScan {
    /// Bit `j` set ⇔ `x_j ≠ 0` (NaN included).
    pub support: u128,
    /// Every entry is `≥ 0` (so no NaN).
    pub nonneg: bool,
}

/// Reads `xi` once, four entries at a time.
#[inline]
pub(crate) fn scan_row(xi: &[f64]) -> RowScan {
    let (mut support, mut nonneg) = (0u128, true);
    let mut quads = xi.chunks_exact(4);
    for (c, q) in quads.by_ref().enumerate() {
        let nz = u128::from(q[0] != 0.0)
            | u128::from(q[1] != 0.0) << 1
            | u128::from(q[2] != 0.0) << 2
            | u128::from(q[3] != 0.0) << 3;
        support |= nz << (4 * c);
        nonneg &= (q[0] >= 0.0) & (q[1] >= 0.0) & (q[2] >= 0.0) & (q[3] >= 0.0);
    }
    let base = xi.len() - quads.remainder().len();
    for (j, &v) in (base..).zip(quads.remainder()) {
        support |= u128::from(v != 0.0) << j;
        nonneg &= v >= 0.0;
    }
    RowScan { support, nonneg }
}

/// The objective's per-call state: `G`, which reductions the dense form
/// uses at this `k`, whether they have a support form on this path, and
/// the bound on `|x|` under which a row may be summed over its support.
pub(crate) struct RowObjective<'a> {
    gram: &'a Mat,
    fused: bool,
    support_form: bool,
    /// `f64::MAX / (2k·max|G|)` capped at `f64::MAX`; `-1.0` (no row
    /// qualifies) when `G` holds a non-finite entry.
    x_lim: f64,
}

impl<'a> RowObjective<'a> {
    pub(crate) fn new(gram: &'a Mat) -> Self {
        let k = gram.nrows();
        assert_eq!(gram.ncols(), k, "gram must be square");
        let (mut finite, mut g_max) = (true, 0.0f64);
        for &g in gram.as_slice() {
            finite &= g.is_finite();
            g_max = g_max.max(g.abs());
        }
        let x_lim = if finite {
            (f64::MAX / (g_max * (2 * k) as f64)).min(f64::MAX)
        } else {
            -1.0
        };
        let fused = dot_is_fused(k);
        RowObjective {
            gram,
            fused,
            support_form: !fused || simd::active() == simd::KernelPath::Avx2Fma,
            x_lim,
        }
    }

    /// The objective of row-major `r×k` slices; `support(i, xᵢ)` holds
    /// every nonzero of row `i` (and may hold zeros).
    pub(crate) fn sum(
        &self,
        ctb: &[f64],
        x: &[f64],
        support: impl Fn(usize, &[f64]) -> u128,
    ) -> f64 {
        let k = self.gram.nrows();
        let mut obj = 0.0;
        let rows = x.chunks_exact(k).zip(ctb.chunks_exact(k));
        for (i, (xi, bi)) in rows.enumerate() {
            obj = self.add_row(obj, xi, bi, support(i, xi));
        }
        obj
    }

    /// The running sum `obj` with row `xi`'s terms added; `support` holds
    /// every nonzero of `xi` (and may hold zeros; it is not read when
    /// `k > 128`). The sum travels by
    /// value: it is one dependency chain through every term.
    #[inline]
    pub(crate) fn add_row(&self, obj: f64, xi: &[f64], bi: &[f64], support: u128) -> f64 {
        if support == 0 {
            return obj;
        }
        let (f, k) = (support.count_ones() as usize, xi.len());
        if self.support_form && k <= 128 && SUPPORT_SHARE * f <= k {
            self.support_terms(obj, xi, bi, support)
        } else {
            self.dense_terms(obj, xi, bi)
        }
    }

    /// The dense form's calls: one `dot4` per 4-column block holding a
    /// nonzero, one `dot` per nonzero tail column.
    #[inline]
    fn dense_terms(&self, mut obj: f64, xi: &[f64], bi: &[f64]) -> f64 {
        let gram = self.gram;
        let k = xi.len();
        let k4 = k - k % 4;
        for j in (0..k4).step_by(4) {
            if xi[j..j + 4].iter().all(|&v| v == 0.0) {
                continue;
            }
            let (s0, s1, s2, s3) = dot4(
                xi,
                gram.row(j),
                gram.row(j + 1),
                gram.row(j + 2),
                gram.row(j + 3),
            );
            for (jj, s) in (j..).zip([s0, s1, s2, s3]) {
                obj += xi[jj] * s - 2.0 * xi[jj] * bi[jj];
            }
        }
        for jj in k4..k {
            if xi[jj] != 0.0 {
                obj += xi[jj] * dot(xi, gram.row(jj)) - 2.0 * xi[jj] * bi[jj];
            }
        }
        obj
    }

    /// The support's terms, or the dense ones where a term the support
    /// leaves out could be NaN (module docs).
    fn support_terms(&self, obj: f64, xi: &[f64], bi: &[f64], support: u128) -> f64 {
        let k = xi.len();
        let k4 = k - k % 4;
        // The 4-column blocks holding a support entry: bit `4c` for block `c`.
        let any = support | support >> 1 | support >> 2 | support >> 3;
        let below_k4 = 1u128.checked_shl(k4 as u32).map_or(u128::MAX, |b| b - 1);
        let block_mask = any & below_k4 & (u128::MAX / 15);
        let mut at = [0usize; SUPPORT_MAX];
        let mut blocks = [0usize; SUPPORT_MAX];
        let (at, blocks) = (fill(&mut at, support), fill(&mut blocks, block_mask));
        let finite = |b: &[f64]| b.iter().all(|v| v.is_finite());
        let exact = at
            .iter()
            .all(|&t| xi[t].abs() <= self.x_lim && bi[t].is_finite())
            && blocks.iter().all(|&b| finite(&bi[b..b + 4]));
        if !exact {
            return self.dense_terms(obj, xi, bi);
        }
        #[cfg(target_arch = "x86_64")]
        if self.fused {
            // SAFETY: a support is summed over at a fused `k` only on the
            // Avx2Fma path, where AVX2 and FMA support was detected;
            // `gram` is k×k, and `blocks` are the 4-column blocks below
            // `k4` that meet the support.
            return unsafe { fused_terms(self.gram, obj, xi, bi, at, blocks) };
        }
        plain_terms(self.gram, obj, xi, bi, at)
    }
}

/// The set bits of `mask`, ascending, in the front of `out`.
fn fill(out: &mut [usize; SUPPORT_MAX], mask: u128) -> &[usize] {
    let (mut n, mut left) = (0, mask);
    while left != 0 {
        out[n] = left.trailing_zeros() as usize;
        n += 1;
        left &= left - 1;
    }
    &out[..n]
}

/// Adds the terms of the support `at`, each `(G·xᵢ)ⱼ` summed in the lane
/// order of `dot4_avx2` (`dot_avx2` for a `k % 4` tail column): one fused
/// step per nonzero 4-column block `blocks`, whose zero entries add
/// signed zeros, the horizontal sum `(l0 + l2) + (l1 + l3)`, then the
/// unfused tail.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA, `gram` must be `k×k` for
/// `k = xi.len()`, and every block start must be a multiple of four
/// below `k − k % 4` (the loads read four entries from it).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fused_terms(
    gram: &Mat,
    mut obj: f64,
    xi: &[f64],
    bi: &[f64],
    at: &[usize],
    blocks: &[usize],
) -> f64 {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn hsum(v: __m256d) -> f64 {
        let s2 = _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
        _mm_cvtsd_f64(_mm_add_sd(s2, _mm_unpackhi_pd(s2, s2)))
    }
    let k = xi.len();
    let k4 = k - k % 4;
    let c16 = k - k % 16;
    let tail = &at[at.partition_point(|&t| t < k4)..];
    // Every block starts below `k4`, so its four entries are in the row.
    debug_assert!(blocks.iter().all(|&b| b + 4 <= k4));
    let xp = xi.as_ptr();
    for &j in at {
        let g = gram.row(j);
        let gp = g.as_ptr();
        let mut s = if j < k4 {
            let mut v = _mm256_setzero_pd();
            for &b in blocks {
                v = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(b)), _mm256_loadu_pd(gp.add(b)), v);
            }
            hsum(v)
        } else {
            // Four accumulators over 16-column chunks; the 4-column
            // steps past the last full chunk go to the first.
            let mut a = [_mm256_setzero_pd(); 4];
            for &b in blocks {
                let q = if b < c16 { b % 16 / 4 } else { 0 };
                a[q] =
                    _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(b)), _mm256_loadu_pd(gp.add(b)), a[q]);
            }
            hsum(_mm256_add_pd(
                _mm256_add_pd(a[0], a[1]),
                _mm256_add_pd(a[2], a[3]),
            ))
        };
        for &t in tail {
            s += xi[t] * g[t];
        }
        obj += xi[j] * s - 2.0 * xi[j] * bi[j];
    }
    obj
}

/// Adds the terms of the support `at`, each `(G·xᵢ)ⱼ` summed as the
/// scalar `dot4` does (one sequential sum), or `dot` for a `k % 4` tail
/// column (four lanes, then the tail).
fn plain_terms(gram: &Mat, mut obj: f64, xi: &[f64], bi: &[f64], at: &[usize]) -> f64 {
    let k = xi.len();
    let k4 = k - k % 4;
    let split = at.partition_point(|&t| t < k4);
    let (body, tail) = at.split_at(split);
    for &j in at {
        let g = gram.row(j);
        let s = if j < k4 {
            at.iter().fold(0.0, |s, &t| s + xi[t] * g[t])
        } else {
            let mut l = [0.0f64; 4];
            for &t in body {
                l[t % 4] += xi[t] * g[t];
            }
            tail.iter()
                .fold(l[0] + l[1] + l[2] + l[3], |s, &t| s + xi[t] * g[t])
        };
        obj += xi[j] * s - 2.0 * xi[j] * bi[j];
    }
    obj
}
