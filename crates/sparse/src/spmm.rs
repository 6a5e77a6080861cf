//! Sparse × tall-dense multiply kernels (the `MM` task for sparse inputs).
//!
//! The two products the algorithms need are `A·Hᵀ` (for the `W` update)
//! and `WᵀA` (for the `H` update). Both are computed here with the dense
//! operand and output held in a "k-contiguous" layout — every logical
//! column of the k-dimensional factor is a contiguous row — cut into
//! column slabs of 32, 16, 8, 4, 2 and 1, widest first, held in registers:
//!
//! * [`spmm_dense_t`]: `V = A·Bᵀ` with `B` given as `Bt` (`n×k`), output
//!   `m×k`. Used as `V = A·Hᵀ` with `Ht`. A slab of output row `i` sums
//!   row `i`'s gathered `Bt` rows and is stored once.
//! * [`spmm_at_dense`]: `Y = Aᵀ·W` (`n×k`) for `W` of shape `m×k`. `WᵀA`
//!   is its transpose; the algorithms keep the `n×k` layout throughout and
//!   only reinterpret, never physically transpose. A slab of `W`'s row
//!   `i` is loaded once and scattered into `Y` by row `i`'s nonzeros.
//!
//! Each kernel prefetches the row it gathers or scatters eight nonzeros
//! ahead and performs `2·nnz(A)·k` flops, the count the paper uses for
//! sparse inputs. `A` is a [`CsrRef`] — a whole [`Csr`](crate::Csr)
//! (`&Csr` converts) or a window of one read in place — and every output
//! element sums the same products in nonzero order from `+0.0`, never
//! fused, so a window and the extracted block, and the portable and AVX2
//! copies, give the same bits.

use crate::csc::CscView;
use crate::csr::CsrRef;
use nmf_matrix::Mat;

/// Runs `$body` — an `#[inline(always)]` kernel taking the listed
/// arguments — compiled for AVX2 where the GEMM dispatch chose its AVX2
/// path (`simd::active`, so `NMF_FORCE_SCALAR=1` pins the portable
/// copy), and as portable code elsewhere. FMA is not enabled: both
/// copies multiply and add separately, so they give the same bits.
macro_rules! on_kernel_path {
    ($body:ident($($arg:ident: $ty:ty),*)) => {{
        #[cfg(target_arch = "x86_64")]
        if nmf_matrix::simd::active() == nmf_matrix::simd::KernelPath::Avx2Fma {
            #[target_feature(enable = "avx2")]
            fn avx2($($arg: $ty),*) {
                $body($($arg),*)
            }
            // SAFETY: the `Avx2Fma` path means the detector saw AVX2.
            return unsafe { avx2($($arg),*) };
        }
        $body($($arg),*)
    }};
}

/// Calls `$slab::<W>(q0, ..)` on consecutive column slabs `q0..q0 + W`
/// of `0..$k`, widest first, for `W` in 32, 16, 8, 4, 2 and 1; each
/// slab function returns its `W`.
macro_rules! for_each_slab {
    ($k:expr, $slab:ident($($arg:expr),*)) => {{
        let k = $k;
        let mut q0 = 0;
        while q0 < k {
            q0 += match k - q0 {
                32.. => $slab::<32>(q0, $($arg),*),
                16.. => $slab::<16>(q0, $($arg),*),
                8.. => $slab::<8>(q0, $($arg),*),
                4.. => $slab::<4>(q0, $($arg),*),
                2.. => $slab::<2>(q0, $($arg),*),
                _ => $slab::<1>(q0, $($arg),*),
            };
        }
    }};
}

/// `V = A·Bᵀ` where `A` is `m×n` sparse and `Bt` is `n×k` dense
/// (i.e. `B` is `k×n`). Output is `m×k`.
pub fn spmm_dense_t<'a>(a: impl Into<CsrRef<'a>>, bt: &Mat) -> Mat {
    let a = a.into();
    let mut v = Mat::zeros(a.nrows(), bt.ncols());
    spmm_dense_t_into(a, bt, &mut v);
    v
}

/// `V = A·Bᵀ` into caller-owned `v` (overwritten).
pub fn spmm_dense_t_into<'a>(a: impl Into<CsrRef<'a>>, bt: &Mat, v: &mut Mat) {
    let a = a.into();
    assert_eq!(
        a.ncols(),
        bt.nrows(),
        "spmm_dense_t inner dimension mismatch"
    );
    assert_eq!(
        v.shape(),
        (a.nrows(), bt.ncols()),
        "spmm_dense_t output shape mismatch"
    );
    v.as_mut_slice().fill(0.0);
    on_kernel_path!(a_ht_rows(a: CsrRef<'_>, bt: &Mat, v: &mut Mat));
}

/// The `A·Hᵀ` body: one [`gather`] per row of `A`.
#[inline(always)]
fn a_ht_rows(a: CsrRef<'_>, bt: &Mat, v: &mut Mat) {
    let c0 = a.col_offset();
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        gather(v.row_mut(i), bt.as_slice(), cols, c0, |t| vals[t]);
    }
}

/// `Y = Aᵀ·W` where `A` is `m×n` sparse and `W` is `m×k` dense.
/// Output is `n×k` (the transpose of `WᵀA`).
pub fn spmm_at_dense<'a>(a: impl Into<CsrRef<'a>>, w: &Mat) -> Mat {
    let a = a.into();
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    spmm_at_dense_into(a, w, &mut y);
    y
}

/// `Y = Aᵀ·W` into caller-owned `y` (overwritten).
pub fn spmm_at_dense_into<'a>(a: impl Into<CsrRef<'a>>, w: &Mat, y: &mut Mat) {
    let a = a.into();
    assert_eq!(
        a.nrows(),
        w.nrows(),
        "spmm_at_dense inner dimension mismatch"
    );
    assert_eq!(
        y.shape(),
        (a.ncols(), w.ncols()),
        "spmm_at_dense output shape mismatch"
    );
    y.as_mut_slice().fill(0.0);
    on_kernel_path!(at_w_rows(a: CsrRef<'_>, w: &Mat, y: &mut Mat));
}

/// The `Aᵀ·W` body: row `i` of `A` scatters `W`'s row `i`, slab by slab.
#[inline(always)]
fn at_w_rows(a: CsrRef<'_>, w: &Mat, y: &mut Mat) {
    let (k, c0) = (w.ncols(), a.col_offset());
    let y = y.as_mut_slice();
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        for_each_slab!(k, scatter_slab(y, w.row(i), cols, vals, c0));
    }
}

/// `Y = Aᵀ·W` via the column view: the forward-traversal kernel.
///
/// The CSR pass above scatters into a different output row per visited
/// nonzero; here each output row `y[j]` is accumulated start to finish
/// while column `j`'s nonzeros stream — the [`spmm_dense_t_into`] body,
/// with each value found through `src` — so the output is written with
/// perfect locality and only the `W` reads hop. Values are read through
/// the view's shared-ordering positions — no second copy of the payload
/// exists.
///
/// **Bit-for-bit identical** to [`spmm_at_dense_into`]: for a fixed
/// output row `j`, both kernels add the contributions of rows
/// `i₀ < i₁ < …` in the same ascending order ([`CscView::from_csr`]
/// preserves row order within each column), so every intermediate sum
/// is the same float — including `-0.0` and NaN propagation. The
/// property tests in `tests/csc_props.rs` assert this at the bit level.
pub fn spmm_at_dense_csc_into<'a>(a: impl Into<CsrRef<'a>>, csc: &CscView, w: &Mat, y: &mut Mat) {
    let a = a.into();
    assert_eq!(
        a.nrows(),
        w.nrows(),
        "spmm_at_dense_csc inner dimension mismatch"
    );
    assert_eq!(
        y.shape(),
        (a.ncols(), w.ncols()),
        "spmm_at_dense_csc output shape mismatch"
    );
    debug_assert!(csc.matches(a), "CSC view does not index this block");
    y.as_mut_slice().fill(0.0);
    if w.ncols() == 0 {
        return;
    }
    let vals = a.values();
    on_kernel_path!(csc_panels(csc: &CscView, vals: &[f64], w: &Mat, y: &mut Mat));
}

/// The CSC body: one [`gather`] per column segment of each row panel.
#[inline(always)]
fn csc_panels(csc: &CscView, vals: &[f64], w: &Mat, y: &mut Mat) {
    // Row-panel blocking: restrict each sweep over the columns to the
    // rows of one panel, sized so the panel's slice of `W` (the
    // gathered operand) stays L2-resident. The value gathers then land
    // in one contiguous `nnz(panel)`-sized window of the CSR values
    // array, and each touched output row absorbs all of the panel's
    // contributions in a single visit instead of one scattered
    // read-modify-write per nonzero. Per-column cursors advance
    // monotonically, so every index element is streamed exactly once
    // across all panels (the cursor vector is the only scratch — one
    // `ncols`-word allocation per call, trivial next to the product).
    //
    // Bit-identity with the CSR transposed pass is preserved: panels
    // are visited in ascending row order and rows ascend within each
    // column of a panel, so output row `j` still accumulates rows
    // `i₀ < i₁ < …` in exactly the same order.
    let (m, k) = w.shape();
    let panel_rows = (csc_panel_bytes() / (8 * k)).max(1);
    let mut cur = vec![0usize; csc.ncols()];
    let mut r0 = 0;
    while r0 < m {
        let r1 = (r0 + panel_rows).min(m);
        for (j, t) in cur.iter_mut().enumerate() {
            let (rows, src) = csc.col(j);
            let (rows, src) = (&rows[*t..], &src[*t..]);
            let len = rows.partition_point(|&i| i < r1);
            if len > 0 {
                // The values are gathered too (`src` ascends sparsely):
                // prefetch them the same distance ahead as the `W` rows.
                let val = |s: usize| {
                    if let Some(&p) = src.get(s + PREFETCH_DIST) {
                        prefetch_slab::<1>(vals, p);
                    }
                    vals[src[s]]
                };
                gather(y.row_mut(j), w.as_slice(), &rows[..len], 0, val);
                *t += len;
            }
        }
        r0 = r1;
    }
}

/// `dst[q] += Σₜ val(t) · b[(rows[t] − shift)·k + q]` for every `q`,
/// with `k = dst.len()`: the `A·Hᵀ` row and the CSC column body.
#[inline(always)]
fn gather(dst: &mut [f64], b: &[f64], rows: &[usize], shift: usize, val: impl Fn(usize) -> f64) {
    for_each_slab!(dst.len(), gather_slab(dst, b, rows, shift, &val));
}

/// One `W`-wide slab of [`gather`]: the slab's sums stay in registers
/// across all of the nonzeros, loaded and stored once.
#[inline(always)]
fn gather_slab<const W: usize>(
    q0: usize,
    dst: &mut [f64],
    b: &[f64],
    rows: &[usize],
    shift: usize,
    val: &impl Fn(usize) -> f64,
) -> usize {
    let k = dst.len();
    let out = &mut dst[q0..q0 + W];
    let mut acc: [f64; W] = (&*out).try_into().expect("a W-wide slab");
    for (t, &r) in rows.iter().enumerate() {
        if let Some(&ahead) = rows.get(t + PREFETCH_DIST) {
            prefetch_slab::<W>(b, (ahead - shift) * k + q0);
        }
        let x = val(t);
        for (s, &bq) in acc.iter_mut().zip(&b[(r - shift) * k + q0..][..W]) {
            *s += x * bq;
        }
    }
    out.copy_from_slice(&acc);
    W
}

/// One `W`-wide slab of the `Aᵀ·W` row pass: `y[(cols[t] − shift)·k +
/// q] += vals[t] · wr[q]` for `q` in the slab, with the slab of `W`'s
/// row `wr` loaded once.
#[inline(always)]
fn scatter_slab<const W: usize>(
    q0: usize,
    y: &mut [f64],
    wr: &[f64],
    cols: &[usize],
    vals: &[f64],
    shift: usize,
) -> usize {
    let k = wr.len();
    let w: [f64; W] = wr[q0..q0 + W].try_into().expect("a W-wide slab");
    for (t, (&j, &x)) in cols.iter().zip(vals).enumerate() {
        if let Some(&ahead) = cols.get(t + PREFETCH_DIST) {
            prefetch_slab::<W>(y, (ahead - shift) * k + q0);
        }
        for (o, &wq) in y[(j - shift) * k + q0..][..W].iter_mut().zip(&w) {
            *o += x * wq;
        }
    }
    W
}

/// Hints the `W`-wide slab at `s[at..]` into L1, one prefetch per
/// 64-byte line; no-op off x86-64.
#[inline(always)]
fn prefetch_slab<const W: usize>(s: &[f64], at: usize) {
    #[cfg(target_arch = "x86_64")]
    for l in (0..W).step_by(8) {
        // SAFETY: a prefetch has no memory effects and never faults;
        // the pointer is only computed (wrapping), not dereferenced.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(s.as_ptr().wrapping_add(at + l).cast::<i8>(), _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (s, at);
}

/// Target footprint of one row panel's `W` slice: half of the probed
/// L2 (leaving room for the output rows and index streams), or half of
/// a typical 2 MiB L2 when the probe is unavailable. Resolved once.
/// Panel height only regroups the accumulation — identical products
/// added in identical order — so every float is unchanged under any
/// value (the bit-identity property tests run regardless of what this
/// returns).
fn csc_panel_bytes() -> usize {
    static TARGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *TARGET.get_or_init(|| cache_bytes("index2").map_or(1 << 20, |l2| (l2 / 2).max(4 << 10)))
}

/// How many nonzeros ahead the kernels prefetch the row they gather or
/// scatter. At a few ns of slab work per nonzero this covers L2/L3 hit
/// latency without thrashing L1.
const PREFETCH_DIST: usize = 8;

/// Allocating wrapper over [`spmm_at_dense_csc_into`].
pub fn spmm_at_dense_csc<'a>(a: impl Into<CsrRef<'a>>, csc: &CscView, w: &Mat) -> Mat {
    let a = a.into();
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    spmm_at_dense_csc_into(a, csc, w, &mut y);
    y
}

/// `Y = Aᵀ·W` choosing the traversal orientation by output size.
///
/// The two kernels are bit-identical, so the choice is purely a
/// performance call: the CSR transposed pass wins while its scatter
/// target (`Y`, `n×k`) stays cache-resident — every read-modify-write
/// is a cache hit and values stream sequentially — and the CSC forward
/// traversal wins once `Y` outgrows the last-level cache, because it
/// writes each output row with locality (panel-hoisted into an L1
/// accumulator) while its gathers stay panel-local. The crossover is
/// therefore the LLC size, probed from sysfs (32 MiB when the probe is
/// unavailable).
pub fn spmm_at_dense_auto_into<'a>(a: impl Into<CsrRef<'a>>, csc: &CscView, w: &Mat, y: &mut Mat) {
    let a = a.into();
    if csc_chosen(a.ncols(), w.ncols()) {
        spmm_at_dense_csc_into(a, csc, w, y);
    } else {
        spmm_at_dense_into(a, w, y);
    }
}

/// Allocating wrapper over [`spmm_at_dense_auto_into`].
pub fn spmm_at_dense_auto<'a>(a: impl Into<CsrRef<'a>>, csc: &CscView, w: &Mat) -> Mat {
    let a = a.into();
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    spmm_at_dense_auto_into(a, csc, w, &mut y);
    y
}

/// Whether [`spmm_at_dense_auto_into`] routes an `n×k` output to the
/// CSC forward kernel. Exposed so `benchmark/` can report the routing.
pub fn csc_chosen(n: usize, k: usize) -> bool {
    n.saturating_mul(k).saturating_mul(8) > csc_min_out_bytes()
}

/// Output size above which the forward kernel is preferred: the
/// last-level cache size (sysfs), or 32 MiB when unreadable. Resolved
/// once.
fn csc_min_out_bytes() -> usize {
    static THRESHOLD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| llc_bytes().unwrap_or(32 << 20))
}

/// Size of the largest cache level reported for cpu0, if readable.
fn llc_bytes() -> Option<usize> {
    cache_bytes("index3").or_else(|| cache_bytes("index2"))
}

/// Size of one cpu0 cache level from sysfs (`index2` is typically L2,
/// `index3` L3), if readable.
fn cache_bytes(index: &str) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/{index}/size");
    let text = std::fs::read_to_string(path).ok()?;
    let text = text.trim();
    let (digits, mult) = match text.as_bytes().last() {
        Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
        Some(b'M') => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Csr;
    use nmf_matrix::gemm::{matmul_ta, matmul_tb};
    use nmf_matrix::rng::Fill;

    fn random_sparse(m: usize, n: usize, seed: u64) -> Csr {
        let mut d = Mat::uniform(m, n, seed);
        for (idx, v) in d.as_mut_slice().iter_mut().enumerate() {
            if idx % 4 != 0 {
                *v = 0.0;
            }
        }
        Csr::from_dense(&d)
    }

    #[test]
    fn a_ht_matches_dense() {
        let a = random_sparse(14, 9, 61);
        let ht = Mat::uniform(9, 5, 62); // Hᵀ, n×k
        let v = spmm_dense_t(&a, &ht);
        // Dense reference: A · (Htᵀ)ᵀ = A·Hᵀ with H = htᵀ.
        let expect = matmul_tb(&a.to_dense(), &ht.transpose());
        assert!(v.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn at_w_matches_dense() {
        let a = random_sparse(11, 13, 63);
        let w = Mat::uniform(11, 4, 64);
        let y = spmm_at_dense(&a, &w);
        let expect = matmul_ta(&a.to_dense(), &w);
        assert!(y.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn csc_kernel_is_bit_identical_to_csr_pass() {
        for &(m, n, k) in &[(11usize, 13usize, 4usize), (40, 27, 7), (3, 50, 1)] {
            let a = random_sparse(m, n, (m * n) as u64);
            let csc = CscView::from_csr(&a);
            let w = Mat::uniform(m, k, 64);
            let y_csr = spmm_at_dense(&a, &w);
            let y_csc = spmm_at_dense_csc(&a, &csc, &w);
            let same = y_csr
                .as_slice()
                .iter()
                .zip(y_csc.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "CSC kernel diverged bitwise at {m}x{n}x{k}");
        }
    }

    #[test]
    fn empty_matrix_yields_zero() {
        let a = Csr::empty(5, 7);
        let ht = Mat::uniform(7, 3, 65);
        assert_eq!(spmm_dense_t(&a, &ht), Mat::zeros(5, 3));
        let w = Mat::uniform(5, 3, 66);
        assert_eq!(spmm_at_dense(&a, &w), Mat::zeros(7, 3));
    }

    #[test]
    fn into_variants_overwrite() {
        let a = random_sparse(6, 6, 67);
        let ht = Mat::uniform(6, 2, 68);
        let mut v = Mat::filled(6, 2, f64::NAN);
        spmm_dense_t_into(&a, &ht, &mut v);
        assert!(v.all_finite());
    }
}
