//! Runtime-dispatched SIMD kernels: one portable GEMM microkernel body,
//! compiled at the host's widest vector width, and the AVX2 + FMA dots.
//!
//! The GEMM drivers in [`gemm`](crate::gemm) hand [`microkernel`] one
//! [`Tile`]: an `MR`-row panel of the left operand at a (row stride,
//! depth stride) pair — `(1, MR)` for packed panels, `(ld, 1)` for the
//! rows of a row-major block read in place, `(1, k)` for `Wᵀ` read from
//! `W`'s rows — a `KC`-deep, `NR`-wide right tile at a row stride (`NR`
//! when packed, `ld` for the columns of a block read in place), and an
//! output tile at a (row, column) stride pair, so `C` may be stored
//! transposed. The body is generic over its register rows `R` (`MR`, or
//! `MR_WIDE` for the transposed product's panels under `avx512f`) and
//! width `W`: `R×W` accumulators, each from zero (or from held
//! accumulators, see [`Chain`]) adding `a·b` with `mul_add` in depth
//! order, added to `C` once — a full tile straight from the accumulators
//! (column by column where `C` is transposed), an edge tile through a
//! stack tile, so runtime bounds never index (and spill) them.
//! [`GemmBuild`] compiles it three ways with the same bits:
//! `avx512f-6x16` (`W = 16`; a tile stored at most 8 wide takes `W = 8`),
//! `fma-6x8` (`W = 8`, a pass per half tile) and `portable-6x8` (`W = 8`
//! plain, `mul_add` through libm).
//!
//! Both choices are made once per process: [`gemm_build`] for the GEMM,
//! [`active`] for the dots and SpMM — AVX2 + FMA where the CPU has both,
//! whatever AVX-512 says. `NMF_FORCE_SCALAR=1`, set before the first
//! kernel call, forces the portable dots and SpMM and the 8-wide GEMM.
//! [`dot`](crate::gemm::dot) and [`dot4`](crate::gemm::dot4) from 32
//! elements on have two copies with the same bits: [`dot_avx2`] /
//! [`dot4_avx2`] and [`dot_fused`] / [`dot4_fused`].

use std::sync::OnceLock;

/// Columns of `C` per microkernel call; packed `B` tiles are `KC×NR` on
/// every host, whatever width the body runs at.
pub const NR: usize = 16;
/// Depth of one microkernel call: a `KC×NR` tile of `B` (32 KiB) sits
/// in L1 while an `MR×KC` panel of `A` streams beside it.
pub const KC: usize = 256;
/// Rows of `C` per microkernel call; packed `A` panels are `MR×KC`.
pub const MR: usize = 6;
/// Rows of `C` per call of the wider register tile, which the transposed
/// driver runs where the build has the registers (see
/// [`GemmBuild::transposed_rows`]).
pub const MR_WIDE: usize = 8;

/// Which family the dots and SpMM dispatched to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// 256-bit AVX2 + FMA intrinsics.
    Avx2Fma,
    /// Portable Rust with the same bits.
    Scalar,
}

/// Which build of the GEMM microkernel body runs (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmBuild {
    /// `W = 16` under `avx512f`: `avx512f-6x16`.
    Avx512f,
    /// `W = 8` under `fma`, a pass per half tile: `fma-6x8`.
    Fma,
    /// `W = 8`, plain code: `portable-6x8`.
    Portable,
}

impl GemmBuild {
    /// The name [`active_name`] reports for this build.
    pub fn name(self) -> &'static str {
        match self {
            GemmBuild::Avx512f => "avx512f-6x16",
            GemmBuild::Fma => "fma-6x8",
            GemmBuild::Portable => "portable-6x8",
        }
    }

    /// The register rows of the transposed driver's panels: [`MR_WIDE`]
    /// under `avx512f`, whose 32 registers hold its 16 accumulators, and
    /// [`MR`] otherwise (`fma`'s 16 registers would all be accumulators).
    pub fn transposed_rows(self) -> usize {
        match self {
            GemmBuild::Avx512f => MR_WIDE,
            _ => MR,
        }
    }

    /// Whether this CPU can run the build.
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let (avx512f, fma) = (
            is_x86_feature_detected!("avx512f"),
            is_x86_feature_detected!("fma"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx512f, fma) = (false, false);
        match self {
            GemmBuild::Avx512f => avx512f && fma,
            GemmBuild::Fma => fma,
            GemmBuild::Portable => true,
        }
    }
}

static ACTIVE: OnceLock<(KernelPath, GemmBuild)> = OnceLock::new();

fn detect() -> (KernelPath, GemmBuild) {
    let forced_scalar = std::env::var("NMF_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
    #[cfg(target_arch = "x86_64")]
    let avx2_fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_fma = false;
    let path = match !forced_scalar && avx2_fma {
        true => KernelPath::Avx2Fma,
        false => KernelPath::Scalar,
    };
    let gemm = match forced_scalar {
        false if GemmBuild::Avx512f.supported() => GemmBuild::Avx512f,
        _ if GemmBuild::Fma.supported() => GemmBuild::Fma,
        _ => GemmBuild::Portable,
    };
    (path, gemm)
}

/// The process-wide path of the dots and SpMM (detected once, then cached).
#[inline]
pub fn active() -> KernelPath {
    ACTIVE.get_or_init(detect).0
}

/// The process-wide GEMM microkernel build (detected once, then cached).
#[inline]
pub fn gemm_build() -> GemmBuild {
    ACTIVE.get_or_init(detect).1
}

/// Name of the active GEMM microkernel build and register tile, for
/// benchmark methodology records and `nmf_cli --json`.
pub fn active_name() -> &'static str {
    gemm_build().name()
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

/// Runs `$body::<R, W>(t)`, an `#[inline(always)]` body generic over its
/// register rows and width, as `$build` says: `W = 16` compiled under
/// `avx512f`, `W = 8` under `fma`, or `W = 8` plain.
macro_rules! with_build {
    ($build:expr, $body:ident::<$rows:literal>($t:ident)) => {{
        #[cfg(target_arch = "x86_64")]
        match $build {
            GemmBuild::Avx512f => {
                #[target_feature(enable = "avx512f", enable = "fma")]
                unsafe fn avx512f($t: Tile) {
                    $body::<$rows, 16>($t)
                }
                return avx512f($t);
            }
            GemmBuild::Fma => {
                #[target_feature(enable = "fma")]
                unsafe fn fma($t: Tile) {
                    $body::<$rows, 8>($t)
                }
                return fma($t);
            }
            GemmBuild::Portable => {}
        }
        $body::<$rows, 8>($t)
    }};
}

/// The operands of one microkernel call: `C[0..mr_eff, 0..nr_eff] += A ·
/// B`. Element `(r, d)` of the `rows×kc` left panel is `pa[r*rs + d*ds]`;
/// row `d` of the `kc×NR` right tile is `NR` contiguous elements from
/// `pb[d*ldb]` — `ldb = NR` for a packed tile, the row stride of a block
/// read in place otherwise; element `(r, j)` of the output tile is
/// `c[r*ldc + j*cs]` — `cs = 1` for a row-major `C`, `ldc = 1` for a
/// tile stored transposed. `chain` says where the accumulators start and
/// end.
/// The register tile is `rows` (`MR` or `MR_WIDE`) by `NR`; its rows ≥
/// `mr_eff` and columns ≥ `nr_eff` are computed but not stored.
#[derive(Clone, Copy)]
pub struct Tile {
    pub pa: *const f64,
    pub rs: usize,
    pub ds: usize,
    pub pb: *const f64,
    pub ldb: usize,
    pub kc: usize,
    pub chain: Chain,
    pub c: *mut f64,
    pub ldc: usize,
    pub cs: usize,
    pub rows: usize,
    pub mr_eff: usize,
    pub nr_eff: usize,
}

/// How one call's FMA chains relate to a `KC`-deep block. A block may run
/// as several calls over consecutive depth ranges, each continuing the
/// last one's chains from a `rows×NR` tile of held accumulators (row `r`
/// at `buf[r*NR..]`): storing and reloading a value is exact, so each
/// element is still one chain from `+0.0` over the block, added to `C`
/// once.
#[derive(Clone, Copy)]
pub enum Chain {
    /// The whole block: from `+0.0`, added to `C`.
    Whole,
    /// Part of a block: from `+0.0` where `first`, else from `buf`; held
    /// in `buf` unless `last`, else added to `C`.
    Part {
        buf: *mut f64,
        first: bool,
        last: bool,
    },
}

impl Chain {
    /// The chain of the columns from `j` on.
    #[inline(always)]
    unsafe fn at_col(self, j: usize) -> Chain {
        match self {
            Chain::Part { buf, first, last } => Chain::Part {
                buf: buf.add(j),
                first,
                last,
            },
            whole => whole,
        }
    }
}

/// Runs one [`Tile`] through the body as `build` compiles it. The strides
/// and the build change only where each element is loaded from and how
/// many lanes a register holds: every output element's FMA chain is the
/// same.
///
/// # Safety
///
/// * `build` must be one this CPU runs ([`GemmBuild::supported`]);
///   [`gemm_build`] always is.
/// * `rows` must be [`MR`] or [`MR_WIDE`].
/// * `pa` must be valid for reads at `r*rs + d*ds` for all `r < rows`,
///   `d < kc`; `pb` at `d*ldb + j` for all `d < kc`, `j < NR`.
/// * `c` must be valid for reads and writes at `r*ldc + j*cs` for all
///   `r < mr_eff`, `j < nr_eff`, with `mr_eff ≤ rows`, `nr_eff ≤ NR`; a
///   [`Chain::Part`]'s `buf` at `r*NR + j` for all `r < rows`, `j < NR`.
pub unsafe fn microkernel(build: GemmBuild, t: Tile) {
    debug_assert!(t.rows == MR || t.rows == MR_WIDE);
    match t.rows {
        MR_WIDE => rows_wide(build, t),
        _ => rows_mr(build, t),
    }
}

/// [`microkernel`] at `MR` register rows.
unsafe fn rows_mr(build: GemmBuild, t: Tile) {
    with_build!(build, split::<6>(t))
}

/// [`microkernel`] at `MR_WIDE` register rows.
unsafe fn rows_wide(build: GemmBuild, t: Tile) {
    with_build!(build, split::<8>(t))
}

/// One pass of the body at `W = NR` where the tile is stored more than
/// `NR / 2` wide, otherwise an 8-wide pass over each half that is stored.
#[inline(always)]
unsafe fn split<const R: usize, const W: usize>(t: Tile) {
    const HALF: usize = NR / 2;
    if W == NR && t.nr_eff > HALF {
        return body::<R, W>(t);
    }
    for j in (0..t.nr_eff).step_by(HALF) {
        let (pb, c, nr_eff) = (t.pb.add(j), t.c.add(j * t.cs), HALF.min(t.nr_eff - j));
        let chain = t.chain.at_col(j);
        body::<R, HALF>(Tile {
            pb,
            chain,
            c,
            nr_eff,
            ..t
        });
    }
}

/// The body over the first `W` columns of the tile, at `R` rows.
#[inline(always)]
unsafe fn body<const R: usize, const W: usize>(t: Tile) {
    let mut acc = [[0.0f64; W]; R];
    if let Chain::Part {
        buf, first: false, ..
    } = t.chain
    {
        for (r, acc_r) in acc.iter_mut().enumerate() {
            *acc_r = *buf.add(r * NR).cast::<[f64; W]>();
        }
    }
    for d in 0..t.kc {
        step(&t, &mut acc, d);
    }
    if let Chain::Part {
        buf, last: false, ..
    } = t.chain
    {
        for (r, acc_r) in acc.iter().enumerate() {
            *buf.add(r * NR).cast::<[f64; W]>() = *acc_r;
        }
    } else if t.mr_eff == R && t.nr_eff == W && t.cs == 1 {
        for (r, acc_r) in acc.iter().enumerate() {
            let cr = &mut *t.c.add(r * t.ldc).cast::<[f64; W]>();
            for (cv, &av) in cr.iter_mut().zip(acc_r) {
                *cv += av;
            }
        }
    } else if t.ldc == 1 && t.mr_eff == R && t.nr_eff == W {
        // A full tile stored transposed: column `j` is `R` contiguous
        // elements of `C`.
        let spill = acc;
        for j in 0..W {
            let cj = &mut *t.c.add(j * t.cs).cast::<[f64; R]>();
            for (cv, spill_r) in cj.iter_mut().zip(&spill) {
                *cv += spill_r[j];
            }
        }
    } else {
        // Edge tile: spill the accumulators whole, then add the stored
        // region column by column (contiguous where `C` is transposed).
        let spill = acc;
        for j in 0..t.nr_eff {
            for (r, spill_r) in spill.iter().enumerate().take(t.mr_eff) {
                *t.c.add(r * t.ldc + j * t.cs) += spill_r[j];
            }
        }
    }
}

/// Depth step `d` of the body: `acc += A[.., d] · B[d, ..W]`.
#[inline(always)]
unsafe fn step<const R: usize, const W: usize>(t: &Tile, acc: &mut [[f64; W]; R], d: usize) {
    let bd = &*t.pb.add(d * t.ldb).cast::<[f64; W]>();
    for (r, acc_r) in acc.iter_mut().enumerate() {
        let ar = *t.pa.add(r * t.rs + d * t.ds);
        for (av, &bv) in acc_r.iter_mut().zip(bd) {
            *av = ar.mul_add(bv, *av);
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
        assert_eq!((active(), gemm_build()), (active(), gemm_build()));
        assert_eq!(ACTIVE.get(), Some(&detect()));
        assert!(gemm_build().supported());
        assert_eq!(active_name(), gemm_build().name());
    }

    /// Where the CPU has AVX2 and FMA and nothing is forced, the dots and
    /// SpMM keep their AVX2 path on an AVX-512 host too: the GEMM's wider
    /// build must not move them to the portable copies.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_hosts_keep_the_avx2_path_whatever_avx512_says() {
        let forced = std::env::var("NMF_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0");
        if forced || !(is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")) {
            return; // the portable path is the right one here
        }
        assert_eq!(active(), KernelPath::Avx2Fma);
        let avx512 = is_x86_feature_detected!("avx512f");
        let want = [GemmBuild::Fma, GemmBuild::Avx512f][avx512 as usize];
        assert_eq!(gemm_build(), want);
    }

    /// `0.5 + A·B` on an `MR×NR` tile clipped to `clip`, as bits, by the
    /// given build, reading `A` at strides `(rs, ds)`.
    fn run(
        build: GemmBuild,
        a: &[f64],
        (rs, ds): (usize, usize),
        pb: &[f64],
        clip: (usize, usize),
    ) -> Vec<u64> {
        let (kc, mut c, (mr_eff, nr_eff)) = (pb.len() / NR, vec![0.5f64; MR * NR], clip);
        let (pa, pb, ldc) = (a.as_ptr(), pb.as_ptr(), NR);
        let t = Tile {
            pa,
            rs,
            ds,
            pb,
            ldb: NR,
            kc,
            chain: Chain::Whole,
            c: c.as_mut_ptr(),
            ldc,
            cs: 1,
            rows: MR,
            mr_eff,
            nr_eff,
        };
        assert!(build.supported());
        // SAFETY: the build was checked above; `a` holds an MR×kc panel at
        // (rs, ds), `pb` a kc×NR tile, `c` an MR×NR tile at row stride NR.
        unsafe { microkernel(build, t) };
        bits(&c)
    }

    #[test]
    fn portable_kernel_matches_reference_on_packed_panels() {
        // 6×16 panel over kc=5: pa[d*6+r] = A[r][d], pb[d*16+t] = B[d][t].
        // Small multiples of 0.5, so every sum is exact.
        let kc = 5;
        let pa: Vec<f64> = (0..MR * kc).map(|i| (i % 7) as f64 - 3.0).collect();
        let pb: Vec<f64> = (0..NR * kc).map(|i| (i % 5) as f64 * 0.5).collect();
        let want: Vec<f64> = (0..MR * NR)
            .map(|i| (0..kc).fold(0.5, |s, d| s + pa[d * MR + i / NR] * pb[d * NR + i % NR]))
            .collect();
        let got = run(GemmBuild::Portable, &pa, (1, MR), &pb, (MR, NR));
        assert_eq!(got, bits(&want));
        // Clipped: the stored region as above, the rest untouched.
        let got = run(GemmBuild::Portable, &pa, (1, MR), &pb, (4, 11));
        let want: Vec<f64> = (0..MR * NR)
            .map(|i| match i / NR < 4 && i % NR < 11 {
                true => want[i],
                false => 0.5,
            })
            .collect();
        assert_eq!(got, bits(&want));
    }

    #[test]
    fn every_build_matches_the_portable_build() {
        let builds = [GemmBuild::Avx512f, GemmBuild::Fma];
        for build in builds.into_iter().filter(|b| b.supported()) {
            for kc in [1, 19, 256] {
                // A panel (strides (1, MR)) and the same panel as the rows
                // of a row-major block (strides (kc, 1)).
                let pa: Vec<f64> = (0..MR * kc).map(|i| (i as f64 * 0.37).sin()).collect();
                let pb: Vec<f64> = (0..NR * kc).map(|i| (i as f64 * 0.91).cos()).collect();
                let rows: Vec<f64> = (0..MR * kc).map(|i| pa[(i % kc) * MR + i / kc]).collect();
                let clips = [
                    (MR, NR),
                    (3, NR),
                    (1, NR),
                    (MR, 9),
                    (MR, 8),
                    (MR, 5),
                    (2, 3),
                ];
                for clip in clips {
                    for (a, strides) in [(&pa, (1, MR)), (&rows, (kc, 1))] {
                        assert_eq!(
                            run(build, a, strides, &pb, clip),
                            run(GemmBuild::Portable, a, strides, &pb, clip),
                            "{build:?}, kc {kc}, clip {clip:?}, strides {strides:?}"
                        );
                    }
                }
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// A depth block run as three calls, each continuing the last one's
    /// chains from the held accumulators, gives the bits of the block run
    /// in one call: at both register heights, row-major or stored
    /// transposed, on every build.
    #[test]
    fn a_block_run_in_parts_has_the_bits_of_the_whole_block() {
        let kc = 200;
        let builds = [GemmBuild::Avx512f, GemmBuild::Fma, GemmBuild::Portable];
        for build in builds.into_iter().filter(|b| b.supported()) {
            for rows in [MR, MR_WIDE] {
                let pa: Vec<f64> = (0..rows * kc).map(|i| (i as f64 * 0.37).sin()).collect();
                let pb: Vec<f64> = (0..NR * kc).map(|i| (i as f64 * 0.91).cos()).collect();
                let stores = [((NR, 1), (rows, NR)), ((1, rows), (rows - 2, 11))];
                for ((ldc, cs), (mr_eff, nr_eff)) in stores {
                    let tile = |d0: usize, kc: usize, chain: Chain, c: &mut [f64]| Tile {
                        pa: pa[d0 * rows..].as_ptr(),
                        rs: 1,
                        ds: rows,
                        pb: pb[d0 * NR..].as_ptr(),
                        ldb: NR,
                        kc,
                        chain,
                        c: c.as_mut_ptr(),
                        ldc,
                        cs,
                        rows,
                        mr_eff,
                        nr_eff,
                    };
                    let mut whole = vec![0.5f64; rows * NR];
                    // SAFETY: the build was checked above; `pa` holds a
                    // rows×kc panel at (1, rows), `pb` a kc×NR tile, `c`
                    // rows·NR elements.
                    unsafe { microkernel(build, tile(0, kc, Chain::Whole, &mut whole)) };
                    let mut parts = vec![0.5f64; rows * NR];
                    let mut held = [f64::NAN; MR_WIDE * NR];
                    let buf = held.as_mut_ptr();
                    for (d0, d1) in [(0, 64), (64, 128), (128, kc)] {
                        let (first, last) = (d0 == 0, d1 == kc);
                        let chain = Chain::Part { buf, first, last };
                        // SAFETY: as above, over rows d0..d1; `held` holds
                        // rows×NR.
                        unsafe { microkernel(build, tile(d0, d1 - d0, chain, &mut parts)) };
                    }
                    let at = format!("{build:?}, {rows} rows, store ({ldc}, {cs})");
                    assert_eq!(bits(&parts), bits(&whole), "{at}");
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
