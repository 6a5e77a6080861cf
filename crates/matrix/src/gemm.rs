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
//! Both products follow the GotoBLAS decomposition (Goto & van de Geijn,
//! *Anatomy of High-Performance Matrix Multiplication*) and share one
//! microkernel:
//!
//! 1. **`C = A·B`** ([`matmul_into`], [`matmul_scratch_into`]): the right
//!    operand is packed per call into `NR`-column tiles over its whole
//!    depth, `NC` columns at a time ([`pack`](crate::pack)). The left
//!    operand is read in place in `MR`-row panels at strides `(ld, 1)`: a
//!    row-major matrix or a [`MatRef`] block of one. Each panel streams
//!    through all of its `KC`-deep blocks in order, each against every
//!    packed tile; the panel's rows are read front to back once, and the
//!    packed `B` stays in L2 (for `kdim` up to a few thousand).
//! 2. **`C = Aᵀ·B`** ([`matmul_ta_into`], [`matmul_ta_scratch_into`])
//!    runs as `(Bᵀ·A)ᵀ`, so `A` is the *right* operand and is read where
//!    it lies: `NR`-wide tiles at its row stride, each against every
//!    panel of `Bᵀ` (read in place from `B`'s rows at strides `(1, k)`).
//!    Each depth block runs as 32-row parts, and each part walks a whole
//!    group of tiles, its rows front to back, with the chains held in
//!    scratch between parts and the tile four on prefetched; each output
//!    tile is stored transposed. Neither operand is packed and no
//!    transpose is formed, so a dense rank holds its block of `A` once.
//! 3. **Microkernel** ([`simd`]): a 6×16 register block of `C` (8×16 for
//!    `Bᵀ`'s panels under `avx512f`), one
//!    portable body compiled 16 lanes wide under `avx512f` and 8 wide
//!    under `fma` or plain, chosen once per process.
//!
//! Every build, operand form and loop order gives the same bits: each
//! output element is `+0.0` plus one FMA chain per `KC` block, added in
//! depth order — what a KC-outer loop computes. `fma(w, a, acc)` rounds
//! as `fma(a, w, acc)` does, so `(Bᵀ·A)ᵀ` has the bits of `Aᵀ·B` from
//! packed `Aᵀ` panels.
//!
//! [`PackedPanels`] and [`matmul_packed_scratch_into`], the left operand
//! packed ahead of time at strides `(1, MR)`, are no product path: they
//! stay public only because the `benchmark` package's layer rows link
//! them, and they go when those rows move to a probe seam.
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
    /// Per-thread scratch of [`matmul_into`] (its packed `B` tiles) and
    /// [`matmul_ta_into`] (its held chains and edge copies): grows to the
    /// largest product seen, then every later product on this thread
    /// reuses the same storage — steady-state iterations allocate nothing.
    static BPACK: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
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
    BPACK.with(|s| matmul_scratch_into(a, b, c, &mut s.borrow_mut()));
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

/// `C = P·B` into caller-owned `c` (overwritten), where `P` is a left
/// operand packed ahead of time into [`PackedPanels`], with caller-owned
/// `B`-tile scratch (pre-sized via
/// [`b_scratch_len`](crate::pack::b_scratch_len), the call allocates
/// nothing). No product path runs it: it stays public only for the
/// `benchmark` package's layer rows and goes with them (see the module
/// docs).
///
/// # Panics
/// Panics on shape mismatch.
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
                        ldb: NR,
                        kc,
                        chain: simd::Chain::Whole,
                        c: c[i0 * n + j0 + jt * NR..].as_mut_ptr(),
                        ldc: n,
                        cs: 1,
                        rows: MR,
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

/// `C = Aᵀ·B` into caller-owned `c` (overwritten), for an `A` read in
/// place — a [`Mat`] or a [`MatRef`] block of one. It runs as `(Bᵀ·A)ᵀ`
/// through the transposed driver (see the module docs), with its scratch
/// in thread-local storage that grows to the largest product seen.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_ta_into<'a>(a: impl Into<MatRef<'a>>, b: &Mat, c: &mut Mat) {
    BPACK.with(|s| matmul_ta_scratch_into(a, b, c, &mut s.borrow_mut()));
}

/// `C = Aᵀ·B` into caller-owned `c` (overwritten), for an `A` read in
/// place — a [`Mat`] or a [`MatRef`] block of one, such as a rank's block
/// of a matrix other ranks share — with caller-owned scratch. Pre-sized
/// via [`ta_scratch_len`] for `a`'s shape and `b.ncols()`, the call
/// allocates nothing.
///
/// # Panics
/// Panics on shape mismatch.
pub fn matmul_ta_scratch_into<'a>(
    a: impl Into<MatRef<'a>>,
    b: &Mat,
    c: &mut Mat,
    scratch: &mut Vec<f64>,
) {
    let a = a.into();
    assert_eq!(a.nrows(), b.nrows(), "matmul_ta inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.ncols(), b.ncols()),
        "matmul_ta output shape mismatch"
    );
    let lay = TLayout::new(simd::gemm_build(), a.shape(), b.ncols());
    if scratch.len() < lay.len() {
        scratch.resize(lay.len(), 0.0);
    }
    c.as_mut_slice().fill(0.0);
    gemm_t(a, b.as_slice(), b.ncols(), c.as_mut_slice(), &lay, scratch);
}

/// Length (in floats) of the scratch [`matmul_ta_scratch_into`] needs
/// for a `kdim×n` `A` and a `B` with `k` columns: the chains held between
/// parts, a short last panel of `Bᵀ` and a narrow last tile of `A`, each
/// only where the shape has one.
pub fn ta_scratch_len(kdim: usize, n: usize, k: usize) -> usize {
    TLayout::new(simd::gemm_build(), (kdim, n), k).len()
}

/// Rows of `A` per part of a depth block in the transposed driver: the
/// part's rows of every tile of a group are read front to back, as
/// `PART` concurrent streams, before the next part's.
const PART: usize = 32;

/// How many tiles ahead of the one running the transposed driver
/// prefetches the part's rows.
const AHEAD: usize = 4;

/// Floats of chains the transposed driver holds between parts (256 KiB,
/// well inside L2); a group is as many tiles of `A` as fit, at least one.
const HELD: usize = 32 * 1024;

/// The transposed driver's geometry for one shape: the panel height of
/// `Wᵀ`, the tiles of `A` per group, and where its scratch is split.
struct TLayout {
    /// Rows per panel of `Wᵀ`:
    /// [`GemmBuild::transposed_rows`](simd::GemmBuild::transposed_rows).
    mr: usize,
    /// Tiles of `A` per group.
    group: usize,
    /// Floats of held chains (none where no block has two parts).
    held: usize,
    /// Floats of the short last panel of `Wᵀ`, if `k` ends in one.
    wedge: usize,
    /// Floats of the narrow last tile of `A`, if `n` ends in one.
    aedge: usize,
}

impl TLayout {
    fn new(build: simd::GemmBuild, (kdim, n): (usize, usize), k: usize) -> TLayout {
        let mr = build.transposed_rows();
        let kpad = k.div_ceil(mr) * mr;
        let group = (HELD / (kpad * NR).max(1)).clamp(1, n.div_ceil(NR).max(1));
        let depth = kdim.min(KC);
        TLayout {
            mr,
            group,
            held: match kdim > PART {
                true => group * kpad * NR,
                false => 0,
            },
            wedge: match k % mr {
                0 => 0,
                _ => mr * depth,
            },
            aedge: match n % NR {
                0 => 0,
                _ => depth * NR,
            },
        }
    }

    fn len(&self) -> usize {
        self.held + self.wedge + self.aedge
    }
}

/// The transposed driver: `c += (Wᵀ·A)ᵀ`, where `A` is the `kdim×n` block
/// read in place, `w` is `kdim×k` row-major and `c` is `n×k` row-major —
/// `C = Aᵀ·W` with `A` as the *right* operand, so no transpose of it is
/// ever formed. For each `KC`-deep block, in depth order, and each group
/// of `NR`-wide tiles of `A`, the block runs as parts of `PART` rows: each
/// part walks every tile of the group, prefetching the tile `AHEAD` on,
/// and runs each tile against every panel of `Wᵀ`, the chains held in
/// `scratch` between parts ([`simd::Chain`]).
///
/// * `Wᵀ`'s panels are `w`'s columns, read in place at strides `(1, k)`;
///   a last, shorter panel is copied into a zero-padded scratch panel
///   once per depth block, so no read leaves `w`.
/// * `A`'s tiles are read in place at row stride `ld`; a last tile
///   narrower than `NR` is copied into a zero-padded scratch tile once
///   per depth block, so no read leaves the block.
/// * Each output tile is stored transposed (`ldc = 1`, column stride `k`).
///
/// Each element is still `+0.0` plus one fused chain per depth block in
/// depth order, and `w·a` rounds as `a·w` does, so `C` has the bits of
/// the `Aᵀ`-panel product [`matmul_packed_scratch_into`] computes.
fn gemm_t(a: MatRef<'_>, w: &[f64], k: usize, c: &mut [f64], lay: &TLayout, scratch: &mut [f64]) {
    let (kdim, n) = a.shape();
    debug_assert_eq!(w.len(), kdim * k);
    debug_assert_eq!(c.len(), n * k);
    if kdim == 0 || n == 0 || k == 0 {
        return;
    }
    let build = simd::gemm_build();
    let (mr, kpad) = (lay.mr, k.div_ceil(lay.mr) * lay.mr);
    let (held, rest) = scratch.split_at_mut(lay.held);
    let (wedge, aedge) = rest.split_at_mut(lay.wedge);
    let (short_at, full_cols) = (k / mr * mr, n / NR * NR);
    for k0 in (0..kdim).step_by(KC) {
        let kc = KC.min(kdim - k0);
        for (d, panel_d) in wedge.chunks_exact_mut(mr).take(kc).enumerate() {
            let row = &w[(k0 + d) * k + short_at..(k0 + d + 1) * k];
            panel_d[..row.len()].copy_from_slice(row);
            panel_d[row.len()..].fill(0.0);
        }
        for (d, tile_d) in aedge.chunks_exact_mut(NR).take(kc).enumerate() {
            let row = &a.row(k0 + d)[full_cols..];
            tile_d[..row.len()].copy_from_slice(row);
            tile_d[row.len()..].fill(0.0);
        }
        for g0 in (0..n).step_by(lay.group * NR) {
            let g1 = n.min(g0 + lay.group * NR);
            for d0 in (0..kc).step_by(PART) {
                let part = PART.min(kc - d0);
                for j0 in (g0..g1).step_by(NR) {
                    let (pb, ldb) = match j0 < full_cols {
                        true => (a.tail(k0 + d0, j0), a.ld()),
                        false => (&aedge[d0 * NR..kc * NR], NR),
                    };
                    // What the kernel's reads of `pb` rely on.
                    assert!(
                        pb.len() >= (part - 1) * ldb + NR,
                        "right-operand tile shorter than its stride"
                    );
                    if j0 + AHEAD * NR < full_cols.min(g1) {
                        for d in 0..part {
                            let row = pb.as_ptr().wrapping_add(d * ldb + AHEAD * NR);
                            prefetch(row);
                            prefetch(row.wrapping_add(NR / 2));
                        }
                    }
                    let tile = (j0 - g0) / NR;
                    for i0 in (0..k).step_by(mr) {
                        let (pa, ds) = match i0 < short_at {
                            true => (&w[(k0 + d0) * k + i0..], k),
                            false => (&wedge[d0 * mr..mr * kc], mr),
                        };
                        assert!(
                            pa.len() > (mr - 1) + (part - 1) * ds,
                            "left-operand panel shorter than its strides"
                        );
                        let chain = match part == kc {
                            true => simd::Chain::Whole,
                            false => simd::Chain::Part {
                                buf: held[(tile * kpad + i0) * NR..][..mr * NR].as_mut_ptr(),
                                first: d0 == 0,
                                last: d0 + part == kc,
                            },
                        };
                        let t = simd::Tile {
                            pa: pa.as_ptr(),
                            rs: 1,
                            ds,
                            pb: pb.as_ptr(),
                            ldb,
                            kc: part,
                            chain,
                            c: c[j0 * k + i0..].as_mut_ptr(),
                            ldc: 1,
                            cs: k,
                            rows: mr,
                            mr_eff: mr.min(k - i0),
                            nr_eff: NR.min(n - j0),
                        };
                        // SAFETY: `build` is the detected one; the asserts
                        // above cover every `pa` read at `r + d*ds` and every
                        // `pb` read at `d*ldb + j` (`r < mr`, `d < part`,
                        // `j < NR`); the slice of `held` is the `mr×NR` tile
                        // of this tile's panel; `c` holds the `nr_eff` rows of
                        // `k` elements from row `j0`, of which the tile
                        // writes `mr_eff` from column `i0`.
                        unsafe { simd::microkernel(build, t) };
                    }
                }
            }
        }
    }
}

/// A hint to bring the cache line holding `p` into L1; nothing on
/// targets without one. The in-place tiles' rows are a row stride apart,
/// a pattern the hardware prefetchers do not follow across so many rows.
#[inline(always)]
fn prefetch(p: *const f64) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch reads nothing and faults on no address.
    unsafe {
        use std::arch::x86_64::*;
        _mm_prefetch::<_MM_HINT_T0>(p.cast())
    };
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
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
            matmul_packed_scratch_into(&p, &b, &mut c, &mut Vec::new());
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
            matmul_packed_scratch_into(&p, &b, &mut cp, &mut Vec::new());
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
