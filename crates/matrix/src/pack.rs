//! Operand packing for the GEMM microkernel (GotoBLAS-style).
//!
//! The microkernel in [`simd`](crate::simd) reads its left operand in
//! `MR`-row panels addressed by a (row stride, depth stride) pair and its
//! right operand in `NR`-wide tiles at a row stride, so an operand is
//! packed only where packing pays:
//!
//! * **`B` tiles** (right operand of `A·B`): up to `NC` columns at a
//!   time, cut into `NR`-column tiles depth-major over the whole inner
//!   dimension — `tile[d*NR + t] = B[d][j0+t]`, zero-padded past the
//!   block — so the `KC`-deep piece one microkernel call reads is
//!   contiguous. They are packed per call into scratch (the right operand
//!   changes every iteration); a `B` exactly one tile wide is read where
//!   it lies.
//! * **Read in place, not packed**: a row-major left operand, at strides
//!   `(ld, 1)`, and both operands of `Aᵀ·B`, which runs as `(Bᵀ·A)ᵀ`:
//!   `Bᵀ`'s panels at strides `(1, k)`, `A`'s tiles at row stride `ld`.
//!   Only a short last panel or a narrow last tile is copied, into a
//!   zero-padded panel or tile per call (`pack_panel` for a left
//!   operand), so the kernel never reads outside its operand.
//! * **[`PackedPanels`]**: a left operand packed ahead of time into
//!   `MR`-row panels laid out depth-major — `panel[d*MR + r] =
//!   A[i0+r][k0+d]`, strides `(1, MR)`, rows past `m` zero-padded. No
//!   product path uses them any more; they stay public only because the
//!   `benchmark` package's layer rows link them, and go with those rows.
//!
//! Neither layout depends on the dispatched build.

use crate::mat::MatRef;

pub use crate::simd::{KC, MR, NR};

/// Columns of `B` packed per pass of the GEMM driver: up to `k = 32` one
/// pass packs all of an NMF product's `B`. A block is `kdim·NC` floats,
/// so it fits a 2 MiB L2 only while `kdim` stays under about 8000.
pub const NC: usize = 2 * NR;

/// Length (in floats) of the `B`-tile scratch a GEMM with inner
/// dimension `kdim` needs for a right operand with `n` columns: at most
/// `NC` columns over the whole depth, and none for `n = NR` (see
/// `pack_b`). Pre-sizing a caller-owned scratch to this bound makes
/// every subsequent GEMM allocation-free.
pub fn b_scratch_len(kdim: usize, n: usize) -> usize {
    match n == NR {
        true => 0,
        false => n.min(NC).div_ceil(NR) * NR * kdim,
    }
}

/// Copies rows `i0..i0+mr_eff`, columns `k0..k0+kc` of `a` into `panel`
/// in panel order (`panel[d*MR + r]`). Pad rows `mr_eff..MR` are not
/// written.
pub(crate) fn pack_panel(
    a: MatRef<'_>,
    (i0, mr_eff): (usize, usize),
    (k0, kc): (usize, usize),
    panel: &mut [f64],
) {
    for r in 0..mr_eff {
        for (d, &v) in a.row(i0 + r)[k0..k0 + kc].iter().enumerate() {
            panel[d * MR + r] = v;
        }
    }
}

/// A left GEMM operand packed into microkernel-ready `MR×KC` panels, for
/// [`matmul_packed_scratch_into`](crate::gemm::matmul_packed_scratch_into).
///
/// Logically an `m×kdim` matrix; physically `ceil(m/MR)·MR · kdim`
/// floats in panel order (see the module docs for the layout). Built
/// with [`pack_into`](PackedPanels::pack_into) (packs the operand as-is)
/// or [`pack_transposed_into`](PackedPanels::pack_transposed_into)
/// (packs the operand's transpose). Storage is retained across re-packs,
/// so refreshing the panels for the same shape allocates nothing.
///
/// No product path reads these panels: `A·B` reads its left operand in
/// place and `Aᵀ·B` runs as `(Bᵀ·A)ᵀ`. The type stays public only
/// because the `benchmark` package's layer rows link it, and goes when
/// those rows move to a probe seam.
#[derive(Clone, Debug, Default)]
pub struct PackedPanels {
    m: usize,
    kdim: usize,
    data: Vec<f64>,
}

impl PackedPanels {
    /// An empty set of panels (no packed operand).
    pub fn new() -> Self {
        Self::default()
    }

    /// Convenience constructor: pack `a` into fresh panels.
    pub fn pack<'a>(a: impl Into<MatRef<'a>>) -> Self {
        let mut p = Self::new();
        p.pack_into(a);
        p
    }

    /// Convenience constructor: pack `aᵀ` into fresh panels.
    pub fn pack_transposed<'a>(a: impl Into<MatRef<'a>>) -> Self {
        let mut p = Self::new();
        p.pack_transposed_into(a);
        p
    }

    /// Logical shape `(rows, inner)` of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.kdim)
    }

    /// Bytes of packed storage currently held.
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    fn reset(&mut self, m: usize, kdim: usize) -> usize {
        self.m = m;
        self.kdim = kdim;
        let rows_padded = m.div_ceil(MR) * MR;
        self.data.clear();
        self.data.resize(rows_padded * kdim, 0.0);
        rows_padded
    }

    /// Pack the `m×kdim` matrix `a` (a [`Mat`](crate::Mat) or a
    /// [`MatRef`] block of one) into panels (row `i` of the packed operand
    /// is row `i` of `a`).
    pub fn pack_into<'a>(&mut self, a: impl Into<MatRef<'a>>) {
        let a = a.into();
        let (m, kdim) = a.shape();
        let rows_padded = self.reset(m, kdim);
        for k0 in (0..kdim).step_by(KC) {
            let kc = KC.min(kdim - k0);
            let kblock_base = rows_padded * k0;
            for i0 in (0..m).step_by(MR) {
                let panel = &mut self.data[kblock_base + i0 * kc..kblock_base + (i0 + MR) * kc];
                pack_panel(a, (i0, MR.min(m - i0)), (k0, kc), panel);
            }
        }
    }

    /// Pack the transpose of the `kdim×m` matrix `a` (a
    /// [`Mat`](crate::Mat) or a [`MatRef`] block of one) into panels (row
    /// `i` of the packed operand is **column** `i` of `a`), reading `a`
    /// row-by-row in `MR`-wide contiguous chunks.
    pub fn pack_transposed_into<'a>(&mut self, a: impl Into<MatRef<'a>>) {
        let a = a.into();
        let (kdim, m) = a.shape();
        let rows_padded = self.reset(m, kdim);
        for k0 in (0..kdim).step_by(KC) {
            let kc = KC.min(kdim - k0);
            let kblock_base = rows_padded * k0;
            for d in 0..kc {
                let arow = a.row(k0 + d);
                for i0 in (0..m).step_by(MR) {
                    let mr_eff = MR.min(m - i0);
                    let dst_at = kblock_base + i0 * kc + d * MR;
                    self.data[dst_at..dst_at + mr_eff].copy_from_slice(&arow[i0..i0 + mr_eff]);
                }
            }
        }
    }

    /// The packed `MR×kc` panel for row block `i0` (a multiple of `MR`)
    /// within the depth block starting at `k0` (a multiple of `KC`).
    #[inline]
    pub(crate) fn panel(&self, k0: usize, kc: usize, i0: usize) -> &[f64] {
        debug_assert_eq!(k0 % KC, 0);
        debug_assert_eq!(i0 % MR, 0);
        let rows_padded = self.m.div_ceil(MR) * MR;
        let base = rows_padded * k0 + i0 * kc;
        &self.data[base..base + MR * kc]
    }
}

/// Pack columns `j0..j0+nc` of `b` (a `kdim×n` row-major slice) into
/// `NR`-column tiles over the whole depth, `out[jt*NR*kdim + d*NR + t] =
/// b[d*n + j0 + jt*NR + t]`, zero-padded to a whole tile past `nc`, and
/// return the tiles. A `b` exactly one tile wide is already in tile order
/// and is returned as it is. `out` only grows, so steady-state repacking
/// allocates nothing once warm.
pub(crate) fn pack_b<'a>(
    b: &'a [f64],
    n: usize,
    (j0, nc): (usize, usize),
    out: &'a mut Vec<f64>,
) -> &'a [f64] {
    if n == NR {
        return b;
    }
    let kdim = b.len() / n;
    let needed = nc.div_ceil(NR) * NR * kdim;
    if out.len() < needed {
        out.resize(needed, 0.0);
    }
    // Every element of the needed range is written below, pad lanes
    // included, so packing costs one streaming copy and no re-zeroing.
    for (jt, tile) in out[..needed].chunks_exact_mut(NR * kdim).enumerate() {
        let (t0, w) = (j0 + jt * NR, NR.min(nc - jt * NR));
        for (brow, dst) in b.chunks_exact(n).zip(tile.chunks_exact_mut(NR)) {
            dst[..w].copy_from_slice(&brow[t0..t0 + w]);
            dst[w..].fill(0.0);
        }
    }
    &out[..needed]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mat::Mat;
    use crate::rng::Fill;

    #[test]
    fn pack_roundtrips_every_element() {
        for (m, kdim) in [(1, 1), (5, 7), (6, 8), (13, 300), (4, 256), (11, 257)] {
            let a = Mat::uniform(m, kdim, 42);
            let p = PackedPanels::pack(&a);
            assert_eq!(p.shape(), (m, kdim));
            let mut k0 = 0;
            while k0 < kdim {
                let kc = KC.min(kdim - k0);
                let mut i0 = 0;
                while i0 < m {
                    let panel = p.panel(k0, kc, i0);
                    for d in 0..kc {
                        for r in 0..MR {
                            let expect = if i0 + r < m { a[(i0 + r, k0 + d)] } else { 0.0 };
                            assert_eq!(panel[d * MR + r], expect, "({},{})", i0 + r, k0 + d);
                        }
                    }
                    i0 += MR;
                }
                k0 += kc;
            }
        }
    }

    #[test]
    fn pack_transposed_matches_packing_the_transpose() {
        for (rows, cols) in [(3, 9), (8, 5), (300, 13), (256, 6)] {
            let a = Mat::uniform(rows, cols, 7);
            let direct = PackedPanels::pack(&a.transpose());
            let fused = PackedPanels::pack_transposed(&a);
            assert_eq!(direct.shape(), fused.shape());
            assert_eq!(direct.data, fused.data);
        }
    }

    #[test]
    fn repack_same_shape_reuses_storage() {
        let a = Mat::uniform(37, 300, 3);
        let mut p = PackedPanels::pack(&a);
        let cap = p.data.capacity();
        let b = Mat::uniform(37, 300, 4);
        p.pack_into(&b);
        assert_eq!(p.data.capacity(), cap);
        p.pack_transposed_into(&Mat::uniform(300, 37, 5));
        assert_eq!(p.data.capacity(), cap);
    }

    #[test]
    fn b_packing_pads_edge_tiles_over_the_whole_depth() {
        // Two column blocks, each over the whole depth: NC columns (whole
        // tiles), then 19 (one full tile + a 3-wide edge tile) or exactly
        // one tile, which is packed like any other block.
        let kdim = 5;
        let mut out = Vec::new();
        for (n, j0, nc) in [
            (NC + 19, 0, NC),
            (NC + 19, NC, 19),
            (NC + NR, 0, NC),
            (NC + NR, NC, NR),
        ] {
            let b = Mat::uniform(kdim, n, 9);
            let tiles = pack_b(b.as_slice(), n, (j0, nc), &mut out);
            let ntiles = nc.div_ceil(NR);
            assert_eq!(tiles.len(), ntiles * NR * kdim);
            for d in 0..kdim {
                for jt in 0..ntiles {
                    for t in 0..NR {
                        let j = jt * NR + t;
                        let expect = if j < nc { b[(d, j0 + j)] } else { 0.0 };
                        assert_eq!(
                            tiles[jt * NR * kdim + d * NR + t],
                            expect,
                            "({d}, {j0} + {j})"
                        );
                    }
                }
            }
            assert_eq!(out.len(), b_scratch_len(kdim, n));
        }
        // One tile wide, `b` is already in tile order: read in place.
        let b = Mat::uniform(kdim, NR, 10);
        let tiles = pack_b(b.as_slice(), NR, (0, NR), &mut out);
        assert_eq!(tiles.as_ptr(), b.as_slice().as_ptr());
        assert_eq!(b_scratch_len(kdim, NR), 0);
    }
}
