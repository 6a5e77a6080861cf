//! Operand packing for the GEMM microkernels (GotoBLAS-style).
//!
//! The microkernels in [`simd`](crate::simd) read the right operand from
//! packed tiles and the left operand from `MR`-row panels addressed by a
//! (row stride, depth stride) pair, so the left operand is packed only
//! where packing pays:
//!
//! * **`A` panels** (left operand, optional): the `m×kdim` operand is
//!   cut into depth-`KC` column blocks, and each block into `MR`-row
//!   panels laid out depth-major — `panel[d*MR + r] = A[i0+r][k0+d]`,
//!   strides `(1, MR)`. Rows past `m` are zero-padded so the microkernel
//!   never branches on `mr_eff` inside the k-loop (the padding
//!   contributes terms that are simply not stored). A row-major left
//!   operand is read in place instead, strides `(ld, 1)`; only its last,
//!   short panel is copied into a zero-padded panel per call.
//! * **`B` tiles** (right operand): each depth-`KC` row block is cut
//!   into `NR`-column tiles laid out depth-major —
//!   `tile[d*NR + t] = B[k0+d][j0+t]`, zero-padded past `n`.
//!
//! `B` tiles are packed per GEMM call into scratch (they depend on the
//! right operand, which changes every iteration). A left operand that is
//! not row-major as it stands — `Aᵀ` of a row-major `A`, the left operand
//! of `Aᵀ·W` — is packed **once per session** into a [`PackedPanels`] and
//! reused by every subsequent
//! [`matmul_packed_into`](crate::gemm::matmul_packed_into) call: the ANLS
//! structure exploited by `crates/core`, where the data matrix never
//! changes across iterations. `A` itself, the left operand of `A·Hᵀ`, is
//! row-major already and is read where it lies.
//!
//! The panel height `MR = 6` is the same for both microkernels, so packed
//! panels do not depend on the dispatched path.

use crate::mat::MatRef;

pub use crate::simd::{KC, MR, NR};

/// Length (in floats) of the `B`-tile scratch a GEMM with inner
/// dimension `kdim` needs for a right operand with `n` columns: one
/// `KC`-deep block of `NR`-wide tiles. Pre-sizing a caller-owned scratch
/// to this bound makes every subsequent GEMM allocation-free.
pub fn b_scratch_len(kdim: usize, n: usize) -> usize {
    n.div_ceil(NR) * NR * KC.min(kdim)
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

/// A left GEMM operand packed into microkernel-ready `MR×KC` panels.
///
/// Logically an `m×kdim` matrix; physically `ceil(m/MR)·MR · kdim`
/// floats in panel order (see the module docs for the layout). Built
/// with [`pack_into`](PackedPanels::pack_into) (packs the operand as-is)
/// or [`pack_transposed_into`](PackedPanels::pack_transposed_into)
/// (packs the operand's transpose, for `AᵀB` products without forming
/// `Aᵀ`). Storage is retained across re-packs, so refreshing the panels
/// for the same shape allocates nothing.
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

    /// Whether any operand is currently packed.
    pub fn is_empty(&self) -> bool {
        self.m == 0 || self.kdim == 0
    }

    /// Logical shape `(rows, inner)` of the packed operand.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.kdim)
    }

    /// Bytes of packed storage currently held.
    pub fn packed_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Length (in floats) of the `B`-tile scratch that
    /// [`matmul_packed_scratch_into`](crate::gemm::matmul_packed_scratch_into)
    /// needs for a right operand with `n` columns: one `KC`-deep block of
    /// `NR`-wide tiles. Pre-sizing a caller-owned scratch to this bound
    /// makes every subsequent packed GEMM allocation-free.
    pub fn b_scratch_len(&self, n: usize) -> usize {
        if self.is_empty() {
            return 0;
        }
        b_scratch_len(self.kdim, n)
    }

    /// Drop the packed operand (keeps the allocation for reuse).
    pub fn clear(&mut self) {
        self.m = 0;
        self.kdim = 0;
        self.data.clear();
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
        if self.data.is_empty() {
            return;
        }
        let mut k0 = 0;
        while k0 < kdim {
            let kc = KC.min(kdim - k0);
            let kblock_base = rows_padded * k0;
            let mut i0 = 0;
            while i0 < m {
                let panel = &mut self.data[kblock_base + i0 * kc..kblock_base + (i0 + MR) * kc];
                pack_panel(a, (i0, MR.min(m - i0)), (k0, kc), panel);
                i0 += MR;
            }
            k0 += kc;
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
        if self.data.is_empty() {
            return;
        }
        let mut k0 = 0;
        while k0 < kdim {
            let kc = KC.min(kdim - k0);
            let kblock_base = rows_padded * k0;
            for d in 0..kc {
                let arow = a.row(k0 + d);
                let mut i0 = 0;
                while i0 < m {
                    let mr_eff = MR.min(m - i0);
                    let dst_at = kblock_base + i0 * kc + d * MR;
                    self.data[dst_at..dst_at + mr_eff].copy_from_slice(&arow[i0..i0 + mr_eff]);
                    i0 += MR;
                }
            }
            k0 += kc;
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

/// Pack the depth-`kc` row block of `b` (an `?×n` row-major slice with
/// row stride `n`) starting at row `k0` into `NR`-column tiles:
/// `out[jt*NR*kc + d*NR + t] = b[(k0+d)*n + jt*NR + t]`, zero-padded to
/// a whole tile past `n`. `out` is resized (capacity is retained across
/// calls, so steady-state repacking allocates nothing once warm).
pub(crate) fn pack_b_block(b: &[f64], n: usize, k0: usize, kc: usize, out: &mut Vec<f64>) {
    let ntiles = n.div_ceil(NR);
    let needed = ntiles * NR * kc;
    if out.len() < needed {
        out.resize(needed, 0.0);
    }
    // Every element of the needed range is written below (full tiles by
    // the NR-wide copy, the edge tile's pad lanes by the explicit fill),
    // so no bulk re-zeroing is needed — this keeps the per-call packing
    // cost at one streaming copy of the block.
    let full_tiles = n / NR;
    for d in 0..kc {
        let brow = &b[(k0 + d) * n..(k0 + d) * n + n];
        for jt in 0..full_tiles {
            let dst_at = jt * NR * kc + d * NR;
            out[dst_at..dst_at + NR].copy_from_slice(&brow[jt * NR..jt * NR + NR]);
        }
        if full_tiles < ntiles {
            let j0 = full_tiles * NR;
            let w = n - j0;
            let dst_at = full_tiles * NR * kc + d * NR;
            out[dst_at..dst_at + w].copy_from_slice(&brow[j0..]);
            out[dst_at + w..dst_at + NR].fill(0.0);
        }
    }
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
    fn b_block_packing_pads_edge_tiles() {
        let n = 11; // one full tile + a 3-wide edge tile
        let kdim = 5;
        let b = Mat::uniform(kdim, n, 9);
        let mut out = Vec::new();
        pack_b_block(b.as_slice(), n, 0, kdim, &mut out);
        assert_eq!(out.len(), 2 * NR * kdim);
        for d in 0..kdim {
            for jt in 0..2 {
                for t in 0..NR {
                    let j = jt * NR + t;
                    let expect = if j < n { b[(d, j)] } else { 0.0 };
                    assert_eq!(out[jt * NR * kdim + d * NR + t], expect);
                }
            }
        }
    }
}
