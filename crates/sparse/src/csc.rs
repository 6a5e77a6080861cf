//! Compressed sparse column *view* over a CSR matrix.
//!
//! The `Aᵀ·W` kernel is the sparse bottleneck of the ANLS iteration:
//! driven from CSR it adds into a different `k`-long output row per
//! visited nonzero (the "transposed pass"), with no locality once the
//! output outgrows the cache. Traversing the same nonzeros
//! column-by-column turns the product into a forward pass — each output
//! row is held in registers while its column streams, and stored once,
//! while only the *reads* of `W` hop around (see
//! [`crate::spmm::spmm_at_dense_csc_into`]).
//!
//! [`CscView`] stores the column structure (`colptr`, `rowind`) plus,
//! for every CSC-ordered nonzero, the *position* of its value in the
//! source CSR's row-major values array — one shared values ordering,
//! never a second copy of the numerical payload. It costs `16·nnz` index
//! bytes, so a block builds it only when its `Aᵀ·W` is routed to the
//! column kernel ([`crate::spmm::csc_chosen`]): [`SpBlock::csc`] on
//! first use, and `hpc_nmf`'s shared rank blocks when an engine chooses
//! it.

use crate::csr::{Csr, CsrRef};
use std::sync::OnceLock;

/// The column-major index structure of a CSR block, sharing its values.
///
/// `colptr` has length `ncols + 1`; column `j`'s nonzeros live at
/// `rowind[colptr[j]..colptr[j+1]]` (row indices, strictly increasing)
/// and their values at `values[src[p]]` for `p` in the same range, where
/// `values` is the source's whole array ([`CsrRef::values`]) — for a
/// window of a larger matrix, positions are the source's.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CscView {
    nrows: usize,
    ncols: usize,
    colptr: Vec<usize>,
    rowind: Vec<usize>,
    /// Position in the source's values array of each CSC-ordered nonzero.
    src: Vec<usize>,
}

impl CscView {
    /// Builds the column view of `a` (counting sort over columns,
    /// `O(nnz + ncols)`). Row indices within each column come out
    /// strictly increasing because CSR rows are scanned in order —
    /// the property that makes the CSC kernel bit-identical to the
    /// CSR transposed pass (same additions, same order).
    pub fn from_csr<'a>(a: impl Into<CsrRef<'a>>) -> CscView {
        let a = a.into();
        let c0 = a.col_offset();
        let mut counts = vec![0usize; a.ncols() + 1];
        for i in 0..a.nrows() {
            for &j in a.row(i).0 {
                counts[j - c0 + 1] += 1;
            }
        }
        for j in 0..a.ncols() {
            counts[j + 1] += counts[j];
        }
        let colptr = counts.clone();
        let nnz = colptr[a.ncols()];
        let mut rowind = vec![0usize; nnz];
        let mut src = vec![0usize; nnz];
        let mut next = counts;
        for i in 0..a.nrows() {
            for (p, &j) in a.span(i).zip(a.row(i).0) {
                let q = next[j - c0];
                rowind[q] = i;
                src[q] = p;
                next[j - c0] += 1;
            }
        }
        CscView {
            nrows: a.nrows(),
            ncols: a.ncols(),
            colptr,
            rowind,
            src,
        }
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.rowind.len()
    }

    /// Column `j` as `(row indices, source value positions)` slices.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[usize]) {
        let lo = self.colptr[j];
        let hi = self.colptr[j + 1];
        (&self.rowind[lo..hi], &self.src[lo..hi])
    }

    /// Whether this view indexes `a` (shape and nonzero count match;
    /// cheap sanity check used by the kernels' debug assertions).
    pub fn matches<'a>(&self, a: impl Into<CsrRef<'a>>) -> bool {
        let a = a.into();
        self.nrows == a.nrows() && self.ncols == a.ncols() && self.nnz() == a.nnz()
    }

    /// Reconstructs the block the view was built from, reading values
    /// through the shared ordering from `values`, the source's array
    /// (round-trip test support).
    pub fn to_csr(&self, values: &[f64]) -> Csr {
        // Transpose the column structure back to rows with the same
        // counting sort; to_csr ∘ from_csr is the identity.
        let mut counts = vec![0usize; self.nrows + 1];
        for &i in &self.rowind {
            counts[i + 1] += 1;
        }
        for i in 0..self.nrows {
            counts[i + 1] += counts[i];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut vals = vec![0.0; self.nnz()];
        let mut next = counts;
        for j in 0..self.ncols {
            let (rows, src) = self.col(j);
            for (&i, &p) in rows.iter().zip(src) {
                let q = next[i];
                indices[q] = j;
                vals[q] = values[p];
                next[i] += 1;
            }
        }
        Csr::from_parts(self.nrows, self.ncols, indptr, indices, vals)
    }

    /// Heap bytes held by the view's three index arrays.
    pub fn index_bytes(&self) -> usize {
        std::mem::size_of::<usize>() * (self.colptr.len() + self.rowind.len() + self.src.len())
    }
}

/// One extracted sparse block: a CSR, plus its column view over the one
/// values buffer once something asks for it. `A·Hᵀ` runs the row-major
/// kernel off the CSR; `Aᵀ·W` runs the forward-traversal kernel off the
/// CSC view where that is the faster orientation. Equality is the CSR's.
#[derive(Clone, Debug)]
pub struct SpBlock {
    csr: Csr,
    csc: OnceLock<CscView>,
}

impl PartialEq for SpBlock {
    fn eq(&self, other: &SpBlock) -> bool {
        self.csr == other.csr
    }
}

impl SpBlock {
    /// Wraps a CSR block; its column view is built on first use.
    pub fn from_csr(csr: Csr) -> SpBlock {
        SpBlock {
            csr,
            csc: OnceLock::new(),
        }
    }

    #[inline]
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The column view, built on the first call.
    pub fn csc(&self) -> &CscView {
        self.csc.get_or_init(|| CscView::from_csr(&self.csr))
    }

    /// Where the column view lives: empty until [`csc`](Self::csc) (or a
    /// caller holding the cell) fills it.
    pub fn csc_cell(&self) -> &OnceLock<CscView> {
        &self.csc
    }

    /// The CSR, giving up any column view.
    pub fn into_csr(self) -> Csr {
        self.csr
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.csr.nrows()
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.csr.ncols()
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.csr.nnz()
    }

    pub fn fro_norm_sq(&self) -> f64 {
        self.csr.fro_norm_sq()
    }

    /// Resident heap bytes of the block: the CSR, plus the column view's
    /// indices once built.
    pub fn resident_bytes(&self) -> usize {
        self.csr.heap_bytes() + self.csc.get().map_or(0, CscView::index_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;
    use crate::gen::banded;

    fn sample() -> Csr {
        let mut c = Coo::new(4, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(2, 0, 3.0);
        c.push(2, 1, 4.0);
        c.push(3, 2, 5.0);
        c.to_csr()
    }

    #[test]
    fn column_view_matches_transpose() {
        let a = sample();
        let v = CscView::from_csr(&a);
        assert!(v.matches(&a));
        let t = a.transpose();
        for j in 0..a.ncols() {
            let (rows, src) = v.col(j);
            let (trows, tvals) = t.row(j);
            assert_eq!(rows, trows, "column {j} row set");
            let vals: Vec<f64> = src.iter().map(|&p| a.values()[p]).collect();
            assert_eq!(vals, tvals, "column {j} values via shared ordering");
        }
    }

    #[test]
    fn round_trip_is_identity() {
        let a = banded(17, 3);
        let v = CscView::from_csr(&a);
        assert_eq!(v.to_csr(a.values()), a);
    }

    #[test]
    fn empty_rows_and_cols_are_fine() {
        let a = Csr::empty(5, 7);
        let v = CscView::from_csr(&a);
        assert_eq!(v.nnz(), 0);
        for j in 0..7 {
            assert!(v.col(j).0.is_empty());
        }
        assert_eq!(v.to_csr(&[]), a);
    }

    #[test]
    fn block_shares_the_values_buffer() {
        let b = SpBlock::from_csr(sample());
        assert_eq!(b.nnz(), 5);
        // No column view until one is asked for.
        assert_eq!(b.resident_bytes(), b.csr().heap_bytes());
        assert!(b.csc_cell().get().is_none());
        // The view carries positions, not values: every position is a
        // valid index into the one CSR buffer.
        for j in 0..b.ncols() {
            for &p in b.csc().col(j).1 {
                assert!(p < b.csr().values().len());
            }
        }
        assert!(b.resident_bytes() > 8 * b.nnz());
    }
}
