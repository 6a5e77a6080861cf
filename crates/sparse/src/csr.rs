//! Compressed sparse row storage.

use crate::coo::Coo;
use nmf_matrix::Mat;

/// An immutable CSR matrix.
///
/// `indptr` has length `nrows + 1`; row `i`'s nonzeros live at
/// `indices[indptr[i]..indptr[i+1]]` / `values[...]`, with `indices`
/// sorted ascending within each row.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    values: Vec<f64>,
}

impl Csr {
    /// Assembles a CSR from raw parts, validating the invariants.
    ///
    /// # Panics
    /// Panics if `indptr` is malformed, indices are out of bounds, or rows
    /// are not sorted ([`Csr::try_from_parts`] reports the same as an
    /// error).
    pub fn from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        Csr::try_from_parts(nrows, ncols, indptr, indices, values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Csr::from_parts`], with the first broken invariant as the error.
    pub fn try_from_parts(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if indptr.len() != nrows + 1 {
            return Err("indptr length must be nrows+1");
        }
        if indptr[0] != 0 {
            return Err("indptr must start at 0");
        }
        if indptr[nrows] != indices.len() {
            return Err("indptr must end at nnz");
        }
        if indices.len() != values.len() {
            return Err("indices/values length mismatch");
        }
        for w in indptr.windows(2) {
            // A pointer past nnz must come back down before the end.
            if w[0] > w[1] || w[1] > indices.len() {
                return Err("indptr must be nondecreasing");
            }
            check_row(&indices[w[0]..w[1]], ncols)?;
        }
        Ok(Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        })
    }

    /// An empty matrix with no nonzeros.
    pub fn empty(nrows: usize, ncols: usize) -> Self {
        Csr {
            nrows,
            ncols,
            indptr: vec![0; nrows + 1],
            indices: vec![],
            values: vec![],
        }
    }

    /// Builds from a dense matrix, keeping entries with `|x| > 0`.
    pub fn from_dense(m: &Mat) -> Self {
        let mut coo = Coo::new(m.nrows(), m.ncols());
        for i in 0..m.nrows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Densifies (test/debug helper; not used in the algorithms).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                m[(i, j)] = v;
            }
        }
        m
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
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of stored nonzeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Fill fraction `nnz / (nrows·ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
        }
    }

    /// Row `i` as `(column indices, values)` slices.
    #[inline]
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.indptr[i];
        let hi = self.indptr[i + 1];
        (&self.indices[lo..hi], &self.values[lo..hi])
    }

    /// The row-pointer array (`nrows + 1` entries, ends at `nnz`).
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All column indices in row-major nonzero order.
    #[inline]
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// All stored values in row-major nonzero order — the canonical
    /// values ordering that [`crate::csc::CscView`] indexes into.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Entry `(i, j)` via binary search within the row (0 if absent).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(p) => vals[p],
            Err(_) => 0.0,
        }
    }

    /// Squared Frobenius norm.
    pub fn fro_norm_sq(&self) -> f64 {
        self.values.iter().map(|v| v * v).sum()
    }

    /// The transpose as a new CSR (counting sort over columns; O(nnz)).
    pub fn transpose(&self) -> Csr {
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let indptr = counts.clone();
        let mut indices = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts;
        for i in 0..self.nrows {
            let (cols, vals) = self.row(i);
            for (&j, &v) in cols.iter().zip(vals) {
                let p = next[j];
                indices[p] = i;
                values[p] = v;
                next[j] += 1;
            }
        }
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr,
            indices,
            values,
        }
    }

    /// Heap bytes of the three arrays.
    pub fn heap_bytes(&self) -> usize {
        8 * self.nnz() + std::mem::size_of::<usize>() * (self.indptr.len() + self.indices.len())
    }

    /// Extracts the sub-block with rows `r0..r0+nr` and columns
    /// `c0..c0+nc`, reindexed to local coordinates: a copy of what
    /// [`Csr::window`] reads in place.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Csr {
        self.check_window(r0, c0, nr, nc);
        let mut indptr = Vec::with_capacity(nr + 1);
        indptr.push(0);
        let mut indices = Vec::new();
        let mut values = Vec::new();
        let c1 = c0 + nc;
        for i in r0..r0 + nr {
            let (cols, vals) = self.row(i);
            // Columns are sorted: binary search the window [c0, c1).
            let lo = cols.partition_point(|&c| c < c0);
            let hi = cols.partition_point(|&c| c < c1);
            for p in lo..hi {
                indices.push(cols[p] - c0);
                values.push(vals[p]);
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows: nr,
            ncols: nc,
            indptr,
            indices,
            values,
        }
    }

    /// Where each row of the window `r0..r0+nr × c0..c0+nc` starts and
    /// ends in [`indices`](Self::indices) / [`values`](Self::values):
    /// `nr` starts, then `nr` ends — 16 bytes per row, found by binary
    /// search within each (sorted) row. `None` for a full-width window,
    /// whose rows are bounded by the row pointers themselves.
    pub fn window_bounds(
        &self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
    ) -> Option<Box<[usize]>> {
        self.check_window(r0, c0, nr, nc);
        if c0 == 0 && nc == self.ncols {
            return None;
        }
        let c1 = c0 + nc;
        let mut bounds = vec![0usize; 2 * nr].into_boxed_slice();
        let (lo, hi) = bounds.split_at_mut(nr);
        for (i, (lo, hi)) in (r0..r0 + nr).zip(lo.iter_mut().zip(hi)) {
            let (start, cols) = (self.indptr[i], self.row(i).0);
            *lo = start + cols.partition_point(|&c| c < c0);
            *hi = start + cols.partition_point(|&c| c < c1);
        }
        Some(bounds)
    }

    /// Rows `r0..r0+nr` × columns `c0..c0+nc`, read in place: nothing is
    /// copied. `bounds` is what [`Csr::window_bounds`] returns for the
    /// same window (`None` for a full-width one).
    ///
    /// # Panics
    /// Panics if the window leaves the matrix, or `bounds` cannot be the
    /// window's.
    pub fn window<'a>(
        &'a self,
        r0: usize,
        c0: usize,
        nr: usize,
        nc: usize,
        bounds: Option<&'a [usize]>,
    ) -> CsrRef<'a> {
        self.check_window(r0, c0, nr, nc);
        let (lo, hi) = match bounds {
            Some(bounds) => {
                assert_eq!(bounds.len(), 2 * nr, "window bounds hold 2 words per row");
                bounds.split_at(nr)
            }
            None => {
                assert!(
                    c0 == 0 && nc == self.ncols,
                    "a column window reads its own bounds"
                );
                (&self.indptr[r0..r0 + nr], &self.indptr[r0 + 1..r0 + nr + 1])
            }
        };
        CsrRef {
            ncols: nc,
            c0,
            lo,
            hi,
            indices: &self.indices,
            values: &self.values,
        }
    }

    fn check_window(&self, r0: usize, c0: usize, nr: usize, nc: usize) {
        assert!(
            r0 + nr <= self.nrows && c0 + nc <= self.ncols,
            "block out of bounds"
        );
    }

    /// Rows `r0..r0+nr` as a block (all columns).
    pub fn rows_block(&self, r0: usize, nr: usize) -> Csr {
        self.block(r0, 0, nr, self.ncols)
    }

    /// Columns `c0..c0+nc` as a block (all rows).
    pub fn cols_block(&self, c0: usize, nc: usize) -> Csr {
        self.block(0, c0, self.nrows, nc)
    }

    /// Stacks row-blocks vertically into one matrix. Every block must
    /// have the same column count; an empty slice is a `0 × 0` matrix.
    ///
    /// Rows keep their data verbatim, so for any row split
    /// `vstack(&[a.rows_block(0, r), a.rows_block(r, m - r)]) == a` —
    /// the identity the panel-streaming ingest leans on to rebuild
    /// column stripes without mapping the whole file.
    pub fn vstack(blocks: &[Csr]) -> Csr {
        let ncols = blocks.first().map_or(0, |b| b.ncols);
        let nrows: usize = blocks.iter().map(|b| b.nrows).sum();
        let nnz: usize = blocks.iter().map(|b| b.nnz()).sum();
        let mut indptr = Vec::with_capacity(nrows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        for b in blocks {
            assert_eq!(b.ncols, ncols, "vstack blocks must agree on ncols");
            let base = indices.len();
            indptr.extend(b.indptr[1..].iter().map(|&p| base + p));
            indices.extend_from_slice(&b.indices);
            values.extend_from_slice(&b.values);
        }
        Csr {
            nrows,
            ncols,
            indptr,
            indices,
            values,
        }
    }

    /// Per-row nonzero counts (degree sequence when the matrix is an
    /// adjacency matrix).
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.nrows)
            .map(|i| self.indptr[i + 1] - self.indptr[i])
            .collect()
    }

    /// Per-column nonzero counts.
    pub fn col_degrees(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ncols];
        for &j in &self.indices {
            counts[j] += 1;
        }
        counts
    }

    /// How unevenly the nonzeros are spread over the rows: [`Skew`] of
    /// the row counts, read off the row pointers (no allocation).
    pub fn row_skew(&self) -> Skew {
        Skew::of_prefixes(self.nrows, self.indptr[1..].iter().copied())
    }

    /// How unevenly the nonzeros are spread over the columns: [`Skew`] of
    /// a column histogram. Only the shape of the distribution matters, so
    /// the pass is bounded: a matrix with more than 2¹⁶ nonzeros is
    /// sampled (every `nnz / 2¹⁶`-th row), and more than 2¹² columns are
    /// counted in at most 2¹² equal-width buckets — a few hundred
    /// microseconds and 32 KB whatever the matrix.
    pub fn col_skew(&self) -> Skew {
        const SAMPLE: usize = 1 << 16;
        const BUCKETS: usize = 1 << 12;
        let stride = (self.nnz() / SAMPLE).max(1);
        let shift = (self.ncols / BUCKETS)
            .checked_ilog2()
            .map_or(0, |bits| bits + 1);
        let mut histogram = vec![0usize; self.ncols.div_ceil(1 << shift)];
        for i in (0..self.nrows).step_by(stride) {
            for &j in self.row(i).0 {
                histogram[j >> shift] += 1;
            }
        }
        Skew::of(&histogram)
    }

    /// The same matrix with its rows and columns renamed: row `p` of the
    /// result is row `row_order[p]` of `self`, column `q` is column
    /// `col_order[q]` (each a permutation, position → original index;
    /// `None` keeps that dimension as it is). Entry `(i, j)` of `self`
    /// lands at `(pos_r(i), pos_c(j))`, where `pos` is the inverse of the
    /// order; values are carried over untouched and column indices stay
    /// sorted within rows.
    ///
    /// One pass over the rows in their new order; when columns are
    /// renamed each row is re-sorted on its own (most rows of a sparse
    /// matrix are a handful of entries). No global triplet sort.
    ///
    /// # Panics
    /// Panics if an order's length differs from its dimension.
    pub fn relabelled(&self, row_order: Option<&[usize]>, col_order: Option<&[usize]>) -> Csr {
        if let Some(order) = row_order {
            assert_eq!(order.len(), self.nrows, "row order must cover every row");
        }
        let col_pos = col_order.map(|order| {
            assert_eq!(
                order.len(),
                self.ncols,
                "column order must cover every column"
            );
            let mut pos = vec![0usize; self.ncols];
            for (q, &j) in order.iter().enumerate() {
                pos[j] = q;
            }
            pos
        });
        let mut indptr = Vec::with_capacity(self.nrows + 1);
        indptr.push(0);
        let mut indices = Vec::with_capacity(self.nnz());
        let mut values = Vec::with_capacity(self.nnz());
        let mut renamed: Vec<(usize, f64)> = Vec::new();
        for p in 0..self.nrows {
            let (cols, vals) = self.row(row_order.map_or(p, |order| order[p]));
            match &col_pos {
                None => {
                    indices.extend_from_slice(cols);
                    values.extend_from_slice(vals);
                }
                Some(pos) => {
                    renamed.clear();
                    renamed.extend(cols.iter().zip(vals).map(|(&j, &v)| (pos[j], v)));
                    renamed.sort_unstable_by_key(|&(q, _)| q);
                    indices.extend(renamed.iter().map(|&(q, _)| q));
                    values.extend(renamed.iter().map(|&(_, v)| v));
                }
            }
            indptr.push(indices.len());
        }
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr,
            indices,
            values,
        }
    }
}

/// Whether one row's column indices are strictly increasing and below
/// `ncols` — the row invariant every window and kernel relies on.
pub(crate) fn check_row(cols: &[usize], ncols: usize) -> Result<(), &'static str> {
    if cols.windows(2).any(|w| w[0] >= w[1]) {
        return Err("row indices must be strictly increasing");
    }
    if cols.last().is_some_and(|&j| j >= ncols) {
        return Err("column index out of bounds");
    }
    Ok(())
}

/// A borrowed, read-only block of a [`Csr`]: the sparse counterpart of
/// `nmf_matrix::MatRef`. Row `i`'s entries sit at positions
/// `lo[i]..hi[i]` of the source's [`indices`](Csr::indices) and
/// [`values`](Csr::values), and column `j` of the source is column
/// `j − c0` of the block. Made by [`Csr::window`] or, for a whole matrix,
/// `CsrRef::from(&csr)`; the `SpMM` kernels and [`crate::CscView`] take
/// either.
#[derive(Clone, Copy, Debug)]
pub struct CsrRef<'a> {
    ncols: usize,
    c0: usize,
    lo: &'a [usize],
    hi: &'a [usize],
    indices: &'a [usize],
    values: &'a [f64],
}

impl<'a> CsrRef<'a> {
    #[inline]
    pub fn nrows(&self) -> usize {
        self.lo.len()
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols)
    }

    /// The source column of the block's column 0.
    #[inline]
    pub fn col_offset(&self) -> usize {
        self.c0
    }

    /// Stored nonzeros of the block (a pass over its row bounds).
    pub fn nnz(&self) -> usize {
        self.lo.iter().zip(self.hi).map(|(lo, hi)| hi - lo).sum()
    }

    /// Positions of row `i`'s entries in the source's arrays.
    #[inline]
    pub fn span(&self, i: usize) -> std::ops::Range<usize> {
        self.lo[i]..self.hi[i]
    }

    /// Row `i` as `(column indices, values)` slices of the source. The
    /// indices are the source's: subtract [`col_offset`](Self::col_offset)
    /// for the block's.
    #[inline]
    pub fn row(&self, i: usize) -> (&'a [usize], &'a [f64]) {
        let span = self.span(i);
        (&self.indices[span.clone()], &self.values[span])
    }

    /// The source's whole values array, which [`span`](Self::span)
    /// positions (and a [`crate::CscView`] built from this block) index.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// Squared Frobenius norm: one left fold over the values in row
    /// order, so it equals [`Csr::fro_norm_sq`] of the extracted block
    /// to the bit.
    pub fn fro_norm_sq(&self) -> f64 {
        (0..self.nrows())
            .flat_map(|i| self.row(i).1)
            .map(|v| v * v)
            .sum()
    }
}

impl<'a> From<&'a Csr> for CsrRef<'a> {
    fn from(a: &'a Csr) -> Self {
        a.window(0, 0, a.nrows, a.ncols, None)
    }
}

/// How unevenly a dimension's nonzeros are spread over its index range:
/// the Kolmogorov–Smirnov-style distance between the nonzero prefix and
/// the uniform one,
///
/// ```text
/// d = max_i | (counts[0] + … + counts[i-1]) / total  −  i / len |
/// ```
///
/// 0 when every index holds the same count, approaching 1 when all the
/// nonzeros sit at one end. An Erdős–Rényi matrix measures its own
/// sampling noise (about `1/√total`); a power-law graph whose heavy
/// nodes come first ([`crate::gen::chung_lu_power_law`]) measures 0.4
/// and more at every size.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Skew {
    /// The distance `d` above.
    pub d: f64,
    /// Nonzeros counted: what the sampling noise scales with.
    pub total: usize,
}

impl Skew {
    /// The skew of a per-index count vector ([`Csr::row_degrees`],
    /// [`Csr::col_degrees`], or a histogram over equal-width buckets).
    pub fn of(counts: &[usize]) -> Skew {
        let prefixes = counts.iter().scan(0usize, |prefix, &c| {
            *prefix += c;
            Some(*prefix)
        });
        Skew::of_prefixes(counts.len(), prefixes)
    }

    /// [`Skew::of`] from the running totals `counts[0] + … + counts[i]`,
    /// `i = 0 … len-1` (a CSR's row pointers past the first).
    fn of_prefixes(len: usize, prefixes: impl Iterator<Item = usize> + Clone) -> Skew {
        let total = prefixes.clone().last().unwrap_or(0);
        let mut d = 0.0f64;
        if total > 0 {
            let (inv_total, inv_len) = (1.0 / total as f64, 1.0 / len as f64);
            for (i, prefix) in prefixes.enumerate() {
                d = d.max((prefix as f64 * inv_total - (i + 1) as f64 * inv_len).abs());
            }
        }
        Skew { d, total }
    }

    /// Whether the distance stands clear of sampling noise: `d > 0.1 +
    /// 2/√total`. Dealing consecutive equal-count index ranges of such a
    /// dimension to ranks gives them unequal work.
    pub fn is_skewed(&self) -> bool {
        self.d > 0.1 + 2.0 / (self.total as f64).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;

    fn sample() -> Csr {
        // [1 0 2]
        // [0 0 0]
        // [3 4 0]
        let mut c = Coo::new(3, 3);
        c.push(0, 0, 1.0);
        c.push(0, 2, 2.0);
        c.push(2, 0, 3.0);
        c.push(2, 1, 4.0);
        c.to_csr()
    }

    #[test]
    fn basic_accessors() {
        let m = sample();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.get(0, 2), 2.0);
        assert_eq!(m.get(1, 1), 0.0);
        assert_eq!(m.row(2).0, &[0, 1]);
        assert_eq!(m.density(), 4.0 / 9.0);
        assert_eq!(m.row_degrees(), vec![2, 0, 2]);
    }

    #[test]
    fn dense_round_trip() {
        let d = Mat::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 0.0, 0.0], &[3.0, 4.0, 0.0]]);
        let s = Csr::from_dense(&d);
        assert_eq!(s, sample());
        assert_eq!(s.to_dense(), d);
    }

    #[test]
    fn transpose_matches_dense_transpose() {
        let d = Mat::uniform(13, 7, 5);
        let mut sparse_d = d.clone();
        // Zero roughly half the entries to make it properly sparse.
        for (idx, v) in sparse_d.as_mut_slice().iter_mut().enumerate() {
            if idx % 2 == 0 {
                *v = 0.0;
            }
        }
        let s = Csr::from_dense(&sparse_d);
        assert_eq!(s.transpose().to_dense(), sparse_d.transpose());
        assert_eq!(s.transpose().transpose(), s);
    }

    #[test]
    fn block_extraction_matches_dense() {
        let d = Mat::uniform(10, 8, 6);
        let mut sd = d.clone();
        for (idx, v) in sd.as_mut_slice().iter_mut().enumerate() {
            if idx % 3 != 0 {
                *v = 0.0;
            }
        }
        let s = Csr::from_dense(&sd);
        let b = s.block(2, 3, 5, 4);
        assert_eq!(b.to_dense(), sd.block(2, 3, 5, 4));
    }

    #[test]
    fn blocks_tile_the_matrix() {
        let s = sample();
        let nnz_sum: usize = (0..3).map(|i| s.rows_block(i, 1).nnz()).sum();
        assert_eq!(nnz_sum, s.nnz());
        let nnz_sum_c: usize = (0..3).map(|j| s.cols_block(j, 1).nnz()).sum();
        assert_eq!(nnz_sum_c, s.nnz());
    }

    #[test]
    fn vstack_inverts_row_splits() {
        let s = Csr::from_dense(&Mat::uniform(11, 6, 4));
        let parts = [s.rows_block(0, 4), s.rows_block(4, 5), s.rows_block(9, 2)];
        assert_eq!(Csr::vstack(&parts), s);
        assert_eq!(Csr::vstack(&[]).shape(), (0, 0));
    }

    #[test]
    fn fro_norm_matches_dense() {
        let m = sample();
        assert_eq!(m.fro_norm_sq(), m.to_dense().fro_norm_sq());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_parts_validates_sorting() {
        Csr::from_parts(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]);
    }
}
