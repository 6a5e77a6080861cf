//! Owned, row-major dense matrix.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense `f64` matrix stored in row-major order.
///
/// Row-major layout is chosen because every hot kernel in the NMF
/// algorithms walks rows of the tall factor matrices (`W`, `AHᵀ`) or rows
/// of the wide input blocks, and because it makes per-row slicing (used to
/// scatter/gather blocks between ranks) a contiguous-memory operation.
///
/// The storage may hold more entries than the shape uses: a workspace
/// buffer is sized once by [`reserve`](Self::reserve) and then
/// [`reshape`](Self::reshape)d in place. Everything that reads the
/// matrix — [`as_slice`](Self::as_slice), equality, the kernels — sees
/// only the first `nrows·ncols` entries.
///
/// A reserved buffer starts on a 64-byte cache line, whatever address
/// the allocator returns: with `k` a multiple of 8 each row of a `·×k`
/// factor then spans whole lines, which the sparse kernels' row gathers
/// and scatters rely on (a row one line too wide cost `sparse_mu` about
/// a quarter of its SpMM time).
#[derive(Clone)]
pub struct Mat {
    nrows: usize,
    ncols: usize,
    /// Entries of `data` before the matrix's first: 0, or for a
    /// [`reserve`](Self::reserve)d buffer whatever puts it on a line.
    off: usize,
    /// At least `off + nrows·ncols` entries; the matrix is the leading
    /// ones after `off`.
    data: Vec<f64>,
}

/// Entries of a cache line; a reserved buffer skips fewer than this.
const LINE: usize = 64 / std::mem::size_of::<f64>();

impl Mat {
    /// An `nrows × ncols` matrix of zeros.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Mat {
            nrows,
            ncols,
            off: 0,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// An `nrows × ncols` matrix with every entry equal to `v`.
    pub fn filled(nrows: usize, ncols: usize, v: f64) -> Self {
        Mat {
            nrows,
            ncols,
            off: 0,
            data: vec![v; nrows * ncols],
        }
    }

    /// The `n × n` identity.
    pub fn eye(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != nrows * ncols`.
    pub fn from_vec(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            nrows * ncols,
            "data length {} does not match {}x{}",
            data.len(),
            nrows,
            ncols
        );
        Mat {
            nrows,
            ncols,
            off: 0,
            data,
        }
    }

    /// Builds a matrix from a nested-slice literal, e.g.
    /// `Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])`.
    ///
    /// # Panics
    /// Panics if the rows have unequal lengths or `rows` is empty.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let ncols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * ncols);
        for r in rows {
            assert_eq!(r.len(), ncols, "ragged rows in from_rows");
            data.extend_from_slice(r);
        }
        Mat {
            nrows: rows.len(),
            ncols,
            off: 0,
            data,
        }
    }

    /// Builds a matrix by evaluating `f(i, j)` at every position.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for i in 0..nrows {
            for j in 0..ncols {
                data.push(f(i, j));
            }
        }
        Mat {
            nrows,
            ncols,
            off: 0,
            data,
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

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Number of entries (`nrows * ncols`).
    #[inline]
    pub fn len(&self) -> usize {
        self.nrows * self.ncols
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The entries, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data[self.off..self.off + self.len()]
    }

    /// The entries, row-major, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        let (off, len) = (self.off, self.len());
        &mut self.data[off..off + len]
    }

    /// Consumes the matrix, returning its entries as a row-major vector.
    pub fn into_vec(mut self) -> Vec<f64> {
        self.data.truncate(self.off + self.len());
        self.data.drain(..self.off);
        self.data
    }

    /// Entries the storage holds: the largest `nrows·ncols` that
    /// [`reshape`](Self::reshape) accepts.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.data.len() - self.off
    }

    /// Heap bytes the storage occupies.
    pub fn heap_bytes(&self) -> usize {
        self.data.capacity() * std::mem::size_of::<f64>()
    }

    /// Grows the storage to hold at least `len` entries, allocating
    /// exactly that many plus `LINE − 1` (the most a cache-line start can
    /// skip); never shrinks it. The shape and its entries are kept. The
    /// one allocation of a workspace buffer that is
    /// [`reshape`](Self::reshape)d afterwards.
    pub fn reserve(&mut self, len: usize) {
        if len > self.capacity() {
            let mut data = Vec::with_capacity(len + LINE - 1);
            data.resize(len + LINE - 1, 0.0);
            let off = data.as_ptr().align_offset(64).min(LINE - 1);
            data.truncate(off + len);
            let kept = self.len();
            data[off..off + kept].copy_from_slice(self.as_slice());
            self.data = data;
            self.off = off;
        }
    }

    /// Gives the matrix the shape `nrows × ncols` within its storage: no
    /// allocation, and no entry is written, so the entries are whatever
    /// the storage held (callers overwrite them). The storage, its
    /// capacity and its address are unchanged.
    ///
    /// # Panics
    /// Panics if `nrows·ncols` exceeds [`capacity`](Self::capacity).
    pub fn reshape(&mut self, nrows: usize, ncols: usize) {
        assert!(
            nrows * ncols <= self.capacity(),
            "reshape to {nrows}x{ncols} exceeds the storage of {} entries",
            self.capacity()
        );
        self.nrows = nrows;
        self.ncols = ncols;
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.nrows);
        &self.as_slice()[i * self.ncols..(i + 1) * self.ncols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.nrows);
        let nc = self.ncols;
        &mut self.as_mut_slice()[i * nc..(i + 1) * nc]
    }

    /// Two distinct rows borrowed mutably at once (for row-swap updates).
    ///
    /// # Panics
    /// Panics if `i == j`.
    pub fn two_rows_mut(&mut self, i: usize, j: usize) -> (&mut [f64], &mut [f64]) {
        assert_ne!(i, j, "two_rows_mut requires distinct rows");
        let nc = self.ncols;
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        let (a, b) = self.as_mut_slice().split_at_mut(hi * nc);
        let lo_row = &mut a[lo * nc..(lo + 1) * nc];
        let hi_row = &mut b[..nc];
        if i < j {
            (lo_row, hi_row)
        } else {
            (hi_row, lo_row)
        }
    }

    /// Column `j` copied into a new vector (columns are strided in
    /// row-major layout, so this is a gather).
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.ncols);
        (0..self.nrows).map(|i| self[(i, j)]).collect()
    }

    /// The sub-block with rows `r0..r0+nr` and columns `c0..c0+nc`, read
    /// in place: nothing is copied.
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_> {
        assert!(
            r0 + nr <= self.nrows && c0 + nc <= self.ncols,
            "view out of bounds"
        );
        let data = if nr == 0 {
            &[][..]
        } else {
            let start = r0 * self.ncols + c0;
            &self.as_slice()[start..start + (nr - 1) * self.ncols + nc]
        };
        MatRef {
            data,
            nrows: nr,
            ncols: nc,
            ld: self.ncols,
        }
    }

    /// A newly allocated copy of the sub-block with rows `r0..r0+nr` and
    /// columns `c0..c0+nc`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Mat {
        assert!(
            r0 + nr <= self.nrows && c0 + nc <= self.ncols,
            "block out of bounds"
        );
        let mut out = Mat::zeros(nr, nc);
        for i in 0..nr {
            out.row_mut(i)
                .copy_from_slice(&self.row(r0 + i)[c0..c0 + nc]);
        }
        out
    }

    /// Copies `src` into the sub-block whose top-left corner is `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Mat) {
        assert!(
            r0 + src.nrows <= self.nrows && c0 + src.ncols <= self.ncols,
            "set_block out of bounds"
        );
        for i in 0..src.nrows {
            self.row_mut(r0 + i)[c0..c0 + src.ncols].copy_from_slice(src.row(i));
        }
    }

    /// A copy of rows `r0..r0+nr` (contiguous in memory, so a single memcpy).
    pub fn rows_block(&self, r0: usize, nr: usize) -> Mat {
        assert!(r0 + nr <= self.nrows);
        let data = self.as_slice()[r0 * self.ncols..(r0 + nr) * self.ncols].to_vec();
        Mat::from_vec(nr, self.ncols, data)
    }

    /// A copy of columns `c0..c0+nc`.
    pub fn cols_block(&self, c0: usize, nc: usize) -> Mat {
        self.block(0, c0, self.nrows, nc)
    }

    /// Stacks `blocks` vertically. All blocks must share a column count.
    pub fn vstack(blocks: &[Mat]) -> Mat {
        assert!(!blocks.is_empty());
        let ncols = blocks[0].ncols;
        let nrows: usize = blocks.iter().map(|b| b.nrows).sum();
        let mut data = Vec::with_capacity(nrows * ncols);
        for b in blocks {
            assert_eq!(b.ncols, ncols, "vstack column mismatch");
            data.extend_from_slice(b.as_slice());
        }
        Mat {
            nrows,
            ncols,
            off: 0,
            data,
        }
    }

    /// Stacks `blocks` horizontally. All blocks must share a row count.
    pub fn hstack(blocks: &[Mat]) -> Mat {
        assert!(!blocks.is_empty());
        let nrows = blocks[0].nrows;
        let ncols: usize = blocks.iter().map(|b| b.ncols).sum();
        let mut out = Mat::zeros(nrows, ncols);
        let mut c0 = 0;
        for b in blocks {
            assert_eq!(b.nrows, nrows, "hstack row mismatch");
            out.set_block(0, c0, b);
            c0 += b.ncols;
        }
        out
    }

    /// Overwrites `self` with `src` (shapes must match). The workspace
    /// counterpart of `clone()`: no allocation.
    pub fn copy_from(&mut self, src: &Mat) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.as_mut_slice().copy_from_slice(src.as_slice());
    }

    /// Gives the matrix the shape `nrows × ncols` and **zero-fills** it:
    /// on any shape change every entry is written (a memset of the whole
    /// new shape), and the storage is reallocated when it is too small.
    /// If the shape already matches, the call is a no-op and the entries
    /// are kept.
    ///
    /// For a buffer whose shape changes often, such as a workspace slab
    /// that several phases share, [`reserve`](Self::reserve) once and
    /// [`reshape`](Self::reshape), which writes nothing.
    pub fn resize(&mut self, nrows: usize, ncols: usize) {
        if (self.nrows, self.ncols) == (nrows, ncols) {
            return;
        }
        self.nrows = nrows;
        self.ncols = ncols;
        self.off = 0;
        self.data.clear();
        self.data.resize(nrows * ncols, 0.0);
    }

    /// The transpose as a new matrix.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.ncols, self.nrows);
        // Blocked transpose keeps both source and destination accesses
        // within cache lines for large matrices.
        const B: usize = 32;
        for ib in (0..self.nrows).step_by(B) {
            for jb in (0..self.ncols).step_by(B) {
                for i in ib..(ib + B).min(self.nrows) {
                    for j in jb..(jb + B).min(self.ncols) {
                        out[(j, i)] = self[(i, j)];
                    }
                }
            }
        }
        out
    }

    /// True if every entry is finite.
    pub fn all_finite(&self) -> bool {
        self.as_slice().iter().all(|x| x.is_finite())
    }

    /// True if every entry is `>= 0`.
    pub fn all_nonnegative(&self) -> bool {
        self.as_slice().iter().all(|&x| x >= 0.0)
    }

    /// Maximum absolute entry-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape());
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// A borrowed, read-only block of a row-major matrix: `nrows` rows of
/// `ncols` entries, row `i` starting `i·ld` entries into the storage
/// (`ld ≥ ncols`; `ld > ncols` for a block narrower than its source).
/// Made by [`Mat::view`] or, for a whole matrix, `MatRef::from(&mat)`.
#[derive(Clone, Copy, Debug)]
pub struct MatRef<'a> {
    /// From element `(0, 0)` to the last element of the last row.
    data: &'a [f64],
    nrows: usize,
    ncols: usize,
    ld: usize,
}

impl<'a> MatRef<'a> {
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// `(nrows, ncols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.nrows, self.ncols)
    }

    /// Distance in the storage between the starts of consecutive rows.
    #[inline]
    pub fn ld(&self) -> usize {
        self.ld
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.nrows);
        &self.data[i * self.ld..i * self.ld + self.ncols]
    }

    /// The rows, top to bottom.
    pub fn rows(&self) -> impl Iterator<Item = &'a [f64]> + 'a {
        let this = *self;
        (0..this.nrows).map(move |i| this.row(i))
    }

    /// The storage from element `(i, j)` to the end of the block.
    #[inline]
    pub(crate) fn tail(&self, i: usize, j: usize) -> &'a [f64] {
        &self.data[i * self.ld + j..]
    }

    /// Squared Frobenius norm, summed in row-major order — the same sum,
    /// bit for bit, as [`Mat::fro_norm_sq`] of a copy of the block.
    pub fn fro_norm_sq(&self) -> f64 {
        self.rows().flatten().map(|x| x * x).sum()
    }
}

impl<'a> From<&'a Mat> for MatRef<'a> {
    fn from(a: &'a Mat) -> Self {
        a.view(0, 0, a.nrows, a.ncols)
    }
}

/// The empty `0×0` matrix — the natural initial state for workspace
/// buffers that are `resize`d before first use.
impl Default for Mat {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

/// Equal shapes and equal entries; storage beyond the shape is not
/// compared.
impl PartialEq for Mat {
    fn eq(&self, other: &Mat) -> bool {
        self.shape() == other.shape() && self.as_slice() == other.as_slice()
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &self.data[self.off + i * self.ncols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        &mut self.data[self.off + i * self.ncols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.nrows, self.ncols)?;
        let show_rows = self.nrows.min(8);
        for i in 0..show_rows {
            let show_cols = self.ncols.min(8);
            let row: Vec<String> = self.row(i)[..show_cols]
                .iter()
                .map(|x| format!("{x:10.4}"))
                .collect();
            let ellipsis = if self.ncols > show_cols { " ..." } else { "" };
            writeln!(f, "  [{}{}]", row.join(", "), ellipsis)?;
        }
        if self.nrows > show_rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape() {
        let m = Mat::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn eye_has_unit_diagonal() {
        let m = Mat::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m[(i, j)], if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m[(1, 2)], 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn indexing_and_mutation() {
        let mut m = Mat::zeros(2, 2);
        m[(0, 1)] = 7.0;
        assert_eq!(m[(0, 1)], 7.0);
        m.row_mut(1).copy_from_slice(&[1.0, 2.0]);
        assert_eq!(m.col(1), vec![7.0, 2.0]);
    }

    #[test]
    fn block_and_set_block() {
        let m = Mat::from_fn(4, 5, |i, j| (i * 5 + j) as f64);
        let b = m.block(1, 2, 2, 3);
        assert_eq!(b.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(b.row(1), &[12.0, 13.0, 14.0]);
        let mut z = Mat::zeros(4, 5);
        z.set_block(1, 2, &b);
        assert_eq!(z[(2, 4)], 14.0);
        assert_eq!(z[(0, 0)], 0.0);
    }

    #[test]
    fn view_reads_the_block_in_place() {
        let m = Mat::from_fn(5, 7, |i, j| (i * 7 + j) as f64 * 0.1 - 1.3);
        let v = m.view(1, 2, 3, 4);
        assert_eq!((v.shape(), v.ld()), ((3, 4), 7));
        let copy = m.block(1, 2, 3, 4);
        for i in 0..3 {
            assert_eq!(v.row(i), copy.row(i));
        }
        assert_eq!(v.fro_norm_sq().to_bits(), copy.fro_norm_sq().to_bits());
        let whole = MatRef::from(&m);
        assert_eq!((whole.shape(), whole.ld()), ((5, 7), 7));
        assert_eq!(whole.fro_norm_sq().to_bits(), m.fro_norm_sq().to_bits());
        // Empty extents at the far edges are valid views.
        assert_eq!(m.view(5, 7, 0, 0).rows().count(), 0);
        assert!(m.view(0, 7, 5, 0).rows().all(<[f64]>::is_empty));
    }

    #[test]
    fn rows_block_is_contiguous_copy() {
        let m = Mat::from_fn(4, 3, |i, j| (i * 3 + j) as f64);
        let b = m.rows_block(2, 2);
        assert_eq!(b.as_slice(), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn stack_round_trips_block() {
        let m = Mat::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let top = m.rows_block(0, 2);
        let bot = m.rows_block(2, 2);
        assert_eq!(Mat::vstack(&[top, bot]), m);
        let left = m.cols_block(0, 2);
        let right = m.cols_block(2, 2);
        assert_eq!(Mat::hstack(&[left, right]), m);
    }

    #[test]
    fn transpose_involution() {
        let m = Mat::from_fn(37, 53, |i, j| (i * 53 + j) as f64 * 0.5);
        let t = m.transpose();
        assert_eq!(t.shape(), (53, 37));
        assert_eq!(t[(10, 20)], m[(20, 10)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn two_rows_mut_orders_correctly() {
        let mut m = Mat::from_fn(3, 2, |i, j| (i * 2 + j) as f64);
        {
            let (r2, r0) = m.two_rows_mut(2, 0);
            assert_eq!(r2, &[4.0, 5.0]);
            assert_eq!(r0, &[0.0, 1.0]);
            r2[0] = -1.0;
        }
        assert_eq!(m[(2, 0)], -1.0);
    }

    #[test]
    fn reshape_keeps_storage_through_shrink_and_grow_cycles() {
        let mut m = Mat::default();
        m.reserve(24);
        let (ptr, heap) = (m.as_slice().as_ptr(), m.heap_bytes());
        assert_eq!((m.capacity(), heap), (24, (24 + LINE - 1) * 8));
        assert_eq!(
            ptr as usize % 64,
            0,
            "a reserved buffer starts a cache line"
        );
        for (r, c) in [(6, 4), (2, 3), (24, 1), (0, 0), (3, 8), (1, 1), (4, 6)] {
            m.reshape(r, c);
            assert_eq!(
                (m.shape(), m.len(), m.as_slice().len()),
                ((r, c), r * c, r * c)
            );
            assert_eq!(m.capacity(), 24);
            assert_eq!(m.heap_bytes(), heap);
            if r * c > 0 {
                assert_eq!(m.as_slice().as_ptr(), ptr, "{r}x{c} moved the storage");
            }
        }
        // A shape change writes nothing: the storage's entries show through.
        m.reshape(4, 6);
        m.as_mut_slice()
            .iter_mut()
            .enumerate()
            .for_each(|(i, x)| *x = i as f64);
        m.reshape(2, 5);
        assert_eq!(m.row(1), &[5.0, 6.0, 7.0, 8.0, 9.0]);
        m.reshape(3, 8);
        assert_eq!(m[(2, 7)], 23.0);
        // Reserving less than the storage holds changes nothing.
        m.reserve(10);
        assert_eq!((m.capacity(), m.shape()), (24, (3, 8)));
        // Growing moves the matrix to new line-aligned storage.
        m.reserve(40);
        assert_eq!((m.capacity(), m.shape(), m[(2, 7)]), (40, (3, 8), 23.0));
        assert_eq!(m.as_slice().as_ptr() as usize % 64, 0);
        assert_eq!(m.into_vec(), (0..24).map(f64::from).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "exceeds the storage")]
    fn reshape_beyond_the_storage_panics() {
        let mut m = Mat::zeros(2, 3);
        m.reshape(7, 1);
    }

    #[test]
    fn equality_and_slices_see_only_the_shape() {
        let mut slab = Mat::default();
        slab.reserve(12);
        slab.reshape(3, 4);
        slab.as_mut_slice().fill(7.0);
        slab.reshape(2, 3);
        slab.as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let exact = Mat::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(slab, exact, "the storage's tail is not part of the matrix");
        assert_eq!(exact, slab);
        assert_eq!(slab.as_slice(), exact.as_slice());
        assert_eq!(slab.clone().into_vec(), exact.clone().into_vec());
        assert!(slab.all_finite() && slab.all_nonnegative());
        assert_eq!(slab.max_abs_diff(&exact), 0.0);
        let mut copy = Mat::zeros(2, 3);
        copy.copy_from(&slab);
        assert_eq!(copy, exact);
        slab.reshape(3, 2);
        assert_ne!(slab, exact, "same entries, different shape");
        slab.reshape(2, 3);
        slab[(1, 2)] = -6.0;
        assert_ne!(slab, exact);
    }

    #[test]
    fn resize_zero_fills_on_a_shape_change() {
        let mut m = Mat::filled(2, 3, 4.0);
        m.resize(2, 3);
        assert!(
            m.as_slice().iter().all(|&x| x == 4.0),
            "same shape keeps entries"
        );
        m.resize(3, 2);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Mat::filled(2, 2, 1.0);
        let mut b = a.clone();
        b[(1, 1)] = 1.5;
        assert_eq!(a.max_abs_diff(&b), 0.5);
    }
}
