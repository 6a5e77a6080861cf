//! Input matrices: dense or sparse, global or per-rank local blocks.
//!
//! The engine is generic over density through one block type: the two
//! matrix-multiply kernels (`A·Hᵀ` and `Aᵀ·W`) are the only operations
//! that touch the data matrix, exactly as in the paper ("the data matrix
//! itself is never communicated"). Every block is read where it lies — a
//! view of the matrix it was cut from, which all ranks of a
//! [`SharedInput`](crate::SharedInput) share: a dense block at its
//! source's row stride, a sparse one as a window of its source's rows
//! ([`CsrRef`]). [`LocalMat`] is the owned block [`Input::block`]
//! extracts.
//!
//! The input also owns one decision: the **order in which its rows and
//! columns are dealt to ranks** (`Dealing`). Every scheme hands rank
//! `r` a run of consecutive indices, which is an equal share of the work
//! only when nonzeros are spread evenly over the index range. A sparse
//! input whose heavy rows or columns come first (a crawl-ordered web
//! graph) is therefore relabelled once, before blocks are cut from it;
//! [`crate::session::Model`] undoes the relabelling where factor rows
//! enter and leave the ranks, so nothing above the model sees it.

use crate::dist::Part;
use nmf_matrix::{matmul, matmul_ta, Mat, MatRef};
use nmf_sparse::{csc_chosen, spmm_at_dense, spmm_dense_t, CscView, Csr, CsrRef, SpBlock};
use std::sync::{Arc, OnceLock};

/// A whole input matrix (held by the test/benchmark harness; in a real
/// MPI deployment each rank would read only its block from disk).
#[derive(Clone, Debug)]
pub enum Input {
    Dense(Mat),
    Sparse(Csr),
}

impl Input {
    pub fn nrows(&self) -> usize {
        match self {
            Input::Dense(a) => a.nrows(),
            Input::Sparse(a) => a.nrows(),
        }
    }

    pub fn ncols(&self) -> usize {
        match self {
            Input::Dense(a) => a.ncols(),
            Input::Sparse(a) => a.ncols(),
        }
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    /// Stored nonzeros (dense matrices report `m·n`).
    pub fn nnz(&self) -> usize {
        match self {
            Input::Dense(a) => a.len(),
            Input::Sparse(a) => a.nnz(),
        }
    }

    pub fn is_sparse(&self) -> bool {
        matches!(self, Input::Sparse(_))
    }

    pub fn fro_norm_sq(&self) -> f64 {
        match self {
            Input::Dense(a) => a.fro_norm_sq(),
            Input::Sparse(a) => a.fro_norm_sq(),
        }
    }

    /// Extracts the local block rows `r0..r0+nr`, cols `c0..c0+nc`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> LocalMat {
        match self {
            Input::Dense(a) => LocalMat::Dense(a.block(r0, c0, nr, nc)),
            Input::Sparse(a) => LocalMat::Sparse(SpBlock::from_csr(a.block(r0, c0, nr, nc))),
        }
    }

    /// `A·Hᵀ` with `Hᵀ` supplied as `ht` (`n×k`); output `m×k`.
    pub fn mm_a_ht(&self, ht: &Mat) -> Mat {
        match self {
            Input::Dense(a) => matmul(a, ht),
            Input::Sparse(a) => spmm_dense_t(a, ht),
        }
    }

    /// `Aᵀ·W` (`n×k`) for `w` of shape `m×k`.
    pub fn mm_at_w(&self, w: &Mat) -> Mat {
        match self {
            Input::Dense(a) => matmul_ta(a, w),
            Input::Sparse(a) => spmm_at_dense(a, w),
        }
    }
}

/// How one dimension of an input was dealt (see [`Balance`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DimBalance {
    /// [`nmf_sparse::Skew::d`] of the dimension's nonzero counts: 0 is
    /// uniform, 1 is everything at one end ([`Csr::row_skew`],
    /// [`Csr::col_skew`]).
    pub skew: f64,
    /// Whether the skew tripped [`nmf_sparse::Skew::is_skewed`], so the
    /// dimension is dealt in a balanced order instead of index order.
    pub relabelled: bool,
}

/// The dealing decision of an input, per dimension: `None` for a
/// dimension that is never examined (dense inputs, mmap-backed files) and
/// always dealt in index order.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Balance {
    pub rows: Option<DimBalance>,
    pub cols: Option<DimBalance>,
}

/// The order in which an input's rows and columns are dealt to ranks: per
/// dimension either index order (`None`) or a permutation `order`
/// (position → original index) under which every run of consecutive
/// positions holds an equal share of the dimension's nonzeros.
///
/// A pure function of the matrix ([`Dealing::of`]) — never of the rank
/// count, grid, algorithm or solver — so every sharding of one input, a
/// resume after a restart and a regrid all see the same order.
#[derive(Debug, Default)]
pub(crate) struct Dealing {
    rows: Option<Vec<usize>>,
    cols: Option<Vec<usize>>,
    /// [`nmf_sparse::Skew::d`] of rows and columns; `None` when not
    /// examined.
    skew: Option<(f64, f64)>,
}

impl Dealing {
    /// Decides how `input` is dealt. Dense inputs are not examined; a
    /// sparse input costs one pass over its row pointers and a bounded
    /// one over its column indices ([`Csr::col_skew`]), plus the orders
    /// themselves for dimensions that trip
    /// [`nmf_sparse::Skew::is_skewed`].
    pub(crate) fn of(input: &Input) -> Dealing {
        let Input::Sparse(a) = input else {
            return Dealing::default();
        };
        let (row_skew, col_skew) = (a.row_skew(), a.col_skew());
        Dealing {
            rows: row_skew
                .is_skewed()
                .then(|| balanced_order(&a.row_degrees())),
            cols: col_skew
                .is_skewed()
                .then(|| balanced_order(&a.col_degrees())),
            skew: Some((row_skew.d, col_skew.d)),
        }
    }

    /// Row order (position → original row), `None` for index order.
    pub(crate) fn rows(&self) -> Option<&[usize]> {
        self.rows.as_deref()
    }

    /// Column order (position → original column), `None` for index order.
    pub(crate) fn cols(&self) -> Option<&[usize]> {
        self.cols.as_deref()
    }

    /// The matrix blocks are cut from, when it is not `input` itself.
    pub(crate) fn relabel(&self, input: &Input) -> Option<Input> {
        match input {
            Input::Sparse(a) if self.rows.is_some() || self.cols.is_some() => {
                Some(Input::Sparse(a.relabelled(self.rows(), self.cols())))
            }
            _ => None,
        }
    }

    pub(crate) fn balance(&self) -> Balance {
        let dim = |skew, order: &Option<Vec<usize>>| DimBalance {
            skew,
            relabelled: order.is_some(),
        };
        Balance {
            rows: self.skew.map(|(d, _)| dim(d, &self.rows)),
            cols: self.skew.map(|(_, d)| dim(d, &self.cols)),
        }
    }
}

/// A permutation of `0..counts.len()` (position → index) under which any
/// split of the positions into `p` equal consecutive runs gives each run
/// an equal share of the counts — for every `p` at once, which is what
/// lets one order serve every sharding.
///
/// Indices are ranked by count, heaviest first (a stable counting sort),
/// and dealt by halving: of every two consecutive ranks one goes to each
/// half of the positions, of every two that went to the same half one to
/// each of its quarters, and so on. Which half receives the heavier of a
/// pair alternates in the Thue–Morse pattern (the parity of the rank's
/// set bits), so that advantage cancels instead of adding up. In closed
/// form the position holding rank `r` has, as its `j`-th leading bit,
/// the parity of `r >> j`; read backwards, position `q` holds rank
/// `x ^ (x >> 1)` with `x` the bit-reversal of `q`. A run of `1/p` of
/// the positions then receives every `p`-th rank (exactly when `p` is a
/// power of two, to within a few ranks otherwise) and so the same mix of
/// heavy, light and empty indices, which balances nonzeros (the `MM`
/// work) and non-empty rows (the NLS work) together.
fn balanced_order(counts: &[usize]) -> Vec<usize> {
    let len = counts.len();
    let max = counts.iter().copied().max().unwrap_or(0);
    let mut next = vec![0usize; max + 2];
    for &c in counts {
        next[max - c + 1] += 1;
    }
    for b in 0..=max {
        next[b + 1] += next[b];
    }
    let mut ranked = vec![0usize; len];
    for (i, &c) in counts.iter().enumerate() {
        ranked[next[max - c]] = i;
        next[max - c] += 1;
    }
    let bits = len.next_power_of_two().trailing_zeros();
    if bits == 0 {
        return ranked;
    }
    (0..1usize << bits)
        .map(|position| position.reverse_bits() >> (usize::BITS - bits))
        .map(|x| x ^ (x >> 1))
        .filter(|&rank| rank < len)
        .map(|rank| ranked[rank])
        .collect()
}

/// One block of the input matrix, extracted into storage of its own
/// ([`Input::block`]); hand it to an engine directly
/// ([`AnlsEngine::new`](crate::engine::AnlsEngine::new)) and it is read
/// in place. A sparse block is a CSR that builds its column view over
/// the same values ([`SpBlock`]) the first time its `A_locᵀ·W` is routed
/// to the forward-traversal CSC kernel — bit-identical to the transposed
/// CSR pass, without its scattered output writes.
#[derive(Clone, Debug)]
pub enum LocalMat {
    Dense(Mat),
    Sparse(SpBlock),
}

impl LocalMat {
    pub fn nrows(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.nrows(),
            LocalMat::Sparse(a) => a.nrows(),
        }
    }

    pub fn ncols(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.ncols(),
            LocalMat::Sparse(a) => a.ncols(),
        }
    }

    pub fn nnz(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.len(),
            LocalMat::Sparse(a) => a.nnz(),
        }
    }

    pub fn fro_norm_sq(&self) -> f64 {
        match self {
            LocalMat::Dense(a) => a.fro_norm_sq(),
            LocalMat::Sparse(a) => a.fro_norm_sq(),
        }
    }
}

/// One rank's block of `A` as a sharding holds it: the `Arc`'d matrix it
/// was cut from plus its row and column [`Part`]s, read in place. Cutting
/// one copies nothing, so every rank (and every cached sharding) of one
/// source reads the same bytes.
///
/// A dense block is read at its source's row stride. A sparse block is a
/// window of its source's rows: a full-width one reads the source's row
/// pointers, a narrower one holds where each of its rows starts and ends
/// (`bounds`, 16 bytes per row). Its column view (16 bytes per nonzero)
/// is built the first time an engine routes the block's `Aᵀ·W` to it
/// ([`AtW::Csc`]) and then serves every engine that reads the block.
#[derive(Debug)]
pub(crate) enum Block {
    Dense {
        src: Arc<Mat>,
        rows: Part,
        cols: Part,
    },
    Sparse {
        src: Arc<Csr>,
        rows: Part,
        cols: Part,
        bounds: Option<Box<[usize]>>,
        csc: OnceLock<CscView>,
    },
}

impl Block {
    /// Rows `rows` × columns `cols` of `src`, read in place.
    pub(crate) fn view_of(src: &Arc<Mat>, rows: Part, cols: Part) -> Block {
        assert!(
            rows.end() <= src.nrows() && cols.end() <= src.ncols(),
            "block out of bounds"
        );
        Block::Dense {
            src: Arc::clone(src),
            rows,
            cols,
        }
    }

    /// Rows `rows` × columns `cols` of `src`, read in place.
    pub(crate) fn window_of(src: &Arc<Csr>, rows: Part, cols: Part) -> Block {
        Block::Sparse {
            src: Arc::clone(src),
            rows,
            cols,
            bounds: src.window_bounds(rows.offset, cols.offset, rows.len, cols.len),
            csc: OnceLock::new(),
        }
    }

    /// The block as the engine reads it.
    pub(crate) fn as_ref(&self) -> BlockRef<'_> {
        match self {
            Block::Dense { src, rows, cols } => {
                BlockRef::Dense(src.view(rows.offset, cols.offset, rows.len, cols.len))
            }
            Block::Sparse {
                src,
                rows,
                cols,
                bounds,
                csc,
            } => BlockRef::Sparse {
                a: src.window(
                    rows.offset,
                    cols.offset,
                    rows.len,
                    cols.len,
                    bounds.as_deref(),
                ),
                csc,
            },
        }
    }

    /// Stored entries (a dense block stores every entry).
    pub(crate) fn nnz(&self) -> usize {
        match self.as_ref() {
            BlockRef::Dense(a) => a.nrows() * a.ncols(),
            BlockRef::Sparse { a, .. } => a.nnz(),
        }
    }

    /// Heap bytes the block holds beyond its source: its row bounds and,
    /// once built, its column view.
    pub(crate) fn resident_bytes(&self) -> usize {
        match self {
            Block::Dense { .. } => 0,
            Block::Sparse { bounds, csc, .. } => {
                std::mem::size_of_val(bounds.as_deref().unwrap_or_default())
                    + csc.get().map_or(0, CscView::index_bytes)
            }
        }
    }

    /// Heap bytes of the matrix the block reads.
    pub(crate) fn source_bytes(&self) -> usize {
        match self {
            Block::Dense { src, .. } => 8 * src.len(),
            Block::Sparse { src, .. } => src.heap_bytes(),
        }
    }
}

/// An extracted block, owned by the block that wraps it: a view of the
/// whole of its own matrix.
impl From<LocalMat> for Block {
    fn from(block: LocalMat) -> Block {
        let all = |len| Part { offset: 0, len };
        match block {
            LocalMat::Dense(a) => {
                let (rows, cols) = (all(a.nrows()), all(a.ncols()));
                Block::view_of(&Arc::new(a), rows, cols)
            }
            LocalMat::Sparse(a) => {
                let (rows, cols) = (all(a.nrows()), all(a.ncols()));
                Block::window_of(&Arc::new(a.into_csr()), rows, cols)
            }
        }
    }
}

/// A borrowed [`Block`] — what the engine's two products read: a dense
/// block in place (at its source's row stride), or a sparse window and
/// the cell its column view is built in.
#[derive(Clone, Copy, Debug)]
pub(crate) enum BlockRef<'a> {
    Dense(MatRef<'a>),
    Sparse {
        a: CsrRef<'a>,
        csc: &'a OnceLock<CscView>,
    },
}

impl<'a> From<&'a LocalMat> for BlockRef<'a> {
    fn from(block: &'a LocalMat) -> Self {
        match block {
            LocalMat::Dense(a) => BlockRef::Dense(a.into()),
            LocalMat::Sparse(a) => BlockRef::Sparse {
                a: a.csr().into(),
                csc: a.csc_cell(),
            },
        }
    }
}

impl<'a> BlockRef<'a> {
    /// `‖block‖²_F`, summed in the order an extracted copy would sum it.
    pub(crate) fn fro_norm_sq(&self) -> f64 {
        match self {
            BlockRef::Dense(a) => a.fro_norm_sq(),
            BlockRef::Sparse { a, .. } => a.fro_norm_sq(),
        }
    }

    /// The kernel `Aᵀ·W` runs on this block at rank `k` — the one rule
    /// both the engine's dispatch and its report ([`SharedInput::at_w`])
    /// read. A sparse block goes column-forward once the `n_loc×k` output
    /// outgrows the last-level cache ([`csc_chosen`]).
    ///
    /// [`SharedInput::at_w`]: crate::SharedInput::at_w
    pub(crate) fn at_w(&self, k: usize) -> AtW {
        match self {
            BlockRef::Dense(_) => AtW::Dense,
            BlockRef::Sparse { a, .. } if csc_chosen(a.ncols(), k) => AtW::Csc,
            BlockRef::Sparse { .. } => AtW::Csr,
        }
    }

    /// The column view, for a sparse block whose `Aᵀ·W` runs on it:
    /// built on the first call for the block, shared afterwards.
    pub(crate) fn csc(&self) -> Option<&'a CscView> {
        match *self {
            BlockRef::Sparse { a, csc } => Some(csc.get_or_init(|| CscView::from_csr(a))),
            BlockRef::Dense(_) => None,
        }
    }
}

/// A block's `‖·‖²_F`, folded by the first engine that asks for it and
/// read by every later one: a sharding folds each of its blocks once, on
/// the rank thread that owns it, however many models, refits and warm
/// builds run over it.
#[derive(Debug, Default)]
pub(crate) struct NormCell {
    norm_sq: OnceLock<f64>,
    /// Times the block was folded.
    #[cfg(test)]
    pub(crate) folds: std::sync::atomic::AtomicUsize,
}

impl NormCell {
    /// `‖block‖²_F`, folded on the first call.
    pub(crate) fn get_or_fold(&self, block: BlockRef<'_>) -> f64 {
        *self.norm_sq.get_or_init(|| {
            #[cfg(test)]
            self.folds
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            block.fro_norm_sq()
        })
    }
}

/// Which kernel a rank's `Aᵀ·W` runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtW {
    /// `(Wᵀ·A)ᵀ` over the dense block, read in place.
    Dense,
    /// The transposed pass over the CSR rows (a sparse block whose output
    /// stays cache-resident).
    Csr,
    /// The forward traversal of the block's column view.
    Csc,
}

impl AtW {
    /// Lowercase name (`"dense"`, `"csr"`, `"csc"`).
    pub fn name(self) -> &'static str {
        match self {
            AtW::Dense => "dense",
            AtW::Csr => "csr",
            AtW::Csc => "csc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;
    use nmf_sparse::gen::banded;

    #[test]
    fn dense_and_sparse_kernels_agree() {
        let s = banded(12, 2);
        let d = s.to_dense();
        let dense = Input::Dense(d.clone());
        let sparse = Input::Sparse(s);
        let ht = Mat::uniform(12, 4, 1);
        assert!(dense.mm_a_ht(&ht).max_abs_diff(&sparse.mm_a_ht(&ht)) < 1e-12);
        let w = Mat::uniform(12, 4, 2);
        assert!(dense.mm_at_w(&w).max_abs_diff(&sparse.mm_at_w(&w)) < 1e-12);
        assert_eq!(dense.fro_norm_sq(), sparse.fro_norm_sq());
    }

    #[test]
    fn blocks_agree_between_representations() {
        let s = banded(10, 3);
        let dense = Input::Dense(s.to_dense());
        let sparse = Input::Sparse(s);
        let bd = dense.block(2, 1, 5, 6);
        let bs = sparse.block(2, 1, 5, 6);
        match (bd, bs) {
            (LocalMat::Dense(d), LocalMat::Sparse(sp)) => {
                assert!(d.max_abs_diff(&sp.csr().to_dense()) < 1e-15);
            }
            _ => panic!("unexpected block variants"),
        }
    }

    #[test]
    fn balanced_order_is_a_permutation_that_balances_every_split() {
        for len in [0usize, 1, 2, 7, 64, 1000] {
            // Heavy head (count ~ 1/√i), a third of the indices empty.
            let counts: Vec<usize> = (0..len)
                .map(|i| {
                    if i % 3 == 2 {
                        0
                    } else {
                        2000 / ((i + 1) as f64).sqrt() as usize
                    }
                })
                .collect();
            let order = balanced_order(&counts);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..len).collect::<Vec<_>>(), "len {len}");
            if len < 1000 {
                continue;
            }
            let total: usize = counts.iter().sum();
            let non_empty = counts.iter().filter(|&&c| c > 0).count();
            for p in [2usize, 3, 4, 5, 8] {
                for q in 0..p {
                    let run = &order[q * len / p..(q + 1) * len / p];
                    let share: usize = run.iter().map(|&i| counts[i]).sum();
                    let filled = run.iter().filter(|&&i| counts[i] > 0).count();
                    // No run is off by more than the heaviest index (2000
                    // of ~80,000) or a handful of non-empty ones.
                    assert!(
                        share.abs_diff(total / p) <= 2000,
                        "p={p} run {q}: {share} of {total}"
                    );
                    assert!(
                        filled.abs_diff(non_empty / p) <= 4,
                        "p={p} run {q}: {filled} of {non_empty} non-empty"
                    );
                }
            }
        }
    }

    #[test]
    fn dealing_examines_sparse_inputs_only_and_relabels_skewed_ones() {
        use nmf_sparse::gen::{chung_lu_power_law, erdos_renyi};
        let dense = Dealing::of(&Input::Dense(Mat::uniform(9, 7, 1)));
        assert_eq!(dense.balance(), Balance::default());
        assert!(dense.rows().is_none() && dense.cols().is_none());

        let er = Input::Sparse(erdos_renyi(300, 200, 0.05, 3));
        let even = Dealing::of(&er);
        assert!(even.rows().is_none() && even.cols().is_none());
        assert!(even.relabel(&er).is_none());
        let b = even.balance();
        assert!(!b.rows.unwrap().relabelled && b.rows.unwrap().skew < 0.1);

        let graph = chung_lu_power_law(400, 1600, 2.1, 5);
        let input = Input::Sparse(graph.clone());
        let skewed = Dealing::of(&input);
        let (rows, cols) = (skewed.rows().unwrap(), skewed.cols().unwrap());
        let b = skewed.balance();
        assert!(b.rows.unwrap().relabelled && b.cols.unwrap().relabelled);
        assert!(b.rows.unwrap().skew > 0.3 && b.cols.unwrap().skew > 0.3);
        let Some(Input::Sparse(dealt)) = skewed.relabel(&input) else {
            panic!("a skewed sparse input is relabelled");
        };
        for (p, &i) in rows.iter().enumerate() {
            for (q, &j) in cols.iter().enumerate() {
                assert_eq!(dealt.get(p, q), graph.get(i, j));
            }
        }
    }

    #[test]
    fn a_sparse_blocks_column_view_is_built_once_and_reads_the_csr_bits() {
        use nmf_sparse::{spmm_at_dense_csc_into, spmm_at_dense_into};
        let src = Arc::new(nmf_sparse::gen::erdos_renyi(40, 30, 0.2, 9));
        let (rows, cols) = (
            Part { offset: 7, len: 20 },
            Part {
                offset: 11,
                len: 13,
            },
        );
        let block = Block::window_of(&src, rows, cols);
        assert!(
            block.as_ref().at_w(8) == AtW::Csr,
            "a 13x8 output stays in cache"
        );
        // Two engines reaching for the view at once get the same one.
        let barrier = std::sync::Barrier::new(2);
        let views: Vec<usize> = std::thread::scope(|s| {
            let reach = || {
                barrier.wait();
                block.as_ref().csc().map(|c| c as *const CscView as usize)
            };
            let threads = [s.spawn(reach), s.spawn(reach)];
            threads.map(|t| t.join().unwrap().unwrap()).into()
        });
        assert_eq!(views[0], views[1], "one column view per block");
        let BlockRef::Sparse { a, csc } = block.as_ref() else {
            panic!("a sparse block");
        };
        let csc = csc.get().expect("built above");
        assert_eq!(block.resident_bytes(), 16 * rows.len + csc.index_bytes());
        let w = Mat::uniform(rows.len, 8, 3);
        let (mut by_col, mut by_row) = (Mat::zeros(cols.len, 8), Mat::zeros(cols.len, 8));
        spmm_at_dense_csc_into(a, csc, &w, &mut by_col);
        spmm_at_dense_into(a, &w, &mut by_row);
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_col), bits(&by_row));
        let copy = src.block(rows.offset, cols.offset, rows.len, cols.len);
        assert_eq!(block.nnz(), copy.nnz());
        assert_eq!(a.fro_norm_sq().to_bits(), copy.fro_norm_sq().to_bits());
    }

    #[test]
    fn a_dense_view_reads_what_extraction_copies() {
        let a = Mat::uniform(9, 7, 4);
        let src = Arc::new(a.clone());
        let (rows, cols) = (Part { offset: 2, len: 5 }, Part { offset: 1, len: 4 });
        let view = Block::view_of(&src, rows, cols);
        let LocalMat::Dense(copy) = Input::Dense(a).block(2, 1, 5, 4) else {
            panic!("a dense input extracts dense blocks");
        };
        let BlockRef::Dense(v) = view.as_ref() else {
            panic!("a view is dense");
        };
        assert_eq!((v.shape(), v.ld()), ((5, 4), 7));
        for i in 0..5 {
            assert_eq!(v.row(i), copy.row(i));
        }
        assert_eq!(
            view.as_ref().fro_norm_sq().to_bits(),
            copy.fro_norm_sq().to_bits()
        );
        assert_eq!((view.nnz(), view.resident_bytes()), (20, 0));
        // An extracted block wrapped as a view of itself reads the same.
        let owned = Block::from(LocalMat::Dense(copy.clone()));
        assert_eq!(
            owned.as_ref().fro_norm_sq().to_bits(),
            copy.fro_norm_sq().to_bits()
        );
    }
}
