//! Shared pre-sharded inputs: extract per-rank blocks once, reuse them
//! everywhere.
//!
//! The paper's MPI-FAUN algorithms assume each rank owns its block of
//! `A` *once* and reuses it every iteration. [`SharedInput`] is the one
//! input every build and every resume reads: it holds the source matrix
//! (resident, or a memory-mapped `NMFS` file that never fully loads)
//! plus a cache of per-rank block sets keyed by the distribution shape
//! ([`ShardKey`]). Every build that asks for the same grid shape — a
//! rank sweep, a [`refit`](crate::session::Model::refit) after a
//! checkpoint reload, ten serving tenants over one dataset — hands the
//! *same* blocks to its rank threads, cloning an `Arc`, not a matrix.
//! [`Nmf::on`](crate::session::Nmf::on) wraps a copy of its input in a
//! fresh `SharedInput`, so a one-off build shards the same way.
//!
//! A resident source is held behind an `Arc`, and its shardings are
//! *views*: each rank block is that `Arc` plus the block's row and column
//! extents, read in place by the rank's kernels — a dense block at the
//! source's row stride, a sparse one as a window of the source's rows
//! ([`nmf_sparse::CsrRef`]). No sharding of a resident source copies any
//! of `A` — not [`ShardKey::Naive`]'s row and column stripes, not a grid
//! (the 1×1 grid's whole-matrix block included) — so a rank
//! holds `A` once, as the shared source (Table 2's `mn/p` words per rank,
//! where an extracted copy would double it). What a block adds is
//! per-block bookkeeping: a sparse block narrower than the source holds
//! where each of its rows starts and ends (16 bytes per row), and a
//! sparse block whose `Aᵀ·W` runs column-forward
//! ([`nmf_sparse::csc_chosen`]) a column view of 16 bytes per nonzero,
//! built by the first engine that needs it and shared by every later
//! one. A dense engine adds nothing: both its products read the block
//! where it lies. [`resident_bytes`]
//! counts a source once however many shardings are cached.
//!
//! [`resident_bytes`]: SharedInput::resident_bytes
//!
//! ```
//! use hpc_nmf::prelude::*;
//! use nmf_matrix::{rng::Fill, Mat};
//!
//! let shared = SharedInput::new(Input::Dense(Mat::uniform(30, 20, 7)));
//! for k in [2, 3, 4] {
//!     let mut model = Nmf::on_shared(&shared)
//!         .rank(k)
//!         .ranks(4)
//!         .algo(Algo::Hpc2D)
//!         .max_iters(2)
//!         .build()
//!         .expect("valid request");
//!     model.run();
//! }
//! assert_eq!(shared.extractions(), 1); // one sharding served all three
//! ```
//!
//! Out-of-core ingest goes through [`SharedInput::open_mmap`]: block
//! extraction streams bounded row panels of the file (see
//! [`nmf_sparse::io::MmapCsr`]), so peak memory is the extracted blocks
//! plus one panel window — the whole is never materialized, and each
//! extracted block, a whole-matrix window of its own, reads exactly what
//! the resident path's window reads. A file whose rows turn out
//! malformed while they are extracted fails the build with
//! [`NmfError::Corrupt`].
//!
//! ## Balanced dealing
//!
//! A resident sparse input whose nonzeros crowd one end of its row or
//! column range is relabelled once, in [`SharedInput::new`], into an
//! order under which every run of consecutive indices holds an equal
//! share of them (`Dealing` in [`crate::input`]; the original matrix is
//! dropped). Blocks are cut from the relabelled matrix, so the cache,
//! the communication schemes and the word counts see an ordinary
//! input; [`Model`](crate::session::Model) maps factor rows back to
//! original indices at its boundary, so callers do too.
//! [`SharedInput::balance`] reports the decision and
//! [`SharedInput::rank_loads`] what each rank of a sharding ends up
//! holding. Dense inputs, unskewed sparse inputs and mmap-backed files
//! are dealt in index order.

use crate::dist::{Part, ShardKey};
use crate::engine::SplitBlocks;
use crate::error::NmfError;
use crate::input::{AtW, Balance, Block, BlockRef, Dealing, Input, LocalMat, NormCell};
use nmf_matrix::Mat;
use nmf_sparse::io::{MmError, MmapCsr, DEFAULT_PANEL_BYTES};
use nmf_sparse::{Csr, SpBlock};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One rank's share of the input matrix: the block its `A·Hᵀ` reads and,
/// under [`ShardKey::Naive`], which deals `A` twice (as row stripes and as
/// column stripes), the other block its `Aᵀ·W` reads. A [`Sharding`]
/// holds each rank's behind an `Arc`, which is what lets a cached
/// sharding fan out to any number of builds: a rank thread is handed a
/// pointer, not blocks.
pub(crate) struct RankData {
    row: Block,
    /// The column stripe; `None` where `row` feeds both products.
    col: Option<Block>,
    /// The column block's `‖·‖²_F`, this rank's share of `‖A‖²`: folded
    /// by the first engine built on the sharding, read by every later
    /// one.
    norm: NormCell,
}

/// The per-rank blocks of one sharding, in rank order.
pub(crate) type Sharding = Arc<Vec<Arc<RankData>>>;

impl RankData {
    /// The distinct blocks held.
    fn blocks(&self) -> impl Iterator<Item = &Block> {
        std::iter::once(&self.row).chain(&self.col)
    }

    /// The block `Aᵀ·W` reads.
    fn col(&self) -> &Block {
        self.col.as_ref().unwrap_or(&self.row)
    }

    /// The pair the engine reads.
    pub(crate) fn split_blocks(&self) -> SplitBlocks<'_> {
        SplitBlocks::new(self.row.as_ref(), self.col().as_ref()).with_norm(&self.norm)
    }
}

/// What one rank of a sharding holds: the cost drivers of its share of
/// an iteration, in exact counts. Equal across ranks means no rank waits
/// for another inside a collective.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLoad {
    /// Stored entries of the rank's block(s) of `A` — the `MM` work.
    pub nnz: usize,
    /// Rows of the rank's `W` slice that hold at least one entry of `A`
    /// — the row solves of its `W` update that are not trivially zero.
    pub non_empty_rows: usize,
    /// Columns of the rank's `H` slice that hold at least one entry —
    /// likewise for its `H` update.
    pub non_empty_cols: usize,
}

/// The matrix behind a [`SharedInput`].
enum Source {
    /// Fully resident and dense: every block is a view of it.
    Dense(Arc<Mat>),
    /// Fully resident and sparse, relabelled when its [`Dealing`] says
    /// so: every block is a window of it.
    Sparse(Arc<Csr>),
    /// An `NMFS` file, read in bounded row-panel windows; `path` names it
    /// in errors.
    Mmap { mm: MmapCsr, path: PathBuf },
}

/// A shareable, shard-once input. See the [module docs](self).
///
/// `SharedInput` is a handle: cloning it is a reference-count bump, and
/// every clone reads the same source and the same sharding cache. It is
/// `Send + Sync`, so clones share one dataset across threads, builders
/// and serving tenants.
#[derive(Clone)]
pub struct SharedInput(Arc<Dataset>);

/// What every clone of a [`SharedInput`] shares.
struct Dataset {
    source: Source,
    m: usize,
    n: usize,
    /// The order `source` is dealt in (index order for mmap sources).
    dealing: Arc<Dealing>,
    cache: Mutex<HashMap<ShardKey, Sharding>>,
    /// How many distinct shardings have been extracted (cache misses).
    extractions: AtomicUsize,
}

impl SharedInput {
    /// Wraps a resident input matrix. A sparse input is examined for
    /// skew here and, when skewed, relabelled (see the [module
    /// docs](self#balanced-dealing)). No value of `A` is summed here:
    /// `‖A‖²_F` is the ranks' block norms, each folded on the rank
    /// thread that owns the block and all-reduced by the engines.
    pub fn new(input: Input) -> SharedInput {
        let (m, n) = input.shape();
        let dealing = Dealing::of(&input);
        let source = match dealing.relabel(&input).unwrap_or(input) {
            Input::Dense(a) => Source::Dense(Arc::new(a)),
            Input::Sparse(a) => Source::Sparse(Arc::new(a)),
        };
        SharedInput(Arc::new(Dataset {
            source,
            m,
            n,
            dealing: Arc::new(dealing),
            cache: Mutex::new(HashMap::new()),
            extractions: AtomicUsize::new(0),
        }))
    }

    /// Opens an `NMFS` file (see [`nmf_sparse::io::write_csr_binary`])
    /// for panel-streamed sharding. Only the header and row pointers are
    /// mapped; no value of `A` is read until a sharding extracts its
    /// blocks, each of which the engine that first reads it folds into
    /// its share of `‖A‖²_F`.
    ///
    /// An mmap-backed input is always dealt in file order: block
    /// extraction streams contiguous row panels, and a relabelled deal
    /// would need every panel routed to every block of a sharding. A
    /// skewed file therefore shards unevenly where the same matrix,
    /// resident, would not; the factors agree either way.
    pub fn open_mmap(path: impl AsRef<Path>) -> Result<SharedInput, NmfError> {
        let path = path.as_ref();
        let mm = MmapCsr::open(path).map_err(|e| file_error(path, e))?;
        let (m, n) = mm.shape();
        Ok(SharedInput(Arc::new(Dataset {
            source: Source::Mmap {
                mm,
                path: path.to_path_buf(),
            },
            m,
            n,
            dealing: Arc::new(Dealing::default()),
            cache: Mutex::new(HashMap::new()),
            extractions: AtomicUsize::new(0),
        })))
    }

    pub fn nrows(&self) -> usize {
        self.0.m
    }

    pub fn ncols(&self) -> usize {
        self.0.n
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.0.m, self.0.n)
    }

    /// Stored entries of the source (dense inputs count every entry).
    pub fn nnz(&self) -> usize {
        match &self.0.source {
            Source::Dense(a) => a.len(),
            Source::Sparse(a) => a.nnz(),
            Source::Mmap { mm, .. } => mm.nnz(),
        }
    }

    pub fn is_sparse(&self) -> bool {
        !matches!(self.0.source, Source::Dense(_))
    }

    /// Whether this input streams from an `NMFS` file instead of a
    /// resident matrix.
    pub fn is_mmap(&self) -> bool {
        matches!(self.0.source, Source::Mmap { .. })
    }

    /// How many times a sharding has actually been extracted (cache
    /// misses). A rank sweep of any length over one algorithm shape
    /// leaves this at 1 — the acceptance metric for block-extraction
    /// sharing.
    pub fn extractions(&self) -> usize {
        self.0.extractions.load(Ordering::Relaxed)
    }

    /// Shardings currently cached.
    pub fn cached_shardings(&self) -> usize {
        self.cache().len()
    }

    /// The shard cache. The map is only ever changed by inserting a
    /// finished sharding or by clearing it, so it is consistent even if
    /// an extraction panicked while holding the lock: a poisoned lock is
    /// recovered, and one failed extraction does not take the dataset
    /// away from every other tenant.
    fn cache(&self) -> MutexGuard<'_, HashMap<ShardKey, Sharding>> {
        self.0.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The order this input's rows and columns are dealt in.
    pub(crate) fn dealing(&self) -> &Arc<Dealing> {
        &self.0.dealing
    }

    /// How this input is dealt, per dimension: its skew and whether it
    /// was relabelled for it.
    pub fn balance(&self) -> Balance {
        self.0.dealing.balance()
    }

    /// What each rank of sharding `key` holds (extracting the sharding if
    /// it is not cached yet).
    pub fn rank_loads(&self, key: ShardKey) -> Result<Vec<RankLoad>, NmfError> {
        let (m, n) = (self.0.m, self.0.n);
        let set = self.rank_data(key)?;
        // Which rows and columns of `A` hold an entry, from the blocks.
        let (mut row_hit, mut col_hit) = (vec![false; m], vec![false; n]);
        let mut mark = |block: &Block, r0: usize, c0: usize| match block.as_ref() {
            BlockRef::Dense(a) => {
                row_hit[r0..r0 + a.nrows()].fill(true);
                col_hit[c0..c0 + a.ncols()].fill(true);
            }
            BlockRef::Sparse { a, .. } => {
                for i in 0..a.nrows() {
                    let cols = a.row(i).0;
                    row_hit[r0 + i] |= !cols.is_empty();
                    for &j in cols {
                        col_hit[c0 + j - a.col_offset()] = true;
                    }
                }
            }
        };
        let layouts = key.layouts(m, n);
        for (data, lay) in set.iter().zip(&layouts) {
            let (row_side, col_side) = key.blocks(lay, m, n);
            let extents = std::iter::once(row_side).chain(col_side);
            for (block, (rows, cols)) in data.blocks().zip(extents) {
                mark(block, rows.offset, cols.offset);
            }
        }
        let count = |hit: &[bool]| hit.iter().filter(|&&h| h).count();
        Ok(set
            .iter()
            .zip(&layouts)
            .map(|(data, lay)| RankLoad {
                nnz: data.blocks().map(Block::nnz).sum(),
                non_empty_rows: count(&row_hit[lay.w.offset..lay.w.end()]),
                non_empty_cols: count(&col_hit[lay.ht.offset..lay.ht.end()]),
            })
            .collect())
    }

    /// The kernel each rank's `Aᵀ·W` runs on under sharding `key` at
    /// factorization rank `k`, in rank order: the rule an engine
    /// dispatches on (extracting the sharding if it is not cached yet).
    pub fn at_w(&self, key: ShardKey, k: usize) -> Result<Vec<AtW>, NmfError> {
        Ok(self
            .rank_data(key)?
            .iter()
            .map(|data| data.col().as_ref().at_w(k))
            .collect())
    }

    /// Resident heap bytes held by this input: the source matrix (for an
    /// mmap-backed input, whose file pages are the kernel's, the matrices
    /// its blocks were extracted into) plus what every cached sharding's
    /// blocks hold beyond it — nothing for a dense
    /// block, row bounds for a sparse window narrower than its source
    /// and, where an engine built one, its column view. So a resident
    /// input is its source's bytes plus a few words per block row however
    /// many shardings are cached. The serving layer charges these bytes
    /// once per *dataset*, not once per tenant.
    pub fn resident_bytes(&self) -> usize {
        let cache = self.cache();
        let blocks = || {
            cache
                .values()
                .flat_map(|set| set.iter())
                .flat_map(|d| d.blocks())
        };
        let source = match &self.0.source {
            Source::Dense(a) => 8 * a.len(),
            Source::Sparse(a) => a.heap_bytes(),
            Source::Mmap { .. } => blocks().map(Block::source_bytes).sum(),
        };
        source + blocks().map(Block::resident_bytes).sum::<usize>()
    }

    /// The per-rank blocks for `key`, extracting them on first request
    /// and serving the cached `Arc` afterwards. Fails only on an
    /// mmap-backed input whose file cannot be read back, or whose rows
    /// turn out malformed.
    pub(crate) fn rank_data(&self, key: ShardKey) -> Result<Sharding, NmfError> {
        let mut cache = self.cache();
        if let Some(hit) = cache.get(&key) {
            return Ok(Arc::clone(hit));
        }
        let (m, n) = self.shape();
        let cut = |(rows, cols)| self.block(rows, cols);
        let set: Sharding = Arc::new(
            key.layouts(m, n)
                .iter()
                .map(|lay| {
                    let (row_side, col_side) = key.blocks(lay, m, n);
                    Ok(Arc::new(RankData {
                        row: cut(row_side)?,
                        col: col_side.map(cut).transpose()?,
                        norm: NormCell::default(),
                    }))
                })
                .collect::<Result<_, NmfError>>()?,
        );
        self.0.extractions.fetch_add(1, Ordering::Relaxed);
        cache.insert(key, Arc::clone(&set));
        Ok(set)
    }

    /// Drops all cached shardings (the blocks themselves survive as
    /// long as live models hold their `Arc`s).
    pub fn clear_cache(&self) {
        self.cache().clear();
    }

    /// One block of the source: a view of a resident source, an
    /// extracted block (streaming row panels) of an mmap-backed one.
    fn block(&self, rows: Part, cols: Part) -> Result<Block, NmfError> {
        Ok(match &self.0.source {
            Source::Dense(a) => Block::view_of(a, rows, cols),
            Source::Sparse(a) => Block::window_of(a, rows, cols),
            Source::Mmap { mm, path } => {
                let a = mmap_block(mm, rows, cols).map_err(|e| file_error(path, e))?;
                Block::from(LocalMat::Sparse(SpBlock::from_csr(a)))
            }
        })
    }
}

/// An `NMFS` read failure as the session API reports it, naming the file.
fn file_error(path: &Path, e: MmError) -> NmfError {
    match e {
        MmError::Io(source) => NmfError::Io {
            path: path.to_path_buf(),
            source,
        },
        MmError::Parse(reason) => NmfError::Corrupt {
            path: path.to_path_buf(),
            reason,
        },
    }
}

impl std::fmt::Debug for SharedInput {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedInput")
            .field("shape", &(self.0.m, self.0.n))
            .field("mmap", &self.is_mmap())
            .field("extractions", &self.extractions())
            .field("cached_shardings", &self.cached_shardings())
            .finish_non_exhaustive()
    }
}

/// `Csr::block` semantics over an mmap-backed file, streaming bounded
/// row panels and stacking their column windows — peak mapped bytes is
/// one panel, never the file. The per-row data is identical to what
/// `Csr::block` produces on the resident matrix, so the result is
/// bit-identical.
fn mmap_block(mm: &MmapCsr, rows: Part, cols: Part) -> Result<Csr, MmError> {
    let step = mm.panel_rows_for_budget(DEFAULT_PANEL_BYTES);
    let mut parts = Vec::new();
    let mut r = rows.offset;
    while r < rows.end() {
        let h = step.min(rows.end() - r);
        parts.push(mm.panel(r, h)?.cols_block(cols.offset, cols.len)?);
        r += h;
    }
    Ok(Csr::vstack(&parts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;
    use nmf_sparse::gen::erdos_renyi;
    use nmf_sparse::io::write_csr_binary_path;

    /// A sparse block's rows as it reads them: block-local columns and
    /// value bits.
    fn rows_of(block: &Block) -> Vec<(Vec<usize>, Vec<u64>)> {
        let BlockRef::Sparse { a, .. } = block.as_ref() else {
            panic!("expected a sparse block");
        };
        (0..a.nrows())
            .map(|i| {
                let (cols, vals) = a.row(i);
                (
                    cols.iter().map(|j| j - a.col_offset()).collect(),
                    vals.iter().map(|v| v.to_bits()).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn cache_hits_do_not_re_extract() {
        let shared = SharedInput::new(Input::Sparse(erdos_renyi(12, 10, 0.3, 3)));
        let a = shared.rank_data(ShardKey::Grid { pr: 2, pc: 2 }).unwrap();
        let b = shared.rank_data(ShardKey::Grid { pr: 2, pc: 2 }).unwrap();
        assert_eq!(shared.extractions(), 1);
        // The same Arc'd blocks, not equal copies.
        assert!(Arc::ptr_eq(&a, &b));
        assert!(
            a.iter().all(|x| x.col.is_none()),
            "a grid rank holds one block"
        );
        shared.rank_data(ShardKey::Grid { pr: 1, pc: 1 }).unwrap();
        assert_eq!(shared.extractions(), 2);
        assert_eq!(shared.cached_shardings(), 2);
        shared.clear_cache();
        assert_eq!(shared.cached_shardings(), 0);
    }

    #[test]
    fn a_resident_sharding_is_views_of_the_source() {
        let dense = Mat::uniform(12, 10, 3);
        let sparse = erdos_renyi(12, 10, 0.4, 3);
        let (dense_bytes, sparse_bytes) = (8 * dense.len(), sparse.heap_bytes());
        for (input, source_bytes) in [
            (Input::Dense(dense), dense_bytes),
            (Input::Sparse(sparse), sparse_bytes),
        ] {
            let shared = SharedInput::new(input);
            let mut bounds = 0;
            for key in [
                ShardKey::Grid { pr: 1, pc: 1 },
                ShardKey::Naive { p: 3 },
                ShardKey::Grid { pr: 2, pc: 2 },
            ] {
                let set = shared.rank_data(key).unwrap();
                for (data, lay) in set.iter().zip(key.layouts(12, 10)) {
                    let (row_side, col_side) = key.blocks(&lay, 12, 10);
                    assert_eq!(data.col.is_some(), col_side.is_some(), "{key:?}");
                    let extents = std::iter::once(row_side).chain(col_side);
                    for (block, (rows, cols)) in data.blocks().zip(extents) {
                        let ((r, c), same) = match (block, &shared.0.source) {
                            (Block::Dense { src, rows, cols }, Source::Dense(of)) => {
                                ((rows, cols), Arc::ptr_eq(src, of))
                            }
                            (
                                Block::Sparse {
                                    src, rows, cols, ..
                                },
                                Source::Sparse(of),
                            ) => ((rows, cols), Arc::ptr_eq(src, of)),
                            _ => panic!("a sharding holds blocks of its source's kind"),
                        };
                        assert!(same, "{key:?}: a copy, not a view");
                        assert_eq!((*r, *c), (rows, cols));
                        // A narrower sparse window holds two words per row.
                        if matches!(block, Block::Sparse { .. }) && cols.len < 10 {
                            bounds += 16 * rows.len;
                        }
                    }
                }
            }
            assert_eq!(shared.extractions(), 3);
            assert_eq!(
                shared.resident_bytes(),
                source_bytes + bounds,
                "the source, once, plus the windows' row bounds"
            );
        }
    }

    #[test]
    fn mmap_sharding_matches_resident_sharding() {
        let a = erdos_renyi(37, 29, 0.15, 5);
        let path = std::env::temp_dir().join(format!("nmf-shared-{}.nmfs", std::process::id()));
        write_csr_binary_path(&a, &path).unwrap();
        let resident = SharedInput::new(Input::Sparse(a));
        let mapped = SharedInput::open_mmap(&path).unwrap();
        assert_eq!(mapped.shape(), resident.shape());
        for key in [
            ShardKey::Grid { pr: 1, pc: 1 },
            ShardKey::Naive { p: 3 },
            ShardKey::Grid { pr: 3, pc: 2 },
        ] {
            let rs = resident.rank_data(key).unwrap();
            let ms = mapped.rank_data(key).unwrap();
            assert_eq!(rs.len(), ms.len());
            for (x, y) in rs.iter().zip(ms.iter()) {
                assert_eq!(
                    x.col.is_some(),
                    y.col.is_some(),
                    "sharding shapes must agree"
                );
                for (bx, by) in x.blocks().zip(y.blocks()) {
                    assert_eq!(rows_of(bx), rows_of(by));
                }
                // Each rank's share of ‖A‖², as its cell keeps it.
                assert_eq!(
                    x.norm.get_or_fold(x.col().as_ref()).to_bits(),
                    y.norm.get_or_fold(y.col().as_ref()).to_bits(),
                    "{key:?}"
                );
            }
        }
        assert!(mapped.resident_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_sharding_folds_each_block_once() {
        use crate::config::{Algo, NmfConfig};
        use crate::grid::Grid;
        use crate::session::Nmf;
        let shared = SharedInput::new(Input::Dense(Mat::uniform(24, 18, 4)));
        for (algo, ranks) in [(Algo::HpcGrid(Grid::new(2, 2)), 4), (Algo::Naive, 3)] {
            let on = || Nmf::on_shared(&shared).algo(algo).ranks(ranks).max_iters(4);
            let mut first = on().rank(3).build().unwrap();
            first.step();
            let key = first.shard_key();
            let folds = || -> Vec<usize> {
                let set = shared.rank_data(key).unwrap();
                set.iter()
                    .map(|d| d.norm.folds.load(Ordering::Relaxed))
                    .collect()
            };
            assert_eq!(folds(), vec![1; ranks], "{key:?}: the first build folds");
            // A second build, a refit and a warm build over the sharding.
            let mut second = on().rank(2).build().unwrap();
            second.step();
            first.refit(NmfConfig::new(2).with_max_iters(4)).unwrap();
            first.step();
            let (w, h) = second.factors();
            let mut warm = on().rank(2).warm_start(w, h.transpose()).build().unwrap();
            warm.step();
            assert_eq!(
                folds(),
                vec![1; ranks],
                "{key:?}: later engines read the cells"
            );
        }
        assert_eq!(shared.extractions(), 2);
    }

    #[test]
    fn hostile_nmfs_files_are_corrupt_not_a_panic() {
        // The inputs of `nmf_sparse::io`'s
        // `hostile_headers_and_row_pointers_are_parse_errors`: a row count
        // whose section size wraps, row pointers that run backwards, and
        // sections the file does not hold.
        let image = |counts: [u64; 3], indptr: &[u64], entries: usize| {
            let mut bytes = b"NMFS\x01\0\0\0".to_vec();
            for x in counts.iter().chain(indptr) {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            bytes.resize(bytes.len() + 16 * entries, 0);
            bytes
        };
        let path = std::env::temp_dir().join(format!("nmf-hostile-{}.nmfs", std::process::id()));
        for bytes in [
            image([(1 << 61) - 1, 4, 0], &[], 0),
            image([2, 4, 2], &[0, 5, 2], 2),
            image([1 << 37, 4, 0], &[0], 0),
        ] {
            std::fs::write(&path, &bytes).unwrap();
            assert!(matches!(
                SharedInput::open_mmap(&path),
                Err(NmfError::Corrupt { .. })
            ));
        }
        // A sound header over a column index past `ncols`: the file opens
        // (only its row pointers are read), and fails the build that first
        // reads its rows.
        let a = erdos_renyi(6, 5, 0.5, 2);
        write_csr_binary_path(&a, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let first_index = 32 + 8 * (a.nrows() + 1);
        bytes[first_index..first_index + 8].copy_from_slice(&5u64.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let shared = SharedInput::open_mmap(&path).expect("header and row pointers are sound");
        let built = crate::session::Nmf::on_shared(&shared).rank(2).build();
        assert!(matches!(built, Err(NmfError::Corrupt { .. })));
        assert!(matches!(
            shared.rank_loads(ShardKey::Naive { p: 2 }),
            Err(NmfError::Corrupt { .. })
        ));
        assert_eq!((shared.extractions(), shared.cached_shardings()), (0, 0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_panicking_extraction_does_not_poison_the_cache() {
        let shared = SharedInput::new(Input::Sparse(erdos_renyi(20, 20, 0.2, 1)));
        // Zero ranks trips `ShardKey::layouts`' assertion inside the extraction,
        // while `rank_data` holds the cache lock.
        let doomed = shared.clone();
        let crashed = std::thread::spawn(move || {
            let _ = doomed.rank_data(ShardKey::Naive { p: 0 });
        })
        .join();
        assert!(crashed.is_err(), "the extraction must have panicked");

        let tenant = shared.clone();
        let blocks = std::thread::spawn(move || tenant.rank_data(ShardKey::Grid { pr: 2, pc: 2 }))
            .join()
            .expect("the cache serves other threads after a failed extraction")
            .unwrap();
        assert_eq!(blocks.len(), 4);
        assert_eq!(shared.cached_shardings(), 1);
        assert!(shared.resident_bytes() > 0);
        shared.clear_cache();
        assert_eq!(shared.cached_shardings(), 0);
    }

    #[test]
    fn rank_loads_count_what_each_rank_holds() {
        use nmf_sparse::Coo;
        // Rows 0 and 3 and columns 1, 2 and 5 hold entries.
        let mut coo = Coo::new(4, 6);
        for (i, j) in [(0, 1), (0, 2), (3, 2), (3, 5)] {
            coo.push(i, j, 1.0);
        }
        let shared = SharedInput::new(Input::Sparse(coo.to_csr()));
        assert_eq!(
            shared.rank_loads(ShardKey::Grid { pr: 1, pc: 1 }).unwrap(),
            [RankLoad {
                nnz: 4,
                non_empty_rows: 2,
                non_empty_cols: 3
            }]
        );
        // 2x2 grid: W slices are single rows, H slices are columns
        // {0}, {1,2} (grid column 0, split over 2 grid rows: 2+1) ...
        let loads = shared.rank_loads(ShardKey::Grid { pr: 2, pc: 2 }).unwrap();
        assert_eq!(
            loads.iter().map(|l| l.nnz).collect::<Vec<_>>(),
            [2, 0, 1, 1]
        );
        assert_eq!(
            loads.iter().map(|l| l.non_empty_rows).sum::<usize>(),
            2,
            "W slices partition the rows"
        );
        assert_eq!(
            loads.iter().map(|l| l.non_empty_cols).sum::<usize>(),
            3,
            "H slices partition the columns"
        );
        let naive = shared.rank_loads(ShardKey::Naive { p: 2 }).unwrap();
        assert_eq!(
            naive.iter().map(|l| l.nnz).collect::<Vec<_>>(),
            [2 + 3, 2 + 1]
        );
        assert_eq!(
            naive.iter().map(|l| l.non_empty_rows).collect::<Vec<_>>(),
            [1, 1]
        );
        assert_eq!(
            naive.iter().map(|l| l.non_empty_cols).collect::<Vec<_>>(),
            [2, 1]
        );
        // Dense inputs hold an entry everywhere.
        let dense = SharedInput::new(Input::Dense(Mat::uniform(4, 6, 1)));
        assert!(dense
            .rank_loads(ShardKey::Grid { pr: 2, pc: 1 })
            .unwrap()
            .iter()
            .all(|l| l.nnz == 12 && l.non_empty_rows == 2 && l.non_empty_cols == 3));
        assert_eq!(dense.balance(), Balance::default());
    }

    #[test]
    fn resident_bytes_count_source_and_cache() {
        let shared = SharedInput::new(Input::Sparse(erdos_renyi(20, 20, 0.1, 1)));
        let base = shared.resident_bytes();
        assert!(base > 0);
        shared.rank_data(ShardKey::Grid { pr: 2, pc: 2 }).unwrap();
        assert!(shared.resident_bytes() > base);
    }
}
