//! The step-wise ANLS engine: one iteration loop behind all three drivers.
//!
//! The paper's central observation is that Sequential (Algorithm 1),
//! Naive-Parallel (Algorithm 2), and HPC-NMF (Algorithm 3) perform *the
//! same alternating-NLS computation* and differ only in how the Gram
//! matrices, assembled factor blocks, and normal-equation right-hand
//! sides move between processors. [`AnlsEngine`] encodes that directly:
//! the loop body — Gram → ridge → NLS solve, twice, then the
//! Gram-identity objective — exists exactly once ([`AnlsEngine::step`]),
//! and the algorithms are two implementations of [`CommScheme`]:
//!
//! | Scheme | Paper | Sharding | Communication |
//! |---|---|---|---|
//! | [`Replicated1D`] | Algorithm 2 | [`ShardKey::Naive`] | all-gather whole factors, redundant Grams |
//! | [`Grid2D`] | Algorithms 1 and 3 | [`ShardKey::Grid`] | Gram all-reduce + grid-dimension all-gather + reduce-scatter |
//!
//! Algorithm 1 is Algorithm 3 with `p = 1` and runs as exactly that, a
//! [`Grid2D`] on a 1×1 grid, whose size-1 grid dimensions move nothing.
//!
//! The scheme is the engine's only generic: the data matrix under it is
//! always a [`SplitBlocks`], the pair of rank-local blocks the two `MM`
//! products read in place (one block twice, except under Algorithm 2),
//! cut at the extents of [`ShardKey::layout`], which also size the
//! schemes' buffers.
//!
//! Because the arithmetic is shared, the engine preserves the two
//! hard-won properties of the drivers it replaced: **bit-identical
//! iterate trajectories** across schemes and processor counts (the same
//! kernels run in the same order on the same operands), and the
//! **zero-allocation steady state** (every per-iteration matrix lives in
//! the [`IterWorkspace`], the collectives are the `_into` variants, and
//! the NLS solvers reuse their own scratch).
//!
//! ## Step-wise execution
//!
//! Unlike the seed's run-to-completion drivers, the engine is a
//! resumable iterator: [`step`](AnlsEngine::step) executes exactly one
//! outer iteration and returns its [`IterRecord`];
//! [`factors`](AnlsEngine::factors) exposes the current iterates
//! mid-run (for checkpointing, streaming consumers, or serving partially
//! converged factors); a fresh engine started from exported factors
//! continues the *bit-identical* trajectory (see
//! `tests/checkpoint_resume.rs`). [`run`](AnlsEngine::run) drives
//! `step` under the configured [`ConvergencePolicy`] and
//! [`run_observed`](AnlsEngine::run_observed) additionally invokes a
//! per-iteration observer — the hook for progress reporting, live
//! objective dashboards, or external early-stop controllers.
//!
//! ## Distributed stopping discipline
//!
//! Every stopping decision must be *collective*: if one rank leaves the
//! loop while another enters a collective, the job deadlocks. The engine
//! guarantees agreement by deciding only on collectively-known values:
//! the objective is all-reduced (every rank sees the same float), and
//! the wall-clock budget of [`ConvergencePolicy::WindowedBudget`] is
//! folded into the objective all-reduce as a flag summed across ranks,
//! so one slow rank stops everyone.

use crate::config::{
    apply_ridge, rel_error, ConvergencePolicy, IterRecord, NmfConfig, NmfOutput, StopReason,
    TaskTimes,
};
use crate::dist::{Dist1D, RankLayout, ShardKey};
use crate::grid::Grid;
use crate::input::{AtW, BlockRef, LocalMat, NormCell};
use crate::workspace::{IterWorkspace, SessionPack};
use nmf_matrix::gram::gram_into;
use nmf_matrix::pack::b_scratch_len;
use nmf_matrix::{matmul_scratch_into, matmul_ta_scratch_into, ta_scratch_len, Mat};
use nmf_nls::NlsSolver;
use nmf_sparse::{spmm_at_dense_csc_into, spmm_at_dense_into, spmm_dense_t_into, CscView};
use nmf_vmpi::{Comm, CommStats};
use std::time::{Duration, Instant};

/// The data matrix as one rank sees it. It enters the algorithm only
/// through two products (plus its norm), exactly as in the paper ("the
/// data matrix itself is never communicated"): the row block feeds
/// `A·Hᵀ`, the column block feeds `Aᵀ·W`, and the column blocks' norms
/// sum to `‖A‖²`. They are Algorithm 2's doubled
/// storage — the row stripe `Aᵢ` and the column stripe `Aʲ`,
/// [`stripes`](Self::stripes) — and under Algorithm 3 (Algorithm 1
/// included) the same block twice (`From<&LocalMat>`).
///
/// Both are borrowed and read in place — a dense block as a row-strided
/// view, a sparse one as a window of its source's rows, of a matrix
/// shared by every rank when the session built them from a
/// [`SharedInput`](crate::SharedInput) — so the engine holds no copy of
/// `A`, as the paper's Table 2 charges a rank `mn/p` words for it: a
/// dense `Aᵀ·W` reads the column block in place too, as `(Wᵀ·A)ᵀ`. Only
/// a sparse `Aᵀ·W` may add the column view it runs on where that is the
/// faster orientation.
#[derive(Clone, Copy)]
pub struct SplitBlocks<'a> {
    row: BlockRef<'a>,
    col: BlockRef<'a>,
    /// The column block's CSC view, where [`prepare`] routed its
    /// `Aᵀ·W` to it ([`AtW::Csc`]).
    ///
    /// [`prepare`]: SplitBlocks::prepare
    csc: Option<&'a CscView>,
    /// Where the column block's norm is kept between engines: the
    /// sharding's cell for blocks a session dealt, none for blocks a
    /// caller hands the engine directly (folded per engine).
    norm: Option<&'a NormCell>,
}

impl<'a> From<&'a LocalMat> for SplitBlocks<'a> {
    fn from(block: &'a LocalMat) -> Self {
        SplitBlocks::new(block.into(), block.into())
    }
}

impl<'a> SplitBlocks<'a> {
    /// Algorithm 2's pair: the row stripe `row` feeds `A·Hᵀ`, the column
    /// stripe `col` feeds `Aᵀ·W`.
    pub fn stripes(row: &'a LocalMat, col: &'a LocalMat) -> Self {
        SplitBlocks::new(row.into(), col.into())
    }

    pub(crate) fn new(row: BlockRef<'a>, col: BlockRef<'a>) -> Self {
        SplitBlocks {
            row,
            col,
            csc: None,
            norm: None,
        }
    }

    /// The pair with the cell its column block's norm is folded into.
    pub(crate) fn with_norm(mut self, norm: &'a NormCell) -> Self {
        self.norm = Some(norm);
        self
    }

    /// Readies both products at rank `k` — once, at engine construction,
    /// so steady-state iterations (including the first) allocate nothing.
    /// Picks the `Aᵀ·W` kernel ([`BlockRef::at_w`]): a sparse column block
    /// routed column-forward gets its column view (built here if no
    /// engine reading the block built it before); a sparse one left on
    /// the CSR pass needs nothing. Pre-sizes the scratch the dense
    /// products share: `A·Hᵀ`'s packed `Hᵀ` tiles and `(Wᵀ·A)ᵀ`'s held
    /// chains; both read their block where it lies.
    fn prepare(&mut self, pack: &mut SessionPack, k: usize) {
        self.csc = match self.col.at_w(k) {
            AtW::Csc => self.col.csc(),
            _ => None,
        };
        if let BlockRef::Dense(a) = self.row {
            pack.reserve_scratch(b_scratch_len(a.ncols(), k));
        }
        if let BlockRef::Dense(a) = self.col {
            pack.reserve_scratch(ta_scratch_len(a.nrows(), a.ncols(), k));
        }
    }

    /// Local `A·Hᵀ` with `Hᵀ` supplied row-major (`·×k`), into the slab
    /// `out`, reshaped to the product.
    fn mm_a_ht_into(&self, pack: &mut SessionPack, ht: &Mat, out: &mut Mat) {
        out.reshape(self.row.shape().0, ht.ncols());
        match self.row {
            BlockRef::Dense(a) => matmul_scratch_into(a, ht, out, &mut pack.bpack),
            BlockRef::Sparse { a, .. } => spmm_dense_t_into(a, ht, out),
        }
    }

    /// Local `Aᵀ·W`, into the slab `out` (stored transposed, `·×k`),
    /// reshaped to the product, on the kernel [`prepare`](Self::prepare)
    /// picked: `(Wᵀ·A)ᵀ` over the dense block in place, the column-forward
    /// pass over the CSC view, or the CSR transposed pass (bit-identical
    /// to the column-forward one).
    fn mm_at_w_into(&self, pack: &mut SessionPack, w: &Mat, out: &mut Mat) {
        out.reshape(self.col.shape().1, w.ncols());
        match (self.col, self.csc) {
            (BlockRef::Dense(a), _) => matmul_ta_scratch_into(a, w, out, &mut pack.bpack),
            (BlockRef::Sparse { a, .. }, Some(csc)) => spmm_at_dense_csc_into(a, csc, w, out),
            (BlockRef::Sparse { a, .. }, None) => spmm_at_dense_into(a, w, out),
        }
    }

    /// This rank's contribution to `‖A‖²_F`: the column block's alone,
    /// so each entry is counted exactly once across all ranks. Read from
    /// the block's [`NormCell`] where it has one, so a block is folded
    /// once per sharding.
    fn norm_sq_contrib(&self) -> f64 {
        match self.norm {
            Some(cell) => cell.get_or_fold(self.col),
            None => self.col.fro_norm_sq(),
        }
    }
}

/// Which buffer holds the factor block a matrix-multiply should read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorSource {
    /// The engine's own local factor slice (nothing was gathered: the
    /// slice already is the whole block).
    Local,
    /// The slab the side gathers into: `col_slab` for `Hᵀ`, `row_slab`
    /// for `W` (the slab the product does not write).
    Gathered,
}

/// Which slab holds the normal-equation right-hand side after the
/// post-MM reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RhsSource {
    /// The slab the product wrote (`row_slab` for `W`, `col_slab` for
    /// `H`); no reduction happened.
    Mm,
    /// The other slab, which the reduce-scatter wrote.
    Scattered,
}

/// A communication layout for the ANLS iteration: everything that
/// distinguishes Algorithms 2 and 3 from each other. [`AnlsEngine::step`]
/// runs the paper's synchronous schedule through one hook per schedule
/// point and side — assemble H (the gather into `ws.col_slab` and the
/// global `HHᵀ`), (engine MM, `ws.row_slab`), reduce the W right-hand
/// side (`row_slab` → `col_slab`), (engine solve), then the H-side
/// mirror with the slabs swapped, then the objective reduction. Every
/// collective a hook starts has completed when it returns. The
/// [`IterWorkspace`] docs tabulate what each slab holds at each line.
///
/// Compute performed inside a hook (the Gram products) is timed into the
/// caller's [`TaskTimes`]; communication is accounted separately by the
/// virtual MPI and surfaced through [`CommScheme::comm_stats`].
pub trait CommScheme {
    /// Sizes (or grows) the Grams and slabs to this scheme's extents; a
    /// no-op when already large enough.
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize);

    /// One-time preparation before the first iteration (e.g. HPC-NMF
    /// primes the local `H` Gram that iteration 1's all-reduce consumes).
    fn prime(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        let _ = (ws, ht_local);
    }

    /// Sums a scalar across ranks (the `‖A‖²` setup reduction).
    fn reduce_scalar(&self, x: f64) -> f64;

    /// Assembles the `Hᵀ` block the local `A·Hᵀ` needs (into
    /// `ws.col_slab`, or nowhere when the local slice already is the
    /// block), leaves the *global* Gram `HHᵀ`, un-ridged, in
    /// `ws.gram_solve`, and says where to read the block.
    fn assemble_h(
        &self,
        ws: &mut IterWorkspace,
        ht_local: &Mat,
        tt: &mut TaskTimes,
    ) -> FactorSource;

    /// Reduces `v`, the `A·Hᵀ` product in the row slab, to this rank's
    /// right-hand side for the `W` solve — into `out`, the column slab,
    /// or nowhere — and says where it landed.
    fn reduce_w(&self, v: &Mat, out: &mut Mat) -> RhsSource;

    /// Assembles the `W` block the local `Aᵀ·W` needs (into
    /// `ws.row_slab`, or nowhere), leaves the *global* Gram `WᵀW`,
    /// un-ridged, in `ws.gram_w` (it is also read by the objective), and
    /// says where to read the block.
    fn assemble_w(&self, ws: &mut IterWorkspace, w_local: &Mat, tt: &mut TaskTimes)
        -> FactorSource;

    /// Reduces `y`, the `Aᵀ·W` product in the column slab, to this
    /// rank's right-hand side for the `H` solve — into `out`, the row
    /// slab, or nowhere — and says where it landed.
    fn reduce_h(&self, y: &Mat, out: &mut Mat) -> RhsSource;

    /// Sums the objective terms (and, when present, the wall-clock
    /// budget flag) across ranks, in place.
    fn reduce_objective_terms(&self, terms: &mut [f64]);

    /// Snapshot of this rank's cumulative communication counters.
    fn comm_stats(&self) -> CommStats;
}

/// Naive-Parallel-NMF (Algorithm 2): the Fairbanks et al. baseline.
///
/// The data matrix is stored **twice** — once in row blocks `Aᵢ`
/// (`m/p × n`) and once in column blocks `Aʲ` (`m × n/p`, see
/// [`SplitBlocks`]) — and each alternating solve is preceded by an
/// all-gather of the *entire* other factor matrix. Each rank then
/// computes the `k×k` Gram matrix redundantly. Per iteration this costs
/// `O((m+n)k)` communicated words (versus HPC-NMF's `O(√(mnk²/p))`) and
/// `(m+n)k²` redundant Gram flops — the three drawbacks the paper lists
/// at the end of §4.3.
pub struct Replicated1D<'c> {
    comm: &'c Comm,
    dims: (usize, usize),
    lay: RankLayout,
    /// All-gather counts (words) for the two factors.
    w_counts: Vec<usize>,
    h_counts: Vec<usize>,
    k: usize,
}

impl<'c> Replicated1D<'c> {
    /// Scheme for one rank of Algorithm 2 on an `m×n` input at rank `k`.
    pub fn new(comm: &'c Comm, dims: (usize, usize), k: usize) -> Self {
        let (m, n) = dims;
        let p = comm.size();
        Replicated1D {
            comm,
            dims,
            lay: ShardKey::Naive { p }.layout(m, n, comm.rank()),
            w_counts: Dist1D::new(m, p).lens_scaled(k),
            h_counts: Dist1D::new(n, p).lens_scaled(k),
            k,
        }
    }
}

impl CommScheme for Replicated1D<'_> {
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize) {
        debug_assert_eq!(k, self.k);
        let (m, n) = self.dims;
        ws.size_for_naive(m, n, self.lay.w.len, self.lay.ht.len, k);
    }

    fn reduce_scalar(&self, x: f64) -> f64 {
        self.comm.all_reduce_scalar(x)
    }

    fn assemble_h(
        &self,
        ws: &mut IterWorkspace,
        ht_local: &Mat,
        tt: &mut TaskTimes,
    ) -> FactorSource {
        // Line 3: collect the whole of H on each processor, then the
        // redundant Gram — every rank computes HHᵀ itself, straight into
        // the solve buffer.
        ws.col_slab.reshape(self.dims.1, self.k);
        self.comm.all_gatherv_into(
            ht_local.as_slice(),
            &self.h_counts,
            ws.col_slab.as_mut_slice(),
        );
        let t0 = Instant::now();
        gram_into(&ws.col_slab, &mut ws.gram_solve);
        tt.gram += t0.elapsed();
        FactorSource::Gathered
    }

    fn reduce_w(&self, _v: &Mat, _out: &mut Mat) -> RhsSource {
        // Aᵢ is a full row block, so AᵢHᵀ already is this rank's
        // right-hand side.
        RhsSource::Mm
    }

    fn assemble_w(
        &self,
        ws: &mut IterWorkspace,
        w_local: &Mat,
        tt: &mut TaskTimes,
    ) -> FactorSource {
        // Line 5: collect the whole of W, then the redundant Gram.
        ws.row_slab.reshape(self.dims.0, self.k);
        self.comm.all_gatherv_into(
            w_local.as_slice(),
            &self.w_counts,
            ws.row_slab.as_mut_slice(),
        );
        let t0 = Instant::now();
        gram_into(&ws.row_slab, &mut ws.gram_w);
        tt.gram += t0.elapsed();
        FactorSource::Gathered
    }

    fn reduce_h(&self, _y: &Mat, _out: &mut Mat) -> RhsSource {
        RhsSource::Mm
    }

    fn reduce_objective_terms(&self, terms: &mut [f64]) {
        self.comm.all_reduce_into(terms);
    }

    fn comm_stats(&self) -> CommStats {
        self.comm.stats()
    }
}

/// HPC-NMF (Algorithm 3): the paper's communication-optimal algorithm.
///
/// The data matrix is distributed once, as `pr × pc` blocks `Aᵢⱼ`; the
/// factors live in 1D distributions (`W` row-wise, `H` column-wise) with
/// each grid row/column collectively owning one block. Per iteration and
/// per factor, the algorithm performs exactly one all-reduce (`k×k` Gram),
/// one all-gather (assembling the factor block along the grid dimension
/// that shares it), and one reduce-scatter (summing the local matrix
/// products and slicing the result back to the 1D distribution) — giving
/// the `O(√(mnk²/p))`-word, `O(log p)`-message costs of Table 2. A
/// `pr×1` grid degenerates to the 1D variant prescribed for
/// tall-and-skinny inputs, and a 1×1 grid to Algorithm 1. The scheme's
/// methods carry the paper's Algorithm 3 line-number comments.
///
/// A grid dimension of one rank is the identity: with `pc = 1` a rank's
/// `W` slice is its whole `Wᵢ` and its `AᵢⱼHⱼᵀ` its whole right-hand
/// side, so the W-side gather and reduce-scatter are skipped (nothing
/// called, nothing copied, no slab room for them) and the engine reads
/// `w_local` and `mm_w` where they lie; `pr = 1` does the same for the
/// H side. Those collectives would send nothing, so words and messages
/// are unchanged. The two Gram all-reduces and the objective's stay on
/// the world communicator at any `p`.
///
/// # Performance notes: the zero-allocation iteration loop
///
/// The steady-state loop performs **no heap allocations in the compute
/// path**. Three mechanisms combine to achieve that:
///
/// 1. every per-iteration matrix — Grams, assembled factor blocks, `MM`
///    products, reduce-scatter outputs — lives in an [`IterWorkspace`]
///    (three `k×k` Grams and two `k`-wide slabs the others share)
///    allocated once before the loop and overwritten in place each
///    iteration ([`nmf_matrix::matmul_into`], `gram_into`,
///    `mm_a_ht_into`, …);
/// 2. the collectives are the `_into` forms
///    ([`Comm::all_reduce_into`](nmf_vmpi::Comm::all_reduce_into),
///    [`Comm::all_gatherv_into`](nmf_vmpi::Comm::all_gatherv_into) &
///    co.), which complete into those workspace buffers and draw their
///    round staging from a per-rank arena inside the communicator;
/// 3. the NLS solvers hold their pivoting state and factorization
///    buffers in solver-owned scratch reused across iterations.
///
/// What still allocates: the one-time setup (sub-communicators, counts,
/// workspace), the per-iteration `IterRecord` bookkeeping pushed onto the
/// result vector (instrumentation, reserved up front), and the message
/// boxes inside the channel transport (the "interconnect" — a real MPI
/// would hand those to the NIC).
pub struct Grid2D<'c> {
    world: &'c Comm,
    grid: Grid,
    /// Spans this grid row (`pc` ranks, ordered by column index).
    row_comm: Comm,
    /// Spans this grid column (`pr` ranks, ordered by row index).
    col_comm: Comm,
    /// This rank's `Aᵢⱼ` block extent and 1D factor slices.
    lay: RankLayout,
    /// Reduce-scatter / all-gather counts along the grid row / column.
    w_counts: Vec<usize>,
    h_counts: Vec<usize>,
    k: usize,
}

impl<'c> Grid2D<'c> {
    /// Scheme for one rank of Algorithm 3 on a `grid.pr × grid.pc`
    /// processor grid over an `m×n` input at rank `k`.
    ///
    /// Collective over `comm` (it splits the grid row and column
    /// sub-communicators), so every rank must construct its scheme.
    pub fn new(comm: &'c Comm, grid: Grid, dims: (usize, usize), k: usize) -> Self {
        let (m, n) = dims;
        assert_eq!(
            comm.size(),
            grid.size(),
            "communicator size must match grid"
        );
        let (gi, gj) = grid.coords(comm.rank());

        let row_comm = comm.split(gi, gj);
        let col_comm = comm.split(grid.pr + gj, gi);
        debug_assert_eq!(row_comm.size(), grid.pc);
        debug_assert_eq!(col_comm.size(), grid.pr);

        let key = ShardKey::Grid {
            pr: grid.pr,
            pc: grid.pc,
        };
        let lay = key.layout(m, n, comm.rank());

        Grid2D {
            world: comm,
            grid,
            row_comm,
            col_comm,
            lay,
            // Per peer: the block's W rows over the grid row's members,
            // its H columns over the grid column's members.
            w_counts: Dist1D::new(lay.rows.len, grid.pc).lens_scaled(k),
            h_counts: Dist1D::new(lay.cols.len, grid.pr).lens_scaled(k),
            k,
        }
    }

    /// Expected shape of this rank's `Aᵢⱼ` block.
    pub fn block_shape(&self) -> (usize, usize) {
        (self.lay.rows.len, self.lay.cols.len)
    }

    /// Expected shape of this rank's `(Wᵢ)ⱼ` slice.
    pub fn w_shape(&self) -> (usize, usize) {
        (self.lay.w.len, self.k)
    }

    /// Expected shape of this rank's `(Hⱼ)ᵢ` slice (stored transposed).
    pub fn ht_shape(&self) -> (usize, usize) {
        (self.lay.ht.len, self.k)
    }
}

impl CommScheme for Grid2D<'_> {
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize) {
        debug_assert_eq!(k, self.k);
        ws.size_for_hpc(&self.lay, self.grid, k);
    }

    fn prime(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        // Line 3 for the first iteration: Uᵢⱼ = (Hⱼ)ᵢ(Hⱼ)ᵢᵀ. Later
        // iterations reuse the Gram computed for the objective.
        gram_into(ht_local, &mut ws.gram_local);
    }

    fn reduce_scalar(&self, x: f64) -> f64 {
        self.world.all_reduce_scalar(x)
    }

    // Per communicator the collectives run in one order — world: Gram-H,
    // Gram-W, objective; column: gather-H, scatter-H; row: scatter-W,
    // gather-W. Each Gram all-reduce runs right after its side's gather,
    // before the MM: of the two synchronous orders measured, the faster
    // on `webbase_bpp` (docs/schedule.md).
    //
    // A grid dimension of one rank is the identity (see the type docs):
    // `pr = 1` skips the H-side gather and reduce-scatter below, `pc = 1`
    // the W-side pair.

    fn assemble_h(
        &self,
        ws: &mut IterWorkspace,
        ht_local: &Mat,
        _tt: &mut TaskTimes,
    ) -> FactorSource {
        let src = if self.grid.pr == 1 {
            FactorSource::Local
        } else {
            // Line 5: assemble Hⱼ (as Hⱼᵀ, n/pc × k) via all-gather
            // across the processor column, into the column slab.
            ws.col_slab.reshape(self.lay.cols.len, self.k);
            self.col_comm.all_gatherv_into(
                ht_local.as_slice(),
                &self.h_counts,
                ws.col_slab.as_mut_slice(),
            );
            FactorSource::Gathered
        };
        // Line 4: HHᵀ = Σᵢⱼ Uᵢⱼ, all-reduce across all ranks, straight
        // into the solve buffer. The local Gram is already in
        // `gram_local` (`prime` on the first iteration, the previous
        // objective evaluation afterwards).
        ws.gram_solve.copy_from(&ws.gram_local);
        self.world.all_reduce_into(ws.gram_solve.as_mut_slice());
        src
    }

    fn reduce_w(&self, v: &Mat, out: &mut Mat) -> RhsSource {
        if self.grid.pc == 1 {
            return RhsSource::Mm;
        }
        // Line 7: (AHᵀ)ᵢ via reduce-scatter across the processor row;
        // this rank keeps ((AHᵀ)ᵢ)ⱼ (m/p × k), in the column slab.
        out.reshape(self.lay.w.len, self.k);
        self.row_comm
            .reduce_scatter_into(v.as_slice(), &self.w_counts, out.as_mut_slice());
        RhsSource::Scattered
    }

    fn assemble_w(
        &self,
        ws: &mut IterWorkspace,
        w_local: &Mat,
        tt: &mut TaskTimes,
    ) -> FactorSource {
        // Line 9: Xᵢⱼ = (Wᵢ)ⱼᵀ(Wᵢ)ⱼ.
        let t0 = Instant::now();
        gram_into(w_local, &mut ws.gram_local);
        tt.gram += t0.elapsed();
        let src = if self.grid.pc == 1 {
            FactorSource::Local
        } else {
            // Line 11: assemble Wᵢ (m/pr × k) via all-gather across the
            // processor row, into the row slab.
            ws.row_slab.reshape(self.lay.rows.len, self.k);
            self.row_comm.all_gatherv_into(
                w_local.as_slice(),
                &self.w_counts,
                ws.row_slab.as_mut_slice(),
            );
            FactorSource::Gathered
        };
        // Line 10: WᵀW all-reduce.
        ws.gram_w.copy_from(&ws.gram_local);
        self.world.all_reduce_into(ws.gram_w.as_mut_slice());
        src
    }

    fn reduce_h(&self, y: &Mat, out: &mut Mat) -> RhsSource {
        if self.grid.pr == 1 {
            return RhsSource::Mm;
        }
        // Line 13: (WᵀA)ⱼ via reduce-scatter across the processor
        // column; this rank keeps ((WᵀA)ⱼ)ᵢ (n/p × k, transposed), in
        // the row slab.
        out.reshape(self.lay.ht.len, self.k);
        self.col_comm
            .reduce_scatter_into(y.as_slice(), &self.h_counts, out.as_mut_slice());
        RhsSource::Scattered
    }

    fn reduce_objective_terms(&self, terms: &mut [f64]) {
        self.world.all_reduce_into(terms);
    }

    fn comm_stats(&self) -> CommStats {
        self.world.stats()
    }
}

/// Exportable convergence bookkeeping, for resuming a run in a fresh
/// engine without perturbing the stopping decisions (the factor
/// *trajectory* never depends on this state — only on the factors
/// themselves — so resume is bit-deterministic even without it).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceState {
    /// Objective after the most recent iteration (`+∞` before the first).
    pub prev_objective: f64,
    /// First iteration's objective (`f₀`, the normalizer of relative
    /// improvements), if any iteration ran.
    pub first_objective: Option<f64>,
    /// Iterations executed so far (counted against `max_iters`).
    pub iterations_done: usize,
    /// Every objective so far, oldest first — what
    /// [`ConvergencePolicy::WindowedBudget`]'s look-back window reads,
    /// so a resumed run sees across the checkpoint boundary.
    pub objective_history: Vec<f64>,
    /// Wall-clock time consumed so far, accumulated across resumes
    /// (counted against the policy's budget).
    pub elapsed: Duration,
}

/// Per-rank output of a parallel run
/// ([`AnlsEngine::into_rank_output_and_workspace`]).
#[derive(Debug)]
pub struct RankNmfOutput {
    /// This rank's rows of `W`.
    pub w_local: Mat,
    /// This rank's columns of `H`, stored transposed.
    pub ht_local: Mat,
    /// Final objective `‖A − WH‖²_F` (identical on every rank).
    pub objective: f64,
    /// Why the run stopped (identical on every rank).
    pub stop: StopReason,
    /// Per-iteration records for this rank.
    pub iters: Vec<IterRecord>,
}

/// The step-wise ANLS iteration core shared by all three algorithms.
///
/// Owns the factor iterates, the [`IterWorkspace`], the NLS solver and
/// its scratch, and the convergence bookkeeping; is generic over the
/// communication layout ([`CommScheme`]) and borrows the rank's blocks
/// of the data matrix ([`SplitBlocks`]). See the [module
/// docs](crate::engine) for the design and the step-wise API.
pub struct AnlsEngine<'a, S: CommScheme> {
    scheme: S,
    data: SplitBlocks<'a>,
    config: NmfConfig,
    policy: ConvergencePolicy,
    solver: Box<dyn NlsSolver + Send>,
    ws: IterWorkspace,
    /// This rank's slice of `W` (all of `W` on a 1×1 grid).
    w_local: Mat,
    /// This rank's slice of `H`, stored transposed.
    ht_local: Mat,
    norm_a_sq: f64,
    /// Records of the iterations run through [`step`](Self::step), for
    /// callers driving the engine directly. [`EngineDyn::step_dyn`]
    /// hands each record to its caller instead, so an engine inside a
    /// session retains none.
    iters: Vec<IterRecord>,
    /// Objective after the latest iteration (`‖A‖²` before the first).
    objective: f64,
    /// Every objective this run has produced, including (after a
    /// [`restore_convergence_state`](Self::restore_convergence_state))
    /// those of the run being resumed — the windowed policy's look-back.
    obj_history: Vec<f64>,
    prev_obj: f64,
    first_obj: Option<f64>,
    iterations_done: usize,
    comm_base: CommStats,
    started: Instant,
    /// Wall-clock consumed before this engine started (from a restored
    /// checkpoint); added to `started.elapsed()` for budget decisions.
    prior_elapsed: Duration,
    stop: Option<StopReason>,
}

impl<'a, S: CommScheme> AnlsEngine<'a, S> {
    /// Builds an engine from this rank's block of `A` (or its two
    /// stripes) and initial factors: `w0` is its `W` slice, `ht0` its
    /// (transposed) `H` slice. Collective over the scheme's communicator
    /// (it all-reduces `‖A‖²`).
    pub fn new(
        scheme: S,
        data: impl Into<SplitBlocks<'a>>,
        config: &NmfConfig,
        w0: Mat,
        ht0: Mat,
    ) -> Self {
        Self::with_workspace(scheme, data, config, w0, ht0, IterWorkspace::default())
    }

    /// [`AnlsEngine::new`] with a caller-provided workspace (resized to
    /// fit if its shapes differ) — the warm-restart path that skips even
    /// the setup allocations. Reclaim it afterwards with
    /// [`into_rank_output_and_workspace`](Self::into_rank_output_and_workspace).
    pub fn with_workspace(
        scheme: S,
        data: impl Into<SplitBlocks<'a>>,
        config: &NmfConfig,
        w0: Mat,
        ht0: Mat,
        mut ws: IterWorkspace,
    ) -> Self {
        let mut data = data.into();
        scheme.size_workspace(&mut ws, config.k);
        data.prepare(&mut ws.pack, config.k);
        let solver = config.solver.build();
        let norm_a_sq = scheme.reduce_scalar(data.norm_sq_contrib());
        scheme.prime(&mut ws, &ht0);
        let comm_base = scheme.comm_stats();
        AnlsEngine {
            policy: config.policy(),
            scheme,
            data,
            config: *config,
            solver,
            ws,
            w_local: w0,
            ht_local: ht0,
            norm_a_sq,
            iters: Vec::with_capacity(config.max_iters),
            objective: norm_a_sq,
            obj_history: Vec::with_capacity(config.max_iters),
            prev_obj: f64::INFINITY,
            first_obj: None,
            iterations_done: 0,
            comm_base,
            started: Instant::now(),
            prior_elapsed: Duration::ZERO,
            stop: None,
        }
    }

    /// Executes exactly one ANLS outer iteration — the single copy of
    /// the loop body all three algorithms share — and returns its
    /// record. Collective: every rank of the scheme's communicator must
    /// call `step` the same number of times.
    ///
    /// `step` ignores `max_iters` and any previously reached stop
    /// condition; that is [`run`](Self::run)'s job. Stepping past a stop
    /// condition is legitimate (e.g. a serving loop that refines factors
    /// whenever it has spare capacity).
    pub fn step(&mut self) -> &IterRecord {
        let mut tt = TaskTimes::default();
        let ws = &mut self.ws;

        /* ---- Compute W given H ----
         * The paper's synchronous order: the H gather and the HHᵀ
         * reduction, the local A·Hᵀ product, then the W reduce-scatter —
         * each collective complete before the kernel that reads it. Each
         * phase reads one slab and writes the other: Hᵀ gathered into
         * the column slab, V = A·Hᵀ into the row slab, its reduce-scatter
         * back into the column slab. */
        let h_src = self.scheme.assemble_h(ws, &self.ht_local, &mut tt);
        let t0 = Instant::now();
        {
            let hmat = match h_src {
                FactorSource::Local => &self.ht_local,
                FactorSource::Gathered => &ws.col_slab,
            };
            self.data.mm_a_ht_into(&mut ws.pack, hmat, &mut ws.row_slab);
        }
        tt.mm += t0.elapsed();
        let w_rhs = self.scheme.reduce_w(&ws.row_slab, &mut ws.col_slab);
        let t0 = Instant::now();
        apply_ridge(&mut ws.gram_solve, self.config.l2_w);
        {
            let rhs = match w_rhs {
                RhsSource::Mm => &ws.row_slab,
                RhsSource::Scattered => &ws.col_slab,
            };
            self.solver.update(&ws.gram_solve, rhs, &mut self.w_local);
        }
        tt.nls += t0.elapsed();

        /* ---- Compute H given W ---- (mirror of the W side, the slabs
         * swapped: W gathered into the row slab, Y = (WᵀA)ᵀ into the
         * column slab, its reduce-scatter back into the row slab) */
        let w_src = self.scheme.assemble_w(ws, &self.w_local, &mut tt);
        let t0 = Instant::now();
        {
            let wmat = match w_src {
                FactorSource::Local => &self.w_local,
                FactorSource::Gathered => &ws.row_slab,
            };
            self.data.mm_at_w_into(&mut ws.pack, wmat, &mut ws.col_slab);
        }
        tt.mm += t0.elapsed();
        let h_rhs = self.scheme.reduce_h(&ws.col_slab, &mut ws.row_slab);
        let t0 = Instant::now();
        ws.gram_solve.copy_from(&ws.gram_w);
        apply_ridge(&mut ws.gram_solve, self.config.l2_h);
        let rhs_h = match h_rhs {
            RhsSource::Mm => &ws.col_slab,
            RhsSource::Scattered => &ws.row_slab,
        };
        self.solver
            .update(&ws.gram_solve, rhs_h, &mut self.ht_local);
        tt.nls += t0.elapsed();

        /* ---- Objective via the Gram identity ----
         * ‖A−WH‖² = ‖A‖² − 2·⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩, with both inner
         * products decomposing over the distribution of H. Under Grid2D
         * the local H Gram doubles as next iteration's Uᵢⱼ, so Gram is
         * still computed once per factor per iteration. */
        let t0 = Instant::now();
        gram_into(&self.ht_local, &mut ws.gram_local);
        tt.gram += t0.elapsed();
        let mut terms = [
            rhs_h.fro_dot(&self.ht_local),
            ws.gram_w.fro_dot(&ws.gram_local),
            0.0,
        ];
        // The wall-clock budget flag rides the objective all-reduce (sum
        // across ranks: any rank over budget stops everyone). Only
        // appended when the policy has a budget, so budget-free runs keep
        // the exact 2-word reduction the communication tests pin down.
        let nterms = if self.policy.has_budget() {
            let elapsed = self.prior_elapsed + self.started.elapsed();
            terms[2] = f64::from(self.policy.budget_exceeded(elapsed));
            3
        } else {
            2
        };
        self.scheme.reduce_objective_terms(&mut terms[..nterms]);
        let objective = self.norm_a_sq - 2.0 * terms[0] + terms[1];

        let now = self.scheme.comm_stats();
        self.iters.push(IterRecord {
            objective,
            compute: tt,
            compute_min: tt,
            comm: now.delta_since(&self.comm_base),
        });
        self.comm_base = now;
        self.iterations_done += 1;
        self.objective = objective;
        self.obj_history.push(objective);

        let f0 = *self
            .first_obj
            .get_or_insert(objective.max(f64::MIN_POSITIVE));
        self.stop = self.policy.decide(
            self.prev_obj,
            objective,
            f0,
            &self.obj_history,
            nterms == 3 && terms[2] > 0.0,
        );
        self.prev_obj = objective;
        self.iters.last().expect("step just pushed a record")
    }

    /// Drives [`step`](Self::step) until the convergence policy stops or
    /// `max_iters` iterations have run, and reports why it stopped.
    pub fn run(&mut self) -> StopReason {
        self.run_observed(|_, _| {})
    }

    /// [`run`](Self::run), invoking `observer` with `(iteration_index,
    /// record)` after every iteration — the hook for progress bars,
    /// live dashboards, or checkpoint triggers.
    pub fn run_observed(&mut self, mut observer: impl FnMut(usize, &IterRecord)) -> StopReason {
        while self.iterations_done < self.config.max_iters {
            self.step();
            observer(
                self.iterations_done - 1,
                self.iters.last().expect("step pushed a record"),
            );
            if let Some(reason) = self.stop {
                return reason;
            }
        }
        self.stop = Some(StopReason::MaxIters);
        StopReason::MaxIters
    }

    /// The current iterates: this rank's `W` slice and (transposed) `H`
    /// slice. Valid mid-run — this is the checkpoint/streaming export.
    pub fn factors(&self) -> (&Mat, &Mat) {
        (&self.w_local, &self.ht_local)
    }

    /// Per-iteration records so far.
    pub fn records(&self) -> &[IterRecord] {
        &self.iters
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations_done
    }

    /// Objective after the latest iteration (`‖A‖²` before the first —
    /// the objective of the all-zero factorization).
    pub fn objective(&self) -> f64 {
        self.objective
    }

    /// `‖A‖²_F`: the ranks' column-block norms, all-reduced at
    /// construction — the value every objective is computed against.
    pub fn norm_a_sq(&self) -> f64 {
        self.norm_a_sq
    }

    /// Why the engine last decided to stop, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Exports the convergence bookkeeping for a later
    /// [`restore_convergence_state`](Self::restore_convergence_state) in
    /// a resumed engine.
    pub fn convergence_state(&self) -> ConvergenceState {
        ConvergenceState {
            prev_objective: self.prev_obj,
            first_objective: self.first_obj,
            iterations_done: self.iterations_done,
            objective_history: self.obj_history.clone(),
            elapsed: self.prior_elapsed + self.started.elapsed(),
        }
    }

    /// Replaces the convergence policy for subsequent iterations.
    ///
    /// Collective discipline: every rank of a distributed run must set
    /// the same policy at the same iteration boundary (a policy with a
    /// wall-clock budget adds a word to the objective all-reduce, so a
    /// divergent change desynchronizes the collective schedule).
    pub fn set_policy(&mut self, policy: ConvergencePolicy) {
        self.policy = policy;
    }

    /// Snapshot of this rank's cumulative communication counters (all
    /// collectives since the communicator was created, including setup).
    pub fn comm_stats(&self) -> CommStats {
        self.scheme.comm_stats()
    }

    /// Restores exported convergence bookkeeping so a resumed run makes
    /// the same stopping decisions as an uninterrupted one — including
    /// the windowed policy's look-back across the checkpoint boundary
    /// and the wall-clock budget already consumed.
    pub fn restore_convergence_state(&mut self, state: ConvergenceState) {
        self.prev_obj = state.prev_objective;
        self.first_obj = state.first_objective;
        self.iterations_done = state.iterations_done;
        self.obj_history = state.objective_history;
        self.prior_elapsed = state.elapsed;
        self.started = Instant::now();
    }

    /// Finishes a per-rank run: the rank output plus the workspace, for
    /// callers that reuse the workspace across factorizations.
    pub fn into_rank_output_and_workspace(mut self) -> (RankNmfOutput, IterWorkspace) {
        let objective = self.objective();
        let out = RankNmfOutput {
            w_local: self.w_local,
            ht_local: self.ht_local,
            objective,
            stop: self.stop.unwrap_or(StopReason::MaxIters),
            iters: self.iters,
        };
        (out, std::mem::take(&mut self.ws))
    }

    /// Finishes a run whose factors are global (a 1×1 grid): assembles
    /// the full [`NmfOutput`], with the one rank's counters.
    pub fn into_output(self) -> NmfOutput {
        let objective = self.objective();
        NmfOutput {
            w: self.w_local,
            h: self.ht_local.transpose(),
            objective,
            rel_error: rel_error(objective, self.norm_a_sq),
            iterations: self.iters.len(),
            stop: self.stop.unwrap_or(StopReason::MaxIters),
            iters: self.iters,
            rank_comm: vec![self.scheme.comm_stats()],
        }
    }
}

/// The object-safe face of [`AnlsEngine`]: everything the session layer
/// needs from an engine, with the `CommScheme` generic erased behind a
/// `Box<dyn EngineDyn>`.
///
/// The generic engine is the right tool *inside* one rank's stack frame,
/// where the scheme can borrow the communicator and the data blocks. A
/// long-lived handle cannot name those lifetimes — so each session
/// worker builds its concrete `AnlsEngine<S>` in its own frame and
/// serves it through this trait, and the controller never learns which
/// scheme is running. Every method forwards to the
/// inherent `AnlsEngine` method of the same name, except [`step_dyn`],
/// which moves the iteration's record out to the caller: the session
/// keeps one aggregated record per iteration, and a second copy per
/// rank would make a long run's memory grow `p + 1` times as fast.
///
/// [`step_dyn`]: EngineDyn::step_dyn
pub trait EngineDyn {
    /// One ANLS outer iteration; returns its record, which the engine
    /// does not keep.
    fn step_dyn(&mut self) -> IterRecord;
    /// The current iterates: this rank's `W` slice and transposed `H`
    /// slice.
    fn factors(&self) -> (&Mat, &Mat);
    /// Iterations executed so far (including restored ones).
    fn iterations(&self) -> usize;
    /// Objective after the latest iteration (`‖A‖²` before the first).
    fn objective(&self) -> f64;
    /// `‖A‖²_F` as the ranks all-reduced it.
    fn norm_a_sq(&self) -> f64;
    /// Why the engine last decided to stop, if it has.
    fn stop_reason(&self) -> Option<StopReason>;
    /// Exports the convergence bookkeeping (for checkpointing).
    fn convergence_state(&self) -> ConvergenceState;
    /// Restores exported convergence bookkeeping (after a resume).
    fn restore_convergence_state(&mut self, state: ConvergenceState);
    /// Replaces the convergence policy for subsequent iterations.
    fn set_policy(&mut self, policy: ConvergencePolicy);
    /// Cumulative communication counters of this rank.
    fn comm_stats(&self) -> CommStats;
    /// Steals the workspace for reuse in a successor engine (e.g. a
    /// rank-sweep refit); the engine must not be stepped afterwards.
    fn take_workspace(&mut self) -> IterWorkspace;
    /// Heap bytes of the workspace ([`IterWorkspace::heap_bytes`]).
    fn workspace_bytes(&self) -> usize;
}

impl<S: CommScheme> EngineDyn for AnlsEngine<'_, S> {
    fn step_dyn(&mut self) -> IterRecord {
        AnlsEngine::step(self);
        self.iters.pop().expect("step just pushed a record")
    }

    fn factors(&self) -> (&Mat, &Mat) {
        AnlsEngine::factors(self)
    }

    fn iterations(&self) -> usize {
        AnlsEngine::iterations(self)
    }

    fn objective(&self) -> f64 {
        AnlsEngine::objective(self)
    }

    fn norm_a_sq(&self) -> f64 {
        AnlsEngine::norm_a_sq(self)
    }

    fn stop_reason(&self) -> Option<StopReason> {
        AnlsEngine::stop_reason(self)
    }

    fn convergence_state(&self) -> ConvergenceState {
        AnlsEngine::convergence_state(self)
    }

    fn restore_convergence_state(&mut self, state: ConvergenceState) {
        AnlsEngine::restore_convergence_state(self, state);
    }

    fn set_policy(&mut self, policy: ConvergencePolicy) {
        AnlsEngine::set_policy(self, policy);
    }

    fn comm_stats(&self) -> CommStats {
        AnlsEngine::comm_stats(self)
    }

    fn take_workspace(&mut self) -> IterWorkspace {
        std::mem::take(&mut self.ws)
    }

    fn workspace_bytes(&self) -> usize {
        self.ws.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::Input;
    use nmf_matrix::rng::Fill;
    use nmf_vmpi::universe::seats;

    /// A one-rank world, whose 1×1 grid runs Algorithm 1.
    fn solo() -> Comm {
        seats(1).pop().expect("one seat").into_comm()
    }

    fn one_by_one(comm: &Comm, m: usize, n: usize, k: usize) -> Grid2D<'_> {
        Grid2D::new(comm, Grid::new(1, 1), (m, n), k)
    }

    #[test]
    fn engine_dyn_erases_the_scheme() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(18, 12, 3)).block(0, 0, 18, 12);
        let config = NmfConfig::new(2).with_max_iters(3).with_seed(8);
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut boxed: Box<dyn EngineDyn + '_> = Box::new(AnlsEngine::new(
            one_by_one(&comm, 18, 12, config.k),
            &input,
            &config,
            w0,
            ht0,
        ));
        let rec = boxed.step_dyn();
        assert!(rec.objective.is_finite());
        assert_eq!(boxed.iterations(), 1);
        assert_eq!(boxed.objective(), rec.objective);
        let (w, ht) = boxed.factors();
        assert_eq!(w.shape(), (18, 2));
        assert_eq!(ht.shape(), (12, 2));
        let st = boxed.convergence_state();
        assert_eq!(st.iterations_done, 1);
    }

    #[test]
    fn session_driven_engine_retains_no_records() {
        let comm = solo();
        // What a `Model` stores per step: one aggregated record, plus
        // one objective per rank for the windowed policy's look-back.
        let per_step_at_p4 = std::mem::size_of::<IterRecord>() + 4 * std::mem::size_of::<f64>();
        assert!(per_step_at_p4 <= 512, "{per_step_at_p4} bytes per step");

        let input = Input::Dense(Mat::uniform(18, 12, 3)).block(0, 0, 18, 12);
        let config = NmfConfig::new(2).with_max_iters(3).with_seed(8);
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut engine = AnlsEngine::new(
            one_by_one(&comm, 18, 12, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        let direct = engine.step().objective;
        assert_eq!(engine.records().len(), 1);
        let moved = engine.step_dyn();
        assert!(moved.objective <= direct);
        assert_eq!(engine.records().len(), 1, "step_dyn hands its record over");
        assert_eq!(engine.objective(), moved.objective);
        assert_eq!(engine.iterations(), 2);
    }

    #[test]
    fn one_by_one_grid_runs_and_reports() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(20, 14, 5)).block(0, 0, 20, 14);
        let config = NmfConfig::new(3).with_max_iters(4).with_seed(2);
        let w0 = crate::config::init_w(20, 3, config.seed);
        let ht0 = crate::config::init_ht(14, 3, config.seed);
        let mut e = AnlsEngine::new(
            one_by_one(&comm, 20, 14, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        assert_eq!(e.iterations(), 0);
        let first = e.step().objective;
        assert_eq!(e.iterations(), 1);
        assert!(first.is_finite());
        let reason = e.run();
        assert_eq!(reason, StopReason::MaxIters);
        assert_eq!(e.iterations(), 4);
        let (w, ht) = e.factors();
        assert!(w.all_nonnegative() && ht.all_nonnegative());
        let out = e.into_output();
        assert_eq!(out.iterations, 4);
        assert_eq!(out.stop, StopReason::MaxIters);
    }

    #[test]
    fn observer_sees_every_iteration() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(16, 12, 9)).block(0, 0, 16, 12);
        let config = NmfConfig::new(2).with_max_iters(5).with_seed(3);
        let w0 = crate::config::init_w(16, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(
            one_by_one(&comm, 16, 12, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        let mut seen = Vec::new();
        e.run_observed(|it, rec| seen.push((it, rec.objective)));
        assert_eq!(seen.len(), 5);
        assert_eq!(seen.first().map(|s| s.0), Some(0));
        assert_eq!(seen.last().map(|s| s.0), Some(4));
        for w in seen.windows(2) {
            assert!(w[1].1 <= w[0].1 * (1.0 + 1e-9) + 1e-9, "objective rose");
        }
    }

    #[test]
    fn budget_zero_stops_after_one_iteration() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(18, 12, 4)).block(0, 0, 18, 12);
        let config = NmfConfig::new(2).with_max_iters(50).with_convergence(
            ConvergencePolicy::WindowedBudget {
                window: 5,
                tol: 0.0,
                budget: Some(std::time::Duration::ZERO),
            },
        );
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(
            one_by_one(&comm, 18, 12, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        let reason = e.run();
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(
            e.iterations(),
            1,
            "zero budget still completes the iteration in flight"
        );
    }

    #[test]
    fn infinite_window_tolerance_stops_at_window_plus_one() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(18, 12, 4)).block(0, 0, 18, 12);
        let config = NmfConfig::new(2).with_max_iters(50).with_convergence(
            ConvergencePolicy::WindowedBudget {
                window: 3,
                tol: f64::INFINITY,
                budget: None,
            },
        );
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(
            one_by_one(&comm, 18, 12, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        let reason = e.run();
        assert_eq!(reason, StopReason::Converged);
        assert_eq!(
            e.iterations(),
            4,
            "windowed check needs window+1 objectives"
        );
    }

    #[test]
    fn convergence_state_round_trips() {
        let comm = solo();
        let input = Input::Dense(Mat::uniform(16, 10, 6)).block(0, 0, 16, 10);
        let config = NmfConfig::new(2).with_max_iters(6).with_seed(4);
        let w0 = crate::config::init_w(16, 2, config.seed);
        let ht0 = crate::config::init_ht(10, 2, config.seed);
        let mut e = AnlsEngine::new(
            one_by_one(&comm, 16, 10, config.k),
            &input,
            &config,
            w0,
            ht0,
        );
        e.step();
        e.step();
        let st = e.convergence_state();
        assert_eq!(st.iterations_done, 2);
        assert_eq!(st.objective_history.len(), 2);
        assert!(st.first_objective.is_some());
        let (w, ht) = e.factors();
        let (w, ht) = (w.clone(), ht.clone());
        let mut resumed =
            AnlsEngine::new(one_by_one(&comm, 16, 10, config.k), &input, &config, w, ht);
        resumed.restore_convergence_state(st.clone());
        let round_trip = resumed.convergence_state();
        assert_eq!(round_trip.prev_objective, st.prev_objective);
        assert_eq!(round_trip.first_objective, st.first_objective);
        assert_eq!(round_trip.iterations_done, st.iterations_done);
        assert_eq!(round_trip.objective_history, st.objective_history);
        // The budget clock keeps accumulating from the restored value.
        assert!(round_trip.elapsed >= st.elapsed);
        let reason = resumed.run();
        assert_eq!(reason, StopReason::MaxIters);
        let done = resumed.convergence_state();
        assert_eq!(done.iterations_done, 6);
        assert_eq!(done.objective_history.len(), 6, "history spans the resume");
    }
}
