//! Per-iteration workspaces for the NMF drivers.
//!
//! Every ANLS outer iteration of every driver produces the same cast of
//! intermediate matrices — two `k×k` Grams and their globally-reduced
//! and ridge-shifted copies, the assembled factor block, the `MM`
//! products, and (for HPC-NMF) the reduce-scattered normal-equation
//! right-hand sides. The seed implementation allocated each of these
//! fresh every iteration; [`IterWorkspace`] owns them all, so a driver
//! allocates exactly once before its loop and the steady-state iteration
//! performs **zero heap allocations in the compute path** (the NLS
//! solvers hold their own scratch the same way, and the `_into`
//! collectives draw staging from the communicator arena).
//!
//! One struct serves both communication schemes; each sizing method
//! sizes exactly the buffers its scheme touches (under HPC-NMF, its
//! grid) and leaves the rest `0×0`.

use crate::dist::RankLayout;
use crate::grid::Grid;
use nmf_matrix::{Mat, PackedPanels};

/// The once-per-session packed form of this rank's `Aᵀ`, plus the
/// `B`-tile scratch both dense `MM` products repack per call.
///
/// ANLS structure: the data matrix `A` never changes across iterations.
/// `A·Hᵀ` reads the rank's row block of `A` in place — it is row-major
/// already, and the microkernel streams its rows as fast as packed panels
/// — but `Aᵀ·W` needs `Aᵀ`'s rows, so those are packed **once**, at
/// engine construction
/// ([`AnlsEngine::with_workspace`](crate::engine::AnlsEngine::with_workspace)),
/// from the column block's rows, and every iteration's `Aᵀ·W` reads only
/// packed panels. A dense rank therefore holds `A` once (its block, a
/// view of the shared source) and `Aᵀ` once (`at`). Sparse inputs leave
/// `at` empty (their `MM` kernels walk the CSR directly).
///
/// `bpack` is the right-operand tile scratch, pre-sized by
/// [`reserve_scratch`](SessionPack::reserve_scratch) to the larger of the
/// two products' packed right operands (whole depth, at most `NC`
/// columns; none at `k = NR`), so even the *first* iteration's
/// GEMMs allocate nothing — the counting-allocator tests assert
/// iteration-count-independent totals with no warmup.
#[derive(Clone, Debug, Default)]
pub struct SessionPack {
    /// Panels of the local `Aᵀ` (left operand of `Aᵀ·W`), packed from
    /// `A`'s rows without materializing the transpose.
    pub at: PackedPanels,
    /// Per-call `B`-tile scratch shared by both dense products.
    pub bpack: Vec<f64>,
}

impl SessionPack {
    /// Whether no operand is packed (sparse input, or never primed).
    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Grow `bpack` to `len` floats (the bound
    /// [`b_scratch_len`](nmf_matrix::pack::b_scratch_len) gives for the
    /// larger of the two products); afterwards steady-state GEMMs never
    /// resize it.
    pub fn reserve_scratch(&mut self, len: usize) {
        if self.bpack.len() < len {
            self.bpack.resize(len, 0.0);
        }
    }

    /// Bytes of packed panel storage currently held.
    pub fn packed_bytes(&self) -> usize {
        self.at.packed_bytes()
    }
}

/// Owned storage for every per-iteration matrix of an NMF driver.
///
/// Field names follow the update in which the buffer is produced; the
/// table maps them to the paper's Algorithm 2–3 symbols (Algorithm 1 is
/// Algorithm 3 on a 1×1 grid):
///
/// | field        | naive (Alg. 2)      | HPC (Alg. 3)                    |
/// |--------------|---------------------|---------------------------------|
/// | `gram_w`     | `WᵀW` (redundant)   | `WᵀW` (all-reduced)             |
/// | `gram_solve` | `HHᵀ`+ridge, then ridged `WᵀW` copy | same            |
/// | `gram_local` | local `HHᵀ`         | `Uᵢⱼ` / `Xᵢⱼ`                  |
/// | `ht_gather`  | assembled `Hᵀ`      | `Hⱼᵀ` (col gather; `pr > 1`)    |
/// | `w_gather`   | assembled `W`       | `Wᵢ` (row gather; `pc > 1`)     |
/// | `mm_w`       | `AᵢHᵀ`              | `Vᵢⱼ = AᵢⱼHⱼᵀ`                 |
/// | `mm_h`       | `(Aʲ)ᵀW`            | `Yᵢⱼ = (Wᵢᵀ Aᵢⱼ)ᵀ`             |
/// | `aht`        | —                   | `((AHᵀ)ᵢ)ⱼ` (rs out; `pc > 1`)  |
/// | `wta`        | —                   | `((WᵀA)ⱼ)ᵢ` (rs out; `pr > 1`)  |
///
/// `pack` is not a per-iteration buffer but the once-per-session
/// [`SessionPack`]ed `Aᵀ` of the data matrix; it lives here so the
/// warm-restart path
/// ([`AnlsEngine::with_workspace`](crate::engine::AnlsEngine::with_workspace)
/// → `take_workspace`) carries the packed panels' storage across
/// engines too.
#[derive(Clone, Debug, Default)]
pub struct IterWorkspace {
    pub gram_w: Mat,
    pub gram_solve: Mat,
    pub gram_local: Mat,
    pub ht_gather: Mat,
    pub w_gather: Mat,
    pub mm_w: Mat,
    pub mm_h: Mat,
    pub aht: Mat,
    pub wta: Mat,
    pub pack: SessionPack,
}

impl IterWorkspace {
    /// Sizes the three `k×k` Gram buffers every scheme uses.
    fn size_grams(&mut self, k: usize) {
        self.gram_w.resize(k, k);
        self.gram_solve.resize(k, k);
        self.gram_local.resize(k, k);
    }

    /// In-place (re)sizing for one rank of the naive driver: `m×n`
    /// global dims, `rows`/`cols` this rank's row-block height and
    /// column-block width (the engine's `Replicated1D`).
    pub fn size_for_naive(&mut self, m: usize, n: usize, rows: usize, cols: usize, k: usize) {
        self.size_grams(k);
        self.ht_gather.resize(n, k);
        self.w_gather.resize(m, k);
        self.mm_w.resize(rows, k);
        self.mm_h.resize(cols, k);
    }

    /// In-place (re)sizing for one rank of HPC-NMF on `grid`, laid out
    /// as `lay` (its `Aᵢⱼ` block `rows × cols` and its factor slices
    /// `(Wᵢ)ⱼ` = `w` and `(Hⱼ)ᵢ` = `ht`) — the engine's `Grid2D`. The
    /// W-side gather and reduce-scatter buffers are sized only when the
    /// grid row has more than one rank (`pc > 1`), the H-side ones only
    /// when the grid column does (`pr > 1`): a dimension of one rank
    /// moves nothing, and the engine reads its local slice and `MM`
    /// product in place.
    pub fn size_for_hpc(&mut self, lay: &RankLayout, grid: Grid, k: usize) {
        self.size_grams(k);
        self.mm_w.resize(lay.rows.len, k);
        self.mm_h.resize(lay.cols.len, k);
        if grid.pc > 1 {
            self.w_gather.resize(lay.rows.len, k);
            self.aht.resize(lay.w.len, k);
        }
        if grid.pr > 1 {
            self.ht_gather.resize(lay.cols.len, k);
            self.wta.resize(lay.ht.len, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::ShardKey;

    #[test]
    fn constructors_size_only_what_each_driver_uses() {
        let seq_key = ShardKey::Grid { pr: 1, pc: 1 };
        let mut seq = IterWorkspace::default();
        seq.size_for_hpc(&seq_key.layout(10, 8, 0), Grid::new(1, 1), 3);
        assert_eq!(seq.mm_w.shape(), (10, 3));
        assert_eq!(seq.mm_h.shape(), (8, 3));
        for unused in [&seq.ht_gather, &seq.w_gather, &seq.aht, &seq.wta] {
            assert_eq!(unused.shape(), (0, 0));
        }

        let mut naive = IterWorkspace::default();
        naive.size_for_naive(10, 8, 5, 4, 3);
        assert_eq!(naive.ht_gather.shape(), (8, 3));
        assert_eq!(naive.w_gather.shape(), (10, 3));
        assert_eq!(naive.mm_w.shape(), (5, 3));
        assert_eq!(naive.mm_h.shape(), (4, 3));

        // Rank 0 of a 2×2 grid over 12×10: a 6×5 block, 3 rows of W,
        // 3 columns of H.
        let lay = ShardKey::Grid { pr: 2, pc: 2 }.layout(12, 10, 0);
        let mut hpc = IterWorkspace::default();
        hpc.size_for_hpc(&lay, Grid::new(2, 2), 4);
        assert_eq!(hpc.ht_gather.shape(), (5, 4));
        assert_eq!(hpc.w_gather.shape(), (6, 4));
        assert_eq!(hpc.mm_w.shape(), (6, 4));
        assert_eq!(hpc.mm_h.shape(), (5, 4));
        assert_eq!(hpc.aht.shape(), (3, 4));
        assert_eq!(hpc.wta.shape(), (3, 4));
        assert_eq!(hpc.gram_solve.shape(), (4, 4));

        // A 2×1 grid gathers H over its grid column, nothing over its rows.
        let lay = ShardKey::Grid { pr: 2, pc: 1 }.layout(12, 10, 1);
        let mut tall = IterWorkspace::default();
        tall.size_for_hpc(&lay, Grid::new(2, 1), 4);
        assert_eq!(
            (tall.ht_gather.shape(), tall.wta.shape()),
            ((10, 4), (5, 4))
        );
        assert_eq!((tall.w_gather.shape(), tall.aht.shape()), ((0, 0), (0, 0)));
    }
}
