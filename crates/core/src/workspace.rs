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
use nmf_matrix::Mat;

/// The scratch of the dense GEMMs: the `B` tiles `A·Hᵀ` repacks `Hᵀ`
/// into per call, and the accumulators `(Wᵀ·A)ᵀ` holds between the parts
/// of a depth block. The two products never run at once, so they share
/// one buffer.
///
/// Both dense products read the rank's block of `A` where it lies: `A·Hᵀ`
/// as the row-major left operand, `Aᵀ·W` as the right operand of
/// `(Wᵀ·A)ᵀ`, which packs nothing. So a dense rank holds its block once,
/// a view of the shared source, as the paper's Table 2 charges it.
///
/// `bpack` is pre-sized by
/// [`reserve_scratch`](SessionPack::reserve_scratch) to the larger of the
/// two products' needs ([`b_scratch_len`](nmf_matrix::pack::b_scratch_len):
/// whole depth, at most `NC` columns, none at `k = NR`;
/// [`ta_scratch_len`](nmf_matrix::ta_scratch_len): 256 KiB of held chains
/// at most), so even the *first* iteration's GEMMs allocate nothing —
/// the counting-allocator tests assert iteration-count-independent
/// totals with no warmup.
#[derive(Clone, Debug, Default)]
pub struct SessionPack {
    /// Per-call scratch of the dense `A·Hᵀ` and `(Wᵀ·A)ᵀ`.
    pub bpack: Vec<f64>,
}

impl SessionPack {
    /// Grow `bpack` to `len` floats (a bound from `b_scratch_len` or
    /// `ta_scratch_len`); afterwards steady-state GEMMs never resize it.
    pub fn reserve_scratch(&mut self, len: usize) {
        if self.bpack.len() < len {
            self.bpack.resize(len, 0.0);
        }
    }
}

/// Owned storage for every per-iteration matrix of an NMF driver: three
/// `k×k` Grams and two `k`-wide slabs.
///
/// The paper's Table 2 charges a rank one gathered factor block per side
/// beyond its block of `A` and its factor slices. The synchronous
/// schedule never has more than two `k`-wide matrices live at once — the
/// one a phase reads and the one it writes — so every gather, product
/// and reduce-scatter output lives in one of two slabs, each sized once
/// to the largest of its users ([`reserve`](Mat::reserve)) and
/// [`reshape`](Mat::reshape)d in place (no allocation, no write) as the
/// step moves through Algorithm 3. Every product and every
/// reduce-scatter reads one slab and writes the other.
///
/// What each slab holds at each line of Algorithm 3 (Algorithm 1 is
/// Algorithm 3 on a 1×1 grid, whose size-1 dimensions skip the gathers
/// and reduce-scatters), and of Algorithm 2:
///
/// | line (Alg. 3)      | `row_slab`                         | `col_slab`                          |
/// |--------------------|------------------------------------|-------------------------------------|
/// | 5: gather `H`      | —                                  | `Hⱼᵀ`, `n/p_c × k` (`p_r > 1`)      |
/// | 6: `A·Hᵀ`          | `Vᵢⱼ = AᵢⱼHⱼᵀ`, `m/p_r × k`        | (read)                              |
/// | 7: reduce-scatter  | (read)                             | `((AHᵀ)ᵢ)ⱼ`, `m/p × k` (`p_c > 1`)  |
/// | 8: solve `W`       | right-hand side if `p_c = 1`       | right-hand side if `p_c > 1`        |
/// | 11: gather `W`     | `Wᵢ`, `m/p_r × k` (`p_c > 1`)      | —                                   |
/// | 12: `Aᵀ·W`         | (read)                             | `Yᵢⱼ = (WᵢᵀAᵢⱼ)ᵀ`, `n/p_c × k`      |
/// | 13: reduce-scatter | `((WᵀA)ⱼ)ᵢ`, `n/p × k` (`p_r > 1`) | (read)                              |
/// | 14: solve `H`, objective | right-hand side if `p_r > 1` | right-hand side if `p_r = 1`        |
/// | Alg. 2, line 3     | `AᵢHᵀ`, `m/p × k`                  | gathered `Hᵀ`, `n × k`              |
/// | Alg. 2, line 5     | gathered `W`, `m × k`              | `(Aʲ)ᵀW`, `n/p × k`                 |
///
/// So under Algorithm 3 `row_slab` holds `max(m/p_r, [p_r>1]·n/p)·k`
/// entries and `col_slab` `max(n/p_c, [p_c>1]·m/p)·k`; under Algorithm 2,
/// `m·k` and `n·k`. The Grams:
///
/// | field        | naive (Alg. 2)      | HPC (Alg. 3)                    |
/// |--------------|---------------------|---------------------------------|
/// | `gram_w`     | `WᵀW` (redundant)   | `WᵀW` (all-reduced)             |
/// | `gram_solve` | `HHᵀ`+ridge, then ridged `WᵀW` copy | same            |
/// | `gram_local` | local `HHᵀ`         | `Uᵢⱼ` / `Xᵢⱼ`                  |
///
/// `pack` is the [`SessionPack`] `B`-tile scratch, sized once per
/// engine; it lives here so the warm-restart path
/// ([`AnlsEngine::with_workspace`](crate::engine::AnlsEngine::with_workspace)
/// → `take_workspace`) carries its storage across engines too.
#[derive(Clone, Debug, Default)]
pub struct IterWorkspace {
    pub gram_w: Mat,
    pub gram_solve: Mat,
    pub gram_local: Mat,
    /// `A·Hᵀ`, the `W` gather and the `H`-side reduce-scatter output.
    pub row_slab: Mat,
    /// The `Hᵀ` gather, the `W`-side reduce-scatter output and `Aᵀ·W`.
    pub col_slab: Mat,
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
    /// column-block width (the engine's `Replicated1D`). The row slab
    /// holds `AᵢHᵀ`, then the whole of `W`; the column slab the whole of
    /// `Hᵀ`, then `(Aʲ)ᵀW`.
    pub fn size_for_naive(&mut self, m: usize, n: usize, rows: usize, cols: usize, k: usize) {
        self.size_grams(k);
        self.row_slab.reserve(rows.max(m) * k);
        self.col_slab.reserve(n.max(cols) * k);
    }

    /// In-place (re)sizing for one rank of HPC-NMF on `grid`, laid out
    /// as `lay` (its `Aᵢⱼ` block `rows × cols` and its factor slices
    /// `(Wᵢ)ⱼ` = `w` and `(Hⱼ)ᵢ` = `ht`) — the engine's `Grid2D`. Each
    /// slab holds its product and, where the grid dimension has more than
    /// one rank, a gather of the same height and the other side's
    /// reduce-scatter output: a dimension of one rank moves nothing, and
    /// the engine reads its local slice and `MM` product in place.
    pub fn size_for_hpc(&mut self, lay: &RankLayout, grid: Grid, k: usize) {
        self.size_grams(k);
        let scattered_h = if grid.pr > 1 { lay.ht.len } else { 0 };
        let scattered_w = if grid.pc > 1 { lay.w.len } else { 0 };
        self.row_slab.reserve(lay.rows.len.max(scattered_h) * k);
        self.col_slab.reserve(lay.cols.len.max(scattered_w) * k);
    }

    /// Heap bytes the workspace holds: its Grams, slabs and GEMM scratch.
    pub fn heap_bytes(&self) -> usize {
        [
            &self.gram_w,
            &self.gram_solve,
            &self.gram_local,
            &self.row_slab,
            &self.col_slab,
        ]
        .iter()
        .map(|m| m.heap_bytes())
        .sum::<usize>()
            + self.pack.bpack.capacity() * std::mem::size_of::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{Dist1D, ShardKey};

    /// Entries each reserved slab holds beyond its capacity, so that it
    /// can start on a 64-byte cache line ([`Mat::reserve`]).
    const LINE_PAD: usize = 7;

    /// Every rank's slab capacities under `pr × pc` over `m × n`, checked
    /// against Table 2's extents derived from the 1D distributions:
    /// `max(m/p_r, [p_r>1]·n/p)·k` and `max(n/p_c, [p_c>1]·m/p)·k`.
    fn assert_hpc_closed_form(m: usize, n: usize, pr: usize, pc: usize, k: usize) {
        let grid = Grid::new(pr, pc);
        for r in 0..grid.size() {
            let (i, j) = grid.coords(r);
            let rows = Dist1D::new(m, pr).part(i).len; // m/p_r
            let cols = Dist1D::new(n, pc).part(j).len; // n/p_c
            let w = Dist1D::new(rows, pc).part(j).len; // m/p
            let ht = Dist1D::new(cols, pr).part(i).len; // n/p
            let mut ws = IterWorkspace::default();
            let lay = ShardKey::Grid { pr, pc }.layout(m, n, r);
            ws.size_for_hpc(&lay, grid, k);
            let row_slab = rows.max(if pr > 1 { ht } else { 0 }) * k;
            let col_slab = cols.max(if pc > 1 { w } else { 0 }) * k;
            let at = format!("{pr}x{pc} over {m}x{n}, rank {r}");
            assert_eq!(ws.row_slab.capacity(), row_slab, "{at}: row slab");
            assert_eq!(ws.col_slab.capacity(), col_slab, "{at}: column slab");
            assert_eq!(ws.gram_solve.shape(), (k, k));
            assert_eq!(
                ws.heap_bytes(),
                8 * (row_slab + col_slab + 2 * LINE_PAD + 3 * k * k),
                "{at}: two slabs and three Grams, nothing else"
            );
        }
    }

    #[test]
    fn constructors_size_only_what_each_driver_uses() {
        // Sequential: the two products, nothing gathered or scattered.
        assert_hpc_closed_form(10, 8, 1, 1, 3);
        // 2×1 gathers H over its grid column and scatters WᵀA; 1×2 the
        // mirror; 2×2 both.
        assert_hpc_closed_form(12, 10, 2, 1, 4);
        assert_hpc_closed_form(12, 10, 1, 2, 4);
        assert_hpc_closed_form(12, 10, 2, 2, 4);
        // Unequal blocks: 3 ranks over 11 rows (4, 4, 3) and 7 columns,
        // either way round; where n/p outgrows m/p_r it sets the row slab.
        assert_hpc_closed_form(11, 7, 3, 1, 2);
        assert_hpc_closed_form(7, 11, 1, 3, 2);
        assert_hpc_closed_form(3, 40, 3, 1, 2);

        // Naive, p = 3 over 10×8: whole-factor gathers, so m·k and n·k.
        for r in 0..3 {
            let lay = ShardKey::Naive { p: 3 }.layout(10, 8, r);
            let mut naive = IterWorkspace::default();
            naive.size_for_naive(10, 8, lay.w.len, lay.ht.len, 3);
            assert_eq!(naive.row_slab.capacity(), 10 * 3);
            assert_eq!(naive.col_slab.capacity(), 8 * 3);
            assert_eq!(
                naive.heap_bytes(),
                8 * ((10 + 8) * 3 + 2 * LINE_PAD + 3 * 9)
            );
        }
    }

    #[test]
    fn resizing_a_sized_workspace_only_grows_its_slabs() {
        let lay = ShardKey::Grid { pr: 2, pc: 2 }.layout(12, 10, 0);
        let mut ws = IterWorkspace::default();
        ws.size_for_hpc(&lay, Grid::new(2, 2), 4);
        let (rows, cols) = (ws.row_slab.capacity(), ws.col_slab.capacity());
        ws.size_for_hpc(&lay, Grid::new(2, 2), 2);
        assert_eq!(
            (ws.row_slab.capacity(), ws.col_slab.capacity()),
            (rows, cols)
        );
        ws.size_for_hpc(&lay, Grid::new(2, 2), 8);
        assert_eq!(
            (ws.row_slab.capacity(), ws.col_slab.capacity()),
            (2 * rows, 2 * cols)
        );
    }
}
