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
//! One struct serves all three drivers; each constructor sizes exactly
//! the buffers its driver touches and leaves the rest `0×0`.

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
/// [`reserve_scratch`](SessionPack::reserve_scratch) to the largest
/// `KC`-deep block either product needs, so even the *first* iteration's
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
/// table maps them to the paper's Algorithm 1–3 symbols:
///
/// | field        | sequential (Alg. 1) | naive (Alg. 2)      | HPC (Alg. 3)          |
/// |--------------|---------------------|---------------------|-----------------------|
/// | `gram_w`     | `WᵀW`               | `WᵀW` (redundant)   | `WᵀW` (all-reduced)   |
/// | `gram_solve` | `HHᵀ`+ridge, then ridged `WᵀW` copy | same | same              |
/// | `gram_local` | next `HHᵀ`          | local `HHᵀ`         | `Uᵢⱼ` / `Xᵢⱼ`        |
/// | `ht_gather`  | —                   | assembled `Hᵀ`      | `Hⱼᵀ` (col gather)    |
/// | `w_gather`   | —                   | assembled `W`       | `Wᵢ` (row gather)     |
/// | `mm_w`       | `AHᵀ`               | `AᵢHᵀ`              | `Vᵢⱼ = AᵢⱼHⱼᵀ`       |
/// | `mm_h`       | `AᵀW`               | `(Aʲ)ᵀW`            | `Yᵢⱼ = (Wᵢᵀ Aᵢⱼ)ᵀ`   |
/// | `aht`        | —                   | —                   | `((AHᵀ)ᵢ)ⱼ` (rs out)  |
/// | `wta`        | —                   | —                   | `((WᵀA)ⱼ)ᵢ` (rs out)  |
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

    /// In-place (re)sizing for the sequential driver on an `m×n` input
    /// at rank `k`; a no-op when already sized. The single source of
    /// truth for which buffers Algorithm 1 touches — used by both
    /// [`for_seq`](Self::for_seq) and the engine's `LocalScheme`.
    pub fn size_for_seq(&mut self, m: usize, n: usize, k: usize) {
        self.size_grams(k);
        self.mm_w.resize(m, k);
        self.mm_h.resize(n, k);
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

    /// In-place (re)sizing for one rank of HPC-NMF:
    /// `block_rows`/`block_cols` the local `Aᵢⱼ` dimensions,
    /// `w_rows`/`ht_rows` the heights of this rank's 1D factor slices
    /// (`(Wᵢ)ⱼ` and `(Hⱼ)ᵢ`) — the engine's `Grid2D`.
    pub fn size_for_hpc(
        &mut self,
        block_rows: usize,
        block_cols: usize,
        w_rows: usize,
        ht_rows: usize,
        k: usize,
    ) {
        self.size_grams(k);
        self.ht_gather.resize(block_cols, k);
        self.w_gather.resize(block_rows, k);
        self.mm_w.resize(block_rows, k);
        self.mm_h.resize(block_cols, k);
        self.aht.resize(w_rows, k);
        self.wta.resize(ht_rows, k);
    }

    /// Workspace for the sequential driver on an `m×n` input at rank `k`.
    pub fn for_seq(m: usize, n: usize, k: usize) -> Self {
        let mut ws = Self::default();
        ws.size_for_seq(m, n, k);
        ws
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_size_only_what_each_driver_uses() {
        let seq = IterWorkspace::for_seq(10, 8, 3);
        assert_eq!(seq.mm_w.shape(), (10, 3));
        assert_eq!(seq.mm_h.shape(), (8, 3));
        assert_eq!(seq.ht_gather.shape(), (0, 0));
        assert_eq!(seq.aht.shape(), (0, 0));

        let mut naive = IterWorkspace::default();
        naive.size_for_naive(10, 8, 5, 4, 3);
        assert_eq!(naive.ht_gather.shape(), (8, 3));
        assert_eq!(naive.w_gather.shape(), (10, 3));
        assert_eq!(naive.mm_w.shape(), (5, 3));
        assert_eq!(naive.mm_h.shape(), (4, 3));

        let mut hpc = IterWorkspace::default();
        hpc.size_for_hpc(6, 5, 3, 2, 4);
        assert_eq!(hpc.ht_gather.shape(), (5, 4));
        assert_eq!(hpc.w_gather.shape(), (6, 4));
        assert_eq!(hpc.mm_w.shape(), (6, 4));
        assert_eq!(hpc.mm_h.shape(), (5, 4));
        assert_eq!(hpc.aht.shape(), (3, 4));
        assert_eq!(hpc.wta.shape(), (2, 4));
        assert_eq!(hpc.gram_solve.shape(), (4, 4));
    }
}
