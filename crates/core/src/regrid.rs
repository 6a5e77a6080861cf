//! Elastic resume: moving a checkpoint between grids and schemes.
//!
//! The paper treats the processor grid as a *tunable* resource — the 2D
//! `p_r×p_c` layout is chosen to minimize communication for a given
//! allocation — but allocations change between runs. This module turns
//! the checkpoint format from a crash-recovery artifact into an
//! elasticity substrate: a checkpoint taken on any scheme can seed a
//! session on any other, because its factors are *globalized* on read
//! and re-sliced along the target layout on build.
//!
//! The flow has two halves, both exact row copies:
//!
//! 1. **Globalize** — a checkpoint stores one factor block per rank,
//!    cut at the offsets [`ShardKey::layout`](crate::dist::ShardKey::layout)
//!    assigns; the reader decodes each block straight into its rows of
//!    one assembled `W` (`m×k`) and `Hᵀ` (`n×k`), bit-for-bit (the
//!    blocks were sliced from those exact matrices).
//! 2. **Reshard** — the session builder's warm start scatters the
//!    assembled factors along the *target* `(algo, grid, ranks)` layout,
//!    and the input blocks come from the ordinary [`crate::shared`]
//!    extraction (cache-served under a [`crate::shared::SharedInput`]).
//!
//! Because both halves copy values without arithmetic, a pure resume
//! (same grid) continues the bit-identical trajectory, and a regridded
//! resume continues from *numerically identical factors* — only the
//! reduction orders of the new scheme differ. Compatibility is
//! correspondingly relaxed: only the input shape must match
//! ([`crate::checkpoint::CheckpointMeta::check_compatible`]); grid,
//! scheme, and rank count are free. `k`, the solver, and the seed ride
//! in the checkpoint's config and stay fixed — they define the
//! trajectory being continued. See `docs/elasticity.md`.
//!
//! Entry points: [`crate::Nmf::resume_from`] (builder-style),
//! [`crate::Model::load_regrid_shared`] (one-shot from a path), and
//! [`fitting_grids`] (which targets fit a shape — the
//! `nmf_cli checkpoints inspect` report).

use crate::checkpoint::CheckpointMeta;
use crate::config::Algo;
use crate::error::grid_fits;
use crate::grid::Grid;

/// Where a checkpoint should resume: any subset of algorithm, rank
/// count, and explicit grid may be overridden; whatever is left `None`
/// is inherited from the checkpoint. An empty target is a *pure* resume
/// — it replays the recorded grid exactly (bit-identical trajectory).
#[derive(Clone, Copy, Debug, Default)]
pub struct RegridTarget {
    pub algo: Option<Algo>,
    pub ranks: Option<usize>,
    pub grid: Option<Grid>,
}

impl RegridTarget {
    pub fn new() -> RegridTarget {
        RegridTarget::default()
    }

    /// Resume under a different algorithm / communication scheme.
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = Some(algo);
        self
    }

    /// Resume on a different number of virtual ranks.
    pub fn ranks(mut self, p: usize) -> Self {
        self.ranks = Some(p);
        self
    }

    /// Resume on an explicit `p_r×p_c` processor grid (implies the HPC
    /// scheme unless [`algo`](Self::algo) says otherwise).
    pub fn grid(mut self, grid: Grid) -> Self {
        self.grid = Some(grid);
        self
    }

    /// Whether this target overrides nothing (a pure resume).
    pub fn is_pure_resume(&self) -> bool {
        self.algo.is_none() && self.ranks.is_none() && self.grid.is_none()
    }

    /// Resolves the target against a checkpoint's metadata into the
    /// `(algo, ranks, grid_override)` triple the session builder needs.
    ///
    /// Rules, in order:
    /// * nothing overridden → replay the recorded algo/ranks and pin the
    ///   recorded grid (so the trajectory is bit-identical even if
    ///   [`Grid::optimal`]'s tie-breaking ever changes);
    /// * an explicit grid with no algo → [`Algo::HpcGrid`] on it;
    /// * no explicit algo but a changed rank count on a recorded
    ///   [`Algo::HpcGrid`] → degrade to [`Algo::Hpc2D`] so the stale
    ///   pinned grid doesn't contradict the new rank count;
    /// * ranks default to the grid's size, then — except for
    ///   [`Algo::Sequential`], which is always 1 — the recorded count.
    pub(crate) fn resolve(&self, meta: &CheckpointMeta) -> (Algo, usize, Option<Grid>) {
        if self.is_pure_resume() {
            return (meta.algo, meta.ranks, Some(meta.grid));
        }
        let ranks_req = self.ranks.or_else(|| self.grid.map(|g| g.size()));
        let algo = match (self.algo, self.grid) {
            (Some(a), _) => a,
            (None, Some(g)) => Algo::HpcGrid(g),
            (None, None) => match meta.algo {
                Algo::HpcGrid(g) if ranks_req.is_some_and(|r| r != g.size()) => Algo::Hpc2D,
                a => a,
            },
        };
        let ranks = ranks_req.unwrap_or(match algo {
            Algo::Sequential => 1,
            _ => meta.ranks,
        });
        (algo, ranks, self.grid)
    }
}

/// Every `p_r×p_c` factorization of `ranks` whose grid fits an `m×n`
/// input (the builder's divisibility constraint: each rank must own at
/// least one row and one column of its factor slices). Ascending in
/// `p_r` — the same order the builder's `GridTooLarge` suggestion
/// lists. Empty when no grid of that size fits.
pub fn fitting_grids(m: usize, n: usize, ranks: usize) -> Vec<Grid> {
    (1..=ranks)
        .filter(|pr| ranks.is_multiple_of(*pr))
        .map(|pr| Grid::new(pr, ranks / pr))
        .filter(|&g| grid_fits(g, m, n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NmfConfig;

    fn meta(algo: Algo, grid: Grid, ranks: usize) -> CheckpointMeta {
        CheckpointMeta {
            m: 24,
            n: 18,
            ranks,
            algo,
            grid,
            config: NmfConfig::new(4),
        }
    }

    #[test]
    fn pure_resume_replays_the_recorded_grid() {
        let m = meta(Algo::Hpc2D, Grid::new(4, 2), 8);
        let (algo, ranks, pin) = RegridTarget::new().resolve(&m);
        assert_eq!(algo, Algo::Hpc2D);
        assert_eq!(ranks, 8);
        assert_eq!(pin, Some(Grid::new(4, 2)));
    }

    #[test]
    fn explicit_grid_implies_the_hpc_scheme() {
        let m = meta(Algo::Hpc2D, Grid::new(4, 2), 8);
        let (algo, ranks, pin) = RegridTarget::new().grid(Grid::new(2, 2)).resolve(&m);
        assert_eq!(algo, Algo::HpcGrid(Grid::new(2, 2)));
        assert_eq!(ranks, 4);
        assert_eq!(pin, Some(Grid::new(2, 2)));
    }

    #[test]
    fn rank_change_degrades_a_pinned_grid_to_optimal_2d() {
        let m = meta(Algo::HpcGrid(Grid::new(4, 2)), Grid::new(4, 2), 8);
        let (algo, ranks, pin) = RegridTarget::new().ranks(4).resolve(&m);
        assert_eq!(algo, Algo::Hpc2D);
        assert_eq!(ranks, 4);
        assert_eq!(pin, None);
    }

    #[test]
    fn sequential_target_defaults_to_one_rank() {
        let m = meta(Algo::Hpc2D, Grid::new(4, 2), 8);
        let (algo, ranks, _) = RegridTarget::new().algo(Algo::Sequential).resolve(&m);
        assert_eq!(algo, Algo::Sequential);
        assert_eq!(ranks, 1);
    }

    #[test]
    fn fitting_grids_respects_the_divisibility_constraint() {
        // 28×20: 1×8 needs m/1 >= 8 and n/8 >= 1 — fits; 8×1 needs
        // m/8 >= 1 and n/1 >= 8 — fits too.
        let grids = fitting_grids(28, 20, 8);
        assert!(grids.contains(&Grid::new(1, 8)));
        assert!(grids.contains(&Grid::new(2, 4)));
        assert!(grids.contains(&Grid::new(4, 2)));
        assert!(grids.contains(&Grid::new(8, 1)));
        // A shape too small for any 64-rank grid reports none.
        assert!(fitting_grids(4, 4, 64).is_empty());
    }
}
