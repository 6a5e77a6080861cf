//! Processor grids: the `pr × pc` layout of Algorithm 3.

/// A `pr × pc` processor grid with row-major rank order
/// (`rank = i·pc + j`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Grid {
    pub pr: usize,
    pub pc: usize,
}

impl Grid {
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr >= 1 && pc >= 1);
        Grid { pr, pc }
    }

    /// The 1D grid (`pr = p`, `pc = 1`) the paper prescribes for
    /// tall-and-skinny inputs (`m/p > n`).
    pub fn one_dimensional(p: usize) -> Self {
        Grid { pr: p, pc: 1 }
    }

    /// The communication-minimizing grid for an `m×n` matrix over `p`
    /// processors: the divisor pair `pr·pc = p` minimizing the
    /// per-iteration bandwidth `(pr−1)·n + (pc−1)·m`, which realizes the
    /// paper's prescription `m/pr ≈ n/pc ≈ √(mn/p)` (and degenerates to
    /// the 1D grid when `m/p > n`).
    pub fn optimal(m: usize, n: usize, p: usize) -> Self {
        assert!(p >= 1);
        let mut best = Grid { pr: p, pc: 1 };
        let mut best_cost = f64::INFINITY;
        for pr in 1..=p {
            if !p.is_multiple_of(pr) {
                continue;
            }
            let pc = p / pr;
            let cost = (pr - 1) as f64 * n as f64 + (pc - 1) as f64 * m as f64;
            if cost < best_cost {
                best_cost = cost;
                best = Grid { pr, pc };
            }
        }
        best
    }

    #[inline]
    pub fn size(&self) -> usize {
        self.pr * self.pc
    }

    /// Grid coordinates `(i, j)` of `rank`.
    #[inline]
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        debug_assert!(rank < self.size());
        (rank / self.pc, rank % self.pc)
    }

    /// Rank at grid coordinates `(i, j)`.
    #[inline]
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        debug_assert!(i < self.pr && j < self.pc);
        i * self.pc + j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coords_round_trip() {
        let g = Grid::new(3, 4);
        for r in 0..12 {
            let (i, j) = g.coords(r);
            assert_eq!(g.rank_of(i, j), r);
        }
    }

    #[test]
    fn optimal_is_square_for_square_matrices() {
        let g = Grid::optimal(10_000, 10_000, 16);
        assert_eq!((g.pr, g.pc), (4, 4));
    }

    #[test]
    fn optimal_is_1d_for_tall_skinny() {
        // Video-like: m/p >> n.
        let g = Grid::optimal(1_013_400, 2_400, 16);
        assert_eq!(g.pc, 1, "tall-skinny input wants a 1D grid, got {g:?}");
    }

    #[test]
    fn optimal_matches_aspect_ratio() {
        // m = 4n, p = 64: ideal pr/pc = m/n = 4 → pr=16, pc=4.
        let g = Grid::optimal(40_000, 10_000, 64);
        assert_eq!((g.pr, g.pc), (16, 4));
    }

    #[test]
    fn optimal_divides_p() {
        for p in [1usize, 6, 24, 96, 216, 384, 600] {
            let g = Grid::optimal(172_800, 115_200, p);
            assert_eq!(g.pr * g.pc, p);
        }
    }

    #[test]
    fn paper_grid_for_ssyn_at_600() {
        // 172800×115200 at p=600: aspect ratio 1.5, best divisor pair is
        // pr=30, pc=20 (30/20 = 1.5 exactly).
        let g = Grid::optimal(172_800, 115_200, 600);
        assert_eq!((g.pr, g.pc), (30, 20));
    }
}
