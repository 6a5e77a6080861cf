//! Distributions: how a run deals `A` onto its ranks and slices `W`, `H`.
//!
//! The paper's three algorithms are one ANLS computation over two
//! distributions of the same matrices (§4–5): Algorithm 2's stripes and
//! Algorithm 3's grid, of which Algorithm 1's whole matrix on one rank is
//! the 1×1 case. A [`ShardKey`] names one —
//! it is the descriptor of a run, [`ShardKey::of`] an
//! `(algo, grid, ranks)` request — and [`ShardKey::layout`] is the only
//! code that says what rank `r` owns under it: block extraction
//! ([`crate::shared`]), the schemes' buffer shapes ([`crate::engine`]),
//! warm-start scatter and snapshot gather ([`crate::session`]), the
//! checkpoint factor section and the regrid globalizer all read their
//! offsets here, which is what makes a resume bit-identical.
//!
//! Everything is [`Dist1D`]'s floor-plus-remainder dealing: `A`'s rows
//! over grid rows and its columns over grid columns, then within a block
//! `W`'s rows over the grid row's members and `H`'s columns over the
//! grid column's members.

use crate::config::Algo;
use crate::grid::Grid;

/// One processor's slice of a distributed dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Part {
    pub offset: usize,
    pub len: usize,
}

impl Part {
    pub fn end(&self) -> usize {
        self.offset + self.len
    }
}

/// A block distribution of `total` indices over `parts` processors:
/// the first `total mod parts` processors get `⌈total/parts⌉` indices,
/// the rest `⌊total/parts⌋`. (The paper sizes its datasets so blocks
/// divide evenly; this handles the general case so arbitrary problem
/// sizes work.)
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dist1D {
    total: usize,
    parts: usize,
}

impl Dist1D {
    pub fn new(total: usize, parts: usize) -> Self {
        assert!(parts >= 1, "need at least one part");
        Dist1D { total, parts }
    }

    #[inline]
    pub fn total(&self) -> usize {
        self.total
    }

    #[inline]
    pub fn parts(&self) -> usize {
        self.parts
    }

    /// The slice owned by processor `i`.
    pub fn part(&self, i: usize) -> Part {
        assert!(i < self.parts, "part index out of range");
        let base = self.total / self.parts;
        let rem = self.total % self.parts;
        let len = base + usize::from(i < rem);
        let offset = i * base + i.min(rem);
        Part { offset, len }
    }

    /// Lengths of every part (e.g. the `counts` argument of a
    /// reduce-scatter over this dimension).
    pub fn lens(&self) -> Vec<usize> {
        (0..self.parts).map(|i| self.part(i).len).collect()
    }

    /// Lengths scaled by a row width (counts in words for a matrix whose
    /// rows are distributed by this distribution).
    pub fn lens_scaled(&self, width: usize) -> Vec<usize> {
        (0..self.parts).map(|i| self.part(i).len * width).collect()
    }

    /// Which part owns global index `g`.
    pub fn owner(&self, g: usize) -> usize {
        assert!(g < self.total);
        let base = self.total / self.parts;
        let rem = self.total % self.parts;
        let boundary = rem * (base + 1);
        if g < boundary {
            g / (base + 1)
        } else {
            rem + (g - boundary) / base.max(1)
        }
    }
}

/// How the input is dealt onto ranks: the descriptor of a run's
/// distribution, and the cache key of a [`SharedInput`](crate::SharedInput)
/// sharding.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum ShardKey {
    /// 1D row stripes plus 1D column stripes over `p` ranks (naive).
    Naive { p: usize },
    /// 2D blocks on a `pr × pc` grid (MPI-FAUN); `1 × 1` is the whole
    /// matrix on a single rank (sequential).
    Grid { pr: usize, pc: usize },
}

/// What one rank owns, in positions of the order the input is dealt in
/// (for an input dealt in index order, global indices).
///
/// `rows × cols` is its block of `A`; under [`ShardKey::Naive`], which
/// stores `A` twice, they are its row stripe `rows × 0..n` and its
/// column stripe `0..m × cols`. `w ⊆ rows` are its rows of `W` and
/// `ht ⊆ cols` its columns of `H` (rows of `Hᵀ`); over the ranks of a
/// run the `w` tile `0..m` (in rank order) and the `ht` tile `0..n`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RankLayout {
    pub rows: Part,
    pub cols: Part,
    pub w: Part,
    pub ht: Part,
}

impl ShardKey {
    /// The distribution an `(algo, grid, ranks)` request runs on. Total:
    /// a triple that is not one grid of `ranks` ranks is the caller's to
    /// refuse (the builder and the checkpoint decoder both do), never an
    /// assertion here. [`Algo::Sequential`] is the 1×1 grid whatever
    /// `grid` says.
    pub fn of(algo: Algo, grid: Grid, ranks: usize) -> ShardKey {
        match algo {
            Algo::Sequential => ShardKey::Grid { pr: 1, pc: 1 },
            Algo::Naive => ShardKey::Naive { p: ranks },
            Algo::Hpc1D | Algo::Hpc2D | Algo::HpcGrid(_) => ShardKey::Grid {
                pr: grid.pr,
                pc: grid.pc,
            },
        }
    }

    /// Ranks of the run.
    pub fn ranks(self) -> usize {
        match self {
            ShardKey::Naive { p } => p,
            ShardKey::Grid { pr, pc } => pr * pc,
        }
    }

    /// What rank `r` owns of an `m×n` input. Ranks map to grid
    /// coordinates by [`Grid::coords`].
    pub fn layout(self, m: usize, n: usize, r: usize) -> RankLayout {
        let (pr, pc) = match self {
            ShardKey::Naive { p } => {
                let (rows, cols) = (Dist1D::new(m, p).part(r), Dist1D::new(n, p).part(r));
                return RankLayout {
                    rows,
                    cols,
                    w: rows,
                    ht: cols,
                };
            }
            ShardKey::Grid { pr, pc } => (pr, pc),
        };
        let (i, j) = Grid { pr, pc }.coords(r);
        let rows = Dist1D::new(m, pr).part(i);
        let cols = Dist1D::new(n, pc).part(j);
        let within = |block: Part, parts, q| {
            let sub = Dist1D::new(block.len, parts).part(q);
            Part {
                offset: block.offset + sub.offset,
                len: sub.len,
            }
        };
        RankLayout {
            rows,
            cols,
            w: within(rows, pc, j),
            ht: within(cols, pr, i),
        }
    }

    /// The extents `(rows, cols)` of the blocks of `A` a rank laid out as
    /// `lay` holds: the one its `A·Hᵀ` reads and, where `A` is stored
    /// twice ([`ShardKey::Naive`]: a row stripe and a column stripe), the
    /// other one its `Aᵀ·W` reads.
    pub(crate) fn blocks(
        self,
        lay: &RankLayout,
        m: usize,
        n: usize,
    ) -> ((Part, Part), Option<(Part, Part)>) {
        let all = |len| Part { offset: 0, len };
        match self {
            ShardKey::Naive { .. } => ((lay.rows, all(n)), Some((all(m), lay.cols))),
            ShardKey::Grid { .. } => ((lay.rows, lay.cols), None),
        }
    }

    /// [`layout`](Self::layout) of every rank, in rank order.
    pub fn layouts(self, m: usize, n: usize) -> Vec<RankLayout> {
        assert!(self.ranks() >= 1, "a sharding has at least one rank");
        (0..self.ranks()).map(|r| self.layout(m, n, r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Grid2D;
    use crate::error::grid_fits;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn layouts_tile_the_matrix_and_the_factors(
            m in 1usize..200,
            n in 1usize..200,
            p in 1usize..17,
            pr in 1usize..5,
            pc in 1usize..5,
        ) {
            let mut keys = vec![ShardKey::Grid { pr: 1, pc: 1 }];
            if p <= m.min(n) {
                keys.push(ShardKey::Naive { p });
            }
            if grid_fits(Grid::new(pr, pc), m, n) {
                keys.push(ShardKey::Grid { pr, pc });
            }
            for key in keys {
                let layouts = key.layouts(m, n);
                prop_assert_eq!(layouts.len(), key.ranks());
                // Every entry of `A` lies in exactly one rank's row-side
                // block and exactly one rank's column-side block.
                for side in 0..2 {
                    let mut hits = vec![0u8; m * n];
                    for l in &layouts {
                        let (row_side, col_side) = key.blocks(l, m, n);
                        let (rows, cols) = [row_side, col_side.unwrap_or(row_side)][side];
                        for i in rows.offset..rows.end() {
                            for j in cols.offset..cols.end() {
                                hits[i * n + j] += 1;
                            }
                        }
                    }
                    prop_assert!(hits.iter().all(|&h| h == 1), "{key:?} side {side}");
                }
                // The `W` slices tile `0..m` in rank order, the `H` slices
                // tile `0..n` (rank order walks a grid row, so theirs is
                // column-major), each inside its rank's block.
                let mut w_end = 0;
                let mut ht: Vec<Part> = layouts.iter().map(|l| l.ht).collect();
                ht.sort_by_key(|part| part.offset);
                let mut ht_end = 0;
                for (l, ht) in layouts.iter().zip(&ht) {
                    prop_assert_eq!((l.w.offset, ht.offset), (w_end, ht_end), "{:?}", key);
                    (w_end, ht_end) = (l.w.end(), ht.end());
                    prop_assert!(l.rows.offset <= l.w.offset && l.w.end() <= l.rows.end());
                    prop_assert!(l.cols.offset <= l.ht.offset && l.ht.end() <= l.cols.end());
                }
                prop_assert_eq!((w_end, ht_end), (m, n), "{:?}", key);
                // The scheme sizes its buffers by the same lengths.
                if let ShardKey::Grid { pr, pc } = key {
                    let shapes = nmf_vmpi::universe::run(pr * pc, |comm| {
                        let scheme = Grid2D::new(comm, Grid::new(pr, pc), (m, n), 3);
                        (scheme.block_shape(), scheme.w_shape(), scheme.ht_shape())
                    });
                    for (rank, l) in shapes.iter().zip(&layouts) {
                        let expect = ((l.rows.len, l.cols.len), (l.w.len, 3), (l.ht.len, 3));
                        prop_assert_eq!(rank.result, expect);
                    }
                }
            }
        }
    }

    #[test]
    fn parts_tile_exactly() {
        for total in [0usize, 1, 7, 12, 100, 101] {
            for parts in [1usize, 2, 3, 5, 8, 13] {
                let d = Dist1D::new(total, parts);
                let mut covered = 0;
                for i in 0..parts {
                    let p = d.part(i);
                    assert_eq!(p.offset, covered, "parts must be contiguous");
                    covered += p.len;
                }
                assert_eq!(covered, total, "parts must cover the range");
            }
        }
    }

    #[test]
    fn parts_are_balanced() {
        let d = Dist1D::new(103, 10);
        let lens = d.lens();
        let max = lens.iter().max().unwrap();
        let min = lens.iter().min().unwrap();
        assert!(max - min <= 1, "block distribution must be balanced");
    }

    #[test]
    fn owner_is_consistent_with_part() {
        for total in [5usize, 17, 64] {
            for parts in [1usize, 3, 4, 7] {
                let d = Dist1D::new(total, parts);
                for g in 0..total {
                    let o = d.owner(g);
                    let p = d.part(o);
                    assert!(
                        g >= p.offset && g < p.end(),
                        "owner({g}) = {o} but part {p:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lens_scaled_multiplies() {
        let d = Dist1D::new(10, 3);
        assert_eq!(d.lens_scaled(4), vec![16, 12, 12]);
    }
}
