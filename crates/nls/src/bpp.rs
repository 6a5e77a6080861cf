//! Block Principal Pivoting for nonnegative least squares.
//!
//! Implements Kim & Park's algorithm (SISC 2011) for the KKT system of
//! `min_{x≥0} ‖Cx − b‖²` (paper Eq. 6): find complementary supports where
//!
//! ```text
//!   y = G·x − Cᵀb,   x ≥ 0,   y ≥ 0,   xᵀy = 0 .
//! ```
//!
//! Variables are partitioned into a *passive* set `F` (where `x` is free
//! and `y = 0`) and an *active* set (where `x = 0` and `y` is free). Each
//! iteration solves the unconstrained system on `F`, finds the infeasible
//! variables `V`, and exchanges them between sets — all at once while
//! progress is made (the "block" move), falling back to Murty's
//! single-variable rule (exchange only the largest infeasible index) when
//! the infeasibility count stops decreasing, which guarantees finite
//! termination.
//!
//! ## Warm start
//!
//! As in Kim & Park's ANLS, each call starts from the iterate it is
//! handed: row `i`'s initial passive set is `{j : x_ij > 0}`. Rows with a
//! nonempty set are solved on it, in one grouped pass, before the first
//! exchange round; the others start at `x = 0`, `y = −Cᵀb`. Late in an
//! ANLS run the support barely moves, so most rows are feasible at the
//! first check and never exchange.
//!
//! Where the answer is unique this changes no bit. When `G_FF` is
//! positive definite and no variable is degenerate (`x_j = y_j = 0`),
//! exactly one passive set satisfies the KKT conditions, and `x` is
//! solved from it by the same Cholesky whichever path reached it — so the
//! result equals a cold start's from `x = 0`. A degenerate row may end on
//! a different passive set (with or without `j`); both give the same
//! point in exact arithmetic, not the same rounding, so its bits can
//! differ.
//!
//! ## Cost follows the pivoting rows and their distinct prefixes
//!
//! The paper attributes BPP's practicality for NMF to rows sharing a
//! passive set being solved with one factorization (`k ≪ min(m,n)`,
//! thousands of right-hand sides, few distinct supports). On sparse
//! power-law inputs that premise fails — most passive sets occur once —
//! so nothing here is paid per *group*:
//!
//! * an exchange round visits only the rows still pivoting (a pending
//!   list kept in row order);
//! * rows are grouped by sorting `(bit-reversed passive mask, row)`
//!   pairs, so equal masks are adjacent and neighbouring masks agree on
//!   their low variable indices;
//! * `G_FF = L·Lᵀ` is factorized row by row (Cholesky–Banachiewicz)
//!   straight from `gram` into one `k×k` buffer. Row `a` of `L` depends
//!   only on the free indices `0..=a`, so the leading rows two
//!   consecutive masks have in common are kept, not recomputed — the
//!   same bits either way;
//! * groups of fewer than `BATCH_MIN_ROWS` (4) rows are substituted one
//!   row at a time, larger ones through the 8-wide batched sweeps, in
//!   chunks of `RHS_CHUNK` (64) columns. The selection is by the group's
//!   row count and does not change any row's result.
//!
//! `docs/kernels.md` ("BPP") has the arguments in full.
//!
//! ## Workspace reuse
//!
//! The solver is called once per factor per outer ANLS iteration, so all
//! pivoting state lives in a solver-held [`BppScratch`] whose buffers are
//! sized by the shape `(r, k)` alone: the dual matrix, the incoming
//! iterate kept for the monotonicity guard, the per-row pivot states, the
//! pending list, the sort keys, the `k×k` factor and the right-hand-side
//! chunk. Once a solver has seen its largest shape, `solve` allocates
//! only in the semidefinite fallback (a passive set whose `G_FF` is not
//! positive definite goes through the shifted [`solve_spd`], which
//! allocates its operands) — counted in [`BppStats`].

use crate::{objective_rows, NlsSolver};
use nmf_matrix::{cholesky_solve_slices, solve_spd, Mat};

/// Groups with at least this many rows take the batched (8-wide)
/// substitution; smaller ones are substituted row by row, which skips
/// the strided gather of a right-hand-side block that would hold one to
/// three columns.
const BATCH_MIN_ROWS: usize = 4;

/// Right-hand-side columns solved per batched call: a multiple of the
/// sweep width, small enough that the `k×RHS_CHUNK` block stays in L1/L2
/// and that the buffer's size does not depend on the data.
const RHS_CHUNK: usize = 64;

/// How many sorted entries ahead of the run being solved the `Cᵀb`, `x`
/// and `y` rows are prefetched: a row solve is about a microsecond of
/// dependent arithmetic, which covers a memory round trip several times.
const PREFETCH_ROWS: usize = 4;

/// Block-principal-pivoting solver.
#[derive(Clone, Debug)]
pub struct Bpp {
    /// Safety cap on exchange rounds; `3k` + slack always suffices in
    /// practice, and the cap guards against cycling under severe
    /// ill-conditioning.
    pub max_rounds: usize,
    /// Backup-rule budget: full-block exchanges allowed after the
    /// infeasibility count last improved (Kim & Park use 3).
    pub backup_budget: u32,
    /// Reused solver state (buffers only — carries no information
    /// between calls). Public so struct-update construction
    /// (`Bpp { max_rounds: .., ..Bpp::default() }`) keeps working.
    pub scratch: BppScratch,
}

impl Default for Bpp {
    fn default() -> Self {
        Bpp {
            max_rounds: 1000,
            backup_budget: 3,
            scratch: BppScratch::default(),
        }
    }
}

/// What the last [`Bpp::solve`] did, counted without allocating.
///
/// `rounds` counts exchange rounds only; `groups` and `row_solves` also
/// count the warm-start solve that precedes round 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BppStats {
    /// Exchange rounds that solved at least one row (the warm-start solve
    /// is not one).
    pub rounds: u64,
    /// Distinct passive sets solved, summed over the warm-start solve and
    /// the rounds.
    pub groups: u64,
    /// Single-row passive-set solves, summed over the warm-start solve
    /// and the rounds.
    pub row_solves: u64,
    /// Rows of Cholesky factors computed.
    pub factor_rows_computed: u64,
    /// Rows of Cholesky factors kept from the previous passive set.
    pub factor_rows_reused: u64,
    /// 1 when the monotonicity guard kept the incoming iterate.
    pub guard_fallbacks: u64,
    /// Passive sets whose `G_FF` was not positive definite.
    pub semidefinite_fallbacks: u64,
}

/// Per-row pivoting state.
#[derive(Clone, Debug)]
struct RowState {
    /// Bit `j` set ⇔ variable `j` is passive (free).
    passive: u128,
    /// Lowest infeasibility count seen (β in Kim & Park).
    best_infeasible: u32,
    /// Remaining full-exchange moves before the backup rule engages (α).
    budget: u32,
}

/// Reusable buffers held by a [`Bpp`] solver across calls (see the
/// module docs). All fields are implementation detail.
#[derive(Clone, Debug, Default)]
pub struct BppScratch {
    /// Dual matrix `y = G·x − Cᵀb` (r×k).
    y: Vec<f64>,
    /// Incoming iterate, kept for the monotonicity guard (r×k).
    x_prev: Vec<f64>,
    states: Vec<RowState>,
    /// Rows still pivoting, ascending.
    pending: Vec<u32>,
    /// `(bit-reversed passive mask, row)` of every pending row; sorted,
    /// equal masks are runs and neighbouring runs share low indices.
    keys: Vec<(u128, u32)>,
    /// `gram` transposed (k×k), so the dual update reads `gram[j][f]` for
    /// all `j` as one contiguous row per free index `f`.
    gram_t: Vec<f64>,
    factor: Factor,
    /// Right-hand sides / solutions of one chunk (`f×nc`, row-major).
    rhs: Vec<f64>,
    stats: BppStats,
}

/// The Cholesky factor of the most recent `G_FF`, in a `k×k` buffer with
/// row stride `k`, remembered so the next passive set can keep the rows
/// it shares.
#[derive(Clone, Debug, Default)]
struct Factor {
    l: Vec<f64>,
    /// Free indices of the current passive set, ascending.
    free: Vec<usize>,
    /// Passive set the leading `rows` rows of `l` were computed for.
    mask: u128,
    rows: usize,
}

impl NlsSolver for Bpp {
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        self.solve(gram, ctb, x);
    }
}

impl Bpp {
    /// Solves `min_{X≥0} Σᵢ ‖·‖`, exactly when `gram` is well
    /// conditioned.
    ///
    /// When `gram` is (near-)singular — common once ANLS converges onto a
    /// lower-rank solution — the passive-set solves become ambiguous and
    /// plain BPP can terminate at a point *worse* than the incoming
    /// iterate. Like production ANLS codes, we guard monotonicity: if the
    /// fresh solve does not improve the (nonnegative, feasible) incoming
    /// `x`, the incoming iterate is kept. Both objectives are evaluated
    /// in place ([`nls_objective`](crate::nls_objective)'s row kernel).
    pub fn solve(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        let k = gram.nrows();
        assert_eq!(gram.ncols(), k, "gram must be square");
        assert!(k <= 128, "BPP implementation supports k <= 128");
        assert_eq!(x.shape(), ctb.shape(), "x and ctb must have equal shapes");
        assert_eq!(x.ncols(), k, "x must have k columns");
        let r = x.nrows();
        assert!(u32::try_from(r).is_ok(), "BPP row indices are 32-bit");
        self.scratch.stats = BppStats::default();
        if r == 0 || k == 0 {
            return;
        }
        self.scratch.fit(r, k);
        self.scratch.x_prev[..r * k].copy_from_slice(x.as_slice());
        self.pivot(gram, ctb, x);
        let scr = &mut self.scratch;
        let x_prev = &scr.x_prev[..r * k];
        if x_prev.iter().all(|&v| v >= 0.0) {
            let f_new = objective_rows(gram, ctb.as_slice(), x.as_slice());
            let f_in = objective_rows(gram, ctb.as_slice(), x_prev);
            if f_new > f_in {
                x.as_mut_slice().copy_from_slice(x_prev);
                scr.stats.guard_fallbacks = 1;
            }
        }
    }

    /// Counts from the most recent [`solve`](Self::solve) /
    /// [`update`](NlsSolver::update).
    pub fn last_stats(&self) -> BppStats {
        self.scratch.stats
    }

    /// The pivoting loop, warm-started from the support of the incoming
    /// `x`, without the monotonicity guard.
    fn pivot(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        let (r, k) = x.shape();
        let (max_rounds, backup_budget) = (self.max_rounds, self.backup_budget);
        let BppScratch {
            y,
            states,
            pending,
            keys,
            gram_t,
            factor,
            rhs,
            stats,
            ..
        } = &mut self.scratch;
        let y = &mut y[..r * k];
        let gram_t = &mut gram_t[..k * k];
        for (j, col) in gram_t.chunks_exact_mut(k).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = gram[(i, j)];
            }
        }
        // Factor rows left by an earlier call belong to another `gram`.
        factor.rows = 0;

        // Warm start (module docs): rows with an empty support start at
        // x = 0, y = −Cᵀb; the others are solved on their support.
        states.clear();
        keys.clear();
        for i in 0..r {
            let passive = support(x.row(i));
            states.push(RowState {
                passive,
                best_infeasible: k as u32 + 1,
                budget: backup_budget,
            });
            if passive == 0 {
                x.row_mut(i).fill(0.0);
                for (yv, &cv) in y[i * k..(i + 1) * k].iter_mut().zip(ctb.row(i)) {
                    *yv = -cv;
                }
            } else {
                keys.push((passive.reverse_bits(), i as u32));
            }
        }
        solve_runs(gram, ctb, x, y, gram_t, factor, keys, rhs, stats);
        pending.clear();
        pending.extend(0..r as u32);

        for _round in 0..max_rounds {
            // Phase 1: infeasibility detection and set exchange on the
            // rows still pivoting; a row with no infeasible variable is
            // finished and leaves the list.
            keys.clear();
            pending.retain(|&row| {
                let i = row as usize;
                let infeasible = infeasible_mask(x.row(i), &y[i * k..(i + 1) * k]);
                if infeasible == 0 {
                    return false;
                }
                let st = &mut states[i];
                let count = infeasible.count_ones();
                if count < st.best_infeasible {
                    st.best_infeasible = count;
                    st.budget = backup_budget;
                    st.passive ^= infeasible;
                } else if st.budget > 0 {
                    st.budget -= 1;
                    st.passive ^= infeasible;
                } else {
                    // Murty's backup rule: flip only the largest index.
                    let top = 127 - infeasible.leading_zeros();
                    st.passive ^= 1u128 << top;
                }
                keys.push((st.passive.reverse_bits(), row));
                true
            });
            if keys.is_empty() {
                return;
            }
            stats.rounds += 1;
            // Phase 2: solve the unconstrained systems on the new passive
            // sets and refresh x, y.
            solve_runs(gram, ctb, x, y, gram_t, factor, keys, rhs, stats);
        }
        // Round cap hit: keep the best-effort solution but make it
        // feasible (nonnegative); callers treat BPP output as a
        // projection anyway.
        x.project_nonnegative();
    }
}

/// Solves every row in `keys` on its passive set and refreshes its `x`
/// and `y` rows. The keys are sorted, so each run of equal masks is one
/// `refactor` that keeps the rows its predecessor shares, then one
/// substitution per row or per `RHS_CHUNK` rows.
#[allow(clippy::too_many_arguments)]
fn solve_runs(
    gram: &Mat,
    ctb: &Mat,
    x: &mut Mat,
    y: &mut [f64],
    gram_t: &[f64],
    factor: &mut Factor,
    keys: &mut [(u128, u32)],
    rhs: &mut [f64],
    stats: &mut BppStats,
) {
    let k = gram.nrows();
    stats.row_solves += keys.len() as u64;
    keys.sort_unstable();
    let (mut start, mut fetched) = (0, 0);
    while start < keys.len() {
        let key = keys[start].0;
        let end = start + keys[start..].iter().take_while(|e| e.0 == key).count();
        // Sorted by mask, rows come in no memory order and most runs are
        // one row long: start the loads of the rows a few entries ahead
        // while this run is being solved.
        let ahead = (end + PREFETCH_ROWS).min(keys.len());
        for &(_, row) in &keys[fetched.max(end)..ahead] {
            let at = row as usize * k..(row as usize + 1) * k;
            prefetch(&ctb.as_slice()[at.clone()]);
            prefetch(&x.as_slice()[at.clone()]);
            prefetch(&y[at]);
        }
        fetched = ahead;
        stats.groups += 1;
        let positive_definite = factor.refactor(gram, key.reverse_bits(), stats);
        let step = if end - start >= BATCH_MIN_ROWS {
            RHS_CHUNK
        } else {
            1
        };
        for rows in keys[start..end].chunks(step) {
            solve_rows(
                gram,
                ctb,
                x,
                y,
                gram_t,
                factor,
                positive_definite,
                rows,
                rhs,
            );
        }
        start = end;
    }
}

/// Starts loading `row`'s cache lines without waiting for them.
#[inline]
fn prefetch(row: &[f64]) {
    #[cfg(target_arch = "x86_64")]
    for line in row.chunks(8) {
        // SAFETY: prefetch has no memory effects, and the address is
        // inside the live slice `row`.
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(line.as_ptr() as *const i8, _MM_HINT_T0);
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = row;
}

impl BppScratch {
    /// Grows the buffers to hold an `r×k` problem (never shrinks, so a
    /// solver alternating between two shapes settles after one of each).
    fn fit(&mut self, r: usize, k: usize) {
        fn at_least(v: &mut Vec<f64>, n: usize) {
            if v.len() < n {
                v.resize(n, 0.0);
            }
        }
        at_least(&mut self.y, r * k);
        at_least(&mut self.x_prev, r * k);
        at_least(&mut self.gram_t, k * k);
        at_least(&mut self.factor.l, k * k);
        at_least(&mut self.rhs, k * RHS_CHUNK);
        // `states` and `pending` are refilled to exactly `r` entries per
        // call; these two fill as the data dictates, so size them here.
        self.keys.clear();
        self.keys.reserve(r);
        self.factor.free.clear();
        self.factor.free.reserve(k);
    }
}

/// Bit `j` set ⇔ `x_j > 0`: the passive set a warm start begins from.
fn support(xi: &[f64]) -> u128 {
    xi.iter()
        .enumerate()
        .fold(0, |mask, (j, &v)| mask | u128::from(v > 0.0) << j)
}

/// Bit `j` set ⇔ variable `j` is infeasible: negative `x` on the passive
/// set or negative `y` on the active set. `x` is exactly zero on the
/// active set and `y` exactly zero on the passive set (both are written
/// that way by every solve), so one test per variable covers both
/// without consulting the passive mask. The comparison is `< 0.0`, not
/// the sign bit: `y = −Cᵀb` holds `-0.0` wherever `Cᵀb` is zero.
fn infeasible_mask(xi: &[f64], yi: &[f64]) -> u128 {
    let mut mask = 0u128;
    for (word, (xw, yw)) in xi.chunks(64).zip(yi.chunks(64)).enumerate() {
        let mut bits = 0u64;
        for (j, (&xv, &yv)) in xw.iter().zip(yw).enumerate() {
            bits |= u64::from((xv < 0.0) | (yv < 0.0)) << j;
        }
        mask |= u128::from(bits) << (64 * word);
    }
    mask
}

impl Factor {
    /// Makes `l` the Cholesky factor of `G_FF` for passive set `mask`,
    /// keeping the leading rows shared with the previous set. Returns
    /// `false` when `G_FF` is not positive definite; the rows before the
    /// failing pivot stay valid for the next set.
    ///
    /// Row-oriented (Cholesky–Banachiewicz): entry `(a, b)` is
    /// `(G[f_a][f_b] − Σ_{t<b} L[a][t]·L[b][t]) / L[b][b]`, summed in the
    /// same order as the column-oriented textbook form, so the factor —
    /// and the pivot at which a semidefinite `G_FF` fails — are
    /// bit-identical to it. Row `a` reads only rows `≤ a`, which is why
    /// a shared prefix of free indices means shared rows.
    // `!(d > 0.0)` is deliberate: it also catches NaN pivots.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn refactor(&mut self, gram: &Mat, mask: u128, stats: &mut BppStats) -> bool {
        let k = gram.nrows();
        // Variables below the lowest differing bit are shared.
        let shared_vars = (self.mask ^ mask).trailing_zeros();
        let shared_rows = match 1u128.checked_shl(shared_vars) {
            Some(bit) => (mask & (bit - 1)).count_ones() as usize,
            None => usize::MAX,
        };
        let keep = self.rows.min(shared_rows);
        self.mask = mask;
        self.free.clear();
        let mut left = mask;
        while left != 0 {
            self.free.push(left.trailing_zeros() as usize);
            left &= left - 1;
        }
        let f = self.free.len();
        stats.factor_rows_reused += keep as u64;
        for a in keep..f {
            let ga = gram.row(self.free[a]);
            let (done, la) = self.l[..(a + 1) * k].split_at_mut(a * k);
            for b in 0..a {
                let lb = &done[b * k..b * k + b + 1];
                let mut s = ga[self.free[b]];
                for (&lat, &lbt) in la[..b].iter().zip(lb) {
                    s -= lat * lbt;
                }
                la[b] = s / lb[b];
            }
            let mut d = ga[self.free[a]];
            for &lat in &la[..a] {
                d -= lat * lat;
            }
            if !(d > 0.0) {
                self.rows = a;
                stats.factor_rows_computed += (a - keep) as u64;
                stats.semidefinite_fallbacks += 1;
                return false;
            }
            la[a] = d.sqrt();
        }
        self.rows = f;
        stats.factor_rows_computed += (f - keep) as u64;
        true
    }
}

/// Solves `rows` (all sharing the passive set held by `factor`) and
/// updates their `x` and `y` rows.
#[allow(clippy::too_many_arguments)]
fn solve_rows(
    gram: &Mat,
    ctb: &Mat,
    x: &mut Mat,
    y: &mut [f64],
    gram_t: &[f64],
    factor: &Factor,
    positive_definite: bool,
    rows: &[(u128, u32)],
    rhs: &mut [f64],
) {
    let k = gram.nrows();
    let free = &factor.free[..];
    let f = free.len();
    let nc = rows.len();
    let sol = &mut rhs[..f * nc];
    for (col, &(_, row)) in rows.iter().enumerate() {
        let bi = ctb.row(row as usize);
        for (a, &ja) in free.iter().enumerate() {
            sol[a * nc + col] = bi[ja];
        }
    }
    if positive_definite {
        cholesky_solve_slices(&factor.l, k, f, sol, nc);
    } else {
        // Semidefinite fallback (rare): shifted solve, allocating.
        let gff = Mat::from_fn(f, f, |a, b| gram[(free[a], free[b])]);
        let b = Mat::from_vec(f, nc, sol.to_vec());
        match solve_spd(&gff, &b) {
            Ok(shifted) => sol.copy_from_slice(shifted.as_slice()),
            Err(_) => sol.fill(0.0),
        }
    }

    for (col, &(_, row)) in rows.iter().enumerate() {
        let i = row as usize;
        // x_F = solution, x elsewhere = 0.
        let xi = x.row_mut(i);
        xi.fill(0.0);
        for (a, &ja) in free.iter().enumerate() {
            xi[ja] = sol[a * nc + col];
        }
        // y = G·x − Cᵀb, accumulated over the free indices in ascending
        // order for every variable at once; exactly 0 on F.
        let yi = &mut y[i * k..(i + 1) * k];
        for (v, &c) in yi.iter_mut().zip(ctb.row(i)) {
            *v = -c;
        }
        for (a, &ja) in free.iter().enumerate() {
            let xa = sol[a * nc + col];
            for (v, &g) in yi.iter_mut().zip(&gram_t[ja * k..(ja + 1) * k]) {
                *v += g * xa;
            }
        }
        for &ja in free {
            yi[ja] = 0.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nls_objective;
    use crate::reference::exhaustive_nnls;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta, solve_spd};

    /// Builds a well-conditioned random NLS instance: G = CᵀC + δI,
    /// CtB from random C and B.
    fn instance(k: usize, r: usize, seed: u64) -> (Mat, Mat) {
        let c = Mat::gaussian(3 * k + 5, k, seed);
        let b = Mat::gaussian(3 * k + 5, r, seed + 1);
        let mut g = gram(&c);
        for i in 0..k {
            g[(i, i)] += 1e-8;
        }
        let ctb = matmul_ta(&b, &c); // r×k
        (g, ctb)
    }

    #[test]
    fn matches_exhaustive_reference() {
        // k in 2..=6 over twenty seeds, then one k = 9 instance (512 sets).
        let cases = (0..20).map(|seed| (2 + seed as usize % 5, seed));
        for (k, seed) in cases.chain([(9, 300)]) {
            let (g, ctb) = instance(k, 4, 100 + seed);
            let mut x = Mat::zeros(4, k);
            Bpp::default().solve(&g, &ctb, &mut x);
            for i in 0..4 {
                let expect = exhaustive_nnls(&g, ctb.row(i));
                for j in 0..k {
                    assert!(
                        (x[(i, j)] - expect[j]).abs() < 1e-6,
                        "seed {seed} row {i}: got {:?}, expected {:?}",
                        x.row(i),
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn satisfies_kkt_conditions() {
        let (g, ctb) = instance(10, 30, 7);
        let mut x = Mat::zeros(30, 10);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!(x.all_nonnegative(), "primal feasibility");
        // y = G·x − Cᵀb must be ≥ −tol, and complementary to x.
        let xg = nmf_matrix::matmul_tb(&x, &g);
        for i in 0..30 {
            for j in 0..10 {
                let yij = xg[(i, j)] - ctb[(i, j)];
                assert!(yij > -1e-7, "dual feasibility violated: y[{i},{j}] = {yij}");
                assert!(
                    (x[(i, j)] * yij).abs() < 1e-6,
                    "complementarity violated at ({i},{j}): x={} y={yij}",
                    x[(i, j)]
                );
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_solver() {
        // One solver instance reused across many calls (the driver
        // pattern: W-shaped and H-shaped problems alternate, and here `k`
        // changes too) must produce the same results as a fresh solver
        // per call — scratch carries no state between calls. In
        // particular the factor rows left by one call, for another Gram
        // matrix or another `k`-stride, are never taken for a prefix of
        // the next call's first passive set.
        let mut reused = Bpp::default();
        for seed in 0..24 {
            let k = [3, 8, 5, 8, 17, 4][seed as usize % 6];
            let r = if seed % 2 == 0 {
                5 + seed as usize
            } else {
                90 - seed as usize
            };
            let (g, ctb) = instance(k, r, 300 + seed);
            let mut x_reused = Mat::zeros(r, k);
            reused.solve(&g, &ctb, &mut x_reused);
            let mut fresh = Bpp::default();
            let mut x_fresh = Mat::zeros(r, k);
            fresh.solve(&g, &ctb, &mut x_fresh);
            assert_eq!(
                x_reused, x_fresh,
                "seed {seed}: reused-scratch solve diverged from fresh solve"
            );
            assert_eq!(reused.last_stats(), fresh.last_stats(), "seed {seed}");
        }
    }

    #[test]
    fn stats_count_groups_and_prefix_reuse_on_power_law_rows() {
        // Power-law-sparse right-hand sides: most rows have a handful of
        // positive entries, concentrated on low indices, so passive sets
        // are many, small, mostly unique — and share leading indices.
        let k = 32;
        let r = 1500;
        let (g, _) = instance(k, 1, 77);
        let mut ctb = Mat::uniform(r, k, 78);
        for i in 0..r {
            let keep = 1 + (r / (i + 1)).min(k - 1);
            for j in 0..k {
                let v = ctb[(i, j)];
                let hit = ((i * 31 + j * 17) % (j + 2)) == 0 && j < keep + 8;
                ctb[(i, j)] = if hit { 5.0 * v } else { -v };
            }
        }
        let mut solver = Bpp::default();
        let x0 = Mat::zeros(r, k);
        let mut x = x0.clone();
        solver.solve(&g, &ctb, &mut x);
        let st = solver.last_stats();
        assert!(st.rounds >= 1);
        assert!(st.groups >= 1 && st.groups <= st.row_solves, "{st:?}");
        assert!(st.row_solves >= r as u64 / 2, "{st:?}");
        assert!(st.factor_rows_reused > 0, "{st:?}");
        assert!(st.factor_rows_computed > 0, "{st:?}");
        assert_eq!(st.semidefinite_fallbacks, 0, "{st:?}");
        assert_eq!(st.guard_fallbacks, 0, "{st:?}");
        // Counts are per call, not cumulative: the same incoming iterate
        // gives the same counts and the same bits.
        let mut again = x0.clone();
        solver.solve(&g, &ctb, &mut again);
        assert_eq!(solver.last_stats(), st);
        assert_eq!(bits(&again), bits(&x));
        // From the optimum, the warm start solves every row on its final
        // passive set, so no row pivots and the bits come back unchanged.
        let mut warm = x.clone();
        solver.solve(&g, &ctb, &mut warm);
        assert_eq!(solver.last_stats().rounds, 0, "{:?}", solver.last_stats());
        assert_eq!(bits(&warm), bits(&x));
    }

    fn bits(m: &Mat) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn guard_keeps_a_better_incoming_iterate() {
        let (g, ctb) = instance(6, 20, 41);
        let mut x = Mat::zeros(20, 6);
        Bpp::default().solve(&g, &ctb, &mut x);
        // Nudged off zero, the optimum's entries all become passive: the
        // warm start solves every row unconstrained, and with no exchange
        // round to repair its negative entries the projection of that is
        // worse than the nudged iterate handed in.
        let nudged = Mat::from_fn(20, 6, |i, j| if x[(i, j)] > 0.0 { x[(i, j)] } else { 1e-9 });
        let mut x = nudged.clone();
        let mut capped = Bpp {
            max_rounds: 0,
            ..Bpp::default()
        };
        capped.solve(&g, &ctb, &mut x);
        assert_eq!(bits(&x), bits(&nudged));
        assert_eq!(capped.last_stats().guard_fallbacks, 1);
        assert_eq!(capped.last_stats().rounds, 0);
    }

    #[test]
    fn unconstrained_optimum_is_returned_when_nonnegative() {
        // If Cᵀb has the same sign structure as a nonnegative solution,
        // BPP must return the plain least-squares solution.
        let k = 5;
        let c = Mat::gaussian(20, k, 42);
        let g = {
            let mut g = gram(&c);
            for i in 0..k {
                g[(i, i)] += 0.1;
            }
            g
        };
        let x_true = Mat::uniform(3, k, 43); // strictly positive rows
                                             // ctb = G·x_true ⇒ unconstrained optimum is x_true itself.
        let ctb = nmf_matrix::matmul_tb(&x_true, &g);
        let mut x = Mat::zeros(3, k);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-7);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let (g, _) = instance(6, 1, 3);
        let ctb = Mat::zeros(4, 6);
        let mut x = Mat::uniform(4, 6, 9);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_eq!(x, Mat::zeros(4, 6));
    }

    #[test]
    fn negative_rhs_gives_zero_solution() {
        // Cᵀb < 0 everywhere ⇒ y = −Cᵀb > 0 with x = 0 satisfies KKT.
        let (g, mut ctb) = instance(6, 5, 17);
        for v in ctb.as_mut_slice() {
            *v = -v.abs() - 0.1;
        }
        let mut x = Mat::zeros(5, 6);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_eq!(x, Mat::zeros(5, 6));
    }

    #[test]
    fn improves_on_projected_least_squares() {
        // BPP's optimum must be at least as good as clamping the
        // unconstrained solution.
        let (g, ctb) = instance(7, 10, 23);
        let mut x_bpp = Mat::zeros(10, 7);
        Bpp::default().solve(&g, &ctb, &mut x_bpp);
        let rhs_t = ctb.transpose();
        let mut clamped = solve_spd(&g, &rhs_t).unwrap().transpose();
        clamped.project_nonnegative();
        let f_bpp = nls_objective(&g, &ctb, &x_bpp);
        let f_clamped = nls_objective(&g, &ctb, &clamped);
        assert!(
            f_bpp <= f_clamped + 1e-9,
            "BPP {f_bpp} worse than clamped LS {f_clamped}"
        );
    }

    #[test]
    fn handles_k_equal_one() {
        let g = Mat::from_rows(&[&[2.0]]);
        let ctb = Mat::from_rows(&[&[4.0], &[-3.0]]);
        let mut x = Mat::zeros(2, 1);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12); // 2x = 4
        assert_eq!(x[(1, 0)], 0.0); // negative rhs clamps to 0
    }
}
