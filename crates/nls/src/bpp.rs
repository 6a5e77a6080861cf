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
//! handed: row `i`'s initial passive set is `{j : x_ij > 0}`. Pass 1
//! (below) solves each row on that set before the first exchange round;
//! a row with an empty set starts at `x = 0`, `y = −Cᵀb`. Late in an ANLS
//! run the support barely moves, so most rows are feasible at the first
//! check and never exchange.
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
//! ## Two streaming passes
//!
//! On sparse power-law inputs most rows hold a handful of `k` variables
//! and most passive sets occur once, so the work per row is a few hundred
//! flops and the cost is in touching rows. `solve` reads the rows in
//! memory order twice, with the exchange rounds in between:
//!
//! * **pass 1** reads each row once: copies it for the guard (while the
//!   guard is on: every row so far nonnegative), takes its
//!   support with four-wide compares, adds its terms of the incoming
//!   objective to the running sum, and starts it. An empty support is
//!   `x = 0`, `y = −Cᵀb`; a support of at most `STREAM_MAX` (8)
//!   variables and a quarter of `k` is solved where it lies (a fresh
//!   `G_FF` factor by the sorted solve's own row kernel, the
//!   single-column substitution, the `y` refresh); a wider one waits for
//!   the sorted solve. A row found
//!   feasible is finished, and its `y` is never written; the others go
//!   on a pending list in row order;
//! * **the sorted solve** takes pass 1's wide rows, then each exchange
//!   round's pivoting rows. Rows are grouped by sorting `(bit-reversed
//!   passive mask, row)` pairs, so equal masks are adjacent and
//!   neighbouring masks agree on their low variable indices. `G_FF =
//!   L·Lᵀ` is factorized row by row (Cholesky–Banachiewicz) into one
//!   `k×k` buffer; row `a` of `L` depends only on the free indices
//!   `0..=a`, so the leading rows two consecutive masks share are kept.
//!   Groups of fewer than `BATCH_MIN_ROWS` (4) rows are substituted one
//!   row at a time, larger ones through the 8-wide batched sweeps in
//!   chunks of `RHS_CHUNK` (64) columns;
//! * **pass 2** sums the outgoing objective over each row's final
//!   passive set, and the guard compares the two sums.
//!
//! A row's result depends only on its final passive set and on the order
//! of its factor's and substitution's arithmetic, which every path
//! shares; where, in which group and next to which neighbours it is
//! solved changes no bit (`tests/bpp_oracle.rs` solves every row alone).
//! Which path a row takes is chosen by its support size, which pass 1
//! observes anyway: a fresh factor of a small support costs less than
//! sorting it, while dense rows repeat their passive sets and share
//! factors and batched substitutions with their sorted neighbours. Both objectives are bit-identical to the dense
//! `X·Gᵀ` form ([`nls_objective`](crate::nls_objective)), so the guard
//! decides as before.
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

use crate::objective::{scan_row, RowObjective};
use crate::NlsSolver;
use nmf_matrix::{cholesky_solve_slices, solve_spd, Mat};

/// Rows whose warm-start passive set has at most this many variables (and
/// at most a quarter of `k`, see `streams`) are solved by pass 1 where
/// they lie: a fresh `f×f` factor is a few dozen flops.
const STREAM_MAX: usize = 8;

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
/// Pass 1 settles a row itself (`rows_streamed`) or hands it to the
/// sorted solve; `groups`, `row_solves` and the factor-row counts cover
/// the sorted solves only — pass 1's wide rows and every exchange round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BppStats {
    /// Rows pass 1 settled where they lie: an empty support (`x = 0`) or
    /// a solve on the spot. Each is finished there or handed on to the
    /// exchange rounds.
    pub rows_streamed: u64,
    /// Exchange rounds that solved at least one row (pass 1 is not one).
    pub rounds: u64,
    /// Distinct passive sets solved by the sorted solve, summed over
    /// pass 1's wide rows and the rounds.
    pub groups: u64,
    /// Rows solved by the sorted solve, summed over pass 1's wide rows
    /// and the rounds.
    pub row_solves: u64,
    /// Rows of the sorted solve's Cholesky factors computed.
    pub factor_rows_computed: u64,
    /// Rows of the sorted solve's Cholesky factors kept from the previous
    /// passive set.
    pub factor_rows_reused: u64,
    /// 1 when the monotonicity guard kept the incoming iterate.
    pub guard_fallbacks: u64,
    /// Passive sets whose `G_FF` was not positive definite (a row pass 1
    /// meets with one goes to the sorted solve, which counts it).
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
    /// `x`, the incoming iterate is kept. The incoming objective is summed
    /// as pass 1 reads each row, the outgoing one by pass 2, both with
    /// [`nls_objective`](crate::nls_objective)'s row kernel.
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
        let objective = RowObjective::new(gram);
        let f_in = self.pivot(gram, ctb, x, &objective);
        // Pass 2: the outgoing objective, when the incoming iterate is a
        // feasible point to fall back to.
        if let Some(f_in) = f_in {
            let scr = &mut self.scratch;
            let states = &scr.states;
            let f_new = objective.sum(ctb.as_slice(), x.as_slice(), |i, _| states[i].passive);
            if f_new > f_in {
                x.as_mut_slice().copy_from_slice(&scr.x_prev[..r * k]);
                scr.stats.guard_fallbacks = 1;
            }
        }
    }

    /// Counts from the most recent [`solve`](Self::solve) /
    /// [`update`](NlsSolver::update).
    pub fn last_stats(&self) -> BppStats {
        self.scratch.stats
    }

    /// Pass 1 and the exchange rounds: everything but the guard's
    /// decision. Returns the incoming objective when the incoming `x` is
    /// nonnegative (the guard's precondition).
    fn pivot(
        &mut self,
        gram: &Mat,
        ctb: &Mat,
        x: &mut Mat,
        objective: &RowObjective,
    ) -> Option<f64> {
        let (r, k) = x.shape();
        let (max_rounds, backup_budget) = (self.max_rounds, self.backup_budget);
        let f_in = self.scratch.stream(gram, ctb, x, objective, backup_budget);
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
        let gram_t = &gram_t[..k * k];
        // Pass 1's wide rows, by sorted passive set.
        solve_runs(gram, ctb, x, y, gram_t, factor, keys, rhs, stats);

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
                return f_in;
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
        f_in
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
    /// Pass 1, in row order (module docs): keeps each row for the guard
    /// and adds its incoming objective, then starts it from its support —
    /// `x = 0`, `y = −Cᵀb` for an empty one, a solve on the spot for a
    /// small one, the sorted solve (`keys`) for the rest. A row not known
    /// to be feasible goes on the pending list. Returns the incoming
    /// objective when the incoming `x` is nonnegative.
    fn stream(
        &mut self,
        gram: &Mat,
        ctb: &Mat,
        x: &mut Mat,
        objective: &RowObjective,
        backup_budget: u32,
    ) -> Option<f64> {
        let (r, k) = x.shape();
        let BppScratch {
            y,
            x_prev,
            states,
            pending,
            keys,
            gram_t,
            factor,
            stats,
            ..
        } = self;
        let gram_t = &mut gram_t[..k * k];
        for (j, col) in gram_t.chunks_exact_mut(k).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = gram[(i, j)];
            }
        }
        // Factor rows left by an earlier call belong to another `gram`.
        factor.rows = 0;
        states.clear();
        keys.clear();
        pending.clear();
        let mut f_in = Some(0.0);
        let mut y_row = [0.0f64; 128];
        for i in 0..r {
            let at = i * k..(i + 1) * k;
            let scan = scan_row(x.row(i));
            if !scan.nonneg {
                f_in = None;
            }
            if let Some(f) = f_in {
                x_prev[at.clone()].copy_from_slice(x.row(i));
                f_in = Some(objective.add_row(f, x.row(i), ctb.row(i), scan.support));
            }
            // Nonnegative, the nonzeros are the positive entries.
            let passive = if scan.nonneg {
                scan.support
            } else {
                positive(x.row(i))
            };
            states.push(RowState {
                passive,
                best_infeasible: k as u32 + 1,
                budget: backup_budget,
            });
            // y is written only for a row that stays on the pending
            // list: nothing reads a finished row's dual.
            let yi = &mut y[at];
            let settled = if passive == 0 {
                // x = 0, written unless every entry is +0.0 already (a
                // row can hold -0.0, or a negative or NaN when it was not
                // nonnegative).
                let xi = x.row_mut(i);
                if xi.iter().any(|v| v.to_bits() != 0) {
                    xi.fill(0.0);
                }
                let bi = ctb.row(i);
                let done = !bi.iter().fold(false, |up, &c| up | (c > 0.0));
                if !done {
                    for (yv, &cv) in yi.iter_mut().zip(bi) {
                        *yv = -cv;
                    }
                }
                Some(done)
            } else if streams(passive.count_ones() as usize, k) {
                let y_row = &mut y_row[..k];
                let done =
                    solve_on_the_spot(gram, gram_t, ctb.row(i), x.row_mut(i), y_row, passive);
                if done == Some(false) {
                    yi.copy_from_slice(y_row);
                }
                done
            } else {
                None
            };
            match settled {
                Some(done) => {
                    stats.rows_streamed += 1;
                    if !done {
                        pending.push(i as u32);
                    }
                }
                None => {
                    keys.push((passive.reverse_bits(), i as u32));
                    pending.push(i as u32);
                }
            }
        }
        f_in
    }

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

/// Bit `j` set ⇔ `x_j > 0`: the passive set a warm start begins from,
/// for a row with a negative entry (otherwise its nonzeros).
fn positive(xi: &[f64]) -> u128 {
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
    /// Row by row ([`factor_row`]), so a shared prefix of free indices
    /// means shared rows.
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
            if !factor_row(&mut self.l, k, gram, &self.free, a) {
                self.rows = a;
                stats.factor_rows_computed += (a - keep) as u64;
                stats.semidefinite_fallbacks += 1;
                return false;
            }
        }
        self.rows = f;
        stats.factor_rows_computed += (f - keep) as u64;
        true
    }
}

/// Computes row `a` of the Cholesky factor of `G_FF` (free indices
/// `free`) into `l`, whose rows `0..a` already hold the factor, at row
/// stride `ld`. Row-oriented (Cholesky–Banachiewicz): entry `(a, b)` is
/// `(G[f_a][f_b] − Σ_{t<b} L[a][t]·L[b][t]) / L[b][b]`, summed in the
/// same order as the column-oriented textbook form, so the factor — and
/// the pivot at which a semidefinite `G_FF` fails — are bit-identical to
/// it. Row `a` reads only rows `≤ a`, so it depends only on `free[..=a]`.
/// Returns `false` when the pivot is not positive.
// `!(d > 0.0)` is deliberate: it also catches NaN pivots.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
#[inline]
fn factor_row(l: &mut [f64], ld: usize, gram: &Mat, free: &[usize], a: usize) -> bool {
    let ga = gram.row(free[a]);
    let (done, la) = l[..a * ld + a + 1].split_at_mut(a * ld);
    for b in 0..a {
        let lb = &done[b * ld..b * ld + b + 1];
        let mut s = ga[free[b]];
        for (&lat, &lbt) in la[..b].iter().zip(lb) {
            s -= lat * lbt;
        }
        la[b] = s / lb[b];
    }
    let mut d = ga[free[a]];
    for &lat in &la[..a] {
        d -= lat * lat;
    }
    if !(d > 0.0) {
        return false;
    }
    la[a] = d.sqrt();
    true
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
        let at = i * k..(i + 1) * k;
        write_row(x.row_mut(i), &mut y[at], ctb.row(i), gram_t, free, |a| {
            sol[a * nc + col]
        });
    }
}

/// Whether pass 1 solves a row with `f` passive variables of `k` where it
/// lies: at most `STREAM_MAX`, and at most a quarter of `k`. Denser rows
/// repeat their passive sets, and a shared factor and the batched
/// substitution beat a fresh factor per row: on 256×192 dense inputs at
/// `k = 8`, where every support has at most 8 variables, solving every
/// row on the spot made a call about twice as slow (2-vCPU x86-64,
/// AVX2 kernels).
fn streams(f: usize, k: usize) -> bool {
    f <= STREAM_MAX && 4 * f <= k
}

/// Solves a row whose passive set has at most `STREAM_MAX` variables
/// where it lies: a fresh factor of `G_FF` by [`factor_row`], the
/// single-column substitution, and the `x`, `y` refresh — the bits the
/// sorted solve would give it. Returns whether the row is feasible, or
/// `None` (nothing written) when `G_FF` is not positive definite, for the
/// sorted solve's fallback to take.
fn solve_on_the_spot(
    gram: &Mat,
    gram_t: &[f64],
    bi: &[f64],
    xi: &mut [f64],
    yi: &mut [f64],
    passive: u128,
) -> Option<bool> {
    let mut free = [0usize; STREAM_MAX];
    let mut f = 0;
    let mut left = passive;
    while left != 0 {
        free[f] = left.trailing_zeros() as usize;
        f += 1;
        left &= left - 1;
    }
    let free = &free[..f];
    let mut l = [0.0f64; STREAM_MAX * STREAM_MAX];
    if !(0..f).all(|a| factor_row(&mut l, STREAM_MAX, gram, free, a)) {
        return None;
    }
    let mut sol = [0.0f64; STREAM_MAX];
    for (v, &j) in sol.iter_mut().zip(free) {
        *v = bi[j];
    }
    cholesky_solve_slices(&l, STREAM_MAX, f, &mut sol[..f], 1);
    write_row(xi, yi, bi, gram_t, free, |a| sol[a]);
    Some(infeasible_mask(xi, yi) == 0)
}

/// Writes a row solved on the passive set `free`: `x_F` = the solution
/// (`sol(a)` for free index `free[a]`), `x` = 0 elsewhere, and
/// `y = G·x − Cᵀb`, accumulated over the free indices in ascending order
/// for every variable at once and exactly 0 on F.
fn write_row(
    xi: &mut [f64],
    yi: &mut [f64],
    bi: &[f64],
    gram_t: &[f64],
    free: &[usize],
    sol: impl Fn(usize) -> f64,
) {
    let k = xi.len();
    xi.fill(0.0);
    for (a, &ja) in free.iter().enumerate() {
        xi[ja] = sol(a);
    }
    for (v, &c) in yi.iter_mut().zip(bi) {
        *v = -c;
    }
    for (a, &ja) in free.iter().enumerate() {
        let xa = sol(a);
        for (v, &g) in yi.iter_mut().zip(&gram_t[ja * k..(ja + 1) * k]) {
            *v += g * xa;
        }
    }
    for &ja in free {
        yi[ja] = 0.0;
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

    #[test]
    fn stats_pin_what_each_pass_did() {
        // G = 2I, so row i's answer is max(Cᵀbᵢ, 0) / 2 on the passive
        // set {j : (Cᵀbᵢ)_j > 0}. Rows 2..=6 start on exactly that set.
        // At k = 32 pass 1 solves supports of up to STREAM_MAX (8)
        // variables where they lie.
        let k = 32;
        let g = Mat::from_fn(k, k, |a, b| if a == b { 2.0 } else { 0.0 });
        let sets: [&[usize]; 7] = [
            &[],                                     // empty and feasible
            &[3, 5],                                 // empty start, one round
            &[0, 1, 2],                              // solved on the spot
            &[0, 1, 2, 3, 4, 5, 6, 7],               // STREAM_MAX: on the spot
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],            // sorted
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], // sorted
            &[0, 1, 2, 3, 4, 5, 6, 7, 8],            // sorted, row 4's group
        ];
        let ctb = Mat::from_fn(7, k, |i, j| {
            if sets[i].contains(&j) {
                1.0 + 0.125 * j as f64
            } else {
                -1.0
            }
        });
        let x_in = Mat::from_fn(7, k, |i, j| {
            if i >= 2 && sets[i].contains(&j) {
                1.0
            } else {
                0.0
            }
        });
        let mut x = x_in.clone();
        let mut solver = Bpp::default();
        solver.solve(&g, &ctb, &mut x);
        let want = Mat::from_fn(7, k, |i, j| ctb[(i, j)].max(0.0) / 2.0);
        assert!(x.max_abs_diff(&want) < 1e-15, "{x:?}");
        let want = BppStats {
            // Rows 0 to 3.
            rows_streamed: 4,
            // Row 1, whose support {3, 5} pass 1 could not know.
            rounds: 1,
            // Rows 4 and 6 share a set, row 5 has its own, then row 1.
            groups: 3,
            row_solves: 4,
            // Nine rows for rows 4 and 6; row 5 keeps them and adds three;
            // row 1's set shares no leading variable and takes two.
            factor_rows_computed: 14,
            factor_rows_reused: 9,
            guard_fallbacks: 0,
            semidefinite_fallbacks: 0,
        };
        assert_eq!(solver.last_stats(), want);
    }

    #[test]
    fn empty_supports_come_back_as_positive_zeros() {
        // Rows with no positive entry start at x = 0: a -0.0, a negative
        // or a NaN handed in becomes +0.0, and with Cᵀb < 0 it stays.
        let (g, _) = instance(5, 1, 11);
        let ctb = Mat::filled(4, 5, -1.0);
        let mut x = Mat::zeros(4, 5);
        x.row_mut(1).fill(-0.0);
        x[(2, 3)] = -0.5;
        x[(3, 0)] = f64::NAN;
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_eq!(bits(&x), vec![0; 20]);
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
    fn guard_restores_zero_rows_bit_for_bit() {
        // As above, plus rows of +0.0 and of -0.0, which pass 1 rewrites
        // as x = 0: the fallback hands back every incoming bit.
        let (g, ctb) = instance(6, 20, 41);
        let mut x = Mat::zeros(20, 6);
        Bpp::default().solve(&g, &ctb, &mut x);
        let mut incoming = Mat::from_fn(20, 6, |i, j| x[(i, j)].max(1e-9));
        incoming.row_mut(3).fill(0.0);
        incoming.row_mut(7).fill(-0.0);
        let mut x = incoming.clone();
        let mut capped = Bpp {
            max_rounds: 0,
            ..Bpp::default()
        };
        capped.solve(&g, &ctb, &mut x);
        assert_eq!(capped.last_stats().guard_fallbacks, 1);
        assert_eq!(bits(&x), bits(&incoming));
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
