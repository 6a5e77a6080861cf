//! Configuration and result types shared by all NMF drivers.

use crate::grid::Grid;
use nmf_matrix::rng::random_factor;
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use nmf_vmpi::CommStats;
use std::time::Duration;

/// Which parallel algorithm (and grid) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Single-process ANLS (Algorithm 1); ignores `p`.
    Sequential,
    /// Naive-Parallel-NMF (Algorithm 2) on `p` ranks.
    Naive,
    /// HPC-NMF (Algorithm 3) with a 1D grid (`pr = p, pc = 1`).
    Hpc1D,
    /// HPC-NMF with the communication-optimal 2D grid for the input
    /// shape ([`Grid::optimal`]).
    Hpc2D,
    /// HPC-NMF with an explicit grid.
    HpcGrid(Grid),
}

impl Algo {
    /// Grid used for `p` ranks on an `m×n` input.
    pub fn grid(&self, m: usize, n: usize, p: usize) -> Grid {
        match self {
            Algo::Sequential => Grid::new(1, 1),
            Algo::Naive | Algo::Hpc1D => Grid::one_dimensional(p),
            Algo::Hpc2D => Grid::optimal(m, n, p),
            Algo::HpcGrid(g) => {
                assert_eq!(g.size(), p, "explicit grid must have p ranks");
                *g
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Algo::Sequential => "Sequential",
            Algo::Naive => "Naive",
            Algo::Hpc1D => "HPC-NMF-1D",
            Algo::Hpc2D => "HPC-NMF-2D",
            Algo::HpcGrid(_) => "HPC-NMF-grid",
        }
    }

    /// The variant's stable numeric tag in every byte format that names
    /// an algorithm (serve frames, checkpoints): never renumber.
    pub fn tag(&self) -> u8 {
        match self {
            Algo::Sequential => 0,
            Algo::Naive => 1,
            Algo::Hpc1D => 2,
            Algo::Hpc2D => 3,
            Algo::HpcGrid(_) => 4,
        }
    }

    /// The inverse of [`tag`](Self::tag). `pr × pc` is what the
    /// explicit-grid variant carries; the other tags ignore it (frames
    /// send zeros there).
    pub fn from_tag(tag: u8, pr: usize, pc: usize) -> Result<Algo, String> {
        match tag {
            0 => Ok(Algo::Sequential),
            1 => Ok(Algo::Naive),
            2 => Ok(Algo::Hpc1D),
            3 => Ok(Algo::Hpc2D),
            4 if pr == 0 || pc == 0 => Err(format!("invalid grid {pr}x{pc}")),
            4 => Ok(Algo::HpcGrid(Grid::new(pr, pc))),
            t => Err(format!("unknown algorithm tag {t}")),
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    /// The names command lines use (an explicit grid has no name: it is
    /// `hpc2d` plus a grid flag).
    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "seq" => Algo::Sequential,
            "naive" => Algo::Naive,
            "hpc1d" => Algo::Hpc1D,
            "hpc2d" => Algo::Hpc2D,
            _ => {
                return Err(format!(
                    "unknown algorithm '{s}' (expected seq | naive | hpc1d | hpc2d)"
                ))
            }
        })
    }
}

// How the two run-configuration enums travel as values of their own
// (serve frames): one tag byte; an algorithm is followed by `u64 pr |
// u64 pc`. The v2 checkpoint header predates this and stores the same
// tags 32 bits wide — see `checkpoint.rs`.
crate::record!(Algo as a => {
    tag: u8 = a.tag(),
    pr: usize = match a { Algo::HpcGrid(g) => g.pr, _ => 0 },
    pc: usize = match a { Algo::HpcGrid(g) => g.pc, _ => 0 },
} => Algo::from_tag(tag, pr, pc));

crate::record!(SolverKind as s => { tag: u8 = s.tag() } => {
    SolverKind::from_tag(tag).ok_or_else(|| format!("unknown solver tag {tag}"))
});

/// Why a factorization stopped iterating.
///
/// Every stopping decision is made from collectively-known values (the
/// all-reduced objective, or a budget flag summed across ranks), so all
/// ranks of a distributed run report the same reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The configured `max_iters` iterations all ran.
    MaxIters,
    /// The relative objective improvement fell below the tolerance.
    Converged,
    /// The objective *increased* between consecutive iterations. With an
    /// exact per-block solver (BPP) ANLS is monotone, so an increase
    /// signals numerical trouble (ill-conditioned Grams, aggressive
    /// regularization changes) — it is reported as its own reason rather
    /// than being silently conflated with convergence, which is what the
    /// raw `(f_prev − f)/f₀ < tol` test used to do (any negative
    /// improvement passes that comparison).
    ObjectiveIncreased,
    /// The wall-clock budget of
    /// [`ConvergencePolicy::WindowedBudget`] ran out on some rank.
    BudgetExhausted,
}

impl StopReason {
    /// Stable lowercase token for machine-readable output.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::MaxIters => "max_iters",
            StopReason::Converged => "converged",
            StopReason::ObjectiveIncreased => "objective_increased",
            StopReason::BudgetExhausted => "budget_exhausted",
        }
    }
}

/// When to stop iterating, beyond the hard `max_iters` cap.
///
/// The decision is evaluated by [`crate::engine::AnlsEngine`] after each
/// iteration, on the all-reduced objective — so every rank decides
/// identically and no rank can leave a collective early.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ConvergencePolicy {
    /// Run exactly `max_iters` iterations.
    MaxIters,
    /// Stop when the one-step relative improvement `(f_prev − f)/f₀`
    /// drops below `tol` (or the objective increases — reported as
    /// [`StopReason::ObjectiveIncreased`]).
    RelTol { tol: f64 },
    /// Stop when the relative improvement *summed over the last `window`
    /// iterations* `(f_{i−window} − f_i)/f₀` drops below `tol` — robust
    /// to solvers (MU, HALS) whose per-step progress is jagged: a
    /// transient single-step uptick neither stops the run nor counts as
    /// convergence, and only a *net* increase over the whole window is
    /// reported as [`StopReason::ObjectiveIncreased`]. Additionally
    /// stops when `budget` of wall-clock time has elapsed on any rank;
    /// the budget decision is folded into the objective all-reduce, so
    /// it is collective despite clocks differing across ranks.
    WindowedBudget {
        window: usize,
        tol: f64,
        budget: Option<Duration>,
    },
}

impl ConvergencePolicy {
    /// Whether this policy carries a wall-clock budget (and therefore
    /// needs the extra flag word in the objective reduction).
    pub fn has_budget(&self) -> bool {
        matches!(
            self,
            ConvergencePolicy::WindowedBudget {
                budget: Some(_),
                ..
            }
        )
    }

    /// Whether `elapsed` exhausts the budget (false for budget-free
    /// policies).
    pub fn budget_exceeded(&self, elapsed: Duration) -> bool {
        match self {
            ConvergencePolicy::WindowedBudget {
                budget: Some(b), ..
            } => elapsed >= *b,
            _ => false,
        }
    }

    /// The stopping decision after an iteration: `prev` and `obj` are
    /// the previous and current all-reduced objectives, `f0` the first
    /// iteration's objective, `history` every objective so far (the
    /// current iteration last, including any iterations run before a
    /// checkpoint/resume), and `budget_hit` the collectively-reduced
    /// budget flag.
    pub fn decide(
        &self,
        prev: f64,
        obj: f64,
        f0: f64,
        history: &[f64],
        budget_hit: bool,
    ) -> Option<StopReason> {
        if budget_hit {
            return Some(StopReason::BudgetExhausted);
        }
        match *self {
            ConvergencePolicy::MaxIters => None,
            ConvergencePolicy::RelTol { tol } => {
                if !prev.is_finite() {
                    None
                } else if obj > prev {
                    Some(StopReason::ObjectiveIncreased)
                } else if (prev - obj) / f0 < tol {
                    Some(StopReason::Converged)
                } else {
                    None
                }
            }
            ConvergencePolicy::WindowedBudget { window, tol, .. } => {
                // Both tests look back over the whole window, so a
                // jagged solver's transient uptick is tolerated.
                let n = history.len();
                if n <= window {
                    return None;
                }
                let improvement = (history[n - 1 - window] - obj) / f0;
                if improvement < 0.0 {
                    Some(StopReason::ObjectiveIncreased)
                } else if improvement < tol {
                    Some(StopReason::Converged)
                } else {
                    None
                }
            }
        }
    }
}

/// Settings for one factorization run.
#[derive(Clone, Copy, Debug)]
pub struct NmfConfig {
    /// Low rank `k` of the approximation.
    pub k: usize,
    /// Maximum ANLS outer iterations.
    pub max_iters: usize,
    /// Optional early stop: halt when the relative objective improvement
    /// `(f_prev − f) / f₀` drops below this. Shorthand for
    /// [`ConvergencePolicy::RelTol`]; ignored when `convergence` is set
    /// explicitly.
    pub tol: Option<f64>,
    /// Explicit convergence policy; when `None`, derived from `tol` (see
    /// [`NmfConfig::policy`]).
    pub convergence: Option<ConvergencePolicy>,
    /// Local NLS solver.
    pub solver: SolverKind,
    /// Seed for the factor initialization. The same seed produces the
    /// same initial `H` (and `W`) in every driver — sequential, naive,
    /// and HPC — which is the paper's §6.1.3 protocol for making the
    /// algorithms perform identical computations.
    pub seed: u64,
    /// Frobenius (L2) regularization `λ_W‖W‖²_F` on the left factor.
    ///
    /// Extension beyond the paper's objective (standard in the ANLS
    /// literature, e.g. Kim/He/Park 2014): implemented by shifting the
    /// Gram matrix `HHᵀ + λ_W·I` before the local NLS solves, so it
    /// costs nothing extra in communication.
    pub l2_w: f64,
    /// Frobenius (L2) regularization `λ_H‖H‖²_F` on the right factor.
    pub l2_h: f64,
}

impl NmfConfig {
    pub fn new(k: usize) -> Self {
        NmfConfig {
            k,
            max_iters: 20,
            tol: None,
            convergence: None,
            solver: SolverKind::Bpp,
            seed: 0x5eed,
            l2_w: 0.0,
            l2_h: 0.0,
        }
    }

    pub fn with_solver(mut self, solver: SolverKind) -> Self {
        self.solver = solver;
        self
    }

    pub fn with_max_iters(mut self, it: usize) -> Self {
        self.max_iters = it;
        self
    }

    pub fn with_tol(mut self, tol: f64) -> Self {
        self.tol = Some(tol);
        self
    }

    /// Sets an explicit convergence policy (overrides `tol`).
    pub fn with_convergence(mut self, policy: ConvergencePolicy) -> Self {
        self.convergence = Some(policy);
        self
    }

    /// The effective convergence policy: `convergence` when set,
    /// otherwise [`ConvergencePolicy::RelTol`] from `tol`, otherwise
    /// [`ConvergencePolicy::MaxIters`].
    pub fn policy(&self) -> ConvergencePolicy {
        if let Some(policy) = self.convergence {
            policy
        } else if let Some(tol) = self.tol {
            ConvergencePolicy::RelTol { tol }
        } else {
            ConvergencePolicy::MaxIters
        }
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets Frobenius regularization on both factors.
    pub fn with_l2(mut self, l2_w: f64, l2_h: f64) -> Self {
        assert!(
            l2_w >= 0.0 && l2_h >= 0.0,
            "regularization must be nonnegative"
        );
        self.l2_w = l2_w;
        self.l2_h = l2_h;
        self
    }
}

/// Adds `lambda` to the diagonal of a Gram matrix in place (the
/// normal-equation form of Frobenius regularization).
pub fn apply_ridge(gram: &mut Mat, lambda: f64) {
    if lambda > 0.0 {
        for i in 0..gram.nrows() {
            gram[(i, i)] += lambda;
        }
    }
}

/// The deterministic global initialization of `H`, stored transposed
/// (`n×k`, row `j` holds column `j` of `H`). Every driver slices this
/// same matrix, so iterates agree across drivers and processor counts.
pub fn init_ht(n: usize, k: usize, seed: u64) -> Mat {
    random_factor(n, k, k, seed ^ 0x48)
}

/// Deterministic global initialization of `W` (`m×k`). Only consumed by
/// the iterative solvers (MU/HALS); BPP overwrites it (the paper notes
/// "W need not be initialized" for BPP).
pub fn init_w(m: usize, k: usize, seed: u64) -> Mat {
    random_factor(m, k, k, seed ^ 0x57)
}

/// Per-iteration wall-clock breakdown of the local computation tasks
/// (paper §6.3 names: MM, NLS, Gram).
#[derive(Clone, Copy, Debug, Default)]
pub struct TaskTimes {
    pub mm: Duration,
    pub nls: Duration,
    pub gram: Duration,
}

impl TaskTimes {
    pub fn total(&self) -> Duration {
        self.mm + self.nls + self.gram
    }

    pub fn merge(&mut self, other: &TaskTimes) {
        self.mm += other.mm;
        self.nls += other.nls;
        self.gram += other.gram;
    }

    /// Component-wise maximum (critical-path aggregation across ranks).
    pub fn max(&self, other: &TaskTimes) -> TaskTimes {
        TaskTimes {
            mm: self.mm.max(other.mm),
            nls: self.nls.max(other.nls),
            gram: self.gram.max(other.gram),
        }
    }

    /// Component-wise minimum (the fastest rank per task).
    pub fn min(&self, other: &TaskTimes) -> TaskTimes {
        TaskTimes {
            mm: self.mm.min(other.mm),
            nls: self.nls.min(other.nls),
            gram: self.gram.min(other.gram),
        }
    }
}

/// One outer iteration's record on one rank.
#[derive(Clone, Debug)]
pub struct IterRecord {
    /// Objective `‖A − WH‖²_F` after this iteration's `H` update.
    pub objective: f64,
    /// Local computation breakdown; aggregated across ranks
    /// ([`crate::session::Model::step`]) it is the slowest rank per task.
    pub compute: TaskTimes,
    /// The fastest rank per task (equal to `compute` on a single rank).
    /// `compute.nls / compute_min.nls` is how long the fastest rank
    /// waits, inside the next collective, for the slowest to finish its
    /// solves — the first-order measure of load imbalance.
    pub compute_min: TaskTimes,
    /// Communication this iteration (words/messages/time per collective).
    pub comm: CommStats,
}

/// Relative error `‖A − WH‖_F / ‖A‖_F` from the objective `‖A − WH‖²_F`
/// and the `‖A‖²_F` it was computed against.
pub(crate) fn rel_error(objective: f64, norm_a_sq: f64) -> f64 {
    objective.max(0.0).sqrt() / norm_a_sq.sqrt().max(f64::MIN_POSITIVE)
}

/// Result of a factorization.
#[derive(Debug)]
pub struct NmfOutput {
    /// Left factor, `m×k`, nonnegative.
    pub w: Mat,
    /// Right factor, `k×n`, nonnegative.
    pub h: Mat,
    /// Final objective `‖A − WH‖²_F`.
    pub objective: f64,
    /// Final relative error `‖A − WH‖_F / ‖A‖_F`.
    pub rel_error: f64,
    /// Per-iteration records aggregated across ranks (max time per task —
    /// the critical path; comm counters from the max-total-words rank).
    pub iters: Vec<IterRecord>,
    /// Iterations actually executed.
    pub iterations: usize,
    /// Why the run stopped (identical on every rank — see
    /// [`StopReason`]).
    pub stop: StopReason,
    /// Per-rank total communication counters, rank order.
    pub rank_comm: Vec<CommStats>,
}

impl NmfOutput {
    /// Objective history across iterations.
    pub fn history(&self) -> Vec<f64> {
        self.iters.iter().map(|r| r.objective).collect()
    }

    /// Sum of per-iteration compute breakdowns.
    pub fn compute_total(&self) -> TaskTimes {
        let mut t = TaskTimes::default();
        for r in &self.iters {
            t.merge(&r.compute);
        }
        t
    }

    /// Sum of all ranks' communication counters.
    pub fn total_comm(&self) -> CommStats {
        let mut total = CommStats::new();
        for s in &self.rank_comm {
            total.merge(s);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_chains() {
        let c = NmfConfig::new(10)
            .with_solver(SolverKind::Hals)
            .with_max_iters(5)
            .with_tol(1e-4)
            .with_seed(9);
        assert_eq!(c.k, 10);
        assert_eq!(c.solver, SolverKind::Hals);
        assert_eq!(c.max_iters, 5);
        assert_eq!(c.tol, Some(1e-4));
        assert_eq!(c.seed, 9);
    }

    #[test]
    fn policy_derivation_from_tol() {
        assert_eq!(NmfConfig::new(3).policy(), ConvergencePolicy::MaxIters);
        assert_eq!(
            NmfConfig::new(3).with_tol(1e-5).policy(),
            ConvergencePolicy::RelTol { tol: 1e-5 }
        );
        // Explicit policy wins over tol.
        let c = NmfConfig::new(3)
            .with_tol(1e-5)
            .with_convergence(ConvergencePolicy::MaxIters);
        assert_eq!(c.policy(), ConvergencePolicy::MaxIters);
    }

    #[test]
    fn rel_tol_distinguishes_increase_from_convergence() {
        let p = ConvergencePolicy::RelTol { tol: 1e-4 };
        let h = [100.0, 99.0];
        // First iteration: no previous objective, never stops.
        assert_eq!(p.decide(f64::INFINITY, 100.0, 100.0, &h[..1], false), None);
        // Healthy progress: keep going.
        assert_eq!(p.decide(100.0, 99.0, 100.0, &h, false), None);
        // Tiny improvement: converged.
        assert_eq!(
            p.decide(99.0, 98.9999, 100.0, &h, false),
            Some(StopReason::Converged)
        );
        // Increase: its own reason, not "converged" (the raw comparison
        // would have returned Converged here — negative improvement is
        // below any tolerance).
        assert_eq!(
            p.decide(99.0, 99.5, 100.0, &h, false),
            Some(StopReason::ObjectiveIncreased)
        );
    }

    #[test]
    fn windowed_policy_looks_back_window_iterations() {
        let p = ConvergencePolicy::WindowedBudget {
            window: 2,
            tol: 1e-3,
            budget: None,
        };
        // Each step improves by 0.04% of f0 — below a per-step 0.1% test,
        // but the 2-step window sees 0.08%; still below 0.1% → stop.
        let h = [1000.0, 999.6, 999.2];
        assert_eq!(
            p.decide(999.6, 999.2, 1000.0, &h, false),
            Some(StopReason::Converged)
        );
        // Big drops within the window: keep going.
        let h = [1000.0, 900.0, 800.0];
        assert_eq!(p.decide(900.0, 800.0, 1000.0, &h, false), None);
        // Not enough history yet: keep going.
        let h = [1000.0, 999.9];
        assert_eq!(p.decide(1000.0, 999.9, 1000.0, &h, false), None);
        // A transient single-step uptick inside a window of net progress
        // is tolerated (the jagged-solver case the window exists for)...
        let h = [1000.0, 900.0, 890.0, 891.0];
        assert_eq!(p.decide(890.0, 891.0, 1000.0, &h, false), None);
        // ...but a net increase over the whole window is its own stop.
        let h = [1000.0, 900.0, 890.0, 905.0];
        assert_eq!(
            p.decide(890.0, 905.0, 1000.0, &h, false),
            Some(StopReason::ObjectiveIncreased)
        );
        // Budget flag overrides everything.
        let h = [1000.0, 999.9];
        assert_eq!(
            p.decide(900.0, 800.0, 1000.0, &h, true),
            Some(StopReason::BudgetExhausted)
        );
    }

    #[test]
    fn budget_plumbing() {
        let p = ConvergencePolicy::WindowedBudget {
            window: 4,
            tol: 0.0,
            budget: Some(Duration::from_millis(10)),
        };
        assert!(p.has_budget());
        assert!(!p.budget_exceeded(Duration::from_millis(9)));
        assert!(p.budget_exceeded(Duration::from_millis(10)));
        assert!(!ConvergencePolicy::MaxIters.has_budget());
        assert!(!ConvergencePolicy::RelTol { tol: 1e-4 }.has_budget());
    }

    #[test]
    fn init_is_deterministic_and_nonnegative() {
        let a = init_ht(20, 4, 1);
        let b = init_ht(20, 4, 1);
        assert_eq!(a, b);
        assert!(a.all_nonnegative());
        assert_ne!(init_ht(20, 4, 1), init_ht(20, 4, 2));
        // W and H seeds must differ to avoid correlated factors.
        assert_ne!(init_w(20, 4, 1), init_ht(20, 4, 1));
    }

    #[test]
    fn task_times_aggregate() {
        let a = TaskTimes {
            mm: Duration::from_millis(3),
            nls: Duration::from_millis(1),
            gram: Duration::from_millis(2),
        };
        let b = TaskTimes {
            mm: Duration::from_millis(1),
            nls: Duration::from_millis(5),
            gram: Duration::from_millis(2),
        };
        let m = a.max(&b);
        assert_eq!(m.mm, Duration::from_millis(3));
        assert_eq!(m.nls, Duration::from_millis(5));
        let lo = a.min(&b);
        assert_eq!(lo.mm, Duration::from_millis(1));
        assert_eq!(lo.nls, Duration::from_millis(1));
        let mut s = a;
        s.merge(&b);
        assert_eq!(s.total(), Duration::from_millis(14));
    }
}
