//! The session API: the primary public surface of the crate.
//!
//! [`Nmf::on`] opens a fallible builder over an input matrix;
//! [`NmfBuilder::build`] validates the whole request up front (rank
//! bounds, grid divisibility, solver limits, policy sanity, warm-start
//! shapes) and returns a [`Model`] — a long-lived, `Send` handle on a
//! factorization in flight:
//!
//! ```
//! use hpc_nmf::prelude::*;
//! use nmf_matrix::rng::Fill;
//! use nmf_matrix::Mat;
//!
//! let a = Input::Dense(Mat::uniform(30, 20, 7));
//! let mut model = Nmf::on(&a)
//!     .rank(4)
//!     .ranks(4)
//!     .algo(Algo::Hpc2D)
//!     .solver(SolverKind::Bpp)
//!     .max_iters(8)
//!     .build()
//!     .expect("valid request");
//! model.step();                       // one collective ANLS iteration
//! let (w, h) = model.factors();       // live mid-run factors
//! assert_eq!((w.shape(), h.shape()), ((30, 4), (4, 20)));
//! let reason = model.run();           // drive to the stopping condition
//! assert_eq!(reason, StopReason::MaxIters);
//! ```
//!
//! ## How the generics disappear
//!
//! The iteration core is `AnlsEngine<'a, S: CommScheme>`, whose scheme
//! borrows a rank-local communicator and whose data is a borrowed pair of
//! rank-local matrix blocks — lifetimes a long-lived handle cannot name.
//! The session inverts the ownership: [`Model`] owns a virtual-MPI
//! universe ([`nmf_vmpi::universe::seats`]) and one OS thread per rank;
//! each worker thread owns its communicator and its data block(s),
//! builds the concrete engine *in its own stack frame* — the scheme its
//! [`ShardKey`] names — and serves it through the object-safe
//! [`EngineDyn`], so the controller speaks one protocol regardless of
//! which communication scheme is running. Iterations remain collective:
//! every command is broadcast to all ranks and their replies are
//! aggregated into one record per iteration.
//!
//! ## Pause, persist, resume
//!
//! A model can be checkpointed at any iteration boundary with
//! [`Model::save`] and reconstructed — in a new process, against a
//! freshly loaded input — with [`Model::load_shared`]; the resumed
//! trajectory is bit-identical to the uninterrupted one
//! (`tests/checkpoint_resume.rs` drives this through disk for all three
//! algorithms). [`Model::refit`]
//! restarts the same universe on a new configuration (e.g. the next `k`
//! of a rank sweep) without respawning threads or re-sharding the data.

use crate::checkpoint::{
    read_checkpoint, write_checkpoint, write_checkpoint_rotated, Checkpoint, CheckpointMeta,
};
use crate::config::{
    init_ht, init_w, rel_error, Algo, ConvergencePolicy, IterRecord, NmfConfig, NmfOutput,
    StopReason, TaskTimes,
};
use crate::dist::{Part, RankLayout, ShardKey};
use crate::engine::{AnlsEngine, ConvergenceState, EngineDyn, Grid2D, Replicated1D};
use crate::error::{grid_fits, NmfError};
use crate::grid::Grid;
use crate::input::{Dealing, Input};
use crate::regrid::RegridTarget;
use crate::shared::{RankData, SharedInput};
use crate::workspace::IterWorkspace;
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use nmf_vmpi::universe::{seats, Seat};
use nmf_vmpi::{Comm, CommStats};
use std::cell::OnceCell;
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Rows `part` of a global factor as a rank receives them: positions
/// `part` of the dealt order, which in index order (`None`) is the
/// contiguous block itself.
fn dealt_rows(global: &Mat, order: Option<&[usize]>, part: Part) -> Mat {
    let Some(order) = order else {
        return global.rows_block(part.offset, part.len);
    };
    let mut rows = Vec::with_capacity(part.len * global.ncols());
    for &g in &order[part.offset..part.end()] {
        rows.extend_from_slice(global.row(g));
    }
    Mat::from_vec(part.len, global.ncols(), rows)
}

/// The inverse of [`dealt_rows`]: puts a rank's factor rows back where
/// they belong in the global factor.
fn undeal_rows(global: &mut Mat, order: Option<&[usize]>, part: Part, local: &Mat) {
    let Some(order) = order else {
        return global.set_block(part.offset, 0, local);
    };
    for (i, &g) in order[part.offset..part.end()].iter().enumerate() {
        global.row_mut(g).copy_from_slice(local.row(i));
    }
}

/// Entry point of the session API. See the [module docs](self).
pub struct Nmf;

impl Nmf {
    /// Starts building a factorization of `input`: a copy of it becomes
    /// the source of a fresh [`SharedInput`], which the resulting
    /// [`Model`] reads in place, so it is `'static`.
    pub fn on(input: &Input) -> NmfBuilder {
        Nmf::on_shared(&SharedInput::new(input.clone()))
    }

    /// Starts building a factorization over a [`SharedInput`], reusing
    /// its cached per-rank blocks (and populating the cache on first
    /// use). Successive builds with the same algorithm shape — a rank
    /// sweep, serving tenants over one dataset — share the resident
    /// blocks instead of re-extracting them.
    pub fn on_shared(input: &SharedInput) -> NmfBuilder {
        NmfBuilder {
            input: input.clone(),
            config: NmfConfig::new(1),
            k_set: false,
            algo: Algo::Sequential,
            ranks: 1,
            grid_override: None,
            warm: None,
            resume: None,
        }
    }

    /// Starts resuming an already-read [`Checkpoint`] over `input`, the
    /// data matrix it was taken from (its shape is verified at build; its
    /// content is the caller's contract — the checkpoint stores factors,
    /// not data). The resume runs on the checkpoint's recorded grid by
    /// default (a pure, bit-identical resume), or *elastically* on a
    /// different algorithm/grid/rank-count via the builder's
    /// [`algo`](ResumeBuilder::algo) / [`grid`](ResumeBuilder::grid) /
    /// [`ranks`](ResumeBuilder::ranks) overrides (see [`crate::regrid`]).
    pub fn resume_from(ck: Checkpoint, input: &SharedInput) -> ResumeBuilder {
        ResumeBuilder {
            ck,
            input: input.clone(),
            target: RegridTarget::new(),
            max_iters: None,
        }
    }
}

/// Resumes a checkpoint, optionally on a different grid, scheme, or
/// rank count. Produced by [`Nmf::resume_from`]; the one-shot wrapper is
/// [`Model::load_regrid_shared`].
///
/// The checkpoint's `k`, solver, seed, and regularization are the
/// trajectory being continued and cannot be overridden (use
/// [`Model::refit`] to start a new trajectory); `max_iters` *can* be
/// raised, since extending a resumed run past its original budget is
/// the point of resuming.
pub struct ResumeBuilder {
    ck: Checkpoint,
    input: SharedInput,
    target: RegridTarget,
    max_iters: Option<usize>,
}

impl ResumeBuilder {
    /// Overrides the algorithm / communication scheme.
    pub fn algo(mut self, algo: Algo) -> Self {
        self.target = self.target.algo(algo);
        self
    }

    /// Overrides the rank count (the grid is re-derived to fit).
    pub fn ranks(mut self, p: usize) -> Self {
        self.target = self.target.ranks(p);
        self
    }

    /// Overrides the processor grid explicitly.
    pub fn grid(mut self, grid: Grid) -> Self {
        self.target = self.target.grid(grid);
        self
    }

    /// Replaces the whole override set at once (the [`RegridTarget`]
    /// form used by [`Model::load_regrid_shared`] and the serving layer).
    pub fn target(mut self, target: RegridTarget) -> Self {
        self.target = target;
        self
    }

    /// Raises (or lowers) the total-iteration cap for the resumed run.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = Some(iters);
        self
    }

    /// Resolves the target against the checkpoint, globalized factors
    /// become the warm start, and the session builder re-shards them
    /// (and the input) along the target layout. Validation is the full
    /// [`NmfBuilder::build`] pass, so an unfittable target grid fails
    /// with the usual actionable [`NmfError`].
    pub fn build(self) -> Result<Model, NmfError> {
        let (m, n) = self.input.shape();
        self.ck.meta.check_compatible(m, n)?;
        let (algo, ranks, grid_override) = self.target.resolve(&self.ck.meta);
        let mut config = self.ck.meta.config;
        if let Some(iters) = self.max_iters {
            config.max_iters = iters;
        }
        let mut b = Nmf::on_shared(&self.input)
            .config(config)
            .algo(algo)
            .ranks(ranks)
            .warm_start(self.ck.w, self.ck.ht)
            .resume_state(self.ck.state);
        if let Some(g) = grid_override {
            b = b.grid_override(g);
        }
        b.build()
    }
}

/// A fallible builder for a [`Model`]. Every setter is infallible;
/// [`build`](NmfBuilder::build) performs all validation at once and
/// reports the first violated constraint as an [`NmfError`] with an
/// actionable message.
pub struct NmfBuilder {
    input: SharedInput,
    config: NmfConfig,
    k_set: bool,
    algo: Algo,
    ranks: usize,
    /// Exact grid to use for the HPC algorithms (set by checkpoint
    /// resume so the restarted run replays the recorded grid even if
    /// [`Grid::optimal`]'s tie-breaking ever changes).
    grid_override: Option<Grid>,
    warm: Option<(Mat, Mat)>,
    resume: Option<ConvergenceState>,
}

impl NmfBuilder {
    /// Sets the factorization rank `k`. Required (directly or via
    /// [`config`](Self::config)).
    pub fn rank(mut self, k: usize) -> Self {
        self.config.k = k;
        self.k_set = true;
        self
    }

    /// Sets the number of virtual MPI ranks (default 1).
    pub fn ranks(mut self, p: usize) -> Self {
        self.ranks = p;
        self
    }

    /// Sets the algorithm / communication scheme (default
    /// [`Algo::Sequential`]).
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Sets the local NLS solver (default BPP).
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the outer-iteration cap (default 20).
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.config.max_iters = iters;
        self
    }

    /// Sets the relative-improvement early-stop tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.config.tol = Some(tol);
        self
    }

    /// Sets an explicit convergence policy (overrides [`tol`](Self::tol)).
    pub fn convergence(mut self, policy: ConvergencePolicy) -> Self {
        self.config.convergence = Some(policy);
        self
    }

    /// Sets the factor-initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets Frobenius regularization on both factors (validated at
    /// build time, unlike [`NmfConfig::with_l2`] which asserts).
    pub fn l2(mut self, l2_w: f64, l2_h: f64) -> Self {
        self.config.l2_w = l2_w;
        self.config.l2_h = l2_h;
        self
    }

    /// Replaces the entire configuration (the bridge from the classic
    /// [`NmfConfig`] API; implies [`rank`](Self::rank)).
    pub fn config(mut self, config: NmfConfig) -> Self {
        self.config = config;
        self.k_set = true;
        self
    }

    /// Starts from explicit factors instead of the seeded random
    /// initialization: `w0` is `m×k`, `ht0` is `n×k` (`H` transposed).
    pub fn warm_start(mut self, w0: Mat, ht0: Mat) -> Self {
        self.warm = Some((w0, ht0));
        self
    }

    pub(crate) fn resume_state(mut self, state: ConvergenceState) -> Self {
        self.resume = Some(state);
        self
    }

    pub(crate) fn grid_override(mut self, grid: Grid) -> Self {
        self.grid_override = Some(grid);
        self
    }

    /// Validates the whole request and spawns the model's universe.
    pub fn build(self) -> Result<Model, NmfError> {
        let (m, n) = self.input.shape();
        if !self.k_set {
            return Err(NmfError::MissingRank);
        }
        let grid = validate_run(
            m,
            n,
            self.algo,
            self.grid_override,
            self.ranks,
            &self.config,
        )?;
        let k = self.config.k;

        let (w0, ht0) = match self.warm {
            Some((w0, ht0)) => {
                for (which, mat, expected) in [("W", &w0, (m, k)), ("H^T", &ht0, (n, k))] {
                    if mat.shape() != expected {
                        return Err(NmfError::WarmStartShape {
                            which,
                            expected,
                            got: mat.shape(),
                        });
                    }
                    if !mat.all_nonnegative() || !mat.all_finite() {
                        return Err(NmfError::WarmStartInvalid { which });
                    }
                }
                (w0, ht0)
            }
            None => (
                init_w(m, k, self.config.seed),
                init_ht(n, k, self.config.seed),
            ),
        };

        Model::spawn(
            &self.input,
            self.config,
            self.algo,
            grid,
            self.ranks,
            w0,
            ht0,
            self.resume,
        )
    }
}

/// Validates a run request (shared by [`NmfBuilder::build`] and
/// [`Model::refit`]) and returns the processor grid it will use.
fn validate_run(
    m: usize,
    n: usize,
    algo: Algo,
    grid_override: Option<Grid>,
    ranks: usize,
    config: &NmfConfig,
) -> Result<Grid, NmfError> {
    if m == 0 || n == 0 {
        return Err(NmfError::EmptyInput { m, n });
    }
    let k = config.k;
    if k == 0 || k > m.min(n) {
        return Err(NmfError::RankOutOfRange { k, m, n });
    }
    // BPP tracks passive sets in fixed-width bitmasks (see
    // `nmf_nls::bpp`); beyond its limit the solver would assert at the
    // first iteration, deep inside a rank thread.
    const BPP_K_LIMIT: usize = 128;
    if config.solver == SolverKind::Bpp && k > BPP_K_LIMIT {
        return Err(NmfError::SolverRankLimit {
            solver: config.solver,
            k,
            limit: BPP_K_LIMIT,
        });
    }
    if ranks == 0 {
        return Err(NmfError::NoRanks);
    }
    if let Some(t) = config.tol {
        if !t.is_finite() || t < 0.0 {
            return Err(NmfError::InvalidTolerance { tol: t });
        }
    }
    match config.convergence {
        Some(ConvergencePolicy::RelTol { tol }) if !tol.is_finite() || tol < 0.0 => {
            return Err(NmfError::InvalidTolerance { tol });
        }
        Some(ConvergencePolicy::WindowedBudget { window, tol, .. }) => {
            if window == 0 {
                return Err(NmfError::InvalidWindow);
            }
            if tol.is_nan() || tol < 0.0 {
                return Err(NmfError::InvalidTolerance { tol });
            }
        }
        _ => {}
    }
    if !(config.l2_w.is_finite() && config.l2_h.is_finite())
        || config.l2_w < 0.0
        || config.l2_h < 0.0
    {
        return Err(NmfError::InvalidRegularization {
            l2_w: config.l2_w,
            l2_h: config.l2_h,
        });
    }

    match algo {
        Algo::Sequential => {
            if ranks != 1 {
                return Err(NmfError::SequentialRanks { ranks });
            }
            Ok(Grid::new(1, 1))
        }
        Algo::Naive => {
            if ranks > m.min(n) {
                return Err(NmfError::TooManyRanks {
                    algo: "Naive-Parallel",
                    ranks,
                    m,
                    n,
                });
            }
            Ok(Grid::one_dimensional(ranks))
        }
        Algo::Hpc1D | Algo::Hpc2D | Algo::HpcGrid(_) => {
            let grid = match grid_override {
                Some(g) => g,
                None => match algo {
                    Algo::HpcGrid(g) => g,
                    _ => algo.grid(m, n, ranks),
                },
            };
            if grid.size() != ranks {
                return Err(NmfError::GridMismatch { grid, ranks });
            }
            if !grid_fits(grid, m, n) {
                return Err(NmfError::GridTooLarge { grid, m, n });
            }
            Ok(grid)
        }
    }
}

/// Controller → worker commands. Every command is answered by exactly
/// one [`Reply`]; `Shutdown` ends the worker.
enum Cmd {
    Step,
    Snapshot,
    /// Communication counters only — no factor clones, for callers that
    /// just want instrumentation.
    Stats,
    SetPolicy(ConvergencePolicy),
    Reinit(Box<EngineInit>),
    Shutdown,
}

/// What a rank's engine starts from: a worker's first build and the
/// payload of [`Cmd::Reinit`] (boxed to keep the command enum small).
struct EngineInit {
    config: NmfConfig,
    w0: Mat,
    ht0: Mat,
    state: Option<ConvergenceState>,
}

/// Worker → controller replies. A worker's first message, sent as
/// soon as its engine is built, is `Ready` with the engine's `‖A‖²` and
/// the heap bytes of its workspace; every later one answers a [`Cmd`].
enum Reply {
    Ready {
        norm_a_sq: f64,
        workspace_bytes: usize,
    },
    Step {
        rec: IterRecord,
        stop: Option<StopReason>,
    },
    Snapshot {
        w: Mat,
        ht: Mat,
        state: ConvergenceState,
        stats: CommStats,
    },
    Stats(CommStats),
    Ack,
}

/// The session-wide sum of the workers' `Ready` messages.
struct Ready {
    /// `‖A‖²`, the same on every rank.
    norm_a_sq: f64,
    /// Summed over the ranks.
    workspace_bytes: usize,
}

/// Builds the concrete engine for one rank — the scheme `key` names over
/// the blocks `key` dealt — erasing the scheme generic. Collective when
/// the scheme is (communicator splits, the `‖A‖²` all-reduce), so every
/// rank must call it in the same sequence.
fn build_engine<'a>(
    comm: &'a Comm,
    key: ShardKey,
    dims: (usize, usize),
    data: &'a RankData,
    init: EngineInit,
    ws: IterWorkspace,
) -> Box<dyn EngineDyn + 'a> {
    let EngineInit {
        config,
        w0,
        ht0,
        state,
    } = init;
    let blocks = data.split_blocks();
    let mut engine: Box<dyn EngineDyn + 'a> = match key {
        ShardKey::Naive { .. } => Box::new(AnlsEngine::with_workspace(
            Replicated1D::new(comm, dims, config.k),
            blocks,
            &config,
            w0,
            ht0,
            ws,
        )),
        ShardKey::Grid { pr, pc } => Box::new(AnlsEngine::with_workspace(
            Grid2D::new(comm, Grid::new(pr, pc), dims, config.k),
            blocks,
            &config,
            w0,
            ht0,
            ws,
        )),
    };
    if let Some(st) = state {
        engine.restore_convergence_state(st);
    }
    engine
}

/// One rank's service loop: owns the communicator and data blocks for
/// the lifetime of the session, rebuilding the engine only on `Reinit`.
fn worker(
    seat: Seat,
    key: ShardKey,
    dims: (usize, usize),
    data: Arc<RankData>,
    init: EngineInit,
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let comm = seat.into_comm();
    let mut engine = build_engine(&comm, key, dims, &data, init, IterWorkspace::default());
    let ready = Reply::Ready {
        norm_a_sq: engine.norm_a_sq(),
        workspace_bytes: engine.workspace_bytes(),
    };
    if tx.send(ready).is_err() {
        return;
    }
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Step => {
                let rec = engine.step_dyn();
                Reply::Step {
                    rec,
                    stop: engine.stop_reason(),
                }
            }
            Cmd::Snapshot => {
                let (w, ht) = engine.factors();
                Reply::Snapshot {
                    w: w.clone(),
                    ht: ht.clone(),
                    state: engine.convergence_state(),
                    stats: engine.comm_stats(),
                }
            }
            Cmd::Stats => Reply::Stats(engine.comm_stats()),
            Cmd::SetPolicy(p) => {
                engine.set_policy(p);
                Reply::Ack
            }
            Cmd::Reinit(init) => {
                let ws = engine.take_workspace();
                engine = build_engine(&comm, key, dims, &data, *init, ws);
                Reply::Ack
            }
            Cmd::Shutdown => return,
        };
        if tx.send(reply).is_err() {
            return; // controller dropped; unwind quietly
        }
    }
}

struct WorkerHandle {
    cmd: mpsc::Sender<Cmd>,
    reply: mpsc::Receiver<Reply>,
}

/// What a bounded [`Model::step_up_to`] slice accomplished.
#[derive(Clone, Copy, Debug)]
pub struct StepProgress {
    /// Iterations actually executed in this slice (`< n` iff the model
    /// finished mid-slice or had already finished).
    pub steps_run: usize,
    /// Total iterations of the model after the slice.
    pub iterations: usize,
    /// Objective after the slice.
    pub objective: f64,
    /// The stop condition, if the run is over.
    pub stop: Option<StopReason>,
}

/// A live factorization session: the object-safe, `Send` handle the
/// builder produces. See the [module docs](self) for the design.
///
/// All methods that advance or inspect the distributed state are
/// collective under the hood but look like ordinary method calls; the
/// handle may be moved freely across threads (each worker's
/// communicator stays pinned to its own rank thread).
pub struct Model {
    m: usize,
    n: usize,
    /// What the workers' `Ready` messages say, read the first time a
    /// reply is read (see [`ready`](Self::ready)), so spawning waits for
    /// no rank.
    ready: OnceCell<Ready>,
    config: NmfConfig,
    algo: Algo,
    grid: Grid,
    /// The distribution this session runs on and what each rank owns
    /// under it.
    key: ShardKey,
    layout: Vec<RankLayout>,
    /// The order the input's rows and columns were dealt in: what sits
    /// between `layout` positions and global factor rows. Only
    /// [`dealt_rows`] (into the ranks) and [`undeal_rows`] (out of them)
    /// cross it: checkpoints and the regrid globalizer slice factors that
    /// are already back in original row order, so files never depend on
    /// how an input was dealt.
    dealing: Arc<Dealing>,
    workers: Vec<WorkerHandle>,
    handles: Vec<JoinHandle<()>>,
    /// Aggregated per-iteration records (critical-path compute, merged
    /// comm) for the iterations run by *this* handle.
    records: Vec<IterRecord>,
    /// Iterations executed before this handle existed (checkpoint
    /// resume).
    base_iterations: usize,
    /// Objective to report before the first post-resume iteration; `‖A‖²`
    /// where there is none.
    resumed_objective: Option<f64>,
    stop: Option<StopReason>,
}

impl Model {
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        input: &SharedInput,
        config: NmfConfig,
        algo: Algo,
        grid: Grid,
        ranks: usize,
        w0: Mat,
        ht0: Mat,
        resume: Option<ConvergenceState>,
    ) -> Result<Model, NmfError> {
        let (m, n) = input.shape();
        let key = ShardKey::of(algo, grid, ranks);
        let layout = key.layouts(m, n);

        let base_iterations = resume.as_ref().map_or(0, |s| s.iterations_done);
        let resumed_objective = resume
            .as_ref()
            .map(|s| s.prev_objective)
            .filter(|o| o.is_finite());

        // One sharding for the whole universe, served from (or filling)
        // the input's cache: each worker receives cheap `Arc` clones of
        // its blocks.
        let dealing = Arc::clone(input.dealing());
        let rank_data = input.rank_data(key)?;
        debug_assert_eq!(rank_data.len(), ranks);

        let mut workers = Vec::with_capacity(ranks);
        let mut handles = Vec::with_capacity(ranks);
        for (r, seat) in seats(ranks).into_iter().enumerate() {
            let data = Arc::clone(&rank_data[r]);
            let lay = layout[r];
            let init = EngineInit {
                config,
                w0: dealt_rows(&w0, dealing.rows(), lay.w),
                ht0: dealt_rows(&ht0, dealing.cols(), lay.ht),
                state: resume.clone(),
            };
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            let handle = std::thread::Builder::new()
                .name(format!("nmf-session-rank-{r}"))
                .spawn(move || worker(seat, key, (m, n), data, init, cmd_rx, reply_tx))
                .expect("failed to spawn session rank thread");
            workers.push(WorkerHandle {
                cmd: cmd_tx,
                reply: reply_rx,
            });
            handles.push(handle);
        }

        Ok(Model {
            m,
            n,
            ready: OnceCell::new(),
            config,
            algo,
            grid,
            key,
            layout,
            dealing,
            workers,
            handles,
            records: Vec::new(),
            base_iterations,
            resumed_objective,
            stop: None,
        })
    }

    fn send(&self, r: usize, cmd: Cmd) {
        self.workers[r]
            .cmd
            .send(cmd)
            .unwrap_or_else(|_| panic!("session worker {r} exited unexpectedly"));
    }

    /// Worker `r`'s reply to the latest command sent to it.
    fn recv(&self, r: usize) -> Reply {
        self.ready(); // drains every worker's `Ready` first
        self.recv_any(r)
    }

    fn recv_any(&self, r: usize) -> Reply {
        self.workers[r]
            .reply
            .recv()
            .unwrap_or_else(|_| panic!("session worker {r} died (a rank thread panicked)"))
    }

    /// Every worker's first message, read once (waiting, on the first
    /// call, for every rank's engine to be built) and kept.
    fn ready(&self) -> &Ready {
        self.ready.get_or_init(|| {
            let mut sum = Ready {
                norm_a_sq: f64::NAN,
                workspace_bytes: 0,
            };
            for r in 0..self.workers.len() {
                let Reply::Ready {
                    norm_a_sq,
                    workspace_bytes,
                } = self.recv_any(r)
                else {
                    panic!("protocol mismatch from session worker {r}");
                };
                debug_assert!(
                    r == 0 || norm_a_sq.to_bits() == sum.norm_a_sq.to_bits(),
                    "every rank all-reduces the same ‖A‖²"
                );
                sum.norm_a_sq = norm_a_sq;
                sum.workspace_bytes += workspace_bytes;
            }
            sum
        })
    }

    /// `‖A‖²` as the engines all-reduced it.
    fn norm_a_sq(&self) -> f64 {
        self.ready().norm_a_sq
    }

    /// Heap bytes of the rank engines' iteration workspaces, summed over
    /// the ranks: the Grams, the two slabs and the dense GEMM scratch
    /// ([`IterWorkspace`]), as the model's build sized them (a
    /// [`refit`](Self::refit) reuses them, growing them for a larger
    /// `k`). Waits, on the first call, for every rank's engine to be
    /// built.
    pub fn workspace_bytes(&self) -> usize {
        self.ready().workspace_bytes
    }

    fn expect_acks(&self) {
        for r in 0..self.workers.len() {
            match self.recv(r) {
                Reply::Ack => {}
                _ => panic!("protocol mismatch from session worker {r}"),
            }
        }
    }

    /// Executes exactly one collective ANLS outer iteration and returns
    /// its aggregated record (critical-path compute times across ranks
    /// with the fastest rank's beside them, merged communication
    /// counters).
    ///
    /// Like [`AnlsEngine::step`], this ignores `max_iters` and any
    /// previously reached stop condition — stepping past a stop is
    /// legitimate for serving loops with spare capacity.
    pub fn step(&mut self) -> &IterRecord {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Step);
        }
        let mut agg: Option<IterRecord> = None;
        let mut stop = None;
        for r in 0..self.workers.len() {
            let Reply::Step { rec, stop: s } = self.recv(r) else {
                panic!("protocol mismatch from session worker {r}");
            };
            match &mut agg {
                None => {
                    agg = Some(rec);
                    stop = s;
                }
                Some(a) => {
                    debug_assert!(
                        (a.objective - rec.objective).abs() <= 1e-9 * a.objective.abs().max(1.0),
                        "objective must agree across ranks"
                    );
                    debug_assert_eq!(stop, s, "stop decision must agree across ranks");
                    a.compute = a.compute.max(&rec.compute);
                    a.compute_min = a.compute_min.min(&rec.compute_min);
                    a.comm.max_merge(&rec.comm);
                }
            }
        }
        self.records.push(agg.expect("at least one rank"));
        self.stop = stop;
        self.records.last().expect("just pushed")
    }

    /// Runs **at most** `n` collective iterations, stopping early at the
    /// convergence policy or the `max_iters` cap, and reports how far it
    /// got. Unlike [`run`](Self::run) this never drives to completion:
    /// it is the scheduling primitive for serving loops that interleave
    /// many models on one machine — grant a model a bounded slice of
    /// engine time, observe its progress, move to the next model.
    ///
    /// Reaching the `max_iters` cap here records
    /// [`StopReason::MaxIters`], exactly as [`run`](Self::run) would, so
    /// [`is_finished`](Self::is_finished) flips without the caller ever
    /// blocking for the rest of the run.
    pub fn step_up_to(&mut self, n: usize) -> StepProgress {
        let mut steps_run = 0;
        while steps_run < n && !self.is_finished() {
            self.step();
            steps_run += 1;
        }
        if self.stop.is_none() && self.iterations() >= self.config.max_iters {
            self.stop = Some(StopReason::MaxIters);
        }
        StepProgress {
            steps_run,
            iterations: self.iterations(),
            objective: self.objective(),
            stop: self.stop,
        }
    }

    /// Whether this model has nothing left to do: a stop condition fired
    /// or the iteration cap is spent. Purely local bookkeeping — no
    /// worker round-trip — so schedulers can poll it per quantum.
    pub fn is_finished(&self) -> bool {
        self.stop.is_some() || self.iterations() >= self.config.max_iters
    }

    /// Iterations left under the `max_iters` cap (0 when
    /// [`is_finished`](Self::is_finished); stop conditions can end the
    /// run earlier).
    pub fn remaining_iters(&self) -> usize {
        if self.stop.is_some() {
            return 0;
        }
        self.config.max_iters.saturating_sub(self.iterations())
    }

    /// Bytes of factor state this session keeps resident: one assembled
    /// copy of `W` (`m×k`) and `Hᵀ` (`n×k`) distributed across its rank
    /// threads. The admission-control currency of the serving layer
    /// (input blocks and iteration workspaces are excluded — they scale
    /// the same way and the quota is a budget, not an audit).
    pub fn factor_bytes(&self) -> usize {
        8 * (self.m + self.n) * self.config.k
    }

    /// Drives [`step`](Self::step) until the configured convergence
    /// policy stops or `max_iters` total iterations (including any from
    /// before a resume) have run.
    pub fn run(&mut self) -> StopReason {
        self.run_observed(|_, _| {})
    }

    /// [`run`](Self::run) with a different convergence policy from this
    /// point on (broadcast to every rank before the first step, so the
    /// collective schedule stays agreed).
    pub fn run_with(&mut self, policy: ConvergencePolicy) -> StopReason {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::SetPolicy(policy));
        }
        self.expect_acks();
        self.run()
    }

    /// [`run`](Self::run), invoking `observer` with `(iteration_index,
    /// record)` after every iteration — the hook for progress reporting
    /// or periodic checkpoint triggers.
    pub fn run_observed(&mut self, mut observer: impl FnMut(usize, &IterRecord)) -> StopReason {
        while self.iterations() < self.config.max_iters {
            self.step();
            let idx = self.iterations() - 1;
            observer(idx, self.records.last().expect("step pushed a record"));
            if let Some(reason) = self.stop {
                return reason;
            }
        }
        self.stop = Some(StopReason::MaxIters);
        StopReason::MaxIters
    }

    /// The assembled global factors as of the latest iteration:
    /// `(W, H)` with `W` `m×k` and `H` `k×n`. Valid mid-run — this is
    /// the serving/export path.
    pub fn factors(&self) -> (Mat, Mat) {
        let (w, ht, _, _) = self.snapshot();
        (w, ht.transpose())
    }

    /// Aggregated per-iteration records for the iterations this handle
    /// has run (a resumed model's records start at the checkpoint).
    pub fn records(&self) -> &[IterRecord] {
        &self.records
    }

    /// Total iterations executed, including those before a resume.
    pub fn iterations(&self) -> usize {
        self.base_iterations + self.records.len()
    }

    /// Objective after the latest iteration (`‖A‖²`, the objective of
    /// the all-zero factorization, before the first — or, resumed, the
    /// checkpoint's last objective). Before a fresh model's first step
    /// this waits for its ranks to build their engines, which report
    /// `‖A‖²`.
    pub fn objective(&self) -> f64 {
        match (self.records.last(), self.resumed_objective) {
            (Some(r), _) => r.objective,
            (None, Some(resumed)) => resumed,
            (None, None) => self.norm_a_sq(),
        }
    }

    /// Relative error `‖A − WH‖_F / ‖A‖_F` as of the latest iteration,
    /// against the `‖A‖²` every objective was computed with.
    pub fn rel_error(&self) -> f64 {
        rel_error(self.objective(), self.norm_a_sq())
    }

    /// Why the model last decided to stop, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// The run configuration.
    pub fn config(&self) -> &NmfConfig {
        &self.config
    }

    /// The algorithm this session runs.
    pub fn algo(&self) -> Algo {
        self.algo
    }

    /// The processor grid in use.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The number of virtual ranks (and worker threads) this model owns.
    pub fn ranks(&self) -> usize {
        self.key.ranks()
    }

    /// The distribution this session runs on — the key its blocks sit
    /// under in a [`SharedInput`]'s cache
    /// ([`SharedInput::rank_loads`] reports what each rank holds).
    pub fn shard_key(&self) -> ShardKey {
        self.key
    }

    /// The input shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Raises or lowers the total-iteration cap consulted by
    /// [`run`](Self::run) — e.g. to extend a resumed run past its
    /// original budget.
    pub fn set_max_iters(&mut self, max_iters: usize) {
        self.config.max_iters = max_iters;
    }

    /// Writes a durable checkpoint of the current state to `path`
    /// (atomically; see [`crate::checkpoint`] for the format). The
    /// session stays live — call it between [`step`](Self::step)s from
    /// a driving loop to checkpoint every N iterations (the pattern
    /// `nmf_cli --checkpoint-every` uses; the `run_observed` observer
    /// cannot call it, as the observer borrows the model).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NmfError> {
        let (w, ht, state, _) = self.snapshot();
        let ck = Checkpoint {
            meta: self.meta(),
            state,
            w,
            ht,
        };
        write_checkpoint(path.as_ref(), &ck)
    }

    /// [`save`](Self::save) with a bounded history: before the new
    /// checkpoint lands at `path`, prior generations shift down the
    /// chain `path → path.1 → … → path.keep` (see
    /// [`write_checkpoint_rotated`]). `keep == 0` behaves like `save`.
    pub fn save_rotated(&self, path: impl AsRef<Path>, keep: usize) -> Result<(), NmfError> {
        let (w, ht, state, _) = self.snapshot();
        let ck = Checkpoint {
            meta: self.meta(),
            state,
            w,
            ht,
        };
        write_checkpoint_rotated(path.as_ref(), &ck, keep)
    }

    /// Reconstructs a model from a checkpoint written by
    /// [`save`](Self::save), continuing the **bit-identical** trajectory
    /// of the interrupted run. `input` must be the same data matrix the
    /// checkpoint was taken from (its shape is verified; its content is
    /// the caller's contract — the checkpoint stores factors, not data);
    /// the resumed model draws its blocks from the input's sharding
    /// cache, so an mmap-backed input resumes without ever loading the
    /// whole matrix.
    pub fn load_shared(path: impl AsRef<Path>, input: &SharedInput) -> Result<Model, NmfError> {
        Self::load_regrid_shared(path, input, RegridTarget::new())
    }

    /// [`load_shared`](Self::load_shared) onto a **different** grid,
    /// scheme, or rank count: the checkpoint's globalized factors seed a
    /// fresh session on whatever `target` asks for (an empty target is a
    /// pure resume). See [`crate::regrid`] for the elasticity rules.
    pub fn load_regrid_shared(
        path: impl AsRef<Path>,
        input: &SharedInput,
        target: RegridTarget,
    ) -> Result<Model, NmfError> {
        let ck = read_checkpoint(path.as_ref())?;
        Nmf::resume_from(ck, input).target(target).build()
    }

    /// The checkpoint metadata this model would write.
    pub fn meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            m: self.m,
            n: self.n,
            ranks: self.ranks(),
            algo: self.algo,
            grid: self.grid,
            config: self.config,
        }
    }

    /// Restarts this session on a new configuration — same data, same
    /// universe, same sharding; fresh seeded factors. The rank-sweep
    /// primitive: stepping `k` through several values reuses the spawned
    /// threads, the distributed input blocks, and each rank's iteration
    /// workspace instead of rebuilding the world per candidate rank.
    pub fn refit(&mut self, config: NmfConfig) -> Result<(), NmfError> {
        validate_run(
            self.m,
            self.n,
            self.algo,
            Some(self.grid),
            self.ranks(),
            &config,
        )?;
        let w0 = init_w(self.m, config.k, config.seed);
        let ht0 = init_ht(self.n, config.k, config.seed);
        for (r, lay) in self.layout.iter().enumerate() {
            self.send(
                r,
                Cmd::Reinit(Box::new(EngineInit {
                    config,
                    w0: dealt_rows(&w0, self.dealing.rows(), lay.w),
                    ht0: dealt_rows(&ht0, self.dealing.cols(), lay.ht),
                    state: None,
                })),
            );
        }
        self.expect_acks();
        self.config = config;
        self.records.clear();
        self.base_iterations = 0;
        self.resumed_objective = None;
        self.stop = None;
        Ok(())
    }

    /// Finishes the session and assembles the classic [`NmfOutput`]:
    /// the batch result of `Nmf::on(..).build()?`, then
    /// [`run`](Self::run), then this.
    pub fn into_output(mut self) -> NmfOutput {
        let (w, ht, _, stats) = self.snapshot();
        let objective = self.objective();
        let iters = std::mem::take(&mut self.records);
        NmfOutput {
            w,
            h: ht.transpose(),
            objective,
            rel_error: rel_error(objective, self.norm_a_sq()),
            iterations: iters.len(),
            stop: self.stop.unwrap_or(StopReason::MaxIters),
            iters,
            rank_comm: stats,
        }
    }

    /// Per-rank cumulative communication counters (one rank's, all
    /// zero words and messages, for [`Algo::Sequential`]). Cheap: unlike
    /// [`factors`](Self::factors), this gathers only the counters, not
    /// the factor blocks.
    pub fn rank_comm(&self) -> Vec<CommStats> {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Stats);
        }
        (0..self.workers.len())
            .map(|r| match self.recv(r) {
                Reply::Stats(st) => st,
                _ => panic!("protocol mismatch from session worker {r}"),
            })
            .collect()
    }

    /// Sum of all ranks' communication counters (the live-session
    /// analogue of [`NmfOutput::total_comm`]).
    pub fn total_comm(&self) -> CommStats {
        let mut total = CommStats::new();
        for s in self.rank_comm() {
            total.merge(&s);
        }
        total
    }

    /// Sum of the per-iteration compute breakdowns of
    /// [`records`](Self::records) (the session analogue of
    /// [`NmfOutput::compute_total`]).
    pub fn compute_total(&self) -> TaskTimes {
        let mut t = TaskTimes::default();
        for r in &self.records {
            t.merge(&r.compute);
        }
        t
    }

    /// Collects every rank's factors, convergence state, and comm
    /// counters; assembles the global factor matrices.
    fn snapshot(&self) -> (Mat, Mat, ConvergenceState, Vec<CommStats>) {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Snapshot);
        }
        let k = self.config.k;
        let mut w_full = Mat::zeros(self.m, k);
        let mut ht_full = Mat::zeros(self.n, k);
        let mut state0: Option<ConvergenceState> = None;
        let mut max_elapsed = Duration::ZERO;
        let mut stats = Vec::with_capacity(self.workers.len());
        for r in 0..self.workers.len() {
            let Reply::Snapshot {
                w,
                ht,
                state,
                stats: st,
            } = self.recv(r)
            else {
                panic!("protocol mismatch from session worker {r}");
            };
            undeal_rows(&mut w_full, self.dealing.rows(), self.layout[r].w, &w);
            undeal_rows(&mut ht_full, self.dealing.cols(), self.layout[r].ht, &ht);
            // The numeric state is identical on every rank (it derives
            // from all-reduced objectives); the wall clock is not — take
            // the slowest rank's, the conservative budget accounting.
            max_elapsed = max_elapsed.max(state.elapsed);
            if state0.is_none() {
                state0 = Some(state);
            }
            stats.push(st);
        }
        let mut state = state0.expect("at least one rank");
        state.elapsed = max_elapsed;
        (w_full, ht_full, state, stats)
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("shape", &(self.m, self.n))
            .field("k", &self.config.k)
            .field("algo", &self.algo)
            .field("grid", &self.grid)
            .field("ranks", &self.ranks())
            .field("iterations", &self.iterations())
            .field("stop", &self.stop)
            .finish_non_exhaustive()
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmd.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::matmul;
    use nmf_matrix::ops::dense_relative_error;
    use nmf_matrix::rng::Fill;
    use nmf_sparse::gen::erdos_renyi;

    fn _model_is_send(m: Model) -> impl Send {
        m
    }

    /// Algorithm 1 on `input`, run to its stopping condition.
    fn sequential(input: &Input, config: &NmfConfig) -> NmfOutput {
        let mut model = Nmf::on(input).config(*config).build().expect("valid");
        model.run();
        model.into_output()
    }

    fn low_rank_input(m: usize, n: usize, k: usize, seed: u64) -> Input {
        let w = Mat::uniform(m, k, seed);
        let h = Mat::uniform(k, n, seed + 1);
        Input::Dense(matmul(&w, &h))
    }

    #[test]
    fn recovers_exact_low_rank_structure() {
        // A has exact nonnegative rank 4; BPP-ANLS should drive the
        // relative error near zero.
        let input = low_rank_input(40, 30, 4, 81);
        let out = sequential(&input, &NmfConfig::new(4).with_max_iters(50).with_seed(3));
        // ANLS converges to a stationary point, not necessarily the
        // global optimum; <1% on exact rank-4 data demonstrates the
        // structure is recovered (the initial error is ~30%).
        assert!(
            out.rel_error < 1e-2,
            "rel_error {} too large",
            out.rel_error
        );
        assert!(out.w.all_nonnegative());
        assert!(out.h.all_nonnegative());
        if let Input::Dense(a) = &input {
            let direct = dense_relative_error(a, &out.w, &out.h);
            assert!(
                (direct - out.rel_error).abs() < 1e-6 + 0.05 * direct,
                "Gram-identity error {} vs direct {}",
                out.rel_error,
                direct
            );
        }
    }

    #[test]
    fn objective_decreases_for_every_solver() {
        let input = low_rank_input(25, 20, 3, 82);
        for solver in SolverKind::ALL {
            let out = sequential(
                &input,
                &NmfConfig::new(5)
                    .with_solver(solver)
                    .with_max_iters(15)
                    .with_seed(4),
            );
            let hist = out.history();
            for win in hist.windows(2) {
                assert!(
                    win[1] <= win[0] * (1.0 + 1e-9) + 1e-9,
                    "{solver:?} objective increased: {win:?}"
                );
            }
        }
    }

    #[test]
    fn sparse_input_works() {
        let a = erdos_renyi(60, 50, 0.1, 83);
        let out = sequential(&Input::Sparse(a), &NmfConfig::new(6).with_max_iters(10));
        assert!(out.rel_error < 1.0);
        assert!(out.w.all_nonnegative() && out.h.all_nonnegative());
        assert_eq!(out.w.shape(), (60, 6));
        assert_eq!(out.h.shape(), (6, 50));
    }

    #[test]
    fn tolerance_stops_early() {
        let input = low_rank_input(30, 25, 3, 84);
        let out = sequential(
            &input,
            &NmfConfig::new(3).with_max_iters(200).with_tol(1e-6),
        );
        assert!(out.iterations < 200, "tolerance should trigger early exit");
    }

    #[test]
    fn same_seed_same_result() {
        let input = low_rank_input(20, 15, 3, 85);
        let a = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
        let b = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
        assert_eq!(a.w, b.w);
        assert_eq!(a.h, b.h);
    }

    #[test]
    fn builder_defaults_to_sequential_single_rank() {
        let a = Input::Dense(Mat::uniform(20, 14, 5));
        let mut model = Nmf::on(&a).rank(3).max_iters(3).build().expect("valid");
        assert_eq!(model.ranks(), 1);
        assert_eq!(model.algo(), Algo::Sequential);
        let reason = model.run();
        assert_eq!(reason, StopReason::MaxIters);
        assert_eq!(model.iterations(), 3);
        let (w, h) = model.factors();
        assert_eq!(w.shape(), (20, 3));
        assert_eq!(h.shape(), (3, 14));
        assert!(w.all_nonnegative() && h.all_nonnegative());
    }

    #[test]
    fn model_is_a_live_handle_mid_run() {
        let a = Input::Dense(Mat::uniform(24, 18, 9));
        let mut model = Nmf::on(&a)
            .rank(4)
            .ranks(4)
            .algo(Algo::Hpc2D)
            .max_iters(6)
            .build()
            .expect("valid");
        let first = model.step().objective;
        let mid = model.factors();
        assert_eq!(mid.0.shape(), (24, 4));
        let second = model.step().objective;
        assert!(second <= first * (1.0 + 1e-9) + 1e-9);
        assert_eq!(model.iterations(), 2);
        assert_eq!(model.records().len(), 2);
    }

    #[test]
    fn refit_restarts_on_the_same_universe() {
        let a = Input::Dense(Mat::uniform(30, 22, 3));
        let mut model = Nmf::on(&a)
            .rank(3)
            .ranks(4)
            .algo(Algo::Hpc2D)
            .max_iters(4)
            .build()
            .expect("valid");
        model.run();
        let obj_k3 = model.objective();
        model
            .refit(NmfConfig::new(5).with_max_iters(4))
            .expect("refit");
        assert_eq!(model.iterations(), 0);
        model.run();
        assert_eq!(model.iterations(), 4);
        // A fresh model with the same config must agree bit-for-bit —
        // the reused workspace carries no information between fits.
        let mut fresh = Nmf::on(&a)
            .config(NmfConfig::new(5).with_max_iters(4))
            .ranks(4)
            .algo(Algo::Hpc2D)
            .build()
            .expect("valid");
        fresh.run();
        assert_eq!(model.factors().0, fresh.factors().0);
        assert_eq!(model.factors().1, fresh.factors().1);
        assert!(model.objective().is_finite() && obj_k3.is_finite());
    }

    /// `‖A‖²` as the engines of sharding `key` all-reduce it: one
    /// engine per rank, built on a universe of its own over the input's
    /// cached blocks.
    fn engines_norm(shared: &SharedInput, key: ShardKey, config: NmfConfig) -> f64 {
        let (m, n) = shared.shape();
        let set = shared.rank_data(key).unwrap();
        let norms: Vec<f64> = std::thread::scope(|s| {
            let ranks: Vec<_> = seats(key.ranks())
                .into_iter()
                .zip(set.iter())
                .zip(key.layouts(m, n))
                .map(|((seat, data), lay)| {
                    s.spawn(move || {
                        let comm = seat.into_comm();
                        let init = EngineInit {
                            config,
                            w0: Mat::zeros(lay.w.len, config.k),
                            ht0: Mat::zeros(lay.ht.len, config.k),
                            state: None,
                        };
                        let ws = IterWorkspace::default();
                        let engine = build_engine(&comm, key, (m, n), data, init, ws);
                        engine.norm_a_sq()
                    })
                })
                .collect();
            ranks.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(norms.iter().all(|x| x.to_bits() == norms[0].to_bits()));
        norms[0]
    }

    #[test]
    fn every_report_divides_by_the_engines_norm() {
        let dense = Input::Dense(Mat::uniform(36, 30, 5));
        let skewed = Input::Sparse(nmf_sparse::gen::chung_lu_power_law(240, 1400, 2.1, 17));
        let config = NmfConfig::new(3).with_max_iters(2).with_seed(9);
        let bits = |x: f64| x.to_bits();
        // Shardings whose sum differs from the one-rank fold in its last
        // bits: there a report against another order would show.
        let mut told_apart = 0;
        for input in [&dense, &skewed] {
            let mut one_rank = None;
            let shared = SharedInput::new(input.clone());
            assert_eq!(
                shared.balance().rows.is_some_and(|d| d.relabelled),
                input.is_sparse()
            );
            for (algo, ranks) in [
                (Algo::Sequential, 1),
                (Algo::HpcGrid(Grid::new(2, 1)), 2),
                (Algo::HpcGrid(Grid::new(2, 2)), 4),
                (Algo::Naive, 3),
            ] {
                let mut model = Nmf::on_shared(&shared)
                    .config(config)
                    .algo(algo)
                    .ranks(ranks)
                    .build()
                    .unwrap();
                let norm = engines_norm(&shared, model.shard_key(), config);
                let one_rank = *one_rank.get_or_insert(norm);
                told_apart += usize::from(bits(norm) != bits(one_rank));
                assert_eq!(bits(model.objective()), bits(norm), "{algo:?}");
                assert_eq!(bits(model.rel_error()), bits(rel_error(norm, norm)));
                model.run();
                let objective = model.objective();
                assert_eq!(
                    bits(model.rel_error()),
                    bits(rel_error(objective, norm)),
                    "{algo:?}"
                );
                let out = model.into_output();
                assert_eq!(bits(out.objective), bits(objective));
                assert_eq!(bits(out.rel_error), bits(rel_error(objective, norm)));
            }
        }
        assert!(told_apart > 0, "every case summed A in one order");
    }

    #[test]
    fn a_one_rank_model_outputs_what_its_engine_does() {
        let input = Input::Dense(Mat::uniform(28, 21, 6));
        let (m, n) = input.shape();
        let config = NmfConfig::new(4).with_max_iters(5).with_seed(8);
        let mut model = Nmf::on(&input).config(config).build().unwrap();
        model.run();
        let out = model.into_output();

        let comm = seats(1).pop().unwrap().into_comm();
        let block = input.block(0, 0, m, n);
        let mut engine = AnlsEngine::new(
            Grid2D::new(&comm, Grid::new(1, 1), (m, n), config.k),
            &block,
            &config,
            init_w(m, config.k, config.seed),
            init_ht(n, config.k, config.seed),
        );
        engine.run();
        let direct = engine.into_output();

        assert_eq!(out.w, direct.w);
        assert_eq!(out.h, direct.h);
        assert_eq!(out.objective.to_bits(), direct.objective.to_bits());
        assert_eq!(out.rel_error.to_bits(), direct.rel_error.to_bits());
        assert_eq!((out.iterations, out.stop), (direct.iterations, direct.stop));
        let history = |o: &NmfOutput| {
            o.history()
                .into_iter()
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(history(&out), history(&direct));
    }

    #[test]
    fn a_resumed_model_reports_the_checkpoint_objective_first() {
        let shared = SharedInput::new(Input::Dense(Mat::uniform(30, 24, 3)));
        let mut model = Nmf::on_shared(&shared)
            .rank(3)
            .ranks(2)
            .algo(Algo::Hpc2D)
            .max_iters(6)
            .build()
            .unwrap();
        model.step_up_to(3);
        let path = std::env::temp_dir().join(format!("nmf-resume-obj-{}.ckpt", std::process::id()));
        model.save(&path).unwrap();
        let ck = read_checkpoint(&path).unwrap();
        let resumed = Model::load_shared(&path, &shared).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(ck.state.prev_objective.is_finite());
        assert_eq!(
            resumed.objective().to_bits(),
            ck.state.prev_objective.to_bits()
        );
        assert_eq!(resumed.objective().to_bits(), model.objective().to_bits());
        assert_eq!(resumed.rel_error().to_bits(), model.rel_error().to_bits());
    }

    #[test]
    fn run_with_overrides_the_policy() {
        let a = Input::Dense(Mat::uniform(26, 20, 13));
        let mut model = Nmf::on(&a)
            .rank(3)
            .ranks(2)
            .algo(Algo::Naive)
            .max_iters(100)
            .build()
            .expect("valid");
        let reason = model.run_with(ConvergencePolicy::RelTol { tol: 1e-6 });
        assert!(
            matches!(
                reason,
                StopReason::Converged | StopReason::ObjectiveIncreased
            ),
            "policy override should stop early, got {reason:?}"
        );
        assert!(model.iterations() < 100);
    }
}
