//! # hpc-nmf — high-performance parallel nonnegative matrix factorization
//!
//! A from-scratch Rust reproduction of
//! *"A High-Performance Parallel Algorithm for Nonnegative Matrix
//! Factorization"* (Kannan, Ballard, Park — PPoPP 2016,
//! arXiv:1509.09313): distributed-memory ANLS-based NMF `A ≈ W·H` with
//! communication-optimal 2D-grid parallelism, running on a thread-backed
//! virtual MPI ([`nmf_vmpi`]) with exact communication accounting.
//!
//! ## Quickstart: the session API
//!
//! [`Nmf::on`] opens a fallible builder; [`NmfBuilder::build`] validates
//! the request up front and returns a [`Model`] — a long-lived handle
//! that can step, run, pause, persist, and resume a factorization:
//!
//! ```
//! use hpc_nmf::prelude::*;
//! use nmf_matrix::rng::Fill;
//! use nmf_matrix::Mat;
//!
//! // A small random nonnegative matrix.
//! let a = Input::Dense(Mat::uniform(60, 40, 7));
//!
//! // Rank-5 factorization on 4 virtual ranks, 2D grid, BPP solver.
//! let mut model = Nmf::on(&a)
//!     .rank(5)
//!     .ranks(4)
//!     .algo(Algo::Hpc2D)
//!     .solver(SolverKind::Bpp)
//!     .max_iters(10)
//!     .build()
//!     .expect("a valid request — errors are NmfError values, not panics");
//!
//! // Step-at-a-time: inspect live factors mid-run...
//! model.step();
//! let (w, h) = model.factors();
//! assert_eq!((w.shape(), h.shape()), ((60, 5), (5, 40)));
//!
//! // ...then drive to the stopping condition.
//! let reason = model.run();
//! assert_eq!(reason, StopReason::MaxIters);
//! assert!(model.objective().is_finite());
//! ```
//!
//! ### Checkpoint / resume
//!
//! [`Model::save`] writes a durable, versioned checkpoint (factors +
//! convergence state + config fingerprint; see `docs/checkpoint-format.md`)
//! and [`Model::load_shared`] reconstructs the session over the input's
//! [`SharedInput`] — the resumed trajectory is **bit-identical** to the
//! uninterrupted run:
//!
//! ```no_run
//! # use hpc_nmf::prelude::*;
//! # use nmf_matrix::rng::Fill;
//! let a = SharedInput::new(Input::Dense(nmf_matrix::Mat::uniform(60, 40, 7)));
//! let mut model = Nmf::on_shared(&a).rank(5).build()?;
//! model.step();
//! model.save("run.ckpt")?;                           // survive a restart...
//! let mut resumed = Model::load_shared("run.ckpt", &a)?;  // ...in a new process
//! resumed.run();
//! # Ok::<(), hpc_nmf::NmfError>(())
//! ```
//!
//! ## The three algorithms
//!
//! | [`Algo`] | Paper | Scheme | Communication per iteration |
//! |---|---|---|---|
//! | [`Algo::Sequential`] | Algorithm 1 | [`engine::Grid2D`], 1×1 grid | — (single process) |
//! | [`Algo::Naive`] | Algorithm 2 | [`engine::Replicated1D`] | `O((m+n)k)` words |
//! | [`Algo::Hpc2D`] | Algorithm 3 | [`engine::Grid2D`] | `O(min{√(mnk²/p), nk})` words |
//!
//! All three support dense and sparse inputs ([`input::Input`]) and any
//! of the local NLS solvers (BPP, MU, HALS — [`nmf_nls`]), and all start
//! from the same seeded initialization so they perform the same
//! computations — the paper's §6.1.3 protocol.
//!
//! Under the session they share one step-wise iteration core,
//! [`engine::AnlsEngine`]: the ANLS loop body exists once, and the
//! algorithms differ only in their [`engine::CommScheme`] implementation
//! — Algorithm 1 is Algorithm 3 with `p = 1`, so two schemes serve three
//! algorithms — and in how `A`, `W` and `H` are dealt to ranks —
//! a [`ShardKey`], whose [`layout`](ShardKey::layout) is the one place
//! that says what rank `r` owns ([`dist`]). The [`Model`] erases the
//! scheme generic behind the object-safe [`engine::EngineDyn`] and owns
//! the virtual-MPI universe (one thread per rank), so a handle outlives
//! any borrow of the communicators.
//!
//! A batch run is the session driven to its end:
//! `Nmf::on(&input)…build()?`, then [`Model::run`], then
//! [`Model::into_output`] for the classic [`NmfOutput`] (factors,
//! per-iteration records, per-rank communication counters). Every
//! invalid request is an [`NmfError`], never a panic.

pub mod checkpoint;
pub mod config;
pub mod dist;
pub mod engine;
pub mod error;
pub mod flags;
pub mod grid;
pub mod input;
pub mod regrid;
pub mod session;
pub mod shared;
pub mod wire;
pub mod workspace;

pub use checkpoint::{
    inspect_checkpoint, write_checkpoint_rotated, Checkpoint, CheckpointMeta, CheckpointSummary,
};
pub use config::{
    init_ht, init_w, Algo, ConvergencePolicy, IterRecord, NmfConfig, NmfOutput, StopReason,
    TaskTimes,
};
pub use dist::ShardKey;
pub use engine::{AnlsEngine, CommScheme, ConvergenceState, EngineDyn, Grid2D, Replicated1D};
pub use error::NmfError;
pub use grid::Grid;
pub use input::{AtW, Balance, DimBalance, Input, LocalMat};
pub use regrid::{fitting_grids, RegridTarget};
pub use session::{Model, Nmf, NmfBuilder, ResumeBuilder, StepProgress};
pub use shared::{RankLoad, SharedInput};
pub use workspace::IterWorkspace;

/// Everything needed for typical use.
pub mod prelude {
    pub use crate::config::{Algo, ConvergencePolicy, NmfConfig, NmfOutput, StopReason};
    pub use crate::error::NmfError;
    pub use crate::grid::Grid;
    pub use crate::input::Input;
    pub use crate::regrid::{fitting_grids, RegridTarget};
    pub use crate::session::{Model, Nmf, NmfBuilder, ResumeBuilder, StepProgress};
    pub use crate::shared::SharedInput;
    pub use nmf_nls::SolverKind;
}
