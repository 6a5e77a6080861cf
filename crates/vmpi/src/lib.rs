//! Virtual MPI: a thread-backed message-passing substrate.
//!
//! The HPC-NMF paper runs on MPI over a Cray interconnect. Rust's MPI
//! bindings are thin and awkward for a self-contained reproduction, so
//! this crate *is* the MPI substitute: each rank is an OS thread, ranks
//! exchange messages over dedicated FIFO channels, and all collectives
//! are built from those point-to-point messages using the same classic
//! algorithms (Bruck all-gather, recursive-halving reduce-scatter,
//! Rabenseifner all-reduce, dissemination barrier) whose cost
//! expressions the paper quotes in §2.3.
//!
//! Two properties make it a faithful stand-in for the paper's purposes:
//!
//! 1. **Real parallel execution** — ranks genuinely run concurrently on
//!    separate threads, so wall-clock timings of compute vs. communicate
//!    phases are meaningful;
//! 2. **Exact communication accounting** — every rank counts the words
//!    and messages it actually sends, per collective type, so the paper's
//!    Table 2 cost formulas can be checked against *counted* (not merely
//!    modeled) communication.
//!
//! ```
//! use nmf_vmpi::universe;
//!
//! let results = universe::run(4, |comm| {
//!     let contribution = vec![comm.rank() as f64];
//!     let all = comm.all_gather(&contribution);
//!     all.iter().sum::<f64>()
//! });
//! assert!(results.iter().all(|r| r.result == 6.0));
//! ```

pub mod collectives;
pub mod comm;
pub mod model;
pub mod pending;
pub mod stats;
mod transport;
pub mod universe;

pub use comm::Comm;
pub use model::CostModel;
pub use pending::PendingOp;
pub use stats::{CommStats, Op, OpStats};
pub use universe::{run, RankResult};
