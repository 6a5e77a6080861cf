//! Dataset builders and the analytic performance model.
//!
//! [`datasets`] recreates the paper's four evaluation inputs (§6.1.1) at
//! any scale — full paper dimensions for the analytic model, scaled-down
//! for real multithreaded runs on one machine:
//!
//! | Paper dataset | Dims (paper) | Analogue here |
//! |---|---|---|
//! | DSYN  | 172,800 × 115,200 dense | uniform + Gaussian noise |
//! | SSYN  | same dims, density 0.001 | Erdős–Rényi |
//! | Video | 1,013,400 × 2,400 dense | synthetic frames: static background + moving object |
//! | Webbase | 1,000,005 × 1,000,005, 3.1M nnz | Chung–Lu power-law digraph |
//!
//! [`ooc`] materializes the sparse datasets as `NMFS` binaries so the
//! out-of-core ingest path ([`hpc_nmf::SharedInput::open_mmap`]) has
//! something to stream.
//!
//! [`costmodel`] evaluates the paper's Table 2 cost expressions under the
//! α-β-γ machine model, with calibratable local-kernel rates; it produces
//! the paper-scale series for Figure 3 and Table 3 that a single machine
//! cannot run directly, and the `paper` binary of `nmf_bench` prints them.

pub mod costmodel;
pub mod datasets;
pub mod ooc;

pub use costmodel::{Breakdown, KernelRates, PerfModel, Workload};
pub use datasets::{Dataset, DatasetKind};
pub use ooc::{materialize_nmfs, write_input_nmfs};
