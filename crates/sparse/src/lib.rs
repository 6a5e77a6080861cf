//! Sparse matrix substrate for the HPC-NMF reproduction.
//!
//! The paper's sparse inputs (Erdős–Rényi synthetic, webbase-2001 graph)
//! enter the algorithms only through two kernels: `A·Hᵀ` and `WᵀA`
//! (sparse-times-tall-dense). This crate provides:
//!
//! * [`Coo`] — a coordinate-format builder (sorts and sums duplicates);
//! * [`Csr`] — compressed sparse row storage with transpose, 2D block
//!   extraction and norms; [`CsrRef`] — a block of one read in place
//!   (how the input is distributed over the processor grid), which the
//!   kernels take;
//! * [`spmm`] — the two SpMM kernels, laid out so the dense operand and
//!   output are walked contiguously;
//! * [`gen`] — random sparse generators: Erdős–Rényi (the paper's SSYN)
//!   and a Chung–Lu power-law digraph standing in for webbase-2001.

pub mod coo;
pub mod csc;
pub mod csr;
pub mod gen;
pub mod io;
pub mod spmm;

pub use coo::Coo;
pub use csc::{CscView, SpBlock};
pub use csr::{Csr, CsrRef, Skew};
pub use spmm::{
    csc_chosen, spmm_at_dense, spmm_at_dense_auto, spmm_at_dense_auto_into, spmm_at_dense_csc,
    spmm_at_dense_csc_into, spmm_at_dense_into, spmm_dense_t, spmm_dense_t_into,
};
