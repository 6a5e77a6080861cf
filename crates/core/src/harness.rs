//! Batch front-end: run any algorithm to completion on a shared input.
//!
//! Since the session API landed, this module is a thin compatibility
//! wrapper: [`factorize`] builds a [`Model`](crate::session::Model)
//! through [`Nmf`](crate::session::Nmf::on), runs it to its stopping
//! condition, and assembles the classic [`NmfOutput`]. One-shot
//! factorization is now a specialization of the resumable session, not
//! the other way around — new code should prefer
//! [`Nmf::on(..)`](crate::session::Nmf::on) directly, which reports
//! invalid requests as [`NmfError`](crate::error::NmfError) values
//! instead of this wrapper's historical panics.

use crate::config::{Algo, NmfConfig, NmfOutput};
use crate::input::Input;
use crate::session::Nmf;

use nmf_matrix::Mat;
use nmf_vmpi::CommStats;

/// Runs `algo` on `p` ranks over `input` and returns assembled factors
/// plus per-rank instrumentation.
pub fn factorize(input: &Input, p: usize, algo: Algo, config: &NmfConfig) -> NmfOutput {
    let (m, n) = input.shape();
    let w0 = crate::config::init_w(m, config.k, config.seed);
    let ht0 = crate::config::init_ht(n, config.k, config.seed);
    factorize_from(input, p, algo, config, w0, ht0)
}

/// Like [`factorize`], but starting from explicit factors (warm start):
/// `w0` is `m×k` and `ht0` is `n×k` (`H` transposed, row `j` = column
/// `j` of `H`). Use this to refine a factorization after the data
/// changes incrementally — e.g. appending frames to the video matrix —
/// instead of re-solving from a random initialization.
pub fn factorize_from(
    input: &Input,
    p: usize,
    algo: Algo,
    config: &NmfConfig,
    w0: Mat,
    ht0: Mat,
) -> NmfOutput {
    let (m, n) = input.shape();
    // Historical panic contract, kept for source compatibility (the
    // builder would report these as NmfError::WarmStartShape).
    assert_eq!(w0.shape(), (m, config.k), "w0 shape mismatch");
    assert_eq!(ht0.shape(), (n, config.k), "ht0 shape mismatch");
    // The classic API ignored `p` for the sequential algorithm.
    let ranks = if matches!(algo, Algo::Sequential) {
        1
    } else {
        p
    };
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(ranks)
        .warm_start(w0, ht0)
        .build()
        .unwrap_or_else(|e| panic!("invalid factorization request: {e}"));
    model.run();
    model.into_output()
}

/// Sum of all ranks' communication counters.
pub fn total_comm(out: &NmfOutput) -> CommStats {
    let mut total = CommStats::new();
    for s in &out.rank_comm {
        total.merge(s);
    }
    total
}
