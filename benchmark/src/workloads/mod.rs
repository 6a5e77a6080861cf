//! The six named workloads. The names are fixed: later issues cite them.

pub mod lifecycle;
pub mod serve_mix;
pub mod solve;

use crate::problem::Ctx;
use crate::report::Report;

/// Every workload, in catalogue order. Why each exists is recorded
/// where people and the acceptance driver read it: `benchmark/README.md`
/// and `BENCHMARK.json`.
pub const NAMES: [&str; 6] = [
    "dense_hals",
    "sparse_mu",
    "webbase_bpp",
    "comm_small",
    "lifecycle",
    "serve_mix",
];

/// Runs one workload in this process.
pub fn run(name: &str, ctx: &Ctx) -> Result<Report, String> {
    match name {
        "lifecycle" => Ok(lifecycle::run(ctx)),
        "serve_mix" => serve_mix::run(ctx),
        _ => solve::spec(name)
            .map(|spec| solve::run(&spec, ctx))
            .ok_or_else(|| {
                format!(
                    "unknown workload '{name}' (expected one of {})",
                    NAMES.join(", ")
                )
            }),
    }
}
