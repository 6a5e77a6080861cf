//! Out-of-core materialization: datasets as `NMFS` files.
//!
//! The mmap ingest path ([`hpc_nmf::SharedInput::open_mmap`]) factorizes
//! matrices that never fully load into RAM — but something has to put
//! the `NMFS` file on disk first. These helpers bridge the generators in
//! [`crate::datasets`] (and any resident [`Input`]) to
//! [`nmf_sparse::io::write_csr_binary_path`], so a CI smoke job or a
//! one-off conversion is a single call:
//!
//! ```no_run
//! use nmf_data::{materialize_nmfs, DatasetKind};
//! materialize_nmfs(DatasetKind::Ssyn, 400, 42, "ssyn.nmfs")?;
//! let shared = hpc_nmf::SharedInput::open_mmap("ssyn.nmfs")?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Materialization builds the matrix resident once (the generators are
//! in-memory); the payoff is every *subsequent* run, which streams the
//! file in bounded row panels instead of holding the matrix.

use crate::datasets::DatasetKind;
use hpc_nmf::Input;
use nmf_sparse::io::write_csr_binary_path;
use std::io;
use std::path::Path;

/// Writes a sparse input as an `NMFS` binary at `path`. Dense inputs are
/// rejected: `NMFS` is a CSR container, and the out-of-core path exists
/// for matrices whose sparsity is the only reason they fit anywhere.
pub fn write_input_nmfs(input: &Input, path: impl AsRef<Path>) -> io::Result<()> {
    match input {
        Input::Sparse(a) => write_csr_binary_path(a, path),
        Input::Dense(_) => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "NMFS stores sparse CSR matrices; dense inputs have no out-of-core path",
        )),
    }
}

/// Builds `kind` at `scale`/`seed` and materializes it as an `NMFS`
/// file. Errors with [`io::ErrorKind::InvalidInput`] for the dense
/// datasets (DSYN, Video).
pub fn materialize_nmfs(
    kind: DatasetKind,
    scale: usize,
    seed: u64,
    path: impl AsRef<Path>,
) -> io::Result<()> {
    write_input_nmfs(&kind.build(scale, seed).input, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_nmf::SharedInput;
    use nmf_sparse::io::MmapCsr;

    fn tmp(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("nmf-ooc-{tag}-{}.nmfs", std::process::id()))
    }

    #[test]
    fn materialized_file_matches_resident_build() {
        let path = tmp("ssyn");
        materialize_nmfs(DatasetKind::Ssyn, 800, 7, &path).unwrap();
        let resident = DatasetKind::Ssyn.build(800, 7).input;
        let mapped = SharedInput::open_mmap(&path).unwrap();
        assert_eq!(mapped.shape(), resident.shape());
        assert_eq!(mapped.nnz(), resident.nnz());
        let file = MmapCsr::open(&path).unwrap();
        assert_eq!(
            file.fro_norm_sq().unwrap().to_bits(),
            resident.fro_norm_sq().to_bits()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn dense_datasets_are_rejected() {
        let err = materialize_nmfs(DatasetKind::Dsyn, 2000, 1, tmp("dsyn")).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
