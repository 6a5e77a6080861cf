//! An `NMFS` file is input from outside the program: no byte sequence may
//! panic either reader or over-allocate. Arbitrary and mutated images go
//! through the resident reader (`read_csr_binary`) and through the mapped
//! one (`SharedInput::open_mmap`) plus a sequential build, which is the
//! first thing that reads a mapped file's rows; each comes back `Ok` or
//! as a typed error. The third decoder suite, beside the frame and
//! checkpoint fuzzers.

use hpc_nmf::prelude::*;
use nmf_sparse::gen::erdos_renyi;
use nmf_sparse::io::{read_csr_binary, write_csr_binary, MmError};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::{Path, PathBuf};

/// A well-formed image to mutate: a 6×5 matrix, half full.
fn golden() -> Vec<u8> {
    let mut bytes = Vec::new();
    write_csr_binary(&erdos_renyi(6, 5, 0.5, 2), &mut bytes).expect("in-memory write");
    bytes
}

/// The header: magic and version, then `nrows`, `ncols` and `nnz`.
const HEADER: usize = 32;

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nmf-nmfs-fuzz-{tag}-{}.nmfs", std::process::id()))
}

/// Both readers take `bytes` without panicking, and a mapped file that
/// opens either builds a model or fails the build with a typed error.
fn both_readers_survive(bytes: &[u8], path: &Path) {
    match read_csr_binary(bytes) {
        Ok(a) => assert_eq!(a.indptr().len(), a.nrows() + 1),
        Err(MmError::Parse(_) | MmError::Io(_)) => {}
    }
    std::fs::write(path, bytes).expect("scratch file");
    let shared = match SharedInput::open_mmap(path) {
        Ok(shared) => shared,
        Err(e) => {
            assert!(
                matches!(e, NmfError::Corrupt { .. } | NmfError::Io { .. }),
                "undeclared failure: {e}"
            );
            return;
        }
    };
    // A header may claim any column count: no file bytes back it, and
    // `H` is sized by the request, not the decoder. Only shapes a test
    // can afford are factorized.
    if shared.ncols() > 1 << 16 {
        return;
    }
    match Nmf::on_shared(&shared).rank(1).build() {
        Ok(_) => {}
        Err(e) => assert!(
            matches!(
                e,
                NmfError::Corrupt { .. } | NmfError::Io { .. } | NmfError::EmptyInput { .. }
            ),
            "undeclared failure: {e}"
        ),
    }
}

proptest! {
    #[test]
    fn fuzz_arbitrary_nmfs_bytes_never_panic_or_over_allocate(
        raw in vec(0u16..256, 0..400),
        framed in 0usize..3,
        nrows in 0u64..8,
        ncols in 0u64..8,
    ) {
        let mut bytes: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
        // A third raw, a third behind a valid magic and version, a third
        // behind a whole header whose sections the random bytes fill
        // exactly — so row pointers, indices and values are what varies.
        let golden = golden();
        if framed >= 1 {
            bytes.splice(..0, golden[..8].iter().copied());
        }
        if framed == 2 {
            let sections = bytes.len() - 8;
            let nnz = sections.saturating_sub(8 * (nrows as usize + 1)) / 16;
            bytes.truncate(8 + 8 * (nrows as usize + 1) + 16 * nnz);
            bytes.resize(8 + 8 * (nrows as usize + 1) + 16 * nnz, 0);
            let counts = [nrows, ncols, nnz as u64].map(u64::to_le_bytes).concat();
            bytes.splice(8..8, counts);
        }
        both_readers_survive(&bytes, &scratch("arbitrary"));
    }

    #[test]
    fn fuzz_mutated_nmfs_file_never_panics_or_over_allocates(
        flips in vec(0usize..1000, 0..5),
        masks in vec(1u16..256, 4),
        cut in 0usize..2000,
        field in 0usize..6,
        hostile in 0usize..4,
    ) {
        let mut bytes = golden();
        let len = bytes.len();
        for (at, mask) in flips.iter().zip(&masks) {
            bytes[at % len] ^= *mask as u8;
        }
        // Half the cases also overwrite one header count.
        if field < 3 {
            let at = 8 + 8 * field;
            let value = [u64::MAX, 1 << 60, 1 << 32, 7][hostile];
            bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        }
        // Half are truncated somewhere.
        bytes.truncate(cut.min(len).max(HEADER / 2));
        both_readers_survive(&bytes, &scratch("mutated"));
    }
}

#[test]
fn fuzz_golden_image_reads_back_and_builds() {
    let bytes = golden();
    let a = read_csr_binary(bytes.as_slice()).expect("well-formed image");
    assert_eq!(a.shape(), (6, 5));
    let path = scratch("golden");
    both_readers_survive(&bytes, &path);
    let shared = SharedInput::open_mmap(&path).expect("well-formed file");
    assert!(Nmf::on_shared(&shared).rank(1).build().is_ok());
    std::fs::remove_file(&path).ok();
}
