//! Regression lock: extracting a rank block from a *sparse* input stays
//! sparse — it must never materialize the block densely, not even as a
//! transient. A byte-counting global allocator bounds the whole
//! extraction (block CSR + CSC view + scratch) far below the dense
//! footprint, so a densify regression of any kind trips the cap.

mod byte_counting;

use byte_counting::bytes_during;
use hpc_nmf::prelude::*;
use hpc_nmf::LocalMat;
use nmf_sparse::gen::erdos_renyi;

#[test]
fn sparse_block_extraction_never_densifies() {
    // 2000×2000 at density 2e-3: ~8k nonzeros. A 1000×1000 block holds
    // ~2k of them (~70 KiB with both index views); the same block dense
    // would be 8 MB — two orders of magnitude of headroom between the
    // cap and the regression.
    let (m, n) = (2000, 2000);
    let input = Input::Sparse(erdos_renyi(m, n, 2e-3, 17));
    let (block, allocated) = bytes_during(|| input.block(m / 4, n / 4, m / 2, n / 2));

    let LocalMat::Sparse(sp) = &block else {
        panic!("a sparse input must extract sparse blocks");
    };
    assert!(sp.nnz() > 100, "block unexpectedly empty: {}", sp.nnz());

    let dense_bytes = 8 * (m / 2) as u64 * (n / 2) as u64;
    assert!(
        allocated < dense_bytes / 4,
        "block extraction allocated {allocated} bytes — within reach of the \
         {dense_bytes}-byte dense footprint; did the sparse path densify?"
    );
}

/// The whole-session variant of the same lock: building a model on a
/// sparse input must not allocate anything near the dense footprint of
/// the input (factors, workspaces, and transport are all O((m+n)k)).
#[test]
fn sparse_build_stays_sparse_end_to_end() {
    let (m, n) = (1200, 900);
    let input = Input::Sparse(erdos_renyi(m, n, 3e-3, 23));
    let ((), allocated) = bytes_during(|| {
        let mut model = Nmf::on(&input)
            .rank(4)
            .ranks(4)
            .algo(Algo::Hpc2D)
            .max_iters(2)
            .build()
            .expect("valid request");
        model.run();
    });
    let dense_bytes = 8 * m as u64 * n as u64;
    assert!(
        allocated < dense_bytes / 2,
        "sparse 2-iteration build allocated {allocated} bytes \
         (dense input would be {dense_bytes}); something densified"
    );
}
