//! Dense linear-algebra substrate for the HPC-NMF reproduction.
//!
//! The paper relies on vendor BLAS/LAPACK for its local computations
//! (GEMM, Gram matrices, and the small symmetric positive-definite solves
//! inside the NLS subproblems). This crate provides those routines in pure
//! Rust so the reproduction has no external native dependencies:
//!
//! * [`Mat`] — an owned, row-major, `f64` dense matrix with block extraction
//!   and in-place arithmetic, and [`MatRef`], a borrowed block of one
//!   that copies nothing;
//! * [`gemm`] — GotoBLAS-style matrix-multiply kernels in all
//!   transpose combinations used by the algorithms (`A·B`, `Aᵀ·B`,
//!   `A·Bᵀ`), all serial — a rank is a thread, as in the paper. A
//!   row-major `A` (or a [`MatRef`] block of one) is read in place in
//!   every product: as the left operand of `A·B`, and as the right
//!   operand of `Aᵀ·B`, which runs as `(Bᵀ·A)ᵀ`;
//! * [`simd`] — the `MR×NR` register microkernel: one portable body,
//!   compiled 16 lanes wide under `avx512f`, 8 wide under `fma` and plain
//!   elsewhere, all with the same bits (chosen once per process;
//!   `NMF_FORCE_SCALAR=1` pins the 8-wide build), which reads the left
//!   operand at a (row stride, depth stride) pair, the right one at a row
//!   stride and stores `C` at a (row, column) stride pair, so one kernel
//!   serves every form; and the dispatched AVX2 dot products;
//! * [`pack`] — packing of `B` tiles per call, and [`PackedPanels`], a
//!   left operand packed ahead of time, which no product path uses (kept
//!   for the `benchmark` package's layer rows);
//! * [`mod@gram`] — symmetric rank-k products `XᵀX` and `XXᵀ` exploiting
//!   symmetry;
//! * [`chol`] — Cholesky factorization and batched multi-right-hand-side
//!   solves for the `k×k` normal-equation systems;
//! * [`rng`] — deterministic fills (uniform, Gaussian via Box–Muller) so
//!   every experiment is reproducible from a seed.
//!
//! All kernels are written for the regime the paper targets: `k ≤ ~100`
//! while `m, n` are large, so matrices are tall-and-skinny or tiny-square.
//! See `docs/kernels.md` for the kernel-layer design (dispatch, packing
//! formats and in-place operands).

pub mod chol;
pub mod gemm;
pub mod gram;
pub mod mat;
pub mod ops;
pub mod pack;
pub mod rng;
pub mod simd;

pub use chol::{
    cholesky, cholesky_into, cholesky_solve, cholesky_solve_in_place, cholesky_solve_slices,
    solve_spd, CholError,
};
pub use gemm::{
    matmul, matmul_into, matmul_packed_scratch_into, matmul_scratch_into, matmul_ta,
    matmul_ta_into, matmul_ta_scratch_into, matmul_tb, matmul_tb_into, ta_scratch_len,
};
pub use gram::{gram, gram_into, outer_gram, outer_gram_into};
pub use mat::{Mat, MatRef};
pub use pack::PackedPanels;
