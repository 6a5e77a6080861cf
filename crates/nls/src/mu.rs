//! Multiplicative update (Lee & Seung, NIPS 2001).
//!
//! One outer ANLS iteration applies the rule (paper Eq. 3), here in the
//! row-wise layout:
//!
//! ```text
//!   Xᵢⱼ ← Xᵢⱼ · CtBᵢⱼ / (X·G)ᵢⱼ
//! ```
//!
//! The update never leaves the nonnegative orthant (given nonnegative
//! input data) and monotonically decreases the NLS objective, but
//! converges slowly — which is exactly why the paper prefers BPP and why
//! MU makes communication the dominant cost (§7).

use crate::NlsSolver;
use nmf_matrix::{matmul_tb_into, Mat};

/// Denominator floor guarding division by zero.
const EPS: f64 = 1e-16;

/// Multiplicative-update solver (one step per call).
#[derive(Clone, Debug, Default)]
pub struct Mu {
    /// Reused denominator buffer (`X·G`, r×k); buffer reuse only.
    pub scratch: Mat,
}

impl NlsSolver for Mu {
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        assert_eq!(x.shape(), ctb.shape());
        assert_eq!(gram.nrows(), x.ncols());
        // Denominator X·G (G symmetric, so X·Gᵀ = X·G); 2rk² flops, the
        // "extra computation" the paper counts for MU.
        // The W and H solves alternate shapes: reshape within the storage
        // (no allocation, no memset); the product writes every entry.
        self.scratch.reserve(x.len());
        self.scratch.reshape(x.nrows(), x.ncols());
        let den = &mut self.scratch;
        matmul_tb_into(x, gram, den);
        // MU cannot escape exact zeros; the conventional fix (also in
        // MATLAB's nnmf and the paper's reference implementations) is to
        // floor the numerator at 0 — the input CtB may carry negative
        // entries when the data matrix has them, and clamping keeps the
        // iterate nonnegative.
        for ((xv, &num), &d) in x
            .as_mut_slice()
            .iter_mut()
            .zip(ctb.as_slice())
            .zip(den.as_slice())
        {
            let n = num.max(0.0);
            *xv *= n / d.max(EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nls_objective;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta};

    fn nonneg_instance(k: usize, r: usize, seed: u64) -> (Mat, Mat) {
        let c = Mat::uniform(3 * k, k, seed);
        let b = Mat::uniform(3 * k, r, seed + 1);
        (gram(&c), matmul_ta(&b, &c))
    }

    #[test]
    fn objective_decreases_monotonically() {
        let (g, ctb) = nonneg_instance(6, 10, 51);
        let mut x = Mat::uniform(10, 6, 52);
        let mut mu = Mu::default();
        let mut prev = nls_objective(&g, &ctb, &x);
        for _ in 0..25 {
            mu.update(&g, &ctb, &mut x);
            let cur = nls_objective(&g, &ctb, &x);
            assert!(
                cur <= prev + 1e-9 * prev.abs().max(1.0),
                "MU increased objective"
            );
            prev = cur;
        }
    }

    #[test]
    fn preserves_nonnegativity() {
        let (g, ctb) = nonneg_instance(5, 8, 53);
        let mut x = Mat::uniform(8, 5, 54);
        let mut mu = Mu::default();
        for _ in 0..10 {
            mu.update(&g, &ctb, &mut x);
            assert!(x.all_nonnegative());
            assert!(x.all_finite());
        }
    }

    #[test]
    fn fixed_point_of_exact_solution() {
        // If X already satisfies X·G = CtB with X > 0, the ratio is 1 and
        // MU leaves it unchanged.
        let k = 4;
        let g = {
            let c = Mat::uniform(12, k, 55);
            gram(&c)
        };
        let x_true = Mat::uniform(6, k, 56);
        let ctb = nmf_matrix::matmul_tb(&x_true, &g);
        let mut x = x_true.clone();
        Mu::default().update(&g, &ctb, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-10);
    }

    #[test]
    fn zeros_stay_zero() {
        let (g, ctb) = nonneg_instance(4, 3, 57);
        let mut x = Mat::zeros(3, 4);
        Mu::default().update(&g, &ctb, &mut x);
        assert_eq!(x, Mat::zeros(3, 4));
    }
}
