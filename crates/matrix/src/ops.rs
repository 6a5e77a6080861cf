//! Element-wise operations, norms, and inner products on [`Mat`].
//!
//! These cover the nonnegative projection and the pieces of the efficient
//! NMF objective `‖A−WH‖² = ‖A‖² − 2⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩`.

use crate::mat::Mat;

impl Mat {
    /// Squared Frobenius norm `‖M‖²_F`.
    pub fn fro_norm_sq(&self) -> f64 {
        self.as_slice().iter().map(|x| x * x).sum()
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.fro_norm_sq().sqrt()
    }

    /// Frobenius inner product `⟨self, other⟩ = Σᵢⱼ selfᵢⱼ·otherᵢⱼ`.
    pub fn fro_dot(&self, other: &Mat) -> f64 {
        assert_eq!(self.shape(), other.shape(), "fro_dot shape mismatch");
        self.as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
    }

    /// `self -= other`.
    pub fn sub_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a -= b;
        }
    }

    /// `self *= s` (scalar).
    pub fn scale(&mut self, s: f64) {
        for a in self.as_mut_slice() {
            *a *= s;
        }
    }

    /// Projects onto the nonnegative orthant: `selfᵢⱼ = max(selfᵢⱼ, 0)`.
    pub fn project_nonnegative(&mut self) {
        for a in self.as_mut_slice() {
            if *a < 0.0 {
                *a = 0.0;
            }
        }
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f64 {
        self.as_slice().iter().sum()
    }
}

/// Relative objective `‖A−WH‖_F / ‖A‖_F` computed densely (test helper for
/// small problems; the library computes the same quantity without forming
/// `WH` via the Gram identity).
pub fn dense_relative_error(a: &Mat, w: &Mat, h: &Mat) -> f64 {
    let wh = crate::gemm::matmul(w, h);
    let mut diff = a.clone();
    diff.sub_assign(&wh);
    diff.fro_norm() / a.fro_norm().max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_ta};
    use crate::gram::{gram, outer_gram};
    use crate::rng::Fill;

    #[test]
    fn norms_and_dots() {
        let m = Mat::from_rows(&[&[3.0, 0.0], &[0.0, 4.0]]);
        assert_eq!(m.fro_norm_sq(), 25.0);
        assert_eq!(m.fro_norm(), 5.0);
        assert_eq!(m.fro_dot(&Mat::eye(2)), 7.0);
    }

    #[test]
    fn objective_identity_holds() {
        // ‖A−WH‖² = ‖A‖² − 2⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩
        let a = Mat::uniform(12, 9, 31);
        let w = Mat::uniform(12, 4, 32);
        let h = Mat::uniform(4, 9, 33);
        let wh = matmul(&w, &h);
        let mut diff = a.clone();
        diff.sub_assign(&wh);
        let direct = diff.fro_norm_sq();
        let wta = matmul_ta(&w, &a);
        let indirect = a.fro_norm_sq() - 2.0 * wta.fro_dot(&h) + gram(&w).fro_dot(&outer_gram(&h));
        assert!((direct - indirect).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn projection_clamps_negatives_only() {
        let mut m = Mat::from_rows(&[&[-1.0, 2.0], &[0.0, -0.5]]);
        m.project_nonnegative();
        assert_eq!(m, Mat::from_rows(&[&[0.0, 2.0], &[0.0, 0.0]]));
    }

    #[test]
    fn sum_adds_every_entry() {
        let m = Mat::from_rows(&[&[1.0, -2.0], &[5.0, 0.0]]);
        assert_eq!(m.sum(), 4.0);
    }

    #[test]
    fn dense_relative_error_zero_for_exact_factorization() {
        let w = Mat::uniform(8, 3, 40);
        let h = Mat::uniform(3, 6, 41);
        let a = matmul(&w, &h);
        assert!(dense_relative_error(&a, &w, &h) < 1e-14);
    }
}
