//! Hierarchical Alternating Least Squares (Cichocki et al.).
//!
//! One sweep of block coordinate descent over the `k` components (paper
//! Eq. 4), in the row-wise layout: for component `j`,
//!
//! ```text
//!   X[:,j] ← max(0, (CtB[:,j] − X·G[:,j] + X[:,j]·Gⱼⱼ) / Gⱼⱼ)
//! ```
//!
//! where components are updated in order so later components see the
//! fresh values of earlier ones. Cost per sweep is `2rk²` flops — the
//! same "extra computation" term as MU, but HALS converges much faster
//! per sweep in practice.

use crate::NlsSolver;
use nmf_matrix::gemm::dot;
use nmf_matrix::Mat;

/// Components whose Gram diagonal falls below this are reset to zero
/// (a dead component; standard guard).
const EPS: f64 = 1e-14;

/// HALS solver (one block-coordinate sweep per call).
#[derive(Clone, Debug, Default)]
pub struct Hals;

impl NlsSolver for Hals {
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        assert_eq!(x.shape(), ctb.shape());
        let k = x.ncols();
        assert_eq!(gram.shape(), (k, k));
        let r = x.nrows();
        for j in 0..k {
            let gjj = gram[(j, j)];
            // Symmetric G: column j equals row j, which is contiguous.
            let gj = gram.row(j);
            if gjj <= EPS {
                for i in 0..r {
                    x[(i, j)] = 0.0;
                }
                continue;
            }
            for i in 0..r {
                let xi = x.row_mut(i);
                // residual = CtB[i,j] − ⟨x_i, G[:,j]⟩ + x_ij·G_jj
                let xg = dot(xi, gj);
                let v = (ctb[(i, j)] - xg + xi[j] * gjj) / gjj;
                xi[j] = v.max(0.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nls_objective;
    use crate::reference::exhaustive_nnls;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta};

    fn instance(k: usize, r: usize, seed: u64) -> (Mat, Mat) {
        let c = Mat::uniform(3 * k, k, seed);
        let b = Mat::uniform(3 * k, r, seed + 1);
        (gram(&c), matmul_ta(&b, &c))
    }

    #[test]
    fn objective_decreases_monotonically() {
        let (g, ctb) = instance(6, 10, 61);
        let mut x = Mat::uniform(10, 6, 62);
        let mut hals = Hals;
        let mut prev = nls_objective(&g, &ctb, &x);
        for _ in 0..25 {
            hals.update(&g, &ctb, &mut x);
            let cur = nls_objective(&g, &ctb, &x);
            assert!(
                cur <= prev + 1e-9 * prev.abs().max(1.0),
                "HALS increased objective"
            );
            prev = cur;
        }
    }

    #[test]
    fn converges_to_exhaustive_optimum() {
        // Coordinate descent on a strictly convex problem converges to
        // the global NNLS optimum; 200 sweeps on a tiny instance is ample.
        let (g, ctb) = instance(4, 3, 63);
        let mut x = Mat::uniform(3, 4, 64);
        let mut hals = Hals;
        for _ in 0..200 {
            hals.update(&g, &ctb, &mut x);
        }
        for i in 0..3 {
            let expect = exhaustive_nnls(&g, ctb.row(i));
            for j in 0..4 {
                assert!(
                    (x[(i, j)] - expect[j]).abs() < 1e-5,
                    "row {i}: got {:?}, expected {:?}",
                    x.row(i),
                    expect
                );
            }
        }
    }

    #[test]
    fn preserves_nonnegativity_and_finiteness() {
        let (g, ctb) = instance(5, 7, 65);
        let mut x = Mat::uniform(7, 5, 66);
        let mut hals = Hals;
        for _ in 0..10 {
            hals.update(&g, &ctb, &mut x);
            assert!(x.all_nonnegative());
            assert!(x.all_finite());
        }
    }

    #[test]
    fn dead_component_is_zeroed() {
        let mut g = Mat::eye(3);
        g[(2, 2)] = 0.0; // dead component
        let ctb = Mat::filled(4, 3, 1.0);
        let mut x = Mat::filled(4, 3, 0.5);
        Hals.update(&g, &ctb, &mut x);
        for i in 0..4 {
            assert_eq!(x[(i, 2)], 0.0);
            assert_eq!(x[(i, 0)], 1.0); // identity G: x = ctb
        }
    }
}
