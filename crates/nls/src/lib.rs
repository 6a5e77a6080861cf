//! Nonnegative least squares (NLS) solvers on normal equations.
//!
//! Both alternating updates in the ANLS framework reduce to many
//! independent single-right-hand-side NLS problems (paper Eq. 5):
//!
//! ```text
//!   min_{x ≥ 0} ‖Cx − b‖²
//! ```
//!
//! whose data enters only through the `k×k` Gram matrix `G = CᵀC` and the
//! vector `Cᵀb`. We adopt the layout used throughout the reproduction: the
//! right-hand sides are the **rows** of an `r×k` matrix `CtB` (row `i`
//! holds `Cᵀbᵢ`), and the unknowns are the rows of an `r×k` matrix `X`.
//! The `W`-update (`r = m/p` rows of `W`) and the `H`-update (`r = n/p`
//! columns of `H`, stored transposed) then share one code path.
//!
//! Three solvers implement [`NlsSolver`]:
//!
//! * [`Bpp`] — **Block Principal Pivoting** (Kim & Park 2011), the
//!   paper's solver of choice: an active-set-like method that swaps whole
//!   blocks of variables between the active and passive sets, with
//!   Murty's single-swap backup rule to guarantee termination. Includes
//!   the classic multi-RHS optimization of grouping rows that share a
//!   passive set so each distinct `G_FF` is factorized once.
//! * [`Mu`] — Lee & Seung's multiplicative update (one damped step per
//!   outer iteration).
//! * [`Hals`] — hierarchical alternating least squares (one sweep of
//!   block coordinate descent over the `k` components).
//!
//! [`reference::exhaustive_nnls`] solves the same problem by enumerating
//! all `2^k` active sets; tests use it as ground truth for small `k`.

pub mod bpp;
pub mod hals;
pub mod mu;
mod objective;
pub mod reference;

#[cfg(doc)]
use nmf_matrix::gemm::{dot, dot4};
use nmf_matrix::Mat;
use objective::RowObjective;

pub use bpp::{Bpp, BppStats};
pub use hals::Hals;
pub use mu::Mu;

/// A solver for the row-wise NLS problem
/// `minimize Σᵢ ‖xᵢ‖²_G − 2·xᵢᵀ·CtBᵢ  subject to X ≥ 0`.
///
/// `update` takes `&mut self` so solvers can keep reusable workspaces
/// (pivot states, sort keys, factor buffers) across the one-call-
/// per-factor-per-iteration pattern of the ANLS drivers — the scratch is
/// buffer reuse only and must never carry *information* between calls
/// (every call's result is a pure function of `gram`, `ctb`, and `x`).
pub trait NlsSolver {
    /// Improves (or exactly solves, for BPP) `x` in place.
    ///
    /// * `gram` — `k×k` symmetric positive semidefinite `CᵀC`;
    /// * `ctb`  — `r×k`, row `i` is `Cᵀbᵢ`;
    /// * `x`    — `r×k` current iterate (must be nonnegative on entry).
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat);
}

/// The solver menu exposed by the NMF drivers (paper §4: "the parallel
/// algorithm ... can be easily extended for other algorithms such as MU
/// and HALS").
///
/// The discriminants are the solver's stable **tag** in every byte
/// format that names one (serve frames, checkpoints): never renumber.
/// Tag 3 is retired (a fourth solver, since removed) and must never be
/// reused: a frame or checkpoint carrying it is refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Block principal pivoting (exact NLS solve per outer iteration).
    Bpp = 0,
    /// Multiplicative update.
    Mu = 1,
    /// Hierarchical alternating least squares.
    Hals = 2,
}

impl SolverKind {
    /// Instantiates the solver with default settings.
    pub fn build(self) -> Box<dyn NlsSolver + Send> {
        match self {
            SolverKind::Bpp => Box::new(Bpp::default()),
            SolverKind::Mu => Box::new(Mu::default()),
            SolverKind::Hals => Box::new(Hals),
        }
    }

    pub const ALL: [SolverKind; 3] = [SolverKind::Bpp, SolverKind::Mu, SolverKind::Hals];

    /// The name command lines use.
    pub fn name(self) -> &'static str {
        match self {
            SolverKind::Bpp => "bpp",
            SolverKind::Mu => "mu",
            SolverKind::Hals => "hals",
        }
    }

    /// The stable numeric tag (see the enum's note).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// The solver with that [`tag`](Self::tag), if any.
    pub fn from_tag(tag: u8) -> Option<SolverKind> {
        Self::ALL.into_iter().find(|s| s.tag() == tag)
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    /// The solver whose [`name`](SolverKind::name) is `s`.
    fn from_str(s: &str) -> Result<Self, String> {
        let found = SolverKind::ALL.into_iter().find(|k| k.name() == s);
        found.ok_or_else(|| {
            let names = SolverKind::ALL.map(SolverKind::name).join(" | ");
            format!("unknown solver '{s}' (expected {names})")
        })
    }
}

/// The (shifted) objective `Σᵢ xᵢᵀ·G·xᵢ − 2·xᵢᵀ·bᵢ`; differs from
/// `Σ‖Cxᵢ−bᵢ‖²` by the constant `Σ‖bᵢ‖²`, so it orders solutions
/// identically. Used by BPP's monotonicity guard and by tests to verify
/// monotonicity and optimality. Allocates nothing.
pub fn nls_objective(gram: &Mat, ctb: &Mat, x: &Mat) -> f64 {
    assert_eq!(x.shape(), ctb.shape());
    assert_eq!(gram.nrows(), x.ncols());
    objective_rows(gram, ctb.as_slice(), x.as_slice())
}

/// [`nls_objective`] over row-major `r×k` slices.
///
/// The value is the one the dense form `X·Gᵀ` ([`nmf_matrix::matmul_tb`])
/// followed by a running sum over `(i, j)` produces, bit for bit. A row
/// with a few nonzeros is summed over its support: each `(G·xᵢ)ⱼ` from the
/// support's products alone, in the lane order of the [`dot4`]/[`dot`]
/// reduction the product would call. Every product and term left out is
/// a signed zero, which cannot change a running sum that started at
/// `+0.0` — provided `G`, `bᵢ` and `xᵢ` are finite and `xᵢ` is small
/// enough that no partial sum overflows. A row that fails those tests
/// (`0·∞` is NaN in the dense form), or whose support holds more than a
/// quarter of the `k` variables, takes the product's own `dot4` over
/// every 4-column block holding a nonzero. So the cost follows the
/// nonzeros of `x`: `|S|` fused steps per 4-column block meeting a
/// support `S`.
pub(crate) fn objective_rows(gram: &Mat, ctb: &[f64], x: &[f64]) -> f64 {
    let k = gram.nrows();
    if k == 0 {
        return 0.0;
    }
    // Rows wider than a `u128` mask are summed dense whatever they hold.
    let support = |_, xi: &[f64]| match k {
        ..=128 => objective::scan_row(xi).support,
        _ => u128::MAX,
    };
    RowObjective::new(gram).sum(ctb, x, support)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta};

    #[test]
    fn objective_matches_residual_up_to_constant() {
        let c = Mat::gaussian(12, 4, 1);
        let b = Mat::gaussian(12, 3, 2);
        let g = gram(&c);
        let ctb = matmul_ta(&b, &c); // rows are Cᵀbᵢ: (BᵀC) is r×k
        let x = Mat::uniform(3, 4, 3);
        // Direct residual: Σᵢ ‖C xᵢ − bᵢ‖².
        let mut direct = 0.0;
        for i in 0..3 {
            for row in 0..12 {
                let mut cx = 0.0;
                for j in 0..4 {
                    cx += c[(row, j)] * x[(i, j)];
                }
                let d = cx - b[(row, i)];
                direct += d * d;
            }
        }
        let shifted = nls_objective(&g, &ctb, &x) + b.fro_norm_sq();
        assert!((direct - shifted).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn objective_equals_dense_form_bit_for_bit() {
        // Widths on both sides of the dispatched dot products' SIMD
        // threshold (32) and with every `k % 4` tail; `x` sparse enough
        // that whole four-column blocks and whole rows are skipped.
        for k in [1usize, 3, 4, 8, 31, 32, 33, 64, 65, 127, 130] {
            let r = 37;
            let c = Mat::gaussian(2 * k + 3, k, k as u64);
            let g = gram(&c);
            let ctb = Mat::gaussian(r, k, 100 + k as u64);
            let mut x = Mat::uniform(r, k, 200 + k as u64);
            for (at, v) in x.as_mut_slice().iter_mut().enumerate() {
                if (at * 7 + at / k) % 5 != 0 || (at / k) % 6 == 0 {
                    *v = 0.0;
                }
            }
            let xg = nmf_matrix::matmul_tb(&x, &g);
            let mut dense = 0.0;
            for i in 0..r {
                for j in 0..k {
                    dense += x[(i, j)] * xg[(i, j)] - 2.0 * x[(i, j)] * ctb[(i, j)];
                }
            }
            assert_eq!(nls_objective(&g, &ctb, &x), dense, "k = {k}");
        }
    }

    #[test]
    fn solver_kinds_build() {
        for kind in SolverKind::ALL {
            let mut s = kind.build();
            let (g, ctb) = (Mat::eye(2), Mat::filled(1, 2, 1.0));
            let mut x = Mat::filled(1, 2, 0.5);
            s.update(&g, &ctb, &mut x);
            assert_eq!(x, Mat::filled(1, 2, 1.0), "{kind:?}");
            assert_eq!(kind.name().parse(), Ok(kind));
        }
    }
}
