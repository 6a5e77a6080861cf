//! Analytic per-iteration performance model (Table 2 under α-β-γ).
//!
//! The paper's machine (600 cores of a Cray XC30) is out of reach for a
//! single-node reproduction, so paper-scale projections come from the
//! same cost analysis the paper derives in §4.3/§5, evaluated with
//! machine constants — either the Edison-like defaults or constants
//! *calibrated* from this machine's measured kernel rates
//! ([`KernelRates::calibrate`]). The real multithreaded runs at small `p`
//! validate the model's shape; the model then extends the curves to the
//! paper's processor counts.

use hpc_nmf::Grid;
use nmf_vmpi::CostModel;

/// Local-computation rates (flops/second achieved by this crate's
/// kernels, which stand in for the paper's BLAS).
#[derive(Clone, Copy, Debug)]
pub struct KernelRates {
    /// Dense/sparse matrix-multiply kernels (`MM` task).
    pub mm_flops: f64,
    /// Gram kernels.
    pub gram_flops: f64,
    /// NLS solve throughput in "normal-equation flops" (`≈ 4·r·k²` per
    /// BPP solve of `r` right-hand sides); MU/HALS run at `2·r·k²`.
    pub nls_flops: f64,
}

impl Default for KernelRates {
    /// Rates representative of one Edison core running tuned BLAS
    /// (the paper's setting): a few Gflop/s for BLAS-3, less for the
    /// irregular NLS work.
    fn default() -> Self {
        KernelRates {
            mm_flops: 5e9,
            gram_flops: 4e9,
            nls_flops: 1e9,
        }
    }
}

impl KernelRates {
    /// Measures this machine's actual kernel rates with short
    /// microbenchmarks (used by the bench harness so model projections
    /// reflect the Rust kernels rather than vendor BLAS).
    pub fn calibrate() -> Self {
        use nmf_matrix::rng::Fill;
        use nmf_matrix::Mat;
        use std::time::Instant;

        let (m, n, k) = (600, 400, 50);
        let a = Mat::uniform(m, n, 1);
        let ht = Mat::uniform(n, k, 2);

        let t0 = Instant::now();
        let _v = nmf_matrix::matmul(&a, &ht);
        let mm = 2.0 * (m * n * k) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

        let t0 = Instant::now();
        let g = nmf_matrix::gram(&ht);
        let gram = (n * k * k) as f64 / t0.elapsed().as_secs_f64().max(1e-9);

        let ctb = nmf_matrix::matmul_ta(&Mat::uniform(n, m, 3), &a.transpose());
        let _ = &ctb;
        let bpp = nmf_nls_probe(&g, n, k);

        KernelRates {
            mm_flops: mm,
            gram_flops: gram,
            nls_flops: bpp,
        }
    }
}

fn nmf_nls_probe(g: &nmf_matrix::Mat, r: usize, k: usize) -> f64 {
    use nmf_matrix::rng::Fill;
    use nmf_matrix::Mat;
    use nmf_nls::{Bpp, NlsSolver};
    use std::time::Instant;
    let ctb = Mat::gaussian(r, k, 4);
    let mut x = Mat::zeros(r, k);
    let t0 = Instant::now();
    Bpp::default().update(g, &ctb, &mut x);
    4.0 * (r * k * k) as f64 / t0.elapsed().as_secs_f64().max(1e-9)
}

/// A problem instance for the model.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub m: usize,
    pub n: usize,
    pub k: usize,
    /// Stored nonzeros; `m·n` for dense inputs.
    pub nnz: usize,
    pub sparse: bool,
}

impl Workload {
    pub fn dense(m: usize, n: usize, k: usize) -> Self {
        Workload {
            m,
            n,
            k,
            nnz: m * n,
            sparse: false,
        }
    }

    pub fn sparse(m: usize, n: usize, k: usize, nnz: usize) -> Self {
        Workload {
            m,
            n,
            k,
            nnz,
            sparse: true,
        }
    }
}

/// Machine model: α-β-γ plus kernel rates.
#[derive(Clone, Copy, Debug)]
pub struct PerfModel {
    pub net: CostModel,
    pub rates: KernelRates,
}

impl Default for PerfModel {
    fn default() -> Self {
        PerfModel {
            net: CostModel::edison_like(),
            rates: KernelRates::default(),
        }
    }
}

/// Modeled seconds per iteration, broken down by the paper's six tasks
/// (§6.3).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Breakdown {
    pub mm: f64,
    pub nls: f64,
    pub gram: f64,
    pub all_gather: f64,
    pub reduce_scatter: f64,
    pub all_reduce: f64,
}

impl Breakdown {
    pub fn total(&self) -> f64 {
        self.mm + self.nls + self.gram + self.all_gather + self.reduce_scatter + self.all_reduce
    }

    pub fn comm(&self) -> f64 {
        self.all_gather + self.reduce_scatter + self.all_reduce
    }

    pub fn compute(&self) -> f64 {
        self.mm + self.nls + self.gram
    }
}

impl PerfModel {
    /// NLS cost shared by every algorithm: solve `(m+n)/p` right-hand
    /// sides of rank `k` (the paper's `C_BPP((m+n)/p, k)` term).
    fn nls_seconds(&self, w: &Workload, p: usize) -> f64 {
        4.0 * ((w.m + w.n) as f64 / p as f64) * (w.k * w.k) as f64 / self.rates.nls_flops
    }

    /// Per-iteration model of HPC-NMF (Algorithm 3) on `grid`.
    pub fn hpc(&self, w: &Workload, grid: Grid) -> Breakdown {
        let p = grid.size() as f64;
        let (m, n, k) = (w.m as f64, w.n as f64, w.k as f64);
        // MM: two products touching every stored entry once each
        // (2·nnz·k flops per product), split over p ranks.
        let mm_flops = 4.0 * (w.nnz as f64 / p) * k;
        // Gram: local k×k Grams of the factor slices.
        let gram_flops = (m + n) / p * k * k;
        Breakdown {
            mm: mm_flops / self.rates.mm_flops,
            nls: self.nls_seconds(w, grid.size()),
            gram: gram_flops / self.rates.gram_flops,
            all_gather: self
                .net
                .all_gather(grid.pr, (n / grid.pc as f64 * k) as usize)
                + self
                    .net
                    .all_gather(grid.pc, (m / grid.pr as f64 * k) as usize),
            reduce_scatter: self
                .net
                .reduce_scatter(grid.pc, (m / grid.pr as f64 * k) as usize)
                + self
                    .net
                    .reduce_scatter(grid.pr, (n / grid.pc as f64 * k) as usize),
            all_reduce: 2.0 * self.net.all_reduce(grid.size(), w.k * w.k),
        }
    }

    /// Per-iteration model of Naive-Parallel-NMF (Algorithm 2) on `p`
    /// ranks.
    pub fn naive(&self, w: &Workload, p: usize) -> Breakdown {
        let pf = p as f64;
        let (m, n, k) = (w.m as f64, w.n as f64, w.k as f64);
        // A is stored twice; each product touches one copy: 2·nnz·k per
        // product, each split over p.
        let mm_flops = 4.0 * (w.nnz as f64 / pf) * k;
        // Gram matrices are computed redundantly from the FULL factors.
        let gram_flops = (m + n) * k * k;
        Breakdown {
            mm: mm_flops / self.rates.mm_flops,
            nls: self.nls_seconds(w, p),
            gram: gram_flops / self.rates.gram_flops,
            all_gather: self.net.all_gather(p, (n * k) as usize)
                + self.net.all_gather(p, (m * k) as usize),
            reduce_scatter: 0.0,
            all_reduce: self.net.all_reduce(p, 2),
        }
    }

    /// Model for the named algorithm/grid combination. Sequential is
    /// HPC-NMF on its 1×1 grid, where every collective costs nothing.
    pub fn breakdown(&self, w: &Workload, algo: hpc_nmf::Algo, p: usize) -> Breakdown {
        match algo {
            hpc_nmf::Algo::Naive => self.naive(w, p),
            other => self.hpc(w, other.grid(w.m, w.n, p)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpc_nmf::Algo;

    fn ssyn() -> Workload {
        Workload::sparse(
            172_800,
            115_200,
            50,
            (172_800.0 * 115_200.0 * 0.001) as usize,
        )
    }

    fn dsyn() -> Workload {
        Workload::dense(172_800, 115_200, 50)
    }

    fn video() -> Workload {
        Workload::dense(1_013_400, 2_400, 50)
    }

    #[test]
    fn hpc2d_beats_naive_on_squarish_at_scale() {
        let pm = PerfModel::default();
        for w in [ssyn(), dsyn()] {
            let naive = pm.breakdown(&w, Algo::Naive, 600);
            let hpc = pm.breakdown(&w, Algo::Hpc2D, 600);
            assert!(
                hpc.total() < naive.total(),
                "HPC-2D should win: {} vs {}",
                hpc.total(),
                naive.total()
            );
            assert!(hpc.comm() < naive.comm());
        }
    }

    #[test]
    fn naive_is_communication_bound_on_sparse() {
        // Fig 3a: Naive on SSYN spends most time in All-Gather.
        let pm = PerfModel::default();
        let b = pm.breakdown(&ssyn(), Algo::Naive, 600);
        assert!(
            b.comm() > b.compute(),
            "naive sparse should be comm-bound: {b:?}"
        );
    }

    #[test]
    fn hpc_stays_computation_bound() {
        // §7: "the problems remain computation bound on up to 600
        // processors" for HPC-NMF.
        let pm = PerfModel::default();
        for w in [dsyn(), video()] {
            let b = pm.breakdown(&w, Algo::Hpc2D, 600);
            assert!(b.compute() > b.comm(), "HPC should be compute-bound: {b:?}");
        }
    }

    #[test]
    fn video_1d_and_2d_are_comparable() {
        // Fig 3g: on the tall-skinny Video matrix both grids are
        // computation bound, so totals are close.
        let pm = PerfModel::default();
        let one = pm.breakdown(&video(), Algo::Hpc1D, 600);
        let two = pm.breakdown(&video(), Algo::Hpc2D, 600);
        let ratio = one.total() / two.total();
        assert!(
            (0.8..1.25).contains(&ratio),
            "1D/2D ratio {ratio} should be near 1"
        );
    }

    #[test]
    fn strong_scaling_decreases_compute() {
        let pm = PerfModel::default();
        let mut prev = f64::INFINITY;
        for p in [24, 96, 216, 384, 600] {
            let b = pm.breakdown(&dsyn(), Algo::Hpc2D, p);
            assert!(b.compute() < prev, "compute must shrink with p");
            prev = b.compute();
        }
    }

    #[test]
    fn grid_optimal_has_the_least_modeled_comm_of_every_grid() {
        // DSYN at p = 600: 30x20 reads 0.0281 s, its neighbours 25x24
        // 0.0286 s and 40x15 0.0293 s (MPI-FAUN §5 makes the same case).
        let pm = PerfModel::default();
        let w = dsyn();
        let optimal = Grid::optimal(w.m, w.n, 600);
        assert_eq!((optimal.pr, optimal.pc), (30, 20));
        let best = pm.hpc(&w, optimal).comm();
        for pr in (1..=600).filter(|pr| 600usize.is_multiple_of(*pr)) {
            let grid = Grid::new(pr, 600 / pr);
            if grid != optimal {
                let comm = pm.hpc(&w, grid).comm();
                assert!(best < comm, "{grid:?} models {comm} s, 30x20 {best} s");
            }
        }
    }

    #[test]
    fn naive_gram_does_not_scale() {
        let pm = PerfModel::default();
        let a = pm.breakdown(&dsyn(), Algo::Naive, 24);
        let b = pm.breakdown(&dsyn(), Algo::Naive, 600);
        assert_eq!(a.gram, b.gram, "redundant Gram is independent of p");
    }

    #[test]
    fn sequential_has_no_communication() {
        let pm = PerfModel::default();
        let b = pm.breakdown(&dsyn(), Algo::Sequential, 1);
        assert_eq!(b.comm(), 0.0);
    }

    #[test]
    fn calibration_returns_positive_rates() {
        let r = KernelRates::calibrate();
        assert!(r.mm_flops > 1e6 && r.mm_flops.is_finite());
        assert!(r.gram_flops > 1e6);
        assert!(r.nls_flops > 1e5);
    }
}
