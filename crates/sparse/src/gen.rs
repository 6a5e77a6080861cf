//! Random sparse matrix generators.
//!
//! * [`erdos_renyi`] reproduces the paper's SSYN dataset: "a random sparse
//!   Erdős–Rényi matrix ... every entry is nonzero with probability
//!   `density`" (§6.1.1).
//! * [`chung_lu_power_law`] stands in for the webbase-2001 crawl graph: a
//!   directed graph whose in/out degree sequences follow a power law, the
//!   regime that makes per-row work highly imbalanced (the load-imbalance
//!   effect the paper's §7 discusses). Node weights fall with the node
//!   index, as in a crawl that reaches the hubs first, so the nonzeros
//!   crowd the head of both index ranges ([`crate::Skew`] measures 0.5
//!   and more): the input the core crate's balanced dealing exists for
//!   (`docs/sharded-input.md`).
//! * [`banded`] is a deterministic structured generator used by tests.

use crate::coo::Coo;
use crate::csr::Csr;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Erdős–Rényi sparse matrix: each entry is present independently with
/// probability `density`; values are uniform on `[0, 1)`.
///
/// Sampling uses geometric skips between hits, so generation costs
/// `O(nnz)` rather than `O(m·n)` — necessary at the paper's scale
/// (172,800 × 115,200 at density 0.001 would otherwise visit 2·10¹⁰
/// cells).
pub fn erdos_renyi(nrows: usize, ncols: usize, density: f64, seed: u64) -> Csr {
    assert!((0.0..=1.0).contains(&density), "density must be in [0,1]");
    let mut rng = StdRng::seed_from_u64(seed);
    let expected = (nrows as f64 * ncols as f64 * density) as usize;
    let mut coo = Coo::with_capacity(nrows, ncols, expected + 16);
    if density == 0.0 || nrows == 0 || ncols == 0 {
        return coo.to_csr();
    }
    if density >= 1.0 {
        for i in 0..nrows {
            for j in 0..ncols {
                coo.push(i, j, rng.gen::<f64>());
            }
        }
        return coo.to_csr();
    }
    let total = nrows as u128 * ncols as u128;
    let log_q = (1.0 - density).ln();
    // Walk the flattened index space with geometric gaps.
    let mut pos: u128 = 0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let skip = (u.ln() / log_q).floor() as u128;
        pos += skip;
        if pos >= total {
            break;
        }
        let i = (pos / ncols as u128) as usize;
        let j = (pos % ncols as u128) as usize;
        coo.push(i, j, rng.gen::<f64>());
        pos += 1;
        if pos >= total {
            break;
        }
    }
    coo.to_csr()
}

/// Chung–Lu random digraph with power-law expected degrees.
///
/// Node `v`'s expected out-degree weight is `(v+1)^(-1/(gamma-1))`,
/// normalized so the expected edge count is `target_edges`. Edges are
/// sampled by drawing endpoints proportional to the weights, giving the
/// heavy-tailed degree distribution of a web crawl. Edge weights are 1.0
/// (adjacency), matching NMF-for-graph-clustering usage.
pub fn chung_lu_power_law(nodes: usize, target_edges: usize, gamma: f64, seed: u64) -> Csr {
    assert!(gamma > 1.0, "power-law exponent must exceed 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let expo = -1.0 / (gamma - 1.0);
    // Cumulative weight table for inverse-CDF sampling of endpoints.
    let mut cum = Vec::with_capacity(nodes);
    let mut acc = 0.0;
    for v in 0..nodes {
        acc += ((v + 1) as f64).powf(expo);
        cum.push(acc);
    }
    let total_w = acc;
    let sample = |rng: &mut StdRng, cum: &[f64]| -> usize {
        let t: f64 = rng.gen_range(0.0..total_w);
        cum.partition_point(|&c| c <= t).min(nodes - 1)
    };
    let mut coo = Coo::with_capacity(nodes, nodes, target_edges);
    for _ in 0..target_edges {
        let src = sample(&mut rng, &cum);
        let dst = sample(&mut rng, &cum);
        coo.push(src, dst, 1.0);
    }
    coo.to_csr()
}

/// Deterministic banded matrix: entry `(i, j)` is `1 + |i−j|⁻¹`-ish inside
/// the band `|i−j| ≤ half_bandwidth`, zero outside.
pub fn banded(n: usize, half_bandwidth: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        let lo = i.saturating_sub(half_bandwidth);
        let hi = (i + half_bandwidth + 1).min(n);
        for j in lo..hi {
            let d = i.abs_diff(j);
            coo.push(i, j, 1.0 / (1.0 + d as f64));
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erdos_renyi_density_is_close() {
        let m = erdos_renyi(500, 400, 0.01, 77);
        let expected = 500.0 * 400.0 * 0.01;
        let got = m.nnz() as f64;
        assert!(
            (got - expected).abs() < 4.0 * expected.sqrt() + 10.0,
            "nnz {got} too far from expected {expected}"
        );
        assert!(m.to_dense().all_nonnegative());
    }

    #[test]
    fn erdos_renyi_is_deterministic() {
        assert_eq!(erdos_renyi(50, 50, 0.1, 5), erdos_renyi(50, 50, 0.1, 5));
        assert_ne!(erdos_renyi(50, 50, 0.1, 5), erdos_renyi(50, 50, 0.1, 6));
    }

    #[test]
    fn erdos_renyi_extreme_densities() {
        assert_eq!(erdos_renyi(10, 10, 0.0, 1).nnz(), 0);
        assert_eq!(erdos_renyi(10, 10, 1.0, 1).nnz(), 100);
    }

    #[test]
    fn chung_lu_has_heavy_head() {
        let g = chung_lu_power_law(1000, 5000, 2.1, 9);
        assert!(
            g.nnz() > 0 && g.nnz() <= 5000,
            "duplicates may merge: {}",
            g.nnz()
        );
        let mut deg = g.row_degrees();
        deg.sort_unstable_by(|a, b| b.cmp(a));
        // Power-law: the top node should hold far more than the mean degree.
        let mean = g.nnz() as f64 / 1000.0;
        assert!(
            deg[0] as f64 > 5.0 * mean,
            "top degree {} not heavy-tailed vs mean {mean}",
            deg[0]
        );
    }

    #[test]
    fn banded_structure() {
        let b = banded(6, 1);
        assert_eq!(b.nnz(), 6 + 2 * 5); // diagonal + two off-diagonals
        assert_eq!(b.get(0, 0), 1.0);
        assert_eq!(b.get(0, 2), 0.0);
        assert_eq!(b.get(3, 2), 0.5);
    }
}
