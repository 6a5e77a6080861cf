//! Property tests for what balanced dealing leans on (see
//! `docs/sharded-input.md`, "Balanced dealing"): [`Csr::relabelled`]
//! renames rows and columns without touching an entry, and the skew
//! detector tells a head-heavy power-law graph from a uniform random
//! matrix at every size.

use nmf_sparse::gen::{chung_lu_power_law, erdos_renyi};
use nmf_sparse::{Csr, Skew};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniformly random permutation of `0..len` (position → index).
fn permutation(len: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    for i in (1..len).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

fn inverse(order: &[usize]) -> Vec<usize> {
    let mut pos = vec![0; order.len()];
    for (p, &i) in order.iter().enumerate() {
        pos[i] = p;
    }
    pos
}

fn sorted_bits(a: &Csr) -> Vec<u64> {
    let mut bits: Vec<u64> = a.values().iter().map(|v| v.to_bits()).collect();
    bits.sort_unstable();
    bits
}

fn skews(a: &Csr) -> (Skew, Skew) {
    (a.row_skew(), a.col_skew())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn relabelling_renames_and_loses_nothing(
        m in 1usize..60,
        n in 1usize..60,
        density in 0.0f64..0.6,
        seed in 0u64..10_000,
    ) {
        let a = erdos_renyi(m, n, density, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDEA1);
        let (rows, cols) = (permutation(m, &mut rng), permutation(n, &mut rng));
        let (pos_r, pos_c) = (inverse(&rows), inverse(&cols));

        for (row_order, col_order) in [
            (Some(&rows), Some(&cols)),
            (Some(&rows), None),
            (None, Some(&cols)),
        ] {
            let b = a.relabelled(row_order.map(|o| &o[..]), col_order.map(|o| &o[..]));
            prop_assert_eq!(b.shape(), a.shape());
            prop_assert_eq!(b.nnz(), a.nnz());
            prop_assert_eq!(sorted_bits(&b), sorted_bits(&a));
            // `from_parts` re-checks the CSR invariants: row pointers
            // span the entries, columns strictly increase within a row.
            let rebuilt = Csr::from_parts(
                m,
                n,
                b.indptr().to_vec(),
                b.indices().to_vec(),
                b.values().to_vec(),
            );
            prop_assert_eq!(&rebuilt, &b);
            for (i, &p) in pos_r.iter().enumerate() {
                let (js, vs) = a.row(i);
                for (&j, &v) in js.iter().zip(vs) {
                    let p = if row_order.is_some() { p } else { i };
                    let q = if col_order.is_some() { pos_c[j] } else { j };
                    prop_assert_eq!(b.get(p, q).to_bits(), v.to_bits());
                }
            }
        }
        prop_assert_eq!(a.relabelled(None, None), a);
    }

    #[test]
    fn uniform_random_matrices_are_never_skewed(
        m in 8usize..200,
        n in 8usize..200,
        density in 0.01f64..0.5,
        seed in 0u64..10_000,
    ) {
        let a = erdos_renyi(m, n, density, seed);
        let (rows, cols) = skews(&a);
        prop_assert!(!rows.is_skewed(), "rows {:?} of {}x{} at {}", rows, m, n, density);
        prop_assert!(!cols.is_skewed(), "cols {:?} of {}x{} at {}", cols, m, n, density);
        // A pure function of the matrix.
        prop_assert_eq!(skews(&a), (rows, cols));
        prop_assert_eq!(rows.total, a.nnz());
    }

    #[test]
    fn head_heavy_power_law_graphs_are_always_skewed(
        nodes in 200usize..800,
        edges_per_node in 2usize..8,
        seed in 0u64..10_000,
    ) {
        let g = chung_lu_power_law(nodes, nodes * edges_per_node, 2.1, seed);
        let (rows, cols) = skews(&g);
        prop_assert!(rows.is_skewed() && rows.d > 0.3, "rows {:?}", rows);
        prop_assert!(cols.is_skewed() && cols.d > 0.3, "cols {:?}", cols);
        // The bounded passes measure what the full count vectors do.
        prop_assert_eq!(rows, Skew::of(&g.row_degrees()));
        prop_assert_eq!(cols, Skew::of(&g.col_degrees()));
    }
}

/// Past 2¹⁶ nonzeros and 2¹² columns the column pass samples rows and
/// counts in buckets; it still measures what the full count does.
#[test]
fn bounded_column_pass_agrees_with_the_full_count() {
    let graph = chung_lu_power_law(20_000, 300_000, 2.1, 7);
    let uniform = erdos_renyi(9_000, 7_000, 0.004, 7);
    for (a, skewed) in [(&graph, true), (&uniform, false)] {
        assert!(a.nnz() > 1 << 17 && a.ncols() > 1 << 12);
        let (bounded, full) = (a.col_skew(), Skew::of(&a.col_degrees()));
        assert!(bounded.total < full.total, "the pass must have sampled");
        assert!((bounded.d - full.d).abs() < 0.02, "{bounded:?} vs {full:?}");
        assert_eq!(bounded.is_skewed(), skewed);
        assert_eq!(full.is_skewed(), skewed);
    }
}

#[test]
fn skew_of_degenerate_counts() {
    assert_eq!(Skew::of(&[]), Skew { d: 0.0, total: 0 });
    assert!(!Skew::of(&[0, 0, 0]).is_skewed());
    // Even counts: the prefix is the diagonal.
    assert!(Skew::of(&[5; 40]).d < 1e-12);
    // Everything in the first of 100 indices.
    let mut head = vec![0usize; 100];
    head[0] = 10_000;
    let s = Skew::of(&head);
    assert!((s.d - 0.99).abs() < 1e-12 && s.is_skewed());
    // Too few nonzeros to tell: the noise term dominates.
    assert!(!Skew::of(&[3, 0, 0, 0]).is_skewed());
}
