//! Property-based integration tests: distribution/grid invariants and
//! the parallel-equals-sequential property over randomized shapes,
//! ranks, grids, and solvers.

use hpc_nmf::dist::Dist1D;
use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use proptest::prelude::*;

/// `algo` on `p` ranks over `input`, run to its stopping condition.
fn fit(input: &Input, p: usize, algo: Algo, config: &NmfConfig) -> NmfOutput {
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(p)
        .build()
        .expect("valid request");
    model.run();
    model.into_output()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn dist1d_tiles_and_balances(total in 0usize..500, parts in 1usize..20) {
        let d = Dist1D::new(total, parts);
        let mut covered = 0usize;
        let mut min_len = usize::MAX;
        let mut max_len = 0usize;
        for i in 0..parts {
            let p = d.part(i);
            prop_assert_eq!(p.offset, covered);
            covered += p.len;
            min_len = min_len.min(p.len);
            max_len = max_len.max(p.len);
        }
        prop_assert_eq!(covered, total);
        prop_assert!(max_len - min_len <= 1);
        for g in 0..total {
            let o = d.owner(g);
            let p = d.part(o);
            prop_assert!(g >= p.offset && g < p.end());
        }
    }

    #[test]
    fn grid_optimal_minimizes_bandwidth_proxy(
        m in 10usize..100_000,
        n in 10usize..100_000,
        p in 1usize..64,
    ) {
        let g = Grid::optimal(m, n, p);
        prop_assert_eq!(g.pr * g.pc, p);
        let cost = |pr: usize, pc: usize| (pr - 1) as f64 * n as f64 + (pc - 1) as f64 * m as f64;
        for pr in 1..=p {
            if p % pr == 0 {
                prop_assert!(
                    cost(g.pr, g.pc) <= cost(pr, p / pr),
                    "grid {:?} beaten by {}x{}", g, pr, p / pr
                );
            }
        }
    }

    #[test]
    fn hpc_matches_sequential_on_random_shapes(
        m in 8usize..48,
        n in 8usize..48,
        pick in 0usize..5,
        seed in 0u64..1000,
    ) {
        let p = [2usize, 3, 4, 6, 8][pick];
        let k = 3usize.min(m.min(n));
        let input = Input::Dense(Mat::uniform(m, n, seed));
        let config = NmfConfig::new(k).with_max_iters(3).with_seed(seed);
        let seq = fit(&input, 1, Algo::Sequential, &config);
        let par = fit(&input, p, Algo::Hpc2D, &config);
        prop_assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8 && par.h.max_abs_diff(&seq.h) < 1e-8,
            "p={p} {}x{} seed={seed} diverged", m, n
        );
    }

    #[test]
    fn factors_always_nonnegative_and_finite(
        m in 8usize..40,
        n in 8usize..40,
        solver_pick in 0usize..3,
        seed in 0u64..500,
    ) {
        let solver = SolverKind::ALL[solver_pick];
        let input = Input::Dense(Mat::uniform(m, n, seed));
        let k = 2;
        let out = fit(
            &input, 4, Algo::Hpc2D,
            &NmfConfig::new(k).with_max_iters(3).with_solver(solver).with_seed(seed),
        );
        prop_assert!(out.w.all_nonnegative() && out.w.all_finite());
        prop_assert!(out.h.all_nonnegative() && out.h.all_finite());
        prop_assert!(out.objective.is_finite());
    }
}
