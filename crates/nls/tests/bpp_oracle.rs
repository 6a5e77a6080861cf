//! BPP against a one-row-at-a-time oracle, **bit for bit**.
//!
//! The solver in `nmf_nls::bpp` sorts rows by passive set, keeps the
//! Cholesky rows consecutive sets share, and picks a substitution kernel
//! by group size. None of that may change a single row's result, so the
//! oracle here does none of it: every row of every exchange round gets
//! its own gathered `G_FF`, its own textbook (column-oriented)
//! `cholesky_into`, its own single-column solve, and the monotonicity
//! guard compares objectives computed by the dense `X·Gᵀ` product. The
//! warm start (each row's passive set is `{j : x_j > 0}` of the incoming
//! iterate, solved before round 1), the pivoting rule (block exchange,
//! Kim & Park's backup budget, Murty's single flip, round cap +
//! projection) and the semidefinite `solve_spd` fallback are the same.

use nmf_matrix::rng::Fill;
use nmf_matrix::{
    cholesky_into, cholesky_solve_in_place, gram, matmul_ta, matmul_tb, solve_spd, Mat,
};
use nmf_nls::Bpp;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KS: [usize; 7] = [1, 3, 8, 32, 64, 65, 128];

/// Row budget per case: the oracle factorizes once per row per round, so
/// wide `k` gets fewer rows to keep the debug-build suite quick.
fn rows_for(k: usize, want: usize) -> usize {
    let cap = if k <= 8 {
        1000
    } else if k <= 32 {
        400
    } else {
        60
    };
    1 + want % cap
}

fn dense_objective(gram: &Mat, ctb: &Mat, x: &Mat) -> f64 {
    let xg = matmul_tb(x, gram);
    let mut obj = 0.0;
    for i in 0..x.nrows() {
        for j in 0..x.ncols() {
            obj += x[(i, j)] * xg[(i, j)] - 2.0 * x[(i, j)] * ctb[(i, j)];
        }
    }
    obj
}

/// Solves row `i` on passive set `mask` and refreshes its `x`, `y` rows.
fn oracle_row(gram: &Mat, ctb: &Mat, x: &mut Mat, y: &mut Mat, mask: u128, i: usize) {
    let k = gram.nrows();
    let free: Vec<usize> = (0..k).filter(|&j| mask & (1u128 << j) != 0).collect();
    let f = free.len();
    let mut sol = Mat::from_fn(f, 1, |a, _| ctb[(i, free[a])]);
    if f > 0 {
        let gff = Mat::from_fn(f, f, |a, b| gram[(free[a], free[b])]);
        let mut l = Mat::zeros(f, f);
        match cholesky_into(&gff, &mut l) {
            Ok(()) => cholesky_solve_in_place(&l, &mut sol),
            Err(_) => sol = solve_spd(&gff, &sol).unwrap_or_else(|_| Mat::zeros(f, 1)),
        }
    }
    x.row_mut(i).fill(0.0);
    for (a, &ja) in free.iter().enumerate() {
        x[(i, ja)] = sol[(a, 0)];
    }
    for j in 0..k {
        y[(i, j)] = if mask & (1u128 << j) != 0 {
            0.0
        } else {
            let mut v = -ctb[(i, j)];
            for (a, &ja) in free.iter().enumerate() {
                v += gram[(j, ja)] * sol[(a, 0)];
            }
            v
        };
    }
}

/// Solves from the incoming `x` and returns the final dual `y`.
fn oracle_solve(gram: &Mat, ctb: &Mat, x: &mut Mat, max_rounds: usize, backup_budget: u32) -> Mat {
    let (r, k) = x.shape();
    let x_prev = x.clone();
    x.as_mut_slice().fill(0.0);
    let mut y = Mat::from_fn(r, k, |i, j| -ctb[(i, j)]);
    // (passive, best infeasible count, budget, done), passive from the
    // support of the incoming iterate.
    let mut states: Vec<_> = (0..r)
        .map(|i| {
            let passive = (0..k)
                .filter(|&j| x_prev[(i, j)] > 0.0)
                .fold(0u128, |m, j| m | 1u128 << j);
            (passive, k as u32 + 1, backup_budget, false)
        })
        .collect();
    for (i, &(passive, ..)) in states.iter().enumerate() {
        if passive != 0 {
            oracle_row(gram, ctb, x, &mut y, passive, i);
        }
    }
    let mut converged = false;
    for _ in 0..max_rounds {
        let mut any_pending = false;
        for (i, (passive, best, budget, done)) in states.iter_mut().enumerate() {
            if *done {
                continue;
            }
            let mut infeasible = 0u128;
            for j in 0..k {
                let bit = 1u128 << j;
                let bad = if *passive & bit != 0 {
                    x[(i, j)] < 0.0
                } else {
                    y[(i, j)] < 0.0
                };
                if bad {
                    infeasible |= bit;
                }
            }
            if infeasible == 0 {
                *done = true;
                continue;
            }
            any_pending = true;
            let count = infeasible.count_ones();
            if count < *best {
                *best = count;
                *budget = backup_budget;
                *passive ^= infeasible;
            } else if *budget > 0 {
                *budget -= 1;
                *passive ^= infeasible;
            } else {
                *passive ^= 1u128 << (127 - infeasible.leading_zeros());
            }
        }
        if !any_pending {
            converged = true;
            break;
        }
        for (i, &(passive, _, _, done)) in states.iter().enumerate() {
            if !done {
                oracle_row(gram, ctb, x, &mut y, passive, i);
            }
        }
    }
    if !converged {
        x.project_nonnegative();
    }
    if x_prev.all_nonnegative()
        && dense_objective(gram, ctb, x) > dense_objective(gram, ctb, &x_prev)
    {
        x.copy_from(&x_prev);
    }
    y
}

/// Runs both solvers from the same incoming iterate and demands the
/// same bits.
fn assert_matches_oracle(solver: &mut Bpp, g: &Mat, ctb: &Mat, x0: &Mat, what: &str) {
    let mut got = x0.clone();
    solver.solve(g, ctb, &mut got);
    let mut want = x0.clone();
    oracle_solve(g, ctb, &mut want, solver.max_rounds, solver.backup_budget);
    for i in 0..got.nrows() {
        assert_same_row(&got, &want, i, what);
    }
}

fn assert_same_row(got: &Mat, want: &Mat, i: usize, what: &str) {
    let same = got
        .row(i)
        .iter()
        .zip(want.row(i))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(
        same,
        "{what}: row {i} differs\n  solver {:?}\n  oracle {:?}",
        got.row(i),
        want.row(i)
    );
}

/// `G = CᵀC + δI` from a tall Gaussian `C`.
fn spd_gram(k: usize, seed: u64) -> Mat {
    let mut g = gram(&Mat::gaussian(3 * k + 5, k, seed));
    for i in 0..k {
        g[(i, i)] += 1e-8;
    }
    g
}

/// Right-hand sides with few positive entries per row, concentrated on
/// low indices: many small, mostly unique passive sets.
fn power_law_ctb(r: usize, k: usize, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    Mat::from_fn(r, k, |_, j| {
        let v: f64 = rng.gen::<f64>() + 0.01;
        if rng.gen_range(0..(2 + 3 * j)) == 0 {
            4.0 * v
        } else {
            -v
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    #[test]
    fn dense_right_hand_sides(ki in 0usize..7, want in 0usize..1000, seed in 0u64..10_000) {
        // Gaussian CᵀB: about half of every row positive, so passive
        // sets are wide and nearly all distinct.
        let k = KS[ki];
        let r = rows_for(k, want);
        let c = Mat::gaussian(3 * k + 5, k, seed);
        let mut g = gram(&c);
        for i in 0..k {
            g[(i, i)] += 1e-8;
        }
        let ctb = matmul_ta(&Mat::gaussian(3 * k + 5, r, seed + 1), &c);
        assert_matches_oracle(&mut Bpp::default(), &g, &ctb, &Mat::uniform(r, k, seed + 2), "dense");
    }

    #[test]
    fn zero_and_negative_rows_between_ordinary_ones(
        ki in 0usize..7,
        want in 0usize..1000,
        seed in 0u64..10_000,
    ) {
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let mut ctb = Mat::gaussian(r, k, seed + 1);
        for i in 0..r {
            match i % 5 {
                1 => ctb.row_mut(i).fill(0.0),
                3 => ctb.row_mut(i).iter_mut().for_each(|v| *v = -v.abs() - 0.1),
                _ => {}
            }
        }
        assert_matches_oracle(&mut Bpp::default(), &g, &ctb, &Mat::zeros(r, k), "zero/negative");
    }

    #[test]
    fn duplicate_masks_form_large_groups(
        ki in 0usize..7,
        want in 0usize..1000,
        distinct in 1usize..7,
        seed in 0u64..10_000,
    ) {
        // A few right-hand sides repeated (positively scaled) down the
        // rows: groups of r/distinct rows, on both sides of the 4-row
        // dispatch, the 8-wide sweep edge and the 64-column chunk.
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let base = Mat::gaussian(distinct, k, seed + 1);
        let ctb = Mat::from_fn(r, k, |i, j| base[(i % distinct, j)] * (1.0 + (i / distinct) as f64));
        let mut solver = Bpp::default();
        assert_matches_oracle(&mut solver, &g, &ctb, &Mat::uniform(r, k, seed + 2), "duplicates");
        let st = solver.last_stats();
        prop_assert!(st.groups <= st.row_solves);
    }

    #[test]
    fn power_law_sparse_right_hand_sides(ki in 0usize..7, want in 0usize..1000, seed in 0u64..10_000) {
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let ctb = power_law_ctb(r, k, seed + 1);
        assert_matches_oracle(&mut Bpp::default(), &g, &ctb, &Mat::zeros(r, k), "power law");
    }

    #[test]
    fn rank_deficient_gram_takes_the_fallback_mid_run(
        ki in 1usize..7,
        want in 0usize..1000,
        seed in 0u64..10_000,
    ) {
        // A zero column of C in the middle of the index range makes
        // every G_FF containing it singular at that pivot. Rows wanting
        // that variable are interleaved, in sorted-mask order, with rows
        // that share their lower indices but not it — so a failed
        // factorization sits between two that reuse its leading rows.
        let k = KS[ki];
        let r = rows_for(k, want);
        let dead = k / 2;
        let mut c = Mat::gaussian(3 * k + 5, k, seed);
        for row in 0..c.nrows() {
            c[(row, dead)] = 0.0;
        }
        let mut g = gram(&c);
        for i in 0..k {
            if i != dead {
                g[(i, i)] += 1e-8;
            }
        }
        let mut ctb = power_law_ctb(r, k, seed + 1);
        for i in 0..r {
            ctb[(i, dead)] = if i % 3 == 0 { 0.5 } else { -0.5 };
        }
        let mut solver = Bpp::default();
        assert_matches_oracle(&mut solver, &g, &ctb, &Mat::zeros(r, k), "rank deficient");
        prop_assert!(solver.last_stats().semidefinite_fallbacks > 0);
    }

    #[test]
    fn round_cap_projects(ki in 1usize..7, want in 0usize..1000, cap in 0usize..4, seed in 0u64..10_000) {
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let ctb = Mat::gaussian(r, k, seed + 1);
        let mut solver = Bpp { max_rounds: cap, backup_budget: 1, ..Bpp::default() };
        assert_matches_oracle(&mut solver, &g, &ctb, &Mat::uniform(r, k, seed + 2), "round cap");
    }

    #[test]
    fn warm_from_a_nearby_solve(ki in 0usize..7, want in 0usize..1000, seed in 0u64..10_000) {
        // The late-ANLS shape: the incoming iterate solved a right-hand
        // side that has since moved a little, so most rows keep their
        // support and a few variables cross.
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let ctb = power_law_ctb(r, k, seed + 1);
        let mut x0 = Mat::zeros(r, k);
        Bpp::default().solve(&g, &ctb, &mut x0);
        let noise = Mat::gaussian(r, k, seed + 2);
        let moved = Mat::from_fn(r, k, |i, j| ctb[(i, j)] + 0.05 * noise[(i, j)]);
        assert_matches_oracle(&mut Bpp::default(), &g, &moved, &x0, "nearby");
    }

    #[test]
    fn warm_and_cold_agree_off_degenerate_rows(
        ki in 0usize..7,
        want in 0usize..1000,
        seed in 0u64..10_000,
    ) {
        // Off a degenerate variable (x_j = y_j = 0) the final passive set
        // is unique and solved by the same Cholesky, so a warm start from
        // anywhere lands on the cold start's bits.
        let k = KS[ki];
        let r = rows_for(k, want);
        let g = spd_gram(k, seed);
        let ctb = power_law_ctb(r, k, seed + 1);
        let mut solver = Bpp::default();
        let mut got = Mat::uniform(r, k, seed + 2);
        solver.solve(&g, &ctb, &mut got);
        let mut cold = Mat::zeros(r, k);
        let y = oracle_solve(&g, &ctb, &mut cold, solver.max_rounds, solver.backup_budget);
        let mut compared = 0;
        for i in 0..r {
            if (0..k).all(|j| cold[(i, j)] != 0.0 || y[(i, j)] != 0.0) {
                assert_same_row(&got, &cold, i, "warm vs cold");
                compared += 1;
            }
        }
        // Every right-hand side entry is nonzero, so exact degeneracy is
        // rare: the comparison covers most rows.
        prop_assert!(2 * compared >= r, "{compared} of {r} rows compared");
    }
}

#[test]
fn one_solver_across_shapes_never_reuses_stale_factor_rows() {
    // The engine's pattern — one solver, W-shaped and H-shaped problems
    // in turn — plus changing `k`: whatever the previous call left in
    // the factor buffer, each call equals the oracle.
    let mut solver = Bpp::default();
    for (step, &(k, r)) in [(8, 40), (8, 13), (32, 25), (3, 200), (32, 7), (8, 40)]
        .iter()
        .cycle()
        .take(18)
        .enumerate()
    {
        let seed = 900 + step as u64;
        let g = spd_gram(k, seed);
        let ctb = power_law_ctb(r, k, seed);
        assert_matches_oracle(&mut solver, &g, &ctb, &Mat::zeros(r, k), "shape change");
    }
}
