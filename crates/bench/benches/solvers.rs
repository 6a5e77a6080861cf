//! Criterion benches of the NLS solvers (the `NLS` task).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nmf_matrix::rng::Fill;
use nmf_matrix::{gram, matmul_ta, Mat};
use nmf_nls::{Bpp, Hals, Mu, NlsSolver};
use std::time::Duration;

fn instance(r: usize, k: usize, seed: u64) -> (Mat, Mat) {
    let c = Mat::uniform(2 * k + 16, k, seed);
    let b = Mat::uniform(2 * k + 16, r, seed + 1);
    (gram(&c), matmul_ta(&b, &c))
}

fn bench_solvers(c: &mut Criterion) {
    let mut g = c.benchmark_group("nls_solvers");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    for &(r, k) in &[(2048usize, 16usize), (2048, 50)] {
        let (gr, ctb) = instance(r, k, 11);
        let label = format!("r{r}_k{k}");
        g.bench_with_input(BenchmarkId::new("bpp", &label), &(), |b, ()| {
            b.iter(|| {
                let mut x = Mat::zeros(r, k);
                Bpp::default().update(&gr, &ctb, &mut x);
                x
            })
        });
        g.bench_with_input(BenchmarkId::new("mu", &label), &(), |b, ()| {
            let mut x = Mat::uniform(r, k, 12);
            b.iter(|| Mu::default().update(&gr, &ctb, &mut x))
        });
        g.bench_with_input(BenchmarkId::new("hals", &label), &(), |b, ()| {
            let mut x = Mat::uniform(r, k, 13);
            b.iter(|| Hals::default().update(&gr, &ctb, &mut x))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
