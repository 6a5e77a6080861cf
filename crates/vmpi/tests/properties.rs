//! Property-based tests: collectives must agree with trivial sequential
//! references for arbitrary rank counts, block sizes, and payloads.

use nmf_vmpi::universe::run;
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn all_gatherv_agrees_with_concat(
        p in 1usize..10,
        lens in vec(0usize..6, 10),
        salt in 0u32..1000,
    ) {
        let counts: Vec<usize> = (0..p).map(|r| lens[r]).collect();
        let block = |r: usize| -> Vec<f64> {
            (0..counts[r]).map(|i| (r * 100 + i) as f64 + salt as f64).collect()
        };
        let expect: Vec<f64> = (0..p).flat_map(block).collect();
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let mine: Vec<f64> = (0..counts2[comm.rank()])
                .map(|i| (comm.rank() * 100 + i) as f64 + salt as f64)
                .collect();
            comm.all_gatherv(&mine, &counts2)
        });
        for r in results {
            prop_assert_eq!(&r.result, &expect);
        }
    }

    #[test]
    fn reduce_scatter_agrees_with_sum_then_slice(
        p in 1usize..10,
        lens in vec(0usize..5, 10),
        payload_salt in 1u32..100,
    ) {
        let counts: Vec<usize> = (0..p).map(|r| lens[r]).collect();
        let n: usize = counts.iter().sum();
        let value = |r: usize, i: usize| ((r + 1) * (i + 3) + payload_salt as usize) as f64;
        // Reference: elementwise sum, then slice by offsets.
        let total: Vec<f64> = (0..n).map(|i| (0..p).map(|r| value(r, i)).sum()).collect();
        let mut offsets = vec![0usize];
        for &c in &counts { offsets.push(offsets.last().unwrap() + c); }
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let data: Vec<f64> = (0..n).map(|i| value(comm.rank(), i)).collect();
            comm.reduce_scatter(&data, &counts2)
        });
        for r in results {
            let expect = &total[offsets[r.rank]..offsets[r.rank + 1]];
            for (a, b) in r.result.iter().zip(expect) {
                prop_assert!((a - b).abs() < 1e-9, "rank {} mismatch", r.rank);
            }
        }
    }

    #[test]
    fn all_reduce_agrees_with_sum(
        p in 1usize..10,
        n in 0usize..40,
        salt in 0u32..50,
    ) {
        let value = |r: usize, i: usize| (r * 7 + i * 13 + salt as usize) as f64;
        let expect: Vec<f64> = (0..n).map(|i| (0..p).map(|r| value(r, i)).sum()).collect();
        let results = run(p, move |comm| {
            let data: Vec<f64> = (0..n).map(|i| value(comm.rank(), i)).collect();
            comm.all_reduce(&data)
        });
        for r in results {
            for (a, b) in r.result.iter().zip(&expect) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }
}
