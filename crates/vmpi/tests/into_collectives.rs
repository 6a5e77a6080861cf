//! Equivalence tests for the `_into` collectives: every caller-owned-
//! buffer variant must produce bit-identical results to its allocating
//! counterpart (they share one algorithm) and to a trivial sequential
//! reference, for power-of-two and odd rank counts alike, and repeated
//! calls through the same communicator (exercising arena reuse) must not
//! corrupt results.
//!
//! The synchronous forms run the same machines as `post_*` but without a
//! `PendingOp`: each case also checks that the `_into` call left no
//! split-phase trace in the counters and sent exactly the words and
//! messages a `post_*().wait()` of the same input sends.

use nmf_vmpi::universe::run;
use nmf_vmpi::{Comm, Op};
use std::time::Duration;

fn payload(rank: usize, i: usize, salt: usize) -> f64 {
    (rank * 131 + i * 7 + salt) as f64 * 0.5 - 3.0
}

/// Runs `sync` — a synchronous collective charged to `op`, on a
/// communicator that has posted nothing yet — then `posted`, a
/// `post_*().wait()` of the same input.
fn assert_sync_bypasses_split_phase(
    comm: &Comm,
    op: Op,
    sync: impl FnOnce(),
    posted: impl FnOnce(),
) {
    let before = comm.stats().op(op);
    sync();
    let mid = comm.stats().op(op);
    assert_eq!(
        mid.posts,
        0,
        "{}: synchronous call recorded a post",
        op.name()
    );
    assert_eq!(mid.overlap, Duration::ZERO, "{}: overlap window", op.name());
    assert_eq!(
        mid.inflight,
        Duration::ZERO,
        "{}: in-flight span",
        op.name()
    );
    posted();
    let after = comm.stats().op(op);
    assert_eq!(after.posts, 1);
    assert_eq!(
        (mid.words - before.words, mid.messages - before.messages),
        (after.words - mid.words, after.messages - mid.messages),
        "{}: synchronous and posted forms sent different traffic",
        op.name()
    );
}

#[test]
fn all_reduce_into_matches_allocating_and_reference() {
    for p in 1..=9usize {
        for n in [0usize, 1, 5, 64, 129] {
            let expect: Vec<f64> = (0..n)
                .map(|i| (0..p).map(|r| payload(r, i, 1)).sum())
                .collect();
            let results = run(p, move |comm| {
                let data: Vec<f64> = (0..n).map(|i| payload(comm.rank(), i, 1)).collect();
                let alloc = comm.all_reduce(&data);
                let mut inplace = data.clone();
                let mut posted = vec![0.0; n];
                assert_sync_bypasses_split_phase(
                    comm,
                    Op::AllReduce,
                    || comm.all_reduce_into(&mut inplace),
                    || comm.post_all_reduce(&data).wait(&mut posted),
                );
                assert_eq!(posted, inplace, "posted all-reduce diverged");
                (alloc, inplace)
            });
            for r in results {
                let (alloc, inplace) = r.result;
                assert_eq!(
                    alloc, inplace,
                    "p={p} n={n}: _into diverged from allocating"
                );
                for (a, e) in inplace.iter().zip(&expect) {
                    assert!((a - e).abs() < 1e-12, "p={p} n={n}: wrong sum");
                }
            }
        }
    }
}

#[test]
fn all_gather_into_matches_gatherv_and_concat() {
    for p in 1..=9usize {
        let len = 3usize;
        let expect: Vec<f64> = (0..p)
            .flat_map(|r| (0..len).map(move |i| payload(r, i, 2)))
            .collect();
        let results = run(p, move |comm| {
            let mine: Vec<f64> = (0..len).map(|i| payload(comm.rank(), i, 2)).collect();
            let eq = comm.all_gather(&mine);
            let mut eq_into = vec![0.0; len * comm.size()];
            comm.all_gather_into(&mine, &mut eq_into);
            let counts = vec![len; comm.size()];
            let v = comm.all_gatherv(&mine, &counts);
            let mut v_into = vec![0.0; len * comm.size()];
            let mut posted = vec![0.0; len * comm.size()];
            assert_sync_bypasses_split_phase(
                comm,
                Op::AllGather,
                || comm.all_gatherv_into(&mine, &counts, &mut v_into),
                || comm.post_all_gatherv(&mine, &counts).wait(&mut posted),
            );
            assert_eq!(posted, v_into, "posted all-gather diverged");
            (eq, eq_into, v, v_into)
        });
        for r in results {
            let (eq, eq_into, v, v_into) = r.result;
            assert_eq!(eq, expect, "p={p}: equal-block all_gather wrong");
            assert_eq!(eq_into, expect, "p={p}: all_gather_into wrong");
            assert_eq!(v, expect, "p={p}: all_gatherv wrong");
            assert_eq!(v_into, expect, "p={p}: all_gatherv_into wrong");
        }
    }
}

#[test]
fn all_gatherv_into_handles_ragged_counts() {
    for p in 2..=8usize {
        // Ragged blocks, including empty ones.
        let counts: Vec<usize> = (0..p).map(|r| (r * 3 + 1) % 5).collect();
        let expect: Vec<f64> = (0..p)
            .flat_map(|r| (0..counts[r]).map(move |i| payload(r, i, 3)))
            .collect();
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let me = comm.rank();
            let mine: Vec<f64> = (0..counts2[me]).map(|i| payload(me, i, 3)).collect();
            let mut out = vec![0.0; counts2.iter().sum()];
            let mut posted = vec![0.0; out.len()];
            assert_sync_bypasses_split_phase(
                comm,
                Op::AllGather,
                || comm.all_gatherv_into(&mine, &counts2, &mut out),
                || comm.post_all_gatherv(&mine, &counts2).wait(&mut posted),
            );
            assert_eq!(posted, out, "posted ragged all-gather diverged");
            out
        });
        for r in results {
            assert_eq!(r.result, expect, "p={p}: ragged all_gatherv_into wrong");
        }
    }
}

#[test]
fn reduce_scatter_into_matches_allocating_and_reference() {
    for p in 1..=9usize {
        let counts: Vec<usize> = (0..p).map(|r| (r * 2 + 3) % 6).collect();
        let n: usize = counts.iter().sum();
        let total: Vec<f64> = (0..n)
            .map(|i| (0..p).map(|r| payload(r, i, 4)).sum())
            .collect();
        let mut offsets = vec![0usize];
        for &c in &counts {
            offsets.push(offsets.last().unwrap() + c);
        }
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let data: Vec<f64> = (0..n).map(|i| payload(comm.rank(), i, 4)).collect();
            let alloc = comm.reduce_scatter(&data, &counts2);
            let mut into = vec![0.0; counts2[comm.rank()]];
            let mut posted = vec![0.0; into.len()];
            assert_sync_bypasses_split_phase(
                comm,
                Op::ReduceScatter,
                || comm.reduce_scatter_into(&data, &counts2, &mut into),
                || comm.post_reduce_scatter(&data, &counts2).wait(&mut posted),
            );
            assert_eq!(posted, into, "posted reduce-scatter diverged");
            (alloc, into)
        });
        for r in results {
            let (alloc, into) = r.result;
            assert_eq!(alloc, into, "p={p}: _into diverged from allocating");
            let expect = &total[offsets[r.rank]..offsets[r.rank + 1]];
            for (a, e) in into.iter().zip(expect) {
                assert!((a - e).abs() < 1e-9, "p={p} rank {}: wrong segment", r.rank);
            }
        }
    }
}

#[test]
fn repeated_into_calls_reuse_arena_without_corruption() {
    // 20 back-to-back collectives through the same comm: results must be
    // identical every time (the arena recycles buffers between calls).
    let p = 6;
    let results = run(p, |comm| {
        let data: Vec<f64> = (0..48).map(|i| payload(comm.rank(), i, 5)).collect();
        let counts = vec![8usize; p];
        let first_ar = comm.all_reduce(&data);
        let first_ag = comm.all_gather(&data[..4]);
        let first_rs = comm.reduce_scatter(&data, &counts);
        for _ in 0..20 {
            let mut ar = data.clone();
            comm.all_reduce_into(&mut ar);
            assert_eq!(ar, first_ar);
            let mut ag = vec![0.0; 4 * p];
            comm.all_gather_into(&data[..4], &mut ag);
            assert_eq!(ag, first_ag);
            let mut rs = vec![0.0; 8];
            comm.reduce_scatter_into(&data, &counts, &mut rs);
            assert_eq!(rs, first_rs);
        }
        true
    });
    assert!(results.iter().all(|r| r.result));
}

#[test]
fn mixed_comm_and_subcomm_collectives_share_arena_safely() {
    // Split into row/col comms (as the 2D driver does) and interleave
    // collectives on all three communicators.
    let p = 6;
    let results = run(p, |comm| {
        let row = comm.split(comm.rank() % 2, comm.rank());
        let col = comm.split(2 + comm.rank() / 2, comm.rank());
        let mut x = vec![comm.rank() as f64; 10];
        comm.all_reduce_into(&mut x);
        let mut y = vec![0.0; 3 * row.size()];
        row.all_gather_into(&[row.rank() as f64; 3], &mut y);
        let mut z = vec![1.0; col.size() * 2];
        let counts = vec![2usize; col.size()];
        let mut out = vec![0.0; 2];
        z.iter_mut().enumerate().for_each(|(i, v)| *v = i as f64);
        col.reduce_scatter_into(&z, &counts, &mut out);
        (x[0], y.iter().sum::<f64>(), out[0])
    });
    let base = &results[0].result;
    // all_reduce result identical everywhere.
    for r in &results {
        assert_eq!(r.result.0, base.0);
    }
}
