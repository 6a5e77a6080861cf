//! Correctness tests for every collective, across power-of-two and
//! non-power-of-two rank counts (the paper's processor counts 24, 96,
//! 216, 384, 600 are all non-powers-of-two, so the fold paths matter).

use nmf_vmpi::stats::Op;
use nmf_vmpi::universe::run;

/// Rank r contributes the block [r*1000, r*1000+len(r)) as floats.
fn rank_block(r: usize, len: usize) -> Vec<f64> {
    (0..len).map(|i| (r * 1000 + i) as f64).collect()
}

#[test]
fn all_gather_equal_blocks() {
    for p in [1, 2, 3, 4, 5, 7, 8, 12, 13] {
        let results = run(p, |comm| comm.all_gather(&rank_block(comm.rank(), 3)));
        let expect: Vec<f64> = (0..p).flat_map(|r| rank_block(r, 3)).collect();
        for r in &results {
            assert_eq!(
                r.result, expect,
                "all_gather wrong at p={p}, rank {}",
                r.rank
            );
        }
    }
}

#[test]
fn all_gatherv_varied_blocks() {
    for p in [1, 2, 3, 5, 6, 9, 16] {
        let counts: Vec<usize> = (0..p).map(|r| (r * 7 + 1) % 5).collect();
        let results = run(p, |comm| {
            let counts: Vec<usize> = (0..comm.size()).map(|r| (r * 7 + 1) % 5).collect();
            comm.all_gatherv(&rank_block(comm.rank(), counts[comm.rank()]), &counts)
        });
        let expect: Vec<f64> = (0..p).flat_map(|r| rank_block(r, counts[r])).collect();
        for r in &results {
            assert_eq!(
                r.result, expect,
                "all_gatherv wrong at p={p}, rank {}",
                r.rank
            );
        }
    }
}

fn reduce_scatter_reference(p: usize, n_per: usize) -> Vec<Vec<f64>> {
    // Every rank contributes vector v_r with v_r[i] = r + i; the sum over
    // ranks of element i is p*i + p(p-1)/2.
    let total: Vec<f64> = (0..p * n_per)
        .map(|i| (p * i) as f64 + (p * (p - 1) / 2) as f64)
        .collect();
    (0..p)
        .map(|r| total[r * n_per..(r + 1) * n_per].to_vec())
        .collect()
}

#[test]
fn reduce_scatter_equal_counts() {
    for p in [1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 24] {
        let n_per = 4;
        let results = run(p, |comm| {
            let p = comm.size();
            let data: Vec<f64> = (0..p * n_per).map(|i| (comm.rank() + i) as f64).collect();
            comm.reduce_scatter(&data, &vec![n_per; p])
        });
        let expect = reduce_scatter_reference(p, n_per);
        for r in &results {
            assert_eq!(
                r.result, expect[r.rank],
                "reduce_scatter wrong at p={p}, rank {}",
                r.rank
            );
        }
    }
}

#[test]
fn reduce_scatter_uneven_counts() {
    for p in [2, 3, 5, 7, 10, 12] {
        let counts: Vec<usize> = (0..p).map(|r| r % 4).collect();
        let offsets: Vec<usize> = counts
            .iter()
            .scan(0, |acc, &c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let results = run(p, |comm| {
            let p = comm.size();
            let counts: Vec<usize> = (0..p).map(|r| r % 4).collect();
            let n: usize = counts.iter().sum();
            let data: Vec<f64> = (0..n)
                .map(|i| ((comm.rank() + 1) * (i + 1)) as f64)
                .collect();
            comm.reduce_scatter(&data, &counts)
        });
        // Sum over ranks of (r+1)*(i+1) = (i+1) * p(p+1)/2.
        let s = (p * (p + 1) / 2) as f64;
        for r in &results {
            let expect: Vec<f64> = (0..counts[r.rank])
                .map(|j| (offsets[r.rank] + j + 1) as f64 * s)
                .collect();
            assert_eq!(
                r.result, expect,
                "uneven reduce_scatter wrong at p={p} rank {}",
                r.rank
            );
        }
    }
}

#[test]
fn all_reduce_sums() {
    for p in [1, 2, 3, 4, 6, 7, 8, 12, 24] {
        let n = 10;
        let results = run(p, |comm| {
            let data: Vec<f64> = (0..n).map(|i| (comm.rank() * n + i) as f64).collect();
            comm.all_reduce(&data)
        });
        let expect: Vec<f64> = (0..n)
            .map(|i| (0..p).map(|r| (r * n + i) as f64).sum())
            .collect();
        for r in &results {
            assert_eq!(
                r.result, expect,
                "all_reduce wrong at p={p} rank {}",
                r.rank
            );
        }
    }
}

#[test]
fn all_reduce_short_vector_many_ranks() {
    // n < p exercises zero-length segments in Rabenseifner.
    let results = run(9, |comm| comm.all_reduce(&[1.0, 2.0]));
    for r in &results {
        assert_eq!(r.result, vec![9.0, 18.0]);
    }
}

#[test]
fn barrier_orders_phases() {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let entered = AtomicUsize::new(0);
    let p = 8;
    run(p, |comm| {
        entered.fetch_add(1, Ordering::SeqCst);
        comm.barrier();
        // After the barrier every rank must observe all p entries.
        assert_eq!(
            entered.load(Ordering::SeqCst),
            p,
            "barrier let a rank through early"
        );
    });
}

#[test]
fn split_forms_grid_communicators() {
    // 6 ranks as a 2x3 grid: row comm groups ranks with equal row index,
    // column comm groups equal column index.
    let (pr, pc) = (2usize, 3usize);
    let results = run(pr * pc, |comm| {
        let (i, j) = (comm.rank() / pc, comm.rank() % pc);
        let row = comm.split(i, j); // peers across the row (pc ranks)
        let col = comm.split(j, i); // peers down the column (pr ranks)
        let row_sum = row.all_reduce_scalar(comm.rank() as f64);
        let col_sum = col.all_reduce_scalar(comm.rank() as f64);
        (row.size(), col.size(), row_sum, col_sum)
    });
    for r in &results {
        let (i, j) = (r.rank / pc, r.rank % pc);
        let expect_row: usize = (0..pc).map(|jj| i * pc + jj).sum();
        let expect_col: usize = (0..pr).map(|ii| ii * pc + j).sum();
        assert_eq!(r.result.0, pc);
        assert_eq!(r.result.1, pr);
        assert_eq!(r.result.2, expect_row as f64);
        assert_eq!(r.result.3, expect_col as f64);
    }
}

#[test]
fn nested_splits_stay_isolated() {
    // Split a 2x2x2 "cube": first by plane, then each plane by row —
    // collectives on a grandchild communicator must not interfere with
    // concurrent collectives on siblings.
    let results = run(8, |comm| {
        let plane = comm.rank() / 4;
        let plane_comm = comm.split(plane, comm.rank() % 4);
        let row = (comm.rank() % 4) / 2;
        let row_comm = plane_comm.split(row, comm.rank() % 2);
        assert_eq!(plane_comm.size(), 4);
        assert_eq!(row_comm.size(), 2);
        let plane_sum = plane_comm.all_reduce_scalar(comm.rank() as f64);
        let row_sum = row_comm.all_reduce_scalar(comm.rank() as f64);
        (plane_sum, row_sum)
    });
    for r in &results {
        let plane = r.rank / 4;
        let expect_plane: usize = (plane * 4..plane * 4 + 4).sum();
        let row_base = (r.rank / 2) * 2;
        let expect_row = row_base + row_base + 1;
        assert_eq!(r.result.0, expect_plane as f64);
        assert_eq!(r.result.1, expect_row as f64);
    }
}

#[test]
fn stats_are_shared_across_subcommunicators() {
    let results = run(4, |comm| {
        let sub = comm.split(comm.rank() % 2, comm.rank());
        sub.all_gather(&[1.0, 2.0]);
        comm.stats().total_messages()
    });
    for r in &results {
        assert!(
            r.result > 0,
            "sub-communicator traffic must appear in the rank's stats"
        );
        assert_eq!(r.stats.total_messages(), r.result);
    }
}

#[test]
fn point_to_point_ring() {
    let p = 5;
    let results = run(p, |comm| {
        let dst = (comm.rank() + 1) % comm.size();
        let src = (comm.rank() + comm.size() - 1) % comm.size();
        comm.send(dst, 3, &[comm.rank() as f64]);
        comm.recv(src, 3)[0]
    });
    for r in &results {
        assert_eq!(r.result as usize, (r.rank + p - 1) % p);
    }
}

#[test]
fn message_counting_all_gather_words() {
    // Bruck all-gather: each rank sends exactly (p-1)/p * total words.
    for p in [2, 4, 8, 16] {
        let n_per = 6;
        let results = run(p, |comm| {
            comm.all_gather(&rank_block(comm.rank(), n_per));
        });
        for r in &results {
            let ag = r.stats.op(Op::AllGather);
            assert_eq!(ag.words as usize, (p - 1) * n_per, "words at p={p}");
            assert_eq!(ag.messages, nmf_vmpi::collectives::log2_ceil(p) as u64);
        }
    }
}

#[test]
fn message_counting_reduce_scatter_is_logarithmic() {
    for p in [2, 3, 4, 6, 8, 24] {
        let results = run(p, |comm| {
            let p = comm.size();
            let data = vec![1.0; p * 4];
            comm.reduce_scatter(&data, &vec![4; p]);
        });
        let bound = nmf_vmpi::collectives::log2_ceil(p) as u64 + 2; // fold + unfold
        for r in &results {
            let rs = r.stats.op(Op::ReduceScatter);
            assert!(
                rs.messages <= bound,
                "reduce_scatter used {} messages at p={p}, bound {bound}",
                rs.messages
            );
        }
    }
}

#[test]
#[should_panic(expected = "tag mismatch")]
fn diverged_collective_sequence_is_detected() {
    run(2, |comm| {
        if comm.rank() == 0 {
            // Rank 0 calls barrier while rank 1 calls all_gather: the tag
            // assertion must catch the protocol divergence.
            comm.barrier();
        } else {
            comm.all_gather(&[1.0]);
        }
    });
}
