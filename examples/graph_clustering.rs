//! Community detection in a directed graph via NMF (the paper's Webbase
//! use case: "The NMF output of this directed graph will help us
//! understand clusters in graphs", §6.1.1).
//!
//! We sample a stochastic block model — dense within planted
//! communities, sparse across — factorize the adjacency matrix, and
//! assign each node to the community `argmaxₖ W[node, k]`.
//!
//! ```sh
//! cargo run --release --example graph_clustering
//! ```

use hpc_nmf::prelude::*;
use nmf_sparse::Coo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 900;
const COMMUNITIES: usize = 5;
const P_IN: f64 = 0.08;
const P_OUT: f64 = 0.004;

fn stochastic_block_model(seed: u64) -> (Input, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let labels: Vec<usize> = (0..NODES).map(|v| v % COMMUNITIES).collect();
    let mut coo = Coo::new(NODES, NODES);
    for u in 0..NODES {
        for v in 0..NODES {
            if u == v {
                continue;
            }
            let p = if labels[u] == labels[v] { P_IN } else { P_OUT };
            if rng.gen::<f64>() < p {
                coo.push(u, v, 1.0);
            }
        }
    }
    (Input::Sparse(coo.to_csr()), labels)
}

fn main() -> Result<(), NmfError> {
    let (input, labels) = stochastic_block_model(7);
    let (m, _) = input.shape();
    println!(
        "stochastic block model: {NODES} nodes, {COMMUNITIES} communities, {} edges",
        input.nnz()
    );

    let p = 9;
    let mut model = Nmf::on(&input)
        .config(
            NmfConfig::new(COMMUNITIES)
                .with_max_iters(40)
                .with_tol(1e-7),
        )
        .algo(Algo::Hpc2D)
        .ranks(p)
        .build()?;
    model.run();
    let out = model.into_output();
    println!(
        "factorized on {p} ranks ({} iterations, rel error {:.3})",
        out.iterations, out.rel_error
    );

    // Cluster nodes by the dominant W component.
    let assignment: Vec<usize> = (0..m)
        .map(|v| {
            let row = out.w.row(v);
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map(|(c, _)| c)
                .unwrap()
        })
        .collect();

    // Map components to planted communities by majority vote, then score.
    let mut votes = vec![vec![0usize; COMMUNITIES]; COMMUNITIES];
    for (v, &c) in assignment.iter().enumerate() {
        votes[c][labels[v]] += 1;
    }
    let component_to_community: Vec<usize> = votes
        .iter()
        .map(|row| row.iter().enumerate().max_by_key(|&(_, n)| n).unwrap().0)
        .collect();
    let correct = assignment
        .iter()
        .enumerate()
        .filter(|&(v, &c)| component_to_community[c] == labels[v])
        .count();
    let acc = correct as f64 / m as f64;

    println!("component -> community map: {component_to_community:?}");
    println!("clustering accuracy: {:.1}% ({correct}/{m})", 100.0 * acc);

    // Pairwise diagnostic: how cleanly do the communities separate?
    #[allow(clippy::needless_range_loop)] // c is both index and label
    for c in 0..COMMUNITIES {
        let size = assignment.iter().filter(|&&a| a == c).count();
        println!(
            "  component {c}: {size} nodes, majority community {}",
            component_to_community[c]
        );
    }
    assert!(acc > 0.8, "planted communities should be recoverable");
    println!("OK: communities recovered");
    Ok(())
}
