//! Topic modeling on a bag-of-words matrix (the paper's text-mining
//! motivation, §1): rows are vocabulary terms, columns are documents,
//! `W`'s columns are topics, `H`'s columns are per-document topic
//! weights.
//!
//! We plant `k` ground-truth topics, generate sparse documents as
//! mixtures, factorize with HPC-NMF, and verify the planted topics are
//! recovered (matched by cosine similarity).
//!
//! ```sh
//! cargo run --release --example topic_modeling
//! ```

use hpc_nmf::prelude::*;
use nmf_sparse::Coo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const VOCAB: usize = 2_000;
const DOCS: usize = 800;
const TOPICS: usize = 6;
const WORDS_PER_DOC: usize = 120;

/// Plants `TOPICS` topics, each concentrated on its own vocabulary band
/// with a heavy head, and samples documents as 1-2 topic mixtures.
fn generate(seed: u64) -> (Input, Vec<Vec<usize>>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Topic t's band of characteristic terms.
    let band = VOCAB / TOPICS;
    let top_terms: Vec<Vec<usize>> = (0..TOPICS)
        .map(|t| (t * band..t * band + 20).collect())
        .collect();

    let mut coo = Coo::with_capacity(VOCAB, DOCS, DOCS * WORDS_PER_DOC);
    let mut doc_topic = Vec::with_capacity(DOCS);
    for d in 0..DOCS {
        let main_topic = rng.gen_range(0..TOPICS);
        doc_topic.push(main_topic);
        let second = rng.gen_range(0..TOPICS);
        for _ in 0..WORDS_PER_DOC {
            let topic = if rng.gen::<f64>() < 0.8 {
                main_topic
            } else {
                second
            };
            // Zipf-ish within the topic band: prefer the head terms.
            let r: f64 = rng.gen::<f64>();
            let offset = ((band as f64) * r * r) as usize;
            let term = topic * band + offset.min(band - 1);
            coo.push(term, d, 1.0);
        }
    }
    (Input::Sparse(coo.to_csr()), top_terms, doc_topic)
}

fn cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    dot / (na * nb).max(f64::MIN_POSITIVE)
}

fn main() -> Result<(), NmfError> {
    let (input, top_terms, doc_topic) = generate(2024);
    let (m, n) = input.shape();
    println!(
        "bag-of-words: {m} terms x {n} documents, {} nonzeros (density {:.4})",
        input.nnz(),
        input.nnz() as f64 / (m * n) as f64
    );

    let p = 8;
    let mut model = Nmf::on(&input)
        .config(NmfConfig::new(TOPICS).with_max_iters(30))
        .algo(Algo::Hpc2D)
        .ranks(p)
        .build()?;
    model.run();
    let out = model.into_output();
    println!(
        "factorized with k={TOPICS} on {p} ranks: rel error {:.3}",
        out.rel_error
    );

    // Match each planted topic to the recovered W column with highest
    // cosine similarity over the vocabulary.
    let mut used = [false; TOPICS];
    let mut total_sim = 0.0;
    let mut doc_correct = 0usize;
    let mut topic_of_component = [0usize; TOPICS];
    #[allow(clippy::needless_range_loop)] // t is both index and topic id
    for t in 0..TOPICS {
        // Indicator vector of the planted topic's band.
        let mut indicator = vec![0.0; m];
        let band = VOCAB / TOPICS;
        indicator[t * band..(t + 1) * band].fill(1.0);
        let (best_c, best_sim) = (0..TOPICS)
            .filter(|&c| !used[c])
            .map(|c| (c, cosine(&out.w.col(c), &indicator)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        used[best_c] = true;
        topic_of_component[best_c] = t;
        total_sim += best_sim;
        let head: Vec<usize> = {
            let col = out.w.col(best_c);
            let mut idx: Vec<usize> = (0..m).collect();
            idx.sort_unstable_by(|&a, &b| col[b].total_cmp(&col[a]));
            idx.into_iter().take(5).collect()
        };
        println!(
            "planted topic {t} -> component {best_c} (cosine {best_sim:.3}); top terms {head:?} \
             (expected within {:?}..)",
            &top_terms[t][..3]
        );
    }
    println!(
        "mean topic cosine similarity: {:.3}",
        total_sim / TOPICS as f64
    );

    // Document classification: argmax of H column vs planted main topic.
    #[allow(clippy::needless_range_loop)] // d indexes both H and doc_topic
    for d in 0..n {
        let mut best = 0;
        for c in 1..TOPICS {
            if out.h[(c, d)] > out.h[(best, d)] {
                best = c;
            }
        }
        if topic_of_component[best] == doc_topic[d] {
            doc_correct += 1;
        }
    }
    let acc = doc_correct as f64 / n as f64;
    println!(
        "document topic accuracy: {:.1}% ({doc_correct}/{n})",
        100.0 * acc
    );
    assert!(acc > 0.8, "planted topics should be recoverable");
    println!("OK: topics recovered");
    Ok(())
}
