//! The query mixes: voice queries never repeat within a run, and every
//! algorithm of a rotation gets queries of the same cost profile; short
//! queries come from a fixed pool of one- and two-term queries, walked
//! in rounds that send each pool query once.

use sparta_corpus::{CorpusModel, SynthCorpus, TermId};
use sparta_perfbench::inputs::{builder, Inputs};
use sparta_perfbench::workloads::{by_name, MAX_QUERY_LEN, SHORT_POOL};
use std::collections::HashSet;

fn small_corpus() -> SynthCorpus {
    SynthCorpus::build(CorpusModel::clueweb_sim(2_000, 42))
}

fn generate(workload: &str, requests: usize, seed: u64) -> Inputs {
    let corpus = small_corpus();
    let index = builder().build_memory(&corpus);
    let w = by_name(workload).expect("workload");
    Inputs::generate(w, &corpus, &index, requests, seed)
}

fn sorted(terms: &[TermId]) -> Vec<TermId> {
    let mut v = terms.to_vec();
    v.sort_unstable();
    v
}

#[test]
fn voice_queries_never_repeat() {
    let inputs = generate("voice-sparta-raw", 400, 7);
    assert_eq!(inputs.queries.len(), 400);
    assert_eq!(inputs.expected.len(), inputs.queries.len());
    let mut seen = HashSet::new();
    for slot in 0..400 {
        let q = &inputs.queries[inputs.query_of(slot)];
        assert!((1..=MAX_QUERY_LEN).contains(&q.len()), "{q:?}");
        assert!(seen.insert(sorted(q)), "slot {slot} repeats {q:?}");
    }
}

#[test]
fn every_algorithm_of_a_rotation_gets_the_same_cost_profile() {
    let corpus = small_corpus();
    let index = builder().build_memory(&corpus);
    let w = by_name("mixed-compressed-closed").expect("workload");
    let stats = corpus.stats();
    let cost = |q: &[TermId]| -> f64 { q.iter().map(|&t| f64::from(stats.df(t))).sum() };
    let algorithms = w.algorithms.len();
    let requests = 200 * algorithms;
    for seed in 1..=4 {
        let inputs = Inputs::generate(w, &corpus, &index, requests, seed);
        let mut mean = vec![0.0; algorithms];
        for slot in 0..requests {
            let q = &inputs.queries[inputs.query_of(slot)];
            mean[inputs.algorithm_of(slot)] += cost(q) / 200.0;
        }
        let lo = mean.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = mean.iter().copied().fold(0.0, f64::max);
        assert!(
            hi < 1.08 * lo,
            "seed {seed}: mean cost per algorithm {mean:?}"
        );
    }
}

#[test]
fn short_queries_repeat_in_rounds_over_a_fixed_pool() {
    let requests = 5 * SHORT_POOL;
    let inputs = generate("short-repeat-raw", requests, 7);
    assert_eq!(inputs.queries.len(), SHORT_POOL);
    assert_eq!(inputs.expected.len(), SHORT_POOL);
    let distinct: HashSet<Vec<TermId>> = inputs.queries.iter().map(|q| sorted(q)).collect();
    assert_eq!(distinct.len(), SHORT_POOL);
    let one_term = inputs.queries.iter().filter(|q| q.len() == 1).count();
    let two_term = inputs.queries.iter().filter(|q| q.len() == 2).count();
    assert_eq!((one_term, two_term), (SHORT_POOL / 2, SHORT_POOL / 2));
    for round in 0..requests / SHORT_POOL {
        let mut sent: Vec<usize> = (round * SHORT_POOL..(round + 1) * SHORT_POOL)
            .map(|slot| inputs.query_of(slot))
            .collect();
        sent.sort_unstable();
        assert_eq!(sent, (0..SHORT_POOL).collect::<Vec<_>>(), "round {round}");
    }
}

#[test]
fn the_seed_alone_picks_the_inputs() {
    for workload in ["voice-sparta-raw", "short-repeat-raw"] {
        let a = generate(workload, 300, 7);
        let b = generate(workload, 300, 7);
        let c = generate(workload, 300, 8);
        let order = |i: &Inputs| -> Vec<Vec<TermId>> {
            (0..300).map(|s| i.queries[i.query_of(s)].clone()).collect()
        };
        assert_eq!(order(&a), order(&b), "{workload}");
        assert_eq!(a.expected, b.expected, "{workload}");
        assert_ne!(order(&a), order(&c), "{workload}");
    }
}
