//! Input generation: corpus, query sequence, per-query expected answers,
//! and the compressed index files. All of it is a pure function of the
//! pinned constants in [`crate::workloads`] and the workload seed, and
//! none of it counts as setup.
//!
//! Inputs are built through `sparta-corpus` and `sparta-index` directly;
//! `sparta_bench::Dataset` is avoided because it reads its corpus size
//! and k from environment variables.

use crate::check::{Expected, ScoreRule};
use crate::generator::RequestSource;
use crate::workloads::{
    QueryMix, Workload, CORPUS_DOCS, CORPUS_SEED, K, MAX_QUERY_LEN, QUERY_LOG_SEED, SHORT_POOL,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparta_core::Oracle;
use sparta_corpus::{
    CorpusModel, Query, QueryLog, SynthCorpus, TermId, TfIdfScorer, VoiceLengthDistribution,
};
use sparta_index::storage::IndexWriter;
use sparta_index::{InMemoryIndex, Index, IndexBuilder, IndexKind, DEFAULT_BLOCK_SIZE};
use sparta_server::{Frame, QueryRequest};
use std::collections::HashSet;
use std::io;
use std::path::Path;

/// The index builder every workload uses: tf-idf integer scores, the
/// paper's 64-posting blocks.
pub fn builder() -> IndexBuilder<TfIdfScorer> {
    IndexBuilder::new(TfIdfScorer)
}

/// The pinned ClueWeb-like corpus.
pub fn corpus() -> SynthCorpus {
    SynthCorpus::build(CorpusModel::clueweb_sim(CORPUS_DOCS, CORPUS_SEED))
}

/// Everything a run sends and checks.
pub struct Inputs {
    /// Distinct queries.
    pub queries: Vec<Vec<TermId>>,
    /// Expected answer of each distinct query.
    pub expected: Vec<Expected>,
    /// Request order: slot `s` asks `queries[sequence[s % len]]`.
    pub sequence: Vec<u32>,
    /// Algorithms requests rotate through: slot `s` uses
    /// `algorithms[s % len]`.
    pub algorithms: &'static [&'static str],
}

impl Inputs {
    /// Generates `requests` slots of `w`'s query mix from `seed`, and
    /// precomputes the expected answer of every distinct query with the
    /// brute-force oracle over `oracle_index`.
    pub fn generate(
        w: &Workload,
        corpus: &SynthCorpus,
        oracle_index: &InMemoryIndex,
        requests: usize,
        seed: u64,
    ) -> Self {
        let (queries, sequence) = match w.queries {
            QueryMix::VoiceDistinct => {
                let queries = voice_distinct(corpus, requests, w.algorithms.len(), seed);
                let sequence = (0..queries.len() as u32).collect();
                (queries, sequence)
            }
            QueryMix::ShortRepeated => short_repeated(corpus, requests, seed),
        };
        // One oracle per distinct query, split over the cores.
        let threads = crate::generator::connection_budget(usize::MAX);
        let chunk = queries.len().div_ceil(threads).max(1);
        let expected = std::thread::scope(|s| {
            let handles: Vec<_> = queries
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|q| {
                                let query = Query::new(q.clone());
                                let oracle = Oracle::compute(oracle_index, &query, K as usize);
                                Expected::from_oracle(&oracle, oracle_index.num_docs())
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        });
        Self {
            queries,
            expected,
            sequence,
            algorithms: w.algorithms,
        }
    }

    /// The distinct-query index of `slot`.
    pub fn query_of(&self, slot: usize) -> usize {
        self.sequence[slot % self.sequence.len()] as usize
    }

    /// The algorithm index of `slot`.
    pub fn algorithm_of(&self, slot: usize) -> usize {
        slot % self.algorithms.len()
    }

    /// The request `slot` sends.
    pub fn request(&self, slot: usize) -> QueryRequest {
        QueryRequest {
            k: K,
            algorithm: self.algorithms[self.algorithm_of(slot)].to_string(),
            terms: self.queries[self.query_of(slot)].clone(),
        }
    }
}

impl RequestSource for Inputs {
    fn encode(&self, slot: usize) -> Vec<u8> {
        Frame::Request(self.request(slot)).encode()
    }

    fn check(&self, slot: usize, reply: &Frame) -> Result<(), String> {
        let query = self.query_of(slot);
        let algorithm = self.algorithms[self.algorithm_of(slot)];
        let what = || format!("slot {slot} ({algorithm}, terms {:?})", self.queries[query]);
        match reply {
            Frame::Response { hits, .. } => self.expected[query]
                .check(hits, ScoreRule::of(algorithm))
                .map_err(|m| format!("{}: {m:?}", what())),
            Frame::Error { code, message } => Err(format!("{}: {code:?} {message}", what())),
            Frame::Request(_) => Err(format!("{}: a request frame as reply", what())),
        }
    }
}

/// Voice-length mix (§5.3) without repeats.
///
/// Both the length and the cost of the queries a run sends are
/// stratified rather than drawn independently, because a run sends only
/// a few dozen of the long, expensive queries that set its latency
/// tail, and independent draws would make that tail a property of the
/// seed. Every algorithm of the rotation gets the same length sequence,
/// in which each stretch holds each length in proportion to the voice
/// distribution; within a length, each algorithm's consecutive queries
/// are spread over the cost range of its own share of a candidate pool
/// ([`CostSpread::dealt`]). One pool shared by the rotation would hand
/// algorithm `a` the picks `j ≡ a (mod algorithms)`, whose van der
/// Corput quantiles fall in one fixed cost quartile that the seed's
/// offset chooses, so the seed would decide which algorithm runs the
/// cheap queries and which the expensive ones. The pools come
/// from one fixed query log ([`QUERY_LOG_SEED`]), four times larger than
/// a run needs, so that every seed sees the same cost profile, tail
/// included; the seed picks the offsets into the pools and the order
/// within blocks, so two seeds send mostly different queries in a
/// different order. Each slot takes a fresh query of its length (the
/// nearest length with queries left, once a length runs out).
fn voice_distinct(
    corpus: &SynthCorpus,
    requests: usize,
    algorithms: usize,
    seed: u64,
) -> Vec<Vec<TermId>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0076_6F69_6365);
    let lengths = stratified_lengths(requests.div_ceil(algorithms), &mut rng);
    // The most likely length has probability ≈ 0.21.
    let per_length = 4 * (requests * 3 / 10 + 16);
    let log = QueryLog::generate(corpus.stats(), per_length, MAX_QUERY_LEN, QUERY_LOG_SEED);
    // pools[m][a]: queries of length m + 1 for the a-th algorithm.
    let mut pools: Vec<Vec<CostSpread>> = (1..=MAX_QUERY_LEN)
        .map(|m| CostSpread::dealt(corpus, log.of_length(m), algorithms, &mut rng))
        .collect();
    let mut queries = Vec::with_capacity(requests);
    for slot in 0..requests {
        let a = slot % algorithms;
        let want = lengths[slot / algorithms] - 1;
        let nearest = (0..MAX_QUERY_LEN)
            .filter(|&m| !pools[m][a].is_empty())
            .min_by_key(|&m| m.abs_diff(want));
        let Some(m) = nearest else { break };
        queries.push(pools[m][a].next().expect("non-empty pool"));
    }
    queries
}

/// A pool of [`SHORT_POOL`] distinct queries, half of one term and half
/// of two, each half spread over its cost range ([`CostSpread`]) so that
/// the pool's cost profile, and with it the latency tail, does not hang
/// on the seed. `requests` slots walk the pool in rounds, each round a
/// fresh shuffle, so every stretch of a run repeats each query about
/// equally often.
fn short_repeated(
    corpus: &SynthCorpus,
    requests: usize,
    seed: u64,
) -> (Vec<Vec<TermId>>, Vec<u32>) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0073_686F_7274);
    let log = QueryLog::generate(corpus.stats(), 8 * SHORT_POOL, 2, seed);
    let mut queries = Vec::with_capacity(SHORT_POOL);
    for m in 1..=2 {
        let mut pool = CostSpread::new(corpus, log.of_length(m), &mut rng);
        queries.extend((0..SHORT_POOL / 2).map_while(|_| pool.next()));
    }
    let mut sequence = Vec::with_capacity(requests + queries.len());
    while sequence.len() < requests {
        let mut round: Vec<u32> = (0..queries.len() as u32).collect();
        shuffle(&mut round, &mut rng);
        sequence.extend(round);
    }
    (queries, sequence)
}

/// Distinct queries handed out spread over their cost range: sorted by
/// cost (the postings they touch, Σ df), the j-th query handed out is
/// the one at quantile `vdc(j) + offset (mod 1)`, where `vdc` is the
/// base-2 van der Corput sequence and the offset is seeded. Any run of
/// consecutive picks covers the cost range about evenly.
struct CostSpread {
    by_cost: Vec<Vec<TermId>>,
    used: Vec<bool>,
    offset: f64,
    picks: u64,
}

impl CostSpread {
    fn new(corpus: &SynthCorpus, candidates: &[Query], rng: &mut StdRng) -> Self {
        let mut one = Self::dealt(corpus, candidates, 1, rng);
        one.pop().expect("one part")
    }

    /// The distinct candidates, sorted by cost and dealt round-robin
    /// into `parts` pools, so that every pool spans the whole cost range;
    /// each pool has its own seeded offset.
    fn dealt(
        corpus: &SynthCorpus,
        candidates: &[Query],
        parts: usize,
        rng: &mut StdRng,
    ) -> Vec<Self> {
        let stats = corpus.stats();
        let mut seen = HashSet::new();
        let mut by_cost: Vec<(u64, Vec<TermId>)> = candidates
            .iter()
            .filter(|q| seen.insert(sorted(&q.terms)))
            .map(|q| {
                let cost = q.terms.iter().map(|&t| u64::from(stats.df(t))).sum();
                (cost, q.terms.clone())
            })
            .collect();
        by_cost.sort_unstable();
        (0..parts)
            .map(|part| {
                let mine: Vec<Vec<TermId>> = by_cost
                    .iter()
                    .skip(part)
                    .step_by(parts)
                    .map(|(_, q)| q.clone())
                    .collect();
                Self {
                    used: vec![false; mine.len()],
                    by_cost: mine,
                    offset: rng.gen::<f64>(),
                    picks: 0,
                }
            })
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.picks as usize >= self.by_cost.len()
    }

    fn next(&mut self) -> Option<Vec<TermId>> {
        if self.is_empty() {
            return None;
        }
        let vdc = self.picks.reverse_bits() as f64 / 2f64.powi(64);
        self.picks += 1;
        let n = self.by_cost.len();
        let mut i = (((vdc + self.offset).fract() * n as f64) as usize).min(n - 1);
        while self.used[i] {
            i = (i + 1) % n;
        }
        self.used[i] = true;
        Some(self.by_cost[i].clone())
    }
}

/// Block within which stratified sequences are shuffled.
const SHUFFLE_BLOCK: usize = 32;

/// `n` query lengths whose every prefix follows the voice distribution
/// as closely as whole counts allow (largest-deficit-first), shuffled
/// within blocks.
fn stratified_lengths(n: usize, rng: &mut StdRng) -> Vec<usize> {
    // The distribution's probabilities, estimated once from a fixed
    // sample so they are the same for every seed.
    let dist = VoiceLengthDistribution::new(MAX_QUERY_LEN);
    let mut fixed = StdRng::seed_from_u64(0);
    let draws = 200_000;
    let mut p = [0.0f64; MAX_QUERY_LEN];
    for _ in 0..draws {
        p[dist.sample(&mut fixed) - 1] += 1.0 / f64::from(draws);
    }
    let mut counts = [0.0f64; MAX_QUERY_LEN];
    let mut out: Vec<usize> = (0..n)
        .map(|j| {
            let m = (0..MAX_QUERY_LEN)
                .max_by(|&a, &b| {
                    let da = p[a] * (j + 1) as f64 - counts[a];
                    let db = p[b] * (j + 1) as f64 - counts[b];
                    da.total_cmp(&db).then(b.cmp(&a))
                })
                .expect("lengths");
            counts[m] += 1.0;
            m + 1
        })
        .collect();
    for block in out.chunks_mut(SHUFFLE_BLOCK) {
        shuffle(block, rng);
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

fn sorted(terms: &[TermId]) -> Vec<TermId> {
    let mut key = terms.to_vec();
    key.sort_unstable();
    key
}

/// Writes the compressed index of `corpus` to `dir`, the way an index
/// is "pre-built offline and stored on disk" (§5.1).
pub fn write_compressed(corpus: &SynthCorpus, dir: &Path) -> io::Result<()> {
    let stats = corpus.stats();
    let b = builder();
    let mut writer = IndexWriter::create_with_kind(
        dir,
        stats.num_docs,
        stats.vocab_size() as u32,
        DEFAULT_BLOCK_SIZE,
        IndexKind::Compressed,
    )?;
    let mut failed = None;
    corpus.for_each_term(|t, raw| {
        if failed.is_none() {
            if let Err(e) = writer.add_term(b.score_term(t, raw, stats)) {
                failed = Some(e);
            }
        }
    });
    match failed {
        Some(e) => Err(e),
        None => writer.finish(),
    }
}
