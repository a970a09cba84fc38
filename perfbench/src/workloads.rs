//! The benchmark's pinned inputs: corpus, k, server shape, admission
//! limits, and the workloads. Every number a run depends on lives here,
//! except the workload seed, which is a CLI argument.
//! `NOTES.md` records why each workload exists.

/// Documents in the ClueWeb-like synthetic corpus.
pub const CORPUS_DOCS: u64 = 20_000;
/// Seed of the corpus model; queries use the workload seed.
pub const CORPUS_SEED: u64 = 42;
/// Seed of the query log the voice-mix pools are drawn from; the
/// workload seed picks the queries a run sends from those pools.
pub const QUERY_LOG_SEED: u64 = 42;
/// Result-set size of every request.
pub const K: u32 = 200;
/// Longest query the voice mix draws (the paper's AOL sample tops out at 12).
pub const MAX_QUERY_LEN: usize = 12;
/// Worker threads of the server's shared pool.
pub const SERVER_WORKERS: usize = 2;
/// Admission: queries executing at once.
pub const MAX_IN_FLIGHT: usize = 2;
/// Admission: queries allowed to wait for a slot.
pub const QUEUE_CAPACITY: usize = 16;
/// Rounds a run is cut into. Each round times a few more setups (each
/// server is shut down again; the first setup's server answers all the
/// traffic), then runs a slice of the capacity phase and a slice of the
/// workload's own phase, so that the samples behind every end-to-end figure are spread
/// over the whole run rather than caught in one stretch of a drifting
/// machine.
pub const ROUNDS: usize = 7;
/// Setups per round: at least one, more while the round's setups have
/// taken less than `SETUP_ROUND_BUDGET_S`, at most
/// `MAX_SETUPS_PER_ROUND`. `setup_s` is the median of all of them, so a
/// 50 ms load gets more samples than a 0.5 s build.
pub const MAX_SETUPS_PER_ROUND: usize = 6;
pub const SETUP_ROUND_BUDGET_S: f64 = 0.3;
/// Closed-loop warm-up before anything is measured, in seconds.
pub const WARMUP_S: f64 = 0.5;
/// Share of `--seconds` given to the closed-loop capacity phase; the
/// rest goes to the workload's own measured phase. Both are split over
/// the rounds. A median over ~1 s rate windows needs more time to hold
/// still than a median latency over thousands of requests: with a share
/// of 0.2, `capacity_qps` spread the most of every workload's figures
/// when the machine was calm.
pub const CAPACITY_SHARE: f64 = 0.35;

/// Which index the server answers from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Raw posting arrays built in memory at setup (`build_memory`).
    RawMemory,
    /// Compressed index written to files during input generation and
    /// loaded at setup (`storage::load_compressed`).
    CompressedFiles,
}

/// The queries a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// Voice-length mix (§5.3, mean 4.2 terms, ≥ 5% with ≥ 10 terms),
    /// no query sent twice in a run.
    VoiceDistinct,
    /// 1–2 term queries from a pool of [`SHORT_POOL`] distinct queries,
    /// sent in shuffled rounds over the pool.
    ShortRepeated,
}

/// Distinct queries of [`QueryMix::ShortRepeated`]: half with one term,
/// half with two.
pub const SHORT_POOL: usize = 128;

/// Connections of every workload's own measured phase: a closed loop on
/// one connection times each request alone (see `NOTES.md` for why).
/// The capacity phase uses one connection per core.
pub const MEASURED_CONNECTIONS: usize = 1;

/// One named traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub backend: Backend,
    pub queries: QueryMix,
    /// Algorithms requests rotate through, in order.
    pub algorithms: &'static [&'static str],
    /// Ceiling on the request rate any phase can reach, used to size the
    /// request sequence; past its end the sequence wraps and queries
    /// repeat, which `gen.distinct_query_share` shows.
    pub max_qps: f64,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "voice-sparta-raw",
        backend: Backend::RawMemory,
        queries: QueryMix::VoiceDistinct,
        algorithms: &["sparta"],
        max_qps: 400.0,
    },
    Workload {
        name: "mixed-compressed-closed",
        backend: Backend::CompressedFiles,
        queries: QueryMix::VoiceDistinct,
        algorithms: &["sparta", "pra", "pbmw", "pjass"],
        max_qps: 500.0,
    },
    Workload {
        name: "short-repeat-raw",
        backend: Backend::RawMemory,
        queries: QueryMix::ShortRepeated,
        algorithms: &["sparta", "pnra", "snra", "pra", "pbmw", "pjass"],
        max_qps: 5000.0,
    },
];

/// Every algorithm some workload runs, in first-use order: the
/// per-algorithm rows of the per-layer metrics.
pub fn reported_algorithms() -> Vec<&'static str> {
    let mut out: Vec<&'static str> = Vec::new();
    for name in WORKLOADS.iter().flat_map(|w| w.algorithms) {
        if !out.contains(name) {
            out.push(name);
        }
    }
    out
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
