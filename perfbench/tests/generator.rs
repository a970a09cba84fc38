//! The generator against stub servers: due-time latency under a stall,
//! the thread and connection budget, and wrong answers counted as
//! failures.

use sparta_core::Oracle;
use sparta_corpus::Query;
use sparta_index::{InMemoryIndex, Posting};
use sparta_perfbench::check::{Expected, ScoreRule};
use sparta_perfbench::generator::{run_phase, Plan, RequestSource};
use sparta_server::{read_frame, write_frame, Frame, QueryRequest, TraceSummary, WireHit};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The thread census counts every generator thread in the process, so
/// the tests of this file run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

/// Replies to the n-th request (over all connections) with a frame,
/// optionally after stalling.
type Behaviour = dyn Fn(usize, &QueryRequest) -> (Duration, Frame) + Send + Sync;

/// A loopback server that answers with `Behaviour`, counting connections
/// and the generator threads alive while it serves.
struct Stub {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicUsize>,
    max_gen_threads: Arc<AtomicUsize>,
    accept: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

fn generator_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(Result::ok)
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|c| c.starts_with("perfbench-gen"))
        })
        .count()
}

impl Stub {
    fn start(behaviour: Arc<Behaviour>) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr");
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let max_gen_threads = Arc::new(AtomicUsize::new(0));
        let served = Arc::new(AtomicUsize::new(0));
        let (s, a, m) = (stop.clone(), accepted.clone(), max_gen_threads.clone());
        let accept = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            // ordering: Relaxed — the stop flag publishes no data; join synchronises.
            while !s.load(Ordering::Relaxed) {
                let Ok((stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                // ordering: Relaxed — a counter read after join.
                a.fetch_add(1, Ordering::Relaxed);
                stream.set_nonblocking(false).expect("blocking");
                let (behaviour, served, m) = (behaviour.clone(), served.clone(), m.clone());
                handlers.push(std::thread::spawn(move || {
                    let mut reader = stream.try_clone().expect("clone");
                    let mut writer = stream;
                    while let Ok(Frame::Request(req)) = read_frame(&mut reader) {
                        // ordering: Relaxed — a gauge read after join.
                        m.fetch_max(generator_threads(), Ordering::Relaxed);
                        // ordering: Relaxed — a request counter; only uniqueness matters.
                        let n = served.fetch_add(1, Ordering::Relaxed);
                        let (stall, reply) = behaviour(n, &req);
                        std::thread::sleep(stall);
                        if write_frame(&mut writer, &reply).is_err() {
                            break;
                        }
                    }
                }));
            }
            handlers
        });
        Self {
            addr,
            stop,
            accepted,
            max_gen_threads,
            accept: Some(accept),
        }
    }

    fn stop(mut self) {
        // ordering: Relaxed — see the accept loop.
        self.stop.store(true, Ordering::Relaxed);
        let handlers = self.accept.take().expect("running").join().expect("accept");
        for h in handlers {
            h.join().expect("handler");
        }
    }
}

fn empty_response() -> Frame {
    Frame::Response {
        query_tag: 0,
        hits: Vec::new(),
        summary: TraceSummary::default(),
    }
}

/// Requests with no terms; any `Response` is correct.
struct AnyAnswer;

impl RequestSource for AnyAnswer {
    fn encode(&self, _slot: usize) -> Vec<u8> {
        Frame::Request(QueryRequest {
            k: 10,
            algorithm: "sparta".to_string(),
            terms: vec![0],
        })
        .encode()
    }

    fn check(&self, _slot: usize, reply: &Frame) -> Result<(), String> {
        match reply {
            Frame::Response { .. } => Ok(()),
            other => Err(format!("{other:?}")),
        }
    }
}

#[test]
fn a_stall_charges_due_time_latency_to_every_request_behind_it() {
    let _serial = serial();
    const STALL: Duration = Duration::from_millis(200);
    let stub = Stub::start(Arc::new(|n, _req: &QueryRequest| {
        let stall = if n == 2 { STALL } else { Duration::ZERO };
        (stall, empty_response())
    }));
    // 40 requests, one every 10 ms, all on one connection.
    let schedule: Vec<u64> = (0..40).map(|i| i * 10_000_000).collect();
    let epoch = Instant::now();
    let phase = run_phase(
        stub.addr,
        Plan::Open {
            connections: 1,
            first_slot: 0,
            schedule: &schedule,
        },
        &AnyAnswer,
        epoch,
        false,
    );
    stub.stop();
    assert_eq!(phase.outcomes.len(), 40);
    assert_eq!(phase.failed(), 0);
    let mut by_slot = phase.outcomes.clone();
    by_slot.sort_by_key(|o| o.slot);
    let released = by_slot[2].done_ns;
    let first_due = by_slot[0].start_ns;
    assert!(released - by_slot[2].start_ns >= STALL.as_nanos() as u64);
    // Every request due while the stalled one was being served waits
    // for it, and its latency is charged from when it was due.
    let mut behind = 0;
    for o in &by_slot[3..] {
        assert_eq!(o.start_ns, first_due + schedule[o.slot], "timed from due");
        if o.start_ns < released {
            behind += 1;
            assert!(o.done_ns >= released, "slot {} overtook the stall", o.slot);
            assert!(o.latency_ns() >= released - o.start_ns);
        }
    }
    assert!(
        behind >= 15,
        "only {behind} requests queued behind the stall"
    );
    // The generator itself kept to the schedule through the stall.
    let mut lags = phase.send_lag_ns.clone();
    lags.sort_unstable();
    assert!(
        lags[lags.len() / 2] < 5_000_000,
        "median send lag {} ns",
        lags[lags.len() / 2]
    );
}

#[test]
fn a_due_request_skips_a_stalled_connection() {
    let _serial = serial();
    if std::thread::available_parallelism().map_or(1, |n| n.get()) < 2 {
        return; // one core, one connection: nothing to skip to
    }
    const STALL: Duration = Duration::from_millis(200);
    let stub = Stub::start(Arc::new(|n, _req: &QueryRequest| {
        let stall = if n == 0 { STALL } else { Duration::ZERO };
        (stall, empty_response())
    }));
    let schedule: Vec<u64> = (0..20).map(|i| i * 5_000_000).collect();
    let phase = run_phase(
        stub.addr,
        Plan::Open {
            connections: 2,
            first_slot: 0,
            schedule: &schedule,
        },
        &AnyAnswer,
        Instant::now(),
        false,
    );
    stub.stop();
    assert_eq!(phase.failed(), 0);
    let mut by_slot = phase.outcomes.clone();
    by_slot.sort_by_key(|o| o.slot);
    let released = by_slot[0].done_ns;
    // Requests due during the stall go to the idle connection and finish
    // long before the stalled one.
    let overtook = by_slot[1..]
        .iter()
        .filter(|o| o.start_ns < released && o.done_ns < released)
        .count();
    assert!(
        overtook >= 15,
        "only {overtook} of 19 requests overtook the stall"
    );
}

#[test]
fn never_more_than_one_thread_and_connection_per_core() {
    let _serial = serial();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let stub = Stub::start(Arc::new(|_, _req: &QueryRequest| {
        (Duration::from_micros(200), empty_response())
    }));
    for plan in [
        Plan::Closed {
            connections: 64,
            first_slot: 0,
            duration: Duration::from_millis(200),
        },
        Plan::Open {
            connections: 64,
            first_slot: 0,
            schedule: &(0..200).map(|i| i * 1_000_000).collect::<Vec<u64>>(),
        },
    ] {
        let phase = run_phase(stub.addr, plan, &AnyAnswer, Instant::now(), false);
        assert!(phase.connections <= cores);
        assert_eq!(phase.failed(), 0);
        assert!(!phase.outcomes.is_empty());
    }
    let (accepted, threads) = (stub.accepted.clone(), stub.max_gen_threads.clone());
    stub.stop();
    // ordering: Relaxed — both are read after the stub's threads joined.
    let accepted = accepted.load(Ordering::Relaxed);
    // ordering: Relaxed — as above.
    let threads = threads.load(Ordering::Relaxed);
    assert!(
        accepted <= 2 * cores,
        "{accepted} connections over two phases"
    );
    assert!(threads >= 1, "the thread census saw no generator thread");
    assert!(
        threads <= cores,
        "{threads} generator threads on {cores} cores"
    );
}

/// Requests for one real query, checked against its oracle.
struct Checked {
    expected: Expected,
}

impl RequestSource for Checked {
    fn encode(&self, _slot: usize) -> Vec<u8> {
        AnyAnswer.encode(0)
    }

    fn check(&self, _slot: usize, reply: &Frame) -> Result<(), String> {
        match reply {
            Frame::Response { hits, .. } => self
                .expected
                .check(hits, ScoreRule::Exact)
                .map_err(|m| format!("{m:?}")),
            other => Err(format!("{other:?}")),
        }
    }
}

#[test]
fn a_corrupted_score_is_a_failed_request_not_a_crash() {
    let _serial = serial();
    let postings = vec![
        Posting::new(0, 10),
        Posting::new(1, 20),
        Posting::new(2, 7),
        Posting::new(3, 30),
    ];
    let ix = InMemoryIndex::from_term_postings(vec![postings], 4);
    let oracle = Oracle::compute(&ix, &Query::new(vec![0]), 3);
    let truth: Vec<WireHit> = oracle
        .topk()
        .iter()
        .map(|h| WireHit {
            doc: h.doc,
            score: h.score,
        })
        .collect();
    let truth_for_stub = truth.clone();
    let stub = Stub::start(Arc::new(move |n, _req: &QueryRequest| {
        let mut hits = truth_for_stub.clone();
        if n == 5 {
            hits[1].score += 1;
        }
        let reply = if n == 7 {
            Frame::Error {
                code: sparta_server::ErrorCode::Shed,
                message: "shed".to_string(),
            }
        } else {
            Frame::Response {
                query_tag: n as u64,
                hits,
                summary: TraceSummary::default(),
            }
        };
        (Duration::ZERO, reply)
    }));
    let schedule: Vec<u64> = (0..20).map(|i| i * 1_000_000).collect();
    let source = Checked {
        expected: Expected::from_oracle(&oracle, 4),
    };
    let phase = run_phase(
        stub.addr,
        Plan::Open {
            connections: 1,
            first_slot: 0,
            schedule: &schedule,
        },
        &source,
        Instant::now(),
        false,
    );
    stub.stop();
    assert_eq!(phase.outcomes.len(), 20);
    let failed: Vec<usize> = {
        let mut f: Vec<usize> = phase
            .outcomes
            .iter()
            .filter(|o| !o.ok)
            .map(|o| o.slot)
            .collect();
        f.sort_unstable();
        f
    };
    assert_eq!(failed, vec![5, 7], "one corrupted score and one shed");
    assert_eq!(phase.failures.len(), 2);
    assert!(phase.failures[0].contains("Score"), "{:?}", phase.failures);
    assert!(phase.failures[1].contains("Shed"), "{:?}", phase.failures);
    assert_eq!(source.expected.check(&truth, ScoreRule::Exact), Ok(()));
}
