//! A bounded load generator: at most one thread and one connection per
//! core, frames pipelined on each connection, replies matched FIFO.
//!
//! The server answers the requests of one connection in order, so the
//! n-th reply on a connection belongs to the n-th request sent on it.
//! Closed loop keeps one request in flight per connection and times it
//! from send. Open loop sends on a precomputed schedule, whatever the
//! server's progress, and times each request from its *due* time, so a
//! stall charges every request queued behind it.
//!
//! Socket read timeouts sleep in whole scheduler ticks (milliseconds),
//! which is far coarser than the schedule. An open-loop connection
//! therefore reads in non-blocking mode and sleeps at most
//! [`POLL_INTERVAL`] between reads, or until the next request is due.

use crate::spans::{Span, SpanLog};
use sparta_server::{Frame, TraceSummary, MAX_PAYLOAD};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Longest sleep of an open-loop connection between reads.
pub const POLL_INTERVAL: Duration = Duration::from_micros(100);

/// How long a connection waits for a reply before it declares the
/// server stuck and fails what is still in flight.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Response payloads each connection keeps for the protocol probes.
const SAMPLE_FRAMES: usize = 32;

/// Failure reasons each connection keeps for the run's report.
const KEPT_FAILURES: usize = 8;

/// The requests a run sends, addressed by slot: a position in the
/// workload's request sequence, unique within a run.
pub trait RequestSource: Sync {
    /// The encoded request frame for `slot`.
    fn encode(&self, slot: usize) -> Vec<u8>;
    /// Whether `reply` is a correct answer to `slot`; `Err` says why not.
    fn check(&self, slot: usize, reply: &Frame) -> Result<(), String>;
}

/// How a phase offers its requests.
#[derive(Debug, Clone, Copy)]
pub enum Plan<'a> {
    /// Each connection sends slots `first, first + 1, …` (shared across
    /// connections) one at a time until `duration` has passed.
    Closed {
        connections: usize,
        first_slot: usize,
        duration: Duration,
    },
    /// Request `i` is due `schedule[i]` ns after the phase starts and
    /// carries slot `first_slot + i`.
    Open {
        connections: usize,
        first_slot: usize,
        schedule: &'a [u64],
    },
}

impl Plan<'_> {
    fn connections(&self) -> usize {
        match *self {
            Plan::Closed { connections, .. } | Plan::Open { connections, .. } => connections,
        }
    }
}

/// One request's fate.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub slot: usize,
    /// Due time (open loop) or send time (closed loop), ns on the run clock.
    pub start_ns: u64,
    /// When the reply had arrived (or the request was given up), ns.
    pub done_ns: u64,
    /// Answered and correct.
    pub ok: bool,
    /// The server's execution summary, when it answered with hits.
    pub summary: Option<TraceSummary>,
    /// Hits in the answer.
    pub hits: u32,
}

impl Outcome {
    fn failed(slot: usize, start_ns: u64, done_ns: u64) -> Self {
        Self {
            slot,
            start_ns,
            done_ns,
            ok: false,
            summary: None,
            hits: 0,
        }
    }

    /// Latency charged to the request: from due (or send) to reply.
    pub fn latency_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.start_ns)
    }
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Every request attempted, answered or not, in no fixed order.
    pub outcomes: Vec<Outcome>,
    /// How late each open-loop send was against its due time, ns.
    pub send_lag_ns: Vec<u64>,
    /// Requests the plan offered (open loop: the schedule length).
    pub offered: usize,
    /// Connections (and generator threads) actually used.
    pub connections: usize,
    /// When the phase started, ns on the run clock.
    pub start_ns: u64,
    /// Wall time of the phase, ns.
    pub wall_ns: u64,
    /// Raw response payloads kept for the protocol probes.
    pub sample_payloads: Vec<Vec<u8>>,
    /// Why the first failed requests failed (a few per connection).
    pub failures: Vec<String>,
    /// Client-side spans, when tracing.
    pub spans: Vec<Span>,
}

impl PhaseResult {
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }

    /// Appends `later`, a later slice of the same phase: the result
    /// covers both, and its wall time is their sum.
    pub fn absorb(&mut self, later: PhaseResult) {
        if self.wall_ns == 0 {
            self.start_ns = later.start_ns;
        }
        self.outcomes.extend(later.outcomes);
        self.send_lag_ns.extend(later.send_lag_ns);
        self.offered += later.offered;
        self.connections = self.connections.max(later.connections);
        self.wall_ns += later.wall_ns;
        self.sample_payloads.extend(later.sample_payloads);
        self.failures.extend(later.failures);
        self.spans.extend(later.spans);
    }
}

/// Connections the generator opens for a plan asking for `requested`:
/// never more than the machine has cores.
pub fn connection_budget(requested: usize) -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    requested.clamp(1, cores)
}

/// Runs one phase against the server at `addr`. `epoch` is the run
/// clock every timestamp is measured on; spans are recorded when
/// `trace` is set.
pub fn run_phase(
    addr: SocketAddr,
    plan: Plan<'_>,
    source: &dyn RequestSource,
    epoch: Instant,
    trace: bool,
) -> PhaseResult {
    let connections = connection_budget(plan.connections());
    let shared = Shared {
        plan,
        start_ns: now_ns(epoch),
        next: AtomicUsize::new(0),
        outstanding: (0..connections).map(|_| AtomicUsize::new(0)).collect(),
    };
    let results: Vec<ConnResult> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..connections)
            .map(|c| {
                let shared = &shared;
                std::thread::Builder::new()
                    .name(format!("perfbench-gen-{c}"))
                    .spawn_scoped(s, move || {
                        let mut conn = ConnState::new(c, shared, epoch, source, trace);
                        conn.drive(TcpStream::connect(addr).ok());
                        conn.result
                    })
                    .expect("spawn generator thread")
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let end_ns = now_ns(epoch);
    let mut out = PhaseResult {
        connections,
        start_ns: shared.start_ns,
        wall_ns: end_ns - shared.start_ns,
        ..PhaseResult::default()
    };
    for r in results {
        out.outcomes.extend(r.outcomes);
        out.send_lag_ns.extend(r.send_lag_ns);
        out.sample_payloads.extend(r.sample_payloads);
        out.failures.extend(r.failures);
        out.spans.extend(r.spans.into_spans());
    }
    out.offered = match plan {
        Plan::Open {
            schedule,
            first_slot,
            ..
        } => {
            // Requests no connection lived to claim fail too.
            let claimed = shared.next.load(Ordering::Relaxed).min(schedule.len());
            for (i, &due) in schedule.iter().enumerate().skip(claimed) {
                let due = shared.start_ns + due;
                out.outcomes
                    .push(Outcome::failed(first_slot + i, due, end_ns.max(due)));
            }
            schedule.len()
        }
        Plan::Closed { .. } => out.outcomes.len(),
    };
    out
}

fn now_ns(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// How long an open-loop request may stay unclaimed before any
/// connection takes it, not only a least-loaded one.
const CLAIM_GRACE_NS: u64 = 1_000_000;

/// What the connections of one phase share.
struct Shared<'a> {
    plan: Plan<'a>,
    start_ns: u64,
    /// Closed loop: slots handed out. Open loop: schedule entries claimed.
    next: AtomicUsize,
    /// Requests in flight on each connection; `usize::MAX` once it is gone.
    outstanding: Vec<AtomicUsize>,
}

#[derive(Default)]
struct ConnResult {
    outcomes: Vec<Outcome>,
    send_lag_ns: Vec<u64>,
    sample_payloads: Vec<Vec<u8>>,
    failures: Vec<String>,
    spans: SpanLog,
}

/// A request sent and not yet answered.
struct Pending {
    slot: usize,
    start_ns: u64,
    /// Span id of the request, when tracing.
    span: u64,
}

struct ConnState<'a> {
    me: usize,
    shared: &'a Shared<'a>,
    epoch: Instant,
    source: &'a dyn RequestSource,
    trace: bool,
    in_flight: VecDeque<Pending>,
    buf: Vec<u8>,
    result: ConnResult,
}

/// Why a connection stopped early.
struct Broken;

impl<'a> ConnState<'a> {
    fn new(
        me: usize,
        shared: &'a Shared<'a>,
        epoch: Instant,
        source: &'a dyn RequestSource,
        trace: bool,
    ) -> Self {
        Self {
            me,
            shared,
            epoch,
            source,
            trace,
            in_flight: VecDeque::new(),
            buf: Vec::with_capacity(1 << 16),
            result: ConnResult::default(),
        }
    }

    fn now(&self) -> u64 {
        now_ns(self.epoch)
    }

    /// Runs the plan on `stream` (`None`: the connection failed to open)
    /// and fails whatever is in flight when the connection breaks.
    fn drive(&mut self, stream: Option<TcpStream>) {
        let finished = match (stream, self.shared.plan) {
            (
                Some(mut stream),
                Plan::Closed {
                    first_slot,
                    duration,
                    ..
                },
            ) => {
                let _ = stream.set_nodelay(true);
                let deadline = self.shared.start_ns + duration.as_nanos() as u64;
                self.closed_loop(&mut stream, first_slot, deadline)
            }
            (Some(mut stream), Plan::Open { .. }) => {
                let _ = stream.set_nodelay(true);
                self.open_loop(&mut stream)
            }
            (None, Plan::Closed { first_slot, .. }) => {
                // The one request this connection would have sent.
                let now = self.now();
                // ordering: Relaxed — a slot counter; only uniqueness matters.
                let slot = first_slot + self.shared.next.fetch_add(1, Ordering::Relaxed);
                self.result.outcomes.push(Outcome::failed(slot, now, now));
                Err(Broken)
            }
            (None, Plan::Open { .. }) => Err(Broken),
        };
        if finished.is_err() {
            self.publish_outstanding(usize::MAX);
            let me = self.me;
            self.note_failure(|| format!("connection {me} broke"));
            let done = self.now();
            while let Some(p) = self.in_flight.pop_front() {
                self.finish(p, done, false, None);
            }
        }
    }

    fn note_failure(&mut self, why: impl FnOnce() -> String) {
        if self.result.failures.len() < KEPT_FAILURES {
            let why = why();
            self.result.failures.push(why);
        }
    }

    fn publish_outstanding(&self, n: usize) {
        // ordering: Relaxed — a load-balancing hint; nothing is published with it.
        self.shared.outstanding[self.me].store(n, Ordering::Relaxed);
    }

    fn closed_loop(
        &mut self,
        stream: &mut TcpStream,
        first_slot: usize,
        deadline_ns: u64,
    ) -> Result<(), Broken> {
        stream.set_nonblocking(false).map_err(|_| Broken)?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|_| Broken)?;
        loop {
            let now = self.now();
            if now >= deadline_ns {
                return Ok(());
            }
            // ordering: Relaxed — a slot counter; only uniqueness matters.
            let slot = first_slot + self.shared.next.fetch_add(1, Ordering::Relaxed);
            self.send(stream, slot, now)?;
            while !self.in_flight.is_empty() {
                // A blocking read returns without bytes only when the
                // reply timeout expired (or on a stray signal).
                if !self.read_some(stream)? && self.now() - now > REPLY_TIMEOUT.as_nanos() as u64 {
                    return Err(Broken);
                }
            }
        }
    }

    /// The next unclaimed open-loop request: `(schedule index, due ns,
    /// slot)`.
    fn next_unclaimed(&self) -> Option<(usize, u64, usize)> {
        let Plan::Open {
            schedule,
            first_slot,
            ..
        } = self.shared.plan
        else {
            return None;
        };
        // ordering: Relaxed — claim_due's compare_exchange arbitrates claims.
        let i = self.shared.next.load(Ordering::Relaxed);
        schedule
            .get(i)
            .map(|&d| (i, self.shared.start_ns + d, first_slot + i))
    }

    /// Claims the next request of the open-loop schedule if it is due and
    /// this connection has no more requests in flight than any other (or
    /// the request has waited past the grace period): requests join the
    /// shortest queue. Returns `(due ns, slot)`.
    fn claim_due(&self, now: u64) -> Option<(u64, usize)> {
        let (i, due, slot) = self.next_unclaimed()?;
        if due > now {
            return None;
        }
        let least = self
            .shared
            .outstanding
            .iter()
            // ordering: Relaxed — see publish_outstanding.
            .map(|o| o.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0);
        if self.in_flight.len() > least && now - due < CLAIM_GRACE_NS {
            return None;
        }
        self.shared
            .next
            // ordering: Relaxed — claims need only be unique.
            .compare_exchange(i, i + 1, Ordering::Relaxed, Ordering::Relaxed)
            .ok()?;
        Some((due, slot))
    }

    fn open_loop(&mut self, stream: &mut TcpStream) -> Result<(), Broken> {
        stream.set_nonblocking(true).map_err(|_| Broken)?;
        let mut last_progress = self.now();
        loop {
            let mut now = self.now();
            while let Some((due, slot)) = self.claim_due(now) {
                self.result.send_lag_ns.push(now - due);
                self.send(stream, slot, due)?;
                self.publish_outstanding(self.in_flight.len());
                now = self.now();
            }
            if self.in_flight.is_empty() && self.next_unclaimed().is_none() {
                return Ok(());
            }
            let answered = self.result.outcomes.len();
            let got = self.read_some(stream)?;
            if self.result.outcomes.len() > answered || self.in_flight.is_empty() {
                self.publish_outstanding(self.in_flight.len());
                last_progress = self.now();
            } else if self.now() - last_progress > REPLY_TIMEOUT.as_nanos() as u64 {
                return Err(Broken);
            }
            if !got {
                // Nap until the next request is due; one that is due but
                // left to a less loaded connection is looked at again when
                // its grace runs out, so this thread never spins while the
                // connection it defers to needs the core.
                let now = self.now();
                let wake = match self.next_unclaimed() {
                    Some((_, due, _)) if due <= now => due + CLAIM_GRACE_NS,
                    Some((_, due, _)) => due,
                    None => u64::MAX,
                };
                let nap = Duration::from_nanos(wake.saturating_sub(now)).min(POLL_INTERVAL);
                if !nap.is_zero() {
                    std::thread::sleep(nap);
                }
            }
        }
    }

    /// Encodes and writes `slot`'s request; `start_ns` is when its
    /// latency starts (due time or send time).
    /// A request whose write fails stays in flight, so the caller's
    /// cleanup fails it with the rest.
    fn send(&mut self, stream: &mut TcpStream, slot: usize, start_ns: u64) -> Result<(), Broken> {
        let t_encode = self.now();
        let frame = self.source.encode(slot);
        let t_write = self.now();
        let span = if self.trace {
            self.result.spans.reserve()
        } else {
            0
        };
        self.in_flight.push_back(Pending {
            slot,
            start_ns,
            span,
        });
        write_fully(stream, &frame).map_err(|_| Broken)?;
        if self.trace {
            let t_sent = self.now();
            let log = &mut self.result.spans;
            log.child(span, slot, "protocol.encode", t_encode, t_write);
            log.child(span, slot, "client.write", t_write, t_sent);
        }
        Ok(())
    }

    /// Reads once (blocking or not, per the socket's mode) and settles
    /// every reply completed by the bytes read. Returns whether any
    /// bytes arrived.
    fn read_some(&mut self, stream: &mut TcpStream) -> Result<bool, Broken> {
        let mut chunk = [0u8; 1 << 14];
        let t_read = self.now();
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(Broken),
            Ok(n) => n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                return Ok(false)
            }
            Err(_) => return Err(Broken),
        };
        let t_got = self.now();
        self.buf.extend_from_slice(&chunk[..n]);
        let mut at = 0;
        while self.buf.len() - at >= 4 {
            let len =
                u32::from_le_bytes(self.buf[at..at + 4].try_into().expect("4 bytes")) as usize;
            if len > MAX_PAYLOAD {
                return Err(Broken);
            }
            if self.buf.len() - at - 4 < len {
                break;
            }
            let payload = &self.buf[at + 4..at + 4 + len];
            let Some(p) = self.in_flight.pop_front() else {
                return Err(Broken); // a reply nobody asked for
            };
            let t_decode = self.now();
            let decoded = Frame::decode_payload(payload);
            let t_check = self.now();
            if self.result.sample_payloads.len() < SAMPLE_FRAMES {
                self.result.sample_payloads.push(payload.to_vec());
            }
            let Ok(frame) = decoded else {
                self.finish(p, t_check, false, None);
                return Err(Broken);
            };
            let verdict = self.source.check(p.slot, &frame);
            let done = self.now();
            let ok = verdict.is_ok();
            if let Err(why) = verdict {
                self.note_failure(|| why);
            }
            if self.trace {
                let log = &mut self.result.spans;
                log.child(p.span, p.slot, "client.read", t_read, t_got);
                log.child(p.span, p.slot, "protocol.decode", t_decode, t_check);
                log.child(p.span, p.slot, "check.oracle", t_check, done);
            }
            let answer = match &frame {
                Frame::Response { summary, hits, .. } => Some((*summary, hits.len() as u32)),
                _ => None,
            };
            // The reply was complete when the read returned; decode and
            // check are the client's own work.
            self.finish(p, t_got, ok, answer);
            at += 4 + len;
        }
        self.buf.drain(..at);
        Ok(true)
    }

    fn finish(&mut self, p: Pending, done_ns: u64, ok: bool, answer: Option<(TraceSummary, u32)>) {
        if self.trace && p.span != 0 {
            self.result
                .spans
                .close(p.span, p.slot, "request", p.start_ns, done_ns);
        }
        self.result.outcomes.push(Outcome {
            slot: p.slot,
            start_ns: p.start_ns,
            done_ns,
            ok,
            summary: answer.map(|a| a.0),
            hits: answer.map_or(0, |a| a.1),
        });
    }
}

/// `write_all` that also rides out `WouldBlock` on a non-blocking socket.
fn write_fully(stream: &mut TcpStream, mut bytes: &[u8]) -> std::io::Result<()> {
    let give_up = Instant::now() + REPLY_TIMEOUT;
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                if Instant::now() > give_up {
                    return Err(ErrorKind::TimedOut.into());
                }
                std::thread::sleep(POLL_INTERVAL);
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}
