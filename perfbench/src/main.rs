//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Untraced (`--trace 0`), a run generates its inputs, sets the server
//! up, warms up, and then runs [`ROUNDS`] rounds, each of them a few
//! more timed setups, a slice of the closed-loop capacity phase on one
//! connection per core, and a slice of the workload's own phase; it
//! prints every end-to-end metric. Traced (`--trace 1`), the rounds
//! have no capacity slices; a second, traced copy of the workload's
//! phase follows on a server with phase spans on, then the layer
//! probes; it writes the spans to `out/` and prints every per-layer
//! metric. The last line of standard output is the JSON result either
//! way.

#![forbid(unsafe_code)]

use sparta_core::SearchConfig;
use sparta_corpus::{SynthCorpus, TermId};
use sparta_index::{storage, Index};
use sparta_obs::{profile_recorder, ExecSnapshot, ServerMetrics, ServerSnapshot, StageSnapshot};
use sparta_perfbench::generator::{self, Outcome, PhaseResult, Plan};
use sparta_perfbench::inputs::{self, Inputs};
use sparta_perfbench::probes;
use sparta_perfbench::report::{
    completion_rates, latency, median, peak_rss_mib, percentile, ratio, Metrics,
};
use sparta_perfbench::spans::{self, Span, SpanLog};
use sparta_perfbench::workloads::{
    self, reported_algorithms, Backend, Workload, CAPACITY_SHARE, K, MAX_IN_FLIGHT,
    MAX_SETUPS_PER_ROUND, MEASURED_CONNECTIONS, QUEUE_CAPACITY, ROUNDS, SERVER_WORKERS,
    SETUP_ROUND_BUDGET_S, WARMUP_S,
};
use sparta_server::{serve, AdmissionConfig, BatchScheduler, Frame, ServerHandle};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(workloads::by_name(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let index_dir = out_dir.join(format!("index-{}", std::process::id()));
    let result = run(&args, &out_dir, &index_dir);
    let _ = std::fs::remove_dir_all(&index_dir);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// The server every setup starts: 2-worker shared pool, exact search.
fn start_server(index: Arc<dyn Index>, spans: bool) -> std::io::Result<ServerHandle> {
    let scheduler = BatchScheduler::new(
        index,
        SearchConfig::exact(K as usize).with_spans(spans),
        SERVER_WORKERS,
        AdmissionConfig::new(MAX_IN_FLIGHT, QUEUE_CAPACITY),
        ServerMetrics::new(),
    );
    serve("127.0.0.1:0", scheduler)
}

fn run(args: &Args, out_dir: &Path, index_dir: &Path) -> Result<(), String> {
    let w = args.workload;
    let epoch = Instant::now();
    let mut main_log = SpanLog::new();
    let ns = |t: Instant| t.duration_since(epoch).as_nanos() as u64;

    // ---- Input generation (not setup).
    let corpus = inputs::corpus();
    let requests = (w.max_qps * (WARMUP_S + args.seconds)).ceil() as usize + 64;
    let inputs = {
        let oracle_index = inputs::builder().build_memory(&corpus);
        Inputs::generate(w, &corpus, &oracle_index, requests, args.seed)
    };
    if w.backend == Backend::CompressedFiles {
        std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
        inputs::write_compressed(&corpus, index_dir)
            .map_err(|e| format!("write index to {index_dir:?}: {e}"))?;
    }
    let gen_s = epoch.elapsed().as_secs_f64();

    // ---- Setup: index build or load, then serve. The first setup's
    // server answers all the traffic; the later ones, spread over the
    // rounds below, are timed and shut down again.
    let first = setup(w, &corpus, index_dir, &mut main_log, &ns)?;
    let mut setup_s = vec![first.setup_s];
    let mut index_s = vec![first.index_s];
    let Setup { server, index, .. } = first;

    // ---- Traffic, in rounds.
    let (capacity_s, main_s) = if args.trace {
        (0.0, args.seconds / 2.0)
    } else {
        (
            args.seconds * CAPACITY_SHARE,
            args.seconds * (1.0 - CAPACITY_SHARE),
        )
    };
    let cores = generator::connection_budget(usize::MAX);
    let closed = |connections, first_slot, s: f64| Plan::Closed {
        connections,
        first_slot,
        duration: Duration::from_secs_f64(s),
    };
    let warm = generator::run_phase(
        server.addr(),
        closed(cores, 0, WARMUP_S),
        &inputs,
        epoch,
        false,
    );
    let mut next_slot = warm.outcomes.len();
    let mut capacity: Vec<PhaseResult> = Vec::new();
    let mut main = PhaseResult::default();
    // Counters are read around the rounds. Only the traced run reports
    // them, and it has no capacity slices, so they cover the workload's
    // own phase alone.
    let before = Snap::take(&server, &*index);
    for round in 0..ROUNDS {
        let mut spent = if round == 0 { setup_s[0] } else { 0.0 };
        let mut done = usize::from(round == 0);
        while done == 0 || (done < MAX_SETUPS_PER_ROUND && spent < SETUP_ROUND_BUDGET_S) {
            let extra = setup(w, &corpus, index_dir, &mut main_log, &ns)?;
            setup_s.push(extra.setup_s);
            index_s.push(extra.index_s);
            spent += extra.setup_s;
            done += 1;
            extra.server.shutdown();
        }
        if capacity_s > 0.0 {
            let slice = generator::run_phase(
                server.addr(),
                closed(cores, next_slot, capacity_s / ROUNDS as f64),
                &inputs,
                epoch,
                false,
            );
            next_slot += slice.outcomes.len();
            capacity.push(slice);
        }
        let slice = generator::run_phase(
            server.addr(),
            closed(MEASURED_CONNECTIONS, next_slot, main_s / ROUNDS as f64),
            &inputs,
            epoch,
            false,
        );
        next_slot += slice.outcomes.len();
        main.absorb(slice);
    }
    let after = Snap::take(&server, &*index);
    drop(corpus);
    let capacity_rates: Vec<f64> = capacity
        .iter()
        .flat_map(|p| completion_rates(&p.outcomes, p.start_ns, p.start_ns + p.wall_ns))
        .collect();
    let capacity_n: usize = capacity.iter().map(|p| p.outcomes.len()).sum();
    let mut all_phases = vec![warm];
    all_phases.extend(capacity);
    let main_idx = all_phases.len();
    all_phases.push(main);

    let mut traced = None;
    let mut profile = None;
    let mut probes = ProbeResults::default();
    if args.trace {
        // Same index, a second server with phase spans on.
        drop(server);
        let t = Instant::now();
        let traced_server =
            start_server(Arc::clone(&index), true).map_err(|e| format!("serve: {e}"))?;
        main_log.child(0, 0, "setup.serve_traced", ns(t), ns(Instant::now()));
        let phase = generator::run_phase(
            traced_server.addr(),
            closed(MEASURED_CONNECTIONS, next_slot, main_s),
            &inputs,
            epoch,
            true,
        );
        let rec = traced_server
            .scheduler()
            .recorder()
            .expect("BatchScheduler::new attaches a recorder");
        profile = Some((
            profile_recorder(rec, sparta_obs::DEFAULT_TOP_SITES),
            rec.dropped_events(),
            rec.skipped_reads(),
        ));
        traced_server.shutdown();
        traced = Some(all_phases.len());
        all_phases.push(phase);
        probes = run_probes(&*index, &inputs, &all_phases[main_idx], &mut main_log, &ns);
    } else {
        server.shutdown();
    }

    // ---- Results.
    for why in all_phases.iter().flat_map(|p| &p.failures) {
        eprintln!("perfbench: failed request: {why}");
    }
    let attempted: u64 = all_phases.iter().map(|p| p.outcomes.len() as u64).sum();
    let failed: u64 = all_phases.iter().map(|p| p.failed() as u64).sum();
    let measured: Vec<&PhaseResult> = all_phases[1..].iter().collect();
    let measured_attempted: usize = measured.iter().map(|p| p.outcomes.len()).sum();
    let measured_failed: usize = measured.iter().map(|p| p.failed()).sum();
    let error_rate = ratio(measured_failed as f64, measured_attempted as f64);
    let main = &all_phases[main_idx];
    let lat = latency(&main.outcomes);

    println!(
        "workload {} seed {} seconds {} trace {}: inputs {:.2} s ({} distinct queries), {} cores",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        gen_s,
        inputs.queries.len(),
        cores
    );
    let mut m = Metrics::default();
    if !args.trace {
        let footprint = index.footprint().map_or(0, |f| f.total());
        m.add("latency_p50_ms", lat.p50_ms, "ms");
        m.add("latency_p99_ms", lat.p99_ms, "ms");
        m.add("capacity_qps", median(&capacity_rates), "1/s");
        m.add("setup_s", median(&setup_s), "s");
        m.add("index_mib", footprint as f64 / f64::from(1 << 20), "MiB");
        m.add("peak_rss_mib", peak_rss_mib(), "MiB");
        let lat_n = format!("n={} in {} windows", lat.samples, lat.windows.len());
        let samples = [
            lat_n.clone(),
            lat_n,
            format!("n={capacity_n} in {} windows", capacity_rates.len()),
            format!("n={}", setup_s.len()),
            "n=1".to_string(),
            "n=1".to_string(),
        ];
        for ((name, value, unit), n) in m.rows().iter().zip(samples) {
            println!("  {name:<16} {value:>12.4} {unit:<4} ({n})");
        }
        println!(
            "  error_rate       {error_rate:>12.6}      ({measured_failed} of {measured_attempted} failed)"
        );
        let windows: Vec<String> = lat
            .windows
            .iter()
            .map(|(p50, p99)| format!("{p50:.2}/{p99:.1}"))
            .collect();
        println!("  latency windows p50/p99 ms: {}", windows.join(" "));
    } else {
        let traced_phase = &all_phases[traced.expect("traced runs trace")];
        let traced_p50 = latency(&traced_phase.outcomes).p50_ms;
        let (profile, dropped_events, skipped_reads) =
            profile.as_ref().expect("traced runs fold the recorder");
        let traced_view = Traced {
            p50: (lat.p50_ms, traced_p50),
            profile,
            dropped_events: *dropped_events,
            skipped_reads: *skipped_reads,
            probes: &probes,
            index_s: &index_s,
            error_rate,
        };
        layer_metrics(&mut m, w, &inputs, main, &before, &after, &traced_view);
        for (name, value, unit) in m.rows() {
            println!("  {name:<40} {value:>14.4} {unit}");
        }
        let mut all_spans: Vec<Span> = main_log.into_spans();
        all_spans.extend(traced_phase.spans.iter().copied());
        let selfs = spans::self_times(&all_spans);
        println!("  span self-time (traced phase, setup, probes):");
        for (name, count, total, own) in spans::totals(&all_spans, &selfs) {
            println!(
                "    {name:<24} n={count:<7} total {:>10.3} ms  self {:>10.3} ms",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        std::fs::create_dir_all(out_dir).map_err(|e| format!("create {out_dir:?}: {e}"))?;
        let path = out_dir.join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
        std::fs::write(&path, spans::to_jsonl(&all_spans, &selfs))
            .map_err(|e| format!("write {path:?}: {e}"))?;
        println!("  spans written to {}", path.display());
    }
    println!("{}", m.result_json(failed == 0, attempted, failed));
    Ok(())
}

/// A server ready to accept, and what it took to get there.
struct Setup {
    server: ServerHandle,
    index: Arc<dyn Index>,
    /// Index build or load plus `serve`, s.
    setup_s: f64,
    /// Index build or load alone, s.
    index_s: f64,
}

/// One setup: build (raw) or load (compressed) the index, then serve.
fn setup(
    w: &Workload,
    corpus: &SynthCorpus,
    index_dir: &Path,
    log: &mut SpanLog,
    ns: &dyn Fn(Instant) -> u64,
) -> Result<Setup, String> {
    let t0 = Instant::now();
    let (index, name): (Arc<dyn Index>, _) = match w.backend {
        Backend::RawMemory => (
            Arc::new(inputs::builder().build_memory(corpus)),
            "setup.index_build",
        ),
        Backend::CompressedFiles => (
            Arc::new(
                storage::load_compressed(index_dir)
                    .map_err(|e| format!("load {index_dir:?}: {e}"))?,
            ),
            "setup.index_load",
        ),
    };
    let t1 = Instant::now();
    let server = start_server(Arc::clone(&index), false).map_err(|e| format!("serve: {e}"))?;
    let t2 = Instant::now();
    let root = log.reserve();
    log.child(root, 0, name, ns(t0), ns(t1));
    log.child(root, 0, "setup.serve", ns(t1), ns(t2));
    log.close(root, 0, "setup", ns(t0), ns(t2));
    Ok(Setup {
        server,
        index,
        setup_s: (t2 - t0).as_secs_f64(),
        index_s: (t1 - t0).as_secs_f64(),
    })
}

/// Server, executor and index counters at one instant.
struct Snap {
    server: ServerSnapshot,
    stages: StageSnapshot,
    exec: ExecSnapshot,
    io: (u64, u64),
}

impl Snap {
    fn take(server: &ServerHandle, index: &dyn Index) -> Self {
        let metrics = server.metrics();
        Self {
            server: metrics.snapshot(),
            stages: metrics.stages.snapshot(),
            exec: server
                .scheduler()
                .exec_metrics()
                .map(|m| m.snapshot())
                .unwrap_or_default(),
            io: index.io_stats().map_or((0, 0), |s| s.decode_snapshot()),
        }
    }
}

/// What the in-process probes measured.
#[derive(Debug, Default)]
struct ProbeResults {
    /// ns per posting: score-ordered scan, doc-ordered scan.
    scans: (f64, f64),
    ra_ns: f64,
    offer_ns: f64,
    upsert_ns: f64,
    /// µs per call and mean response bytes; see [`probes::protocol`].
    protocol: (f64, f64, f64, f64),
}

/// The in-process probes, over the first distinct queries the measured
/// phase sent; each probe is a span in `log`.
fn run_probes(
    index: &dyn Index,
    inputs: &Inputs,
    main: &PhaseResult,
    log: &mut SpanLog,
    ns: &dyn Fn(Instant) -> u64,
) -> ProbeResults {
    let mut slots: Vec<usize> = main.outcomes.iter().map(|o| o.slot).collect();
    slots.sort_unstable();
    let mut seen = Vec::new();
    for &s in &slots {
        let q = inputs.query_of(s);
        if !seen.contains(&q) {
            seen.push(q);
            if seen.len() == PROBE_QUERIES {
                break;
            }
        }
    }
    let queries: Vec<Vec<TermId>> = seen.iter().map(|&q| inputs.queries[q].clone()).collect();
    let mut terms: Vec<TermId> = queries.iter().flatten().copied().collect();
    terms.sort_unstable();
    terms.dedup();
    let requests: Vec<Frame> = slots
        .iter()
        .take(PROBE_QUERIES)
        .map(|&s| Frame::Request(inputs.request(s)))
        .collect();
    let postings = probes::query_postings(index, &queries);

    let mut r = ProbeResults::default();
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        log.child(0, 0, name, ns(t), ns(Instant::now()));
    };
    timed("probe.index_scan", &mut || {
        r.scans = probes::scans(index, &terms)
    });
    timed("probe.random_access", &mut || {
        r.ra_ns = probes::random_access(index, &queries)
    });
    timed("probe.topk_offer", &mut || {
        r.offer_ns = probes::topk_offer(&postings, K as usize)
    });
    timed("probe.docmap_upsert", &mut || {
        r.upsert_ns = probes::docmap_upsert(&postings, SERVER_WORKERS)
    });
    timed("probe.protocol", &mut || {
        r.protocol = probes::protocol(&requests, &main.sample_payloads)
    });
    r
}

/// Distinct queries the probes replay.
const PROBE_QUERIES: usize = 64;

/// Everything the traced run reports besides the phases themselves.
struct Traced<'a> {
    /// Untraced and traced `latency_p50_ms`.
    p50: (f64, f64),
    profile: &'a sparta_obs::Profile,
    dropped_events: u64,
    skipped_reads: u64,
    probes: &'a ProbeResults,
    index_s: &'a [f64],
    error_rate: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. Counters come from
/// the untraced measured phase (`main`, between `before` and `after`);
/// wait shares and recorder health from the traced phase.
fn layer_metrics(
    m: &mut Metrics,
    w: &Workload,
    inputs: &Inputs,
    main: &PhaseResult,
    before: &Snap,
    after: &Snap,
    t: &Traced<'_>,
) {
    let completed = after
        .server
        .completed
        .saturating_sub(before.server.completed) as f64;
    let per_query = |v: u64| ratio(v as f64, completed);
    let build = median(t.index_s);
    let (raw, compressed) = match w.backend {
        Backend::RawMemory => (build, 0.0),
        Backend::CompressedFiles => (0.0, build),
    };
    m.add("index.build_s", raw, "s");
    m.add("index.load_s", compressed, "s");
    m.add(
        "index.blocks_decoded_per_query",
        per_query(after.io.0 - before.io.0),
        "count",
    );
    m.add(
        "index.compressed_kib_per_query",
        per_query(after.io.1 - before.io.1) / 1024.0,
        "KiB",
    );
    m.add("index.score_scan_ns_per_posting", t.probes.scans.0, "ns");
    m.add("index.doc_scan_ns_per_posting", t.probes.scans.1, "ns");
    m.add("index.ra_probe_ns", t.probes.ra_ns, "ns");

    // sparta-core, per algorithm, from each response's TraceSummary.
    let answered: Vec<&Outcome> = main
        .outcomes
        .iter()
        .filter(|o| o.summary.is_some())
        .collect();
    let of_algo = |name: &str| -> Vec<&Outcome> {
        answered
            .iter()
            .copied()
            .filter(|o| inputs.algorithms[inputs.algorithm_of(o.slot)] == name)
            .collect()
    };
    let algorithms = reported_algorithms();
    let mut search_ns_sum = 0u64;
    for stat in ["search_ms_p50", "search_ms_p99"] {
        for name in &algorithms {
            let mut v: Vec<u64> = of_algo(name)
                .iter()
                .map(|o| o.summary.map_or(0, |s| s.elapsed_ns))
                .collect();
            v.sort_unstable();
            let p = if stat == "search_ms_p50" { 0.5 } else { 0.99 };
            m.add(
                format!("core.{stat}.{name}"),
                percentile(&v, p) as f64 / 1e6,
                "ms",
            );
        }
    }
    for name in &algorithms {
        let rows = of_algo(name);
        let sum = |f: &dyn Fn(&Outcome) -> u64| rows.iter().map(|o| f(o)).sum::<u64>() as f64;
        let n = rows.len() as f64;
        let postings = sum(&|o| o.summary.map_or(0, |s| s.postings_scanned));
        m.add(
            format!("core.postings_per_query.{name}"),
            ratio(postings, n),
            "count",
        );
        m.add(
            format!("core.heap_updates_per_query.{name}"),
            ratio(sum(&|o| o.summary.map_or(0, |s| s.heap_updates)), n),
            "count",
        );
        m.add(
            format!("core.postings_per_hit.{name}"),
            ratio(postings, sum(&|o| u64::from(o.hits))),
            "count",
        );
        search_ns_sum += sum(&|o| o.summary.map_or(0, |s| s.elapsed_ns)) as u64;
    }
    let sparta = of_algo("sparta");
    m.add(
        "core.cleaner_passes_per_query",
        ratio(
            sparta
                .iter()
                .map(|o| o.summary.map_or(0, |s| s.cleaner_passes))
                .sum::<u64>() as f64,
            sparta.len() as f64,
        ),
        "count",
    );

    m.add("collections.topk_offer_ns", t.probes.offer_ns, "ns");
    m.add("collections.docmap_upsert_ns", t.probes.upsert_ns, "ns");

    // sparta-exec: pool counters around the phase, wait shares from the
    // traced phase's recorder fold.
    let wall_ns = main.wall_ns as f64;
    let mut jobs = after.exec.job_ns;
    for (b, a) in jobs.buckets.iter_mut().zip(before.exec.job_ns.buckets) {
        *b -= a;
    }
    jobs.count -= before.exec.job_ns.count;
    jobs.sum -= before.exec.job_ns.sum;
    m.add(
        "exec.jobs_per_query",
        per_query(after.exec.jobs_run - before.exec.jobs_run),
        "count",
    );
    m.add(
        "exec.busy_share",
        ratio(
            (after.exec.busy_ns - before.exec.busy_ns) as f64,
            wall_ns * after.exec.workers as f64,
        ),
        "ratio",
    );
    m.add("exec.job_us_p50", jobs.percentile(0.5) as f64 / 1e3, "us");
    m.add(
        "exec.queue_depth_highwater",
        after.exec.queue_depth_highwater as f64,
        "count",
    );
    let share = |f: &dyn Fn(&sparta_obs::WorkerUtilization) -> u64| {
        let workers = &t.profile.workers;
        ratio(
            workers.iter().map(f).sum::<u64>() as f64,
            workers.iter().map(|w| w.window_ticks).sum::<u64>() as f64,
        )
    };
    m.add(
        "exec.lock_wait_share",
        share(&|w| w.lock_wait_ticks),
        "ratio",
    );
    m.add(
        "exec.queue_wait_share",
        share(&|w| w.queue_wait_ticks),
        "ratio",
    );
    m.add("exec.parked_share", share(&|w| w.parked_ticks), "ratio");

    // sparta-server: stage means over the phase.
    let stage_us = |a: &sparta_obs::HistogramSnapshot, b: &sparta_obs::HistogramSnapshot| {
        ratio((a.sum - b.sum) as f64, (a.count - b.count) as f64) / 1e3
    };
    let (sa, sb) = (&after.stages, &before.stages);
    m.add(
        "server.admission_wait_us",
        stage_us(&sa.admission_wait, &sb.admission_wait),
        "us",
    );
    m.add(
        "server.queue_wait_us",
        stage_us(&sa.queue_wait, &sb.queue_wait),
        "us",
    );
    let execute_us = stage_us(&sa.execute, &sb.execute);
    m.add("server.execute_us", execute_us, "us");
    m.add(
        "server.response_write_us",
        stage_us(&sa.response_write, &sb.response_write),
        "us",
    );
    let e2e_us = stage_us(&sa.end_to_end, &sb.end_to_end);
    m.add("server.end_to_end_us", e2e_us, "us");
    let ok: Vec<&Outcome> = main.outcomes.iter().filter(|o| o.ok).collect();
    let client_us = ratio(
        ok.iter().map(|o| o.latency_ns()).sum::<u64>() as f64,
        ok.len() as f64,
    ) / 1e3;
    m.add("server.socket_wait_us", client_us - e2e_us, "us");
    m.add(
        "server.shed",
        (after.server.shed - before.server.shed) as f64,
        "count",
    );
    m.add(
        "server.queued",
        (after.server.queued - before.server.queued) as f64,
        "count",
    );

    let (enc_req, enc_resp, dec_resp, bytes) = t.probes.protocol;
    m.add("protocol.encode_us.request", enc_req, "us");
    m.add("protocol.encode_us.response", enc_resp, "us");
    m.add("protocol.decode_us.response", dec_resp, "us");
    m.add("protocol.response_bytes", bytes, "bytes");

    m.add(
        "obs.recorder_dropped_events",
        t.dropped_events as f64,
        "count",
    );
    m.add(
        "obs.recorder_skipped_reads",
        t.skipped_reads as f64,
        "count",
    );
    m.add(
        "obs.trace_overhead_p50",
        ratio(t.p50.1, t.p50.0) - 1.0,
        "ratio",
    );
    // Two independent measures of one interval: the algorithm's own
    // elapsed time against the scheduler's execute stage.
    let summary_us = ratio(search_ns_sum as f64, answered.len() as f64) / 1e3;
    m.add(
        "obs.summary_over_execute",
        ratio(summary_us, execute_us),
        "ratio",
    );

    let mut lags = main.send_lag_ns.clone();
    lags.sort_unstable();
    m.add(
        "gen.send_lag_p99_ms",
        percentile(&lags, 0.99) as f64 / 1e6,
        "ms",
    );
    // Requests answered by the time the last one was due, over those
    // offered: just under 1 when the server keeps up, falling when a
    // backlog grows.
    let last_due = main.outcomes.iter().map(|o| o.start_ns).max().unwrap_or(0);
    let done_by_then = ok.iter().filter(|o| o.done_ns <= last_due).count();
    m.add(
        "gen.completed_over_offered",
        ratio(done_by_then as f64, main.offered as f64),
        "ratio",
    );
    let mut distinct: Vec<usize> = main
        .outcomes
        .iter()
        .map(|o| inputs.query_of(o.slot))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    m.add(
        "gen.distinct_query_share",
        ratio(distinct.len() as f64, main.outcomes.len() as f64),
        "ratio",
    );
    m.add("error_rate", t.error_rate, "ratio");
}
