//! In-process probes of single layers, run over the workload's own
//! queries after the traffic phases of a traced run. Each probe repeats
//! its pass until [`PROBE_BUDGET`] has elapsed and reports time per
//! operation.

use sparta_collections::{BoundedTopK, StripedMap};
use sparta_corpus::{DocId, TermId};
use sparta_index::{Index, Posting};
use sparta_server::Frame;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time each probe spends repeating its pass.
pub const PROBE_BUDGET: Duration = Duration::from_millis(150);

/// Repeats `pass` (which returns the operations it did) until the budget
/// is spent; returns ns per operation.
fn per_op(mut pass: impl FnMut() -> u64) -> f64 {
    let t = Instant::now();
    let mut ops = 0u64;
    while ops == 0 || t.elapsed() < PROBE_BUDGET {
        ops += pass().max(1);
    }
    t.elapsed().as_nanos() as f64 / ops as f64
}

/// Score-ordered and doc-ordered scan cost over `terms`, ns per posting.
pub fn scans(index: &dyn Index, terms: &[TermId]) -> (f64, f64) {
    let score = per_op(|| {
        let mut n = 0u64;
        let mut seg = Vec::with_capacity(1024);
        for &t in terms {
            let mut c = index.score_cursor(t);
            while c.next_segment(1024, &mut seg) > 0 {
                n += seg.len() as u64;
                black_box(&seg);
            }
        }
        n
    });
    let doc = per_op(|| {
        let mut n = 0u64;
        for &t in terms {
            let mut c = index.doc_cursor(t);
            while let Some(d) = c.doc() {
                black_box((d, c.score()));
                n += 1;
                c.advance();
            }
        }
        n
    });
    (score, doc)
}

/// Random-access probe cost, ns per `(term, doc)` lookup: each query
/// term is probed at the documents of the next term's postings, the way
/// pRA completes a candidate's score. 0 when the index has no random
/// access.
pub fn random_access(index: &dyn Index, queries: &[Vec<TermId>]) -> f64 {
    let Some(ra) = index.random_access() else {
        return 0.0;
    };
    let probes: Vec<(TermId, Vec<DocId>)> = queries
        .iter()
        .filter(|q| q.len() >= 2)
        .flat_map(|q| q.windows(2).map(|w| (w[0], w[1])))
        .map(|(probe, source)| {
            let mut c = index.doc_cursor(source);
            let mut docs = Vec::new();
            while let Some(d) = c.doc() {
                docs.push(d);
                if docs.len() == 256 {
                    break;
                }
                c.advance();
            }
            (probe, docs)
        })
        .collect();
    if probes.is_empty() {
        return 0.0;
    }
    per_op(|| {
        let mut n = 0u64;
        for (t, docs) in &probes {
            for &d in docs {
                black_box(ra.term_score(*t, d));
                n += 1;
            }
        }
        n
    })
}

/// Every posting of each query's terms, score order within a term.
pub fn query_postings(index: &dyn Index, queries: &[Vec<TermId>]) -> Vec<Vec<Posting>> {
    queries
        .iter()
        .map(|q| {
            let mut all = Vec::new();
            for &t in q {
                let mut c = index.score_cursor(t);
                while let Some(p) = c.next() {
                    all.push(p);
                }
            }
            all
        })
        .collect()
}

/// `BoundedTopK::offer` cost replaying each query's postings into a
/// fresh top-k heap, ns per offer.
pub fn topk_offer(postings: &[Vec<Posting>], k: usize) -> f64 {
    per_op(|| {
        let mut n = 0u64;
        for q in postings {
            let mut heap = BoundedTopK::new(k);
            for p in q {
                black_box(heap.offer(u64::from(p.score), p.doc));
            }
            n += q.len() as u64;
        }
        n
    })
}

/// docMap upsert cost: `threads` threads add each query's postings into
/// that query's shared `StripedMap`, thread `t` taking the `t`-th share
/// of every query. Reports wall ns per upsert per thread.
pub fn docmap_upsert(postings: &[Vec<Posting>], threads: usize) -> f64 {
    let threads = threads.max(1);
    per_op(|| {
        let maps: Vec<StripedMap<DocId, u64>> =
            postings.iter().map(|_| StripedMap::new()).collect();
        std::thread::scope(|s| {
            for t in 0..threads {
                let maps = &maps;
                s.spawn(move || {
                    for (q, map) in postings.iter().zip(maps) {
                        let chunk = q.len().div_ceil(threads).max(1);
                        for p in q.chunks(chunk).nth(t).unwrap_or(&[]) {
                            let add = u64::from(p.score);
                            if !map.update(&p.doc, |v| *v += add) {
                                map.insert(p.doc, add);
                            }
                        }
                    }
                });
            }
        });
        black_box(maps.iter().map(StripedMap::len).sum::<usize>());
        postings.iter().map(|q| q.len() as u64).sum::<u64>() / threads as u64
    })
}

/// Wire costs on the workload's real frames, µs per call:
/// `(encode request, encode response, decode response, mean response
/// bytes)`.
pub fn protocol(requests: &[Frame], response_payloads: &[Vec<u8>]) -> (f64, f64, f64, f64) {
    let responses: Vec<Frame> = response_payloads
        .iter()
        .filter_map(|p| Frame::decode_payload(p).ok())
        .collect();
    let us = |ns: f64| ns / 1e3;
    let encode_request = per_op(|| {
        for f in requests {
            black_box(f.encode());
        }
        requests.len() as u64
    });
    let encode_response = per_op(|| {
        for f in &responses {
            black_box(f.encode());
        }
        responses.len() as u64
    });
    let decode_response = per_op(|| {
        for p in response_payloads {
            black_box(Frame::decode_payload(p).is_ok());
        }
        response_payloads.len() as u64
    });
    let bytes = if response_payloads.is_empty() {
        0.0
    } else {
        // Plus the 4-byte length prefix.
        response_payloads.iter().map(|p| p.len() + 4).sum::<usize>() as f64
            / response_payloads.len() as f64
    };
    (
        us(encode_request),
        us(encode_response),
        us(decode_response),
        bytes,
    )
}
