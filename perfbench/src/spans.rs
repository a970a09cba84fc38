//! Client-side spans for the traced run.
//!
//! Spans are recorded in the benchmark's own files around each call
//! into a layer, kept in memory, and written once at the end of the run
//! with each span's self time: its duration minus the part of it that
//! its children cover. Spans of one request share the request id (the
//! request's slot); setup and probe spans use request id 0.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

// ordering: Relaxed — a tag allocator; only uniqueness matters.
static NEXT_LOG: AtomicU64 = AtomicU64::new(1);

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// One thread's spans. Ids are unique across logs.
#[derive(Debug)]
pub struct SpanLog {
    tag: u64,
    next: u64,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            // ordering: Relaxed — see NEXT_LOG.
            tag: NEXT_LOG.fetch_add(1, Ordering::Relaxed),
            next: 0,
            spans: Vec::new(),
        }
    }

    /// A fresh span id, for a span closed later with [`close`](Self::close).
    pub fn reserve(&mut self) -> u64 {
        self.next += 1;
        (self.tag << 40) | self.next
    }

    /// Records the span reserved as `id`.
    pub fn close(&mut self, id: u64, request: usize, name: &'static str, start: u64, end: u64) {
        self.push(id, 0, request, name, start, end);
    }

    /// Records a child of `parent`; returns its id.
    pub fn child(
        &mut self,
        parent: u64,
        request: usize,
        name: &'static str,
        start: u64,
        end: u64,
    ) -> u64 {
        let id = self.reserve();
        self.push(id, parent, request, name, start, end);
        id
    }

    fn push(&mut self, id: u64, parent: u64, request: usize, name: &'static str, s: u64, e: u64) {
        self.spans.push(Span {
            id,
            parent,
            request: request as u64,
            name,
            start_ns: s,
            end_ns: e.max(s),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in `spans` order: duration minus the union
/// of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| spans[i].id);
    let index_of = |id: u64| {
        order
            .binary_search_by_key(&id, |&i| spans[i].id)
            .ok()
            .map(|j| order[j])
    };
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = (s.parent != 0).then(|| index_of(s.parent)).flatten() {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals: `(name, count, total ns, self ns)`, sorted by name.
pub fn totals(spans: &[Span], selfs: &[u64]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut rows: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (s, &own) in spans.iter().zip(selfs) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.end_ns - s.start_ns;
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.end_ns - s.start_ns, own)),
        }
    }
    rows.sort_by_key(|r| r.0);
    rows
}

/// One JSON object per line, with the span's self time.
pub fn to_jsonl(spans: &[Span], selfs: &[u64]) -> String {
    let mut out = String::with_capacity(spans.len() * 120);
    for (s, own) in spans.iter().zip(selfs) {
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, own
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let mut log = SpanLog::new();
        let root = log.reserve();
        log.child(root, 7, "a", 10, 30);
        log.child(root, 7, "b", 20, 40); // overlaps a by 10
        log.child(root, 7, "c", 90, 120); // sticks out of the parent
        log.close(root, 7, "request", 0, 100);
        let spans = log.into_spans();
        let selfs = self_times(&spans);
        let root_self = spans
            .iter()
            .zip(&selfs)
            .find(|(s, _)| s.name == "request")
            .map(|(_, &v)| v);
        assert_eq!(root_self, Some(100 - 30 - 10));
        let t = totals(&spans, &selfs);
        assert_eq!(t.len(), 4);
        assert_eq!(t[0], ("a", 1, 20, 20));
    }
}
