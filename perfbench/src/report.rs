//! Statistics and the result line.
//!
//! On a small shared virtual machine, neighbours steal CPU in bursts of
//! a second or two, and the machine's speed drifts by tens of percent
//! over a few seconds. A whole-run percentile would move with every
//! burst that lands in the run, so the latency and capacity figures are
//! medians over windows, and a run interleaves its phases in rounds so
//! that the windows of every phase are spread over the whole run.

use crate::generator::Outcome;
use std::fmt::Write as _;

/// Requests per latency window: a window's p99 has twenty samples
/// beyond it.
pub const LATENCY_WINDOW: usize = 2000;
/// Most latency windows a phase is split into.
pub const MAX_LATENCY_WINDOWS: usize = 9;
/// Least length of a capacity window, ns, unless its slice is shorter.
pub const RATE_WINDOW_NS: u64 = 1_000_000_000;

/// Latency of a phase.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencySummary {
    /// Median over windows of each window's p50, ms.
    pub p50_ms: f64,
    /// Median over windows of each window's p99, ms.
    pub p99_ms: f64,
    pub samples: usize,
    /// Each window's `(p50, p99)`, ms, in time order.
    pub windows: Vec<(f64, f64)>,
}

/// Splits `outcomes`, in order of their start, into windows of about
/// [`LATENCY_WINDOW`] requests (at most [`MAX_LATENCY_WINDOWS`], at
/// least one) and takes the median of the windows' p50 and p99. Failed
/// requests rank after every answered one.
pub fn latency(outcomes: &[Outcome]) -> LatencySummary {
    let mut by_start: Vec<&Outcome> = outcomes.iter().collect();
    by_start.sort_by_key(|o| o.start_ns);
    let windows = (by_start.len() / LATENCY_WINDOW).clamp(1, MAX_LATENCY_WINDOWS);
    let size = by_start.len().div_ceil(windows).max(1);
    let mut per_window = Vec::with_capacity(windows);
    for chunk in by_start.chunks(size) {
        let mut keyed: Vec<(bool, u64)> = chunk.iter().map(|o| (!o.ok, o.latency_ns())).collect();
        keyed.sort_unstable();
        let at = |p: f64| {
            let rank = ((p * keyed.len() as f64).ceil() as usize).clamp(1, keyed.len());
            keyed[rank - 1].1 as f64 / 1e6
        };
        per_window.push((at(0.5), at(0.99)));
    }
    let p50s: Vec<f64> = per_window.iter().map(|w| w.0).collect();
    let p99s: Vec<f64> = per_window.iter().map(|w| w.1).collect();
    LatencySummary {
        p50_ms: median(&p50s),
        p99_ms: median(&p99s),
        samples: outcomes.len(),
        windows: per_window,
    }
}

/// Completed (correct) requests per second over windows of a phase
/// slice from `start_ns` to `end_ns`: its completions, in time order,
/// are cut into windows of equal count, as many as whole
/// [`RATE_WINDOW_NS`] fit in the slice (at least one); returns each
/// window's completions per second.
/// The capacity figure is the median over the windows of every slice.
pub fn completion_rates(outcomes: &[Outcome], start_ns: u64, end_ns: u64) -> Vec<f64> {
    let mut done: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.ok)
        .map(|o| o.done_ns)
        .collect();
    done.sort_unstable();
    let span = end_ns.saturating_sub(start_ns).max(1);
    let windows = ((span / RATE_WINDOW_NS) as usize).clamp(1, done.len().max(1));
    // Window w covers completions (cut[w], cut[w + 1]] and starts at the
    // previous window's last completion (the slice start for the first).
    let cut = |w: usize| w * done.len() / windows;
    (0..windows)
        .map(|w| {
            let (a, b) = (cut(w), cut(w + 1));
            let from = if a == 0 { start_ns } else { done[a - 1] };
            let to = done.get(b.max(1) - 1).copied().unwrap_or(end_ns);
            ratio((b - a) as f64, to.saturating_sub(from) as f64 / 1e9)
        })
        .collect()
}

/// Nearest-rank percentile of an ascending slice (`p` in `[0, 1]`); 0
/// when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a float sample; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Named metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics {
    rows: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        // A non-finite value would make the result line invalid JSON.
        let value = if value.is_finite() { value } else { 0.0 };
        self.rows.push((name.into(), value, unit));
    }

    pub fn rows(&self) -> &[(String, f64, &'static str)] {
        &self.rows
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        for (i, (name, value, unit)) in self.rows.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(start_ns: u64, latency_ns: u64, ok: bool) -> Outcome {
        Outcome {
            slot: 0,
            start_ns,
            done_ns: start_ns + latency_ns,
            ok,
            summary: None,
            hits: 0,
        }
    }

    #[test]
    fn a_slow_window_does_not_move_the_median() {
        // Three windows; the middle one is ten times slower.
        let w = LATENCY_WINDOW as u64;
        let outcomes: Vec<Outcome> = (0..3 * w)
            .map(|i| {
                let base = if (w..2 * w).contains(&i) {
                    10_000_000
                } else {
                    1_000_000
                };
                outcome(i, base + i % 100, true)
            })
            .collect();
        let l = latency(&outcomes);
        assert_eq!(l.windows.len(), 3);
        assert_eq!(l.samples, 3 * LATENCY_WINDOW);
        assert!(l.p50_ms < 1.01 && l.p99_ms < 1.01, "{l:?}");
    }

    #[test]
    fn failures_rank_last() {
        let mut outcomes: Vec<Outcome> = (0..100u64).map(|i| outcome(i, 1_000_000, true)).collect();
        outcomes[0] = outcome(0, 1, false);
        outcomes[1] = outcome(1, 1, false);
        assert_eq!(latency(&outcomes).p99_ms, 1e-6);
        assert_eq!(latency(&outcomes).p50_ms, 1.0);
    }

    #[test]
    fn completion_rate_is_a_window_median() {
        // One completion every 10 ms for 3 s, except a 500 ms stall
        // before the 150th; the stalled window does not set the figure.
        let mut t = 0;
        let outcomes: Vec<Outcome> = (0..300u64)
            .map(|i| {
                t += if i == 150 { 500_000_000 } else { 10_000_000 };
                outcome(t - 5, 5, true)
            })
            .collect();
        let rates = completion_rates(&outcomes, 0, t);
        assert_eq!(rates.len(), 3);
        assert!((median(&rates) - 100.0).abs() < 1e-9, "{rates:?}");
        // Failed requests are not completions.
        let mut failed = outcomes.clone();
        failed[10].ok = false;
        assert!(median(&completion_rates(&failed, 0, t)) < 100.0);
    }

    #[test]
    fn nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn result_line_is_json_shaped() {
        let mut m = Metrics::default();
        m.add("setup_s", 0.5, "s");
        m.add("bad", f64::NAN, "ms");
        let line = m.result_json(true, 10, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"bad\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
