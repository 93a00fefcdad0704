//! Measurement plumbing: order statistics, the batched per-call timer,
//! the in-memory span recorder behind the traced run, and peak RSS.

use secsim_stats::{Json, Timeline};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile of an ascending slice (`q` in `0.0..=1.0`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Fewest windows a per-call timing is reported over.
pub const MIN_WINDOWS: usize = 5;

/// Largest window: 2^12 calls per clock read.
const MAX_WINDOW_LOG2: u32 = 12;

/// A per-call time from [`time_calls`].
#[derive(Debug, Clone, Copy)]
pub struct PerCall {
    /// Median over windows of the mean ns per call within a window.
    pub median_ns: f64,
    /// Interquartile range over windows, as a share of the median.
    pub spread: f64,
}

/// Calls `f` once per item, in order, reading the clock only once every
/// 2^k calls. `k` is the largest exponent (at most 12) that still gives
/// [`MIN_WINDOWS`] full windows; items past the last full window are
/// still called, untimed, so a stateful component sees its whole
/// stream. `None` when there are fewer than [`MIN_WINDOWS`] items.
pub fn time_calls<T>(items: &[T], mut f: impl FnMut(&T)) -> Option<PerCall> {
    let n = items.len();
    if n < MIN_WINDOWS {
        for it in items {
            f(black_box(it));
        }
        return None;
    }
    let mut k = 0;
    while k < MAX_WINDOW_LOG2 && (n >> (k + 1)) >= MIN_WINDOWS {
        k += 1;
    }
    let window = 1usize << k;
    let windows = n / window;
    let mut per_call = Vec::with_capacity(windows);
    let mut chunks = items.chunks_exact(window);
    for chunk in chunks.by_ref() {
        let t = Instant::now();
        for it in chunk {
            f(black_box(it));
        }
        per_call.push(t.elapsed().as_nanos() as f64 / window as f64);
    }
    for it in chunks.remainder() {
        f(black_box(it));
    }
    per_call.sort_by(f64::total_cmp);
    let med = percentile(&per_call, 0.5);
    let iqr = percentile(&per_call, 0.75) - percentile(&per_call, 0.25);
    Some(PerCall {
        median_ns: med,
        spread: iqr / med.max(f64::MIN_POSITIVE),
    })
}

/// The harness's own cost per timed call: [`time_calls`] over a no-op
/// body, at its largest window.
pub fn timer_overhead_ns() -> f64 {
    let items = vec![0u32; MIN_WINDOWS << MAX_WINDOW_LOG2];
    time_calls(&items, |x| {
        black_box(x);
    })
    .expect("no-op case has enough items")
    .median_ns
}

/// Milliseconds between two instants.
pub fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// In-memory span recorder of a traced run. Spans land in a
/// [`Timeline`] (microseconds since the run began) written out once
/// at the end; per-name totals feed the per-layer metrics.
pub struct Spans {
    origin: Instant,
    timeline: Timeline,
    totals: BTreeMap<&'static str, (f64, u64)>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            timeline: Timeline::new(),
            totals: BTreeMap::new(),
        }
    }

    fn us(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Records `[begin, end)` as span `name` on `track`; `id` ties the
    /// spans of one point or job together.
    pub fn span(&mut self, track: &str, name: &'static str, id: u64, begin: Instant, end: Instant) {
        let (b, e) = (self.us(begin), self.us(end));
        self.timeline
            .push_span_args(track, name, b, e, vec![("id".to_string(), Json::UInt(id))]);
        let slot = self.totals.entry(name).or_insert((0.0, 0));
        slot.0 += ms(begin, end);
        slot.1 += 1;
    }

    /// Mean duration of span `name`, ms (`None` if never recorded).
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        self.totals.get(name).map(|&(sum, n)| sum / n as f64)
    }

    /// Total duration of span `name`, ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |&(sum, _)| sum)
    }

    /// The Chrome trace of every recorded span.
    pub fn chrome(&self) -> String {
        self.timeline.to_chrome_trace().render()
    }
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn every_item_is_called_timed_or_not() {
        let items = vec![1u8; 1000];
        let mut calls = 0;
        let t = time_calls(&items, |_| calls += 1).expect("enough items");
        assert_eq!(calls, 1000);
        assert!(t.median_ns >= 0.0 && t.spread >= 0.0);
        calls = 0;
        assert!(time_calls(&[1u8; 4], |_| calls += 1).is_none());
        assert_eq!(calls, 4);
    }
}
