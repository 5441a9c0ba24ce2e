//! Lock-light metric primitives and the registry/snapshot layer.
//!
//! Hot paths touch only pre-created [`Counter`]/[`Gauge`]/[`Histogram`] handles — every
//! update is a single relaxed atomic RMW, no locks, no allocation. The registry's mutex
//! is taken only at registration time (once per metric name per component) and at
//! snapshot time, never per operation.
//!
//! All metric values are plain `u64`s; latency metrics record **clock nanoseconds** as
//! reported by whichever `Clock` the caller runs under, so virtual-time deployments
//! export modeled durations and two identical virtual runs snapshot byte-identically.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ buckets in a [`Histogram`] — enough for the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins (or running-maximum) instantaneous measurement.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Overwrites the gauge with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (running maximum, e.g. peak queue depth).
    #[inline]
    pub fn maximize(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket index a value lands in: bucket 0 covers `[0, 2)`, bucket `i ≥ 1` covers
/// `[2^i, 2^(i+1))` — i.e. the position of the value's highest set bit.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// `[lo, hi)` bounds of bucket `index` (the last bucket is closed at `u64::MAX`).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        (0, 2)
    } else {
        let lo = 1u64 << index;
        let hi = if index >= 63 { u64::MAX } else { 1u64 << (index + 1) };
        (lo, hi)
    }
}

/// A fixed-size log₂-bucketed latency histogram.
///
/// Recording is wait-free: one relaxed add each to the count, the sum and the value's
/// bucket. Quantiles are estimated from the bucket distribution at snapshot time with
/// linear interpolation inside the target bucket (see [`HistogramSnapshot::quantile`]).
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Number of samples recorded so far.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Immutable copy of the current distribution (non-empty buckets only).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                buckets.push((i as u8, n));
            }
        }
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// Frozen copy of a [`Histogram`]: total count, total sum, and the non-empty
/// `(bucket_index, samples)` pairs in ascending bucket order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Non-empty buckets as `(bucket_index, samples)`, ascending by index.
    pub buckets: Vec<(u8, u64)>,
}

impl HistogramSnapshot {
    /// Estimated `q`-quantile (`q ∈ [0, 1]`) of the recorded distribution.
    ///
    /// Walks the cumulative bucket counts to the bucket containing rank `q·count`,
    /// then interpolates linearly inside that bucket's `[lo, hi)` range. Returns `0.0`
    /// for an empty histogram. With log₂ buckets the estimate is within a factor of 2
    /// of the true sample; the golden tests in `tests/histogram_goldens.rs` pin the
    /// exact arithmetic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0.0;
        for &(idx, n) in &self.buckets {
            let n = n as f64;
            if cum + n >= target {
                let (lo, hi) = bucket_bounds(idx as usize);
                let frac = if n > 0.0 { ((target - cum) / n).clamp(0.0, 1.0) } else { 0.0 };
                return lo as f64 + frac * (hi - lo) as f64;
            }
            cum += n;
        }
        self.buckets.last().map_or(0.0, |&(idx, _)| bucket_bounds(idx as usize).1 as f64)
    }

    /// Arithmetic mean of the recorded values (exact, from the running sum).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// Name-keyed home of a component's metrics.
///
/// `counter`/`gauge`/`histogram` return shared handles: the first call for a name
/// creates the metric, later calls return the same instance. Components resolve their
/// handles once at construction and never touch the registry again on hot paths.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// Returns (creating if needed) the counter called `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("obs registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if needed) the gauge called `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("obs registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Returns (creating if needed) the histogram called `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("obs registry poisoned");
        map.entry(name.to_owned()).or_default().clone()
    }

    /// Freezes every registered metric into a [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("obs registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// A point-in-time copy of a [`Registry`], ordered (`BTreeMap`) so renderings are
/// deterministic, with a wall-clock-free JSON export.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram distributions by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name`, `0` if absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of gauge `name`, `0` if absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram `name`, if any samples were registered under it.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Renders the snapshot as JSON.
    ///
    /// Deterministic by construction: keys come out in `BTreeMap` order, floats are
    /// formatted with fixed precision, and no wall-clock field is ever included — two
    /// identical virtual-time runs serialize byte-identically.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    \"{}\": {v}", escape_json(k));
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.3}, \
                 \"p50\": {:.3}, \"p99\": {:.3}, \"buckets\": [",
                escape_json(k),
                h.count,
                h.sum,
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.99),
            );
            for (j, (idx, n)) in h.buckets.iter().enumerate() {
                let sep = if j == 0 { "" } else { ", " };
                let _ = write!(out, "{sep}[{idx}, {n}]");
            }
            out.push_str("]}");
        }
        if !self.histograms.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// Escapes `s` for use inside a JSON string literal: `"`, `\` and `\n` get their short
/// forms, every other control character a `\uXXXX` escape.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_json_pins_quote_backslash_newline_and_other_controls() {
        assert_eq!(escape_json("a\"b"), r#"a\"b"#);
        assert_eq!(escape_json("a\\b"), r"a\\b");
        assert_eq!(escape_json("a\nb"), r"a\nb");
        assert_eq!(escape_json("a\u{1}b"), r"a\u0001b");
    }

    #[test]
    fn counters_and_gauges_accumulate() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::default();
        g.set(7);
        g.maximize(3);
        assert_eq!(g.get(), 7);
        g.maximize(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn registry_hands_out_shared_handles() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_ordered() {
        let build = || {
            let r = Registry::default();
            r.counter("b.second").add(2);
            r.counter("a.first").inc();
            r.gauge("depth").set(3);
            let h = r.histogram("lat");
            h.record(100);
            h.record(1_000);
            r.snapshot()
        };
        let one = build();
        let two = build();
        assert_eq!(one, two);
        assert_eq!(one.to_json(), two.to_json());
        let json = one.to_json();
        // BTreeMap order puts a.first before b.second.
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "{json}");
        assert!(!json.contains("unix"), "snapshots must carry no wall-clock fields");
    }

    #[test]
    fn histogram_snapshot_keeps_only_populated_buckets() {
        let h = Histogram::default();
        h.record(1);
        h.record(1);
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 1_000_002);
        assert_eq!(s.buckets, vec![(0, 2), (bucket_index(1_000_000) as u8, 1)]);
    }
}
