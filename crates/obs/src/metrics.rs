//! The metrics registry: named atomic counters, gauges, and
//! fixed-bucket histograms.
//!
//! Registration (name lookup) takes a mutex; it happens once per stage
//! per day, never per record. The handles a stage holds are `Arc`s of
//! plain atomics, so the hot path is a single `Relaxed` RMW — cheap
//! enough to leave on in production, free to share across threads,
//! and trivially mergeable: each worker owns a private registry and the
//! run folds the per-worker [`MetricsSnapshot`]s together at the end.

use crate::json::{self, Encode};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing atomic counter.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (always valid to bump).
    pub fn detached() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
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

/// A last-or-max value gauge (e.g. table occupancy).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `i` holds values whose bit
/// length is `i`, i.e. the range `[2^(i-1), 2^i)`, with bucket 0
/// reserved for zero. Base-2 exponential buckets cover the full `u64`
/// range with bounded error, which is plenty for latency-in-nanoseconds
/// and bytes-per-push distributions.
pub const HISTOGRAM_BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket (base-2 exponential) histogram.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// A histogram not attached to any registry.
    pub fn detached() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let bucket = (u64::BITS - v.leading_zeros()) as usize;
        self.0.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .0
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.0.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observed value (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing quantile `q` in `[0, 1]`
    /// (0 if empty).
    ///
    /// Bucket-boundary error: bucket `i` spans `[2^(i-1), 2^i)`, so the
    /// returned value is the bucket's *upper* bound and the true
    /// quantile lies within a factor of 2 below it. That is the price
    /// of 65 fixed base-2 buckets covering all of `u64` with `Relaxed`
    /// atomics on the record path; for the latency- and size-shaped
    /// distributions this crate tracks, order-of-magnitude quantiles
    /// are what reports need.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Bucket i holds values in [2^(i-1), 2^i); bucket 0 is zero.
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        u64::MAX
    }

    /// Fold another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.sum += other.sum;
    }
}

/// A named collection of counters, gauges, and histograms.
///
/// Cloneable handles are registered on first use; asking for the same
/// name twice returns a handle to the same underlying atomic.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Handle to the counter named `name`, creating it at zero.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Handle to the gauge named `name`, creating it at zero.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Handle to the histogram named `name`, creating it empty.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut map = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        map.entry(name.to_string()).or_default().clone()
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A point-in-time, mergeable copy of a whole [`MetricsRegistry`].
///
/// Merging follows per-type semantics: counters and histograms add,
/// gauges take the maximum (they track peaks across workers).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of a counter, 0 if never registered.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Value of a gauge, 0 if never registered.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram by name, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold another snapshot into this one (counters/histograms add,
    /// gauges max).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let e = self.gauges.entry(k.clone()).or_insert(0);
            *e = (*e).max(*v);
        }
        for (k, v) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Render as aligned `name value` text lines.
    ///
    /// Metrics appear in lexicographic key order (the maps are
    /// `BTreeMap`s), so two runs producing the same metrics render
    /// byte-identical reports and diff cleanly.
    pub fn to_text(&self) -> String {
        let width = self
            .counters
            .keys()
            .chain(self.gauges.keys())
            .chain(self.histograms.keys())
            .map(String::len)
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for (k, v) in &self.counters {
            let _ = writeln!(out, "{k:<width$}  {v}");
        }
        for (k, v) in &self.gauges {
            let _ = writeln!(out, "{k:<width$}  {v} (gauge)");
        }
        for (k, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{k:<width$}  n={} mean={:.0} p50≤{} p95≤{} p99≤{}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.95),
                h.quantile(0.99),
            );
        }
        out
    }

    /// Render as a JSON object. Metric names are conventionally plain
    /// dotted identifiers, but the encoder does not rely on that: every
    /// key is escaped, so quotes, control characters, and non-ASCII
    /// text survive a strict parser. Keys are emitted in lexicographic
    /// order, so equal snapshots serialize byte-identically.
    pub fn to_json(&self) -> String {
        json::to_string(self)
    }
}

crate::encode_fields!(MetricsSnapshot: counters, gauges, histograms);

impl Encode for HistogramSnapshot {
    fn encode(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("count", self.count())
                .field("sum", self.sum)
                .field("p50", self.quantile(0.5))
                .field("p95", self.quantile(0.95))
                .field("p99", self.quantile(0.99));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.flows");
        c.inc();
        c.add(9);
        // Same name → same underlying atomic.
        assert_eq!(reg.counter("a.flows").get(), 10);

        let g = reg.gauge("a.occupancy");
        g.set(5);
        g.set_max(3); // lower: ignored
        g.set_max(8);
        assert_eq!(reg.gauge("a.occupancy").get(), 8);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.flows"), 10);
        assert_eq!(snap.gauge("a.occupancy"), 8);
        assert_eq!(snap.counter("never.registered"), 0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::detached();
        h.record(0);
        for _ in 0..99 {
            h.record(1000);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum, 99_000);
        assert!((s.mean() - 990.0).abs() < 1e-9);
        // 1000 has bit length 10 → bucket upper bound 2^10.
        assert_eq!(s.quantile(0.5), 1024);
        // The single zero is the minimum.
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn snapshot_merge_adds_counters_and_maxes_gauges() {
        let a = MetricsRegistry::new();
        a.counter("c").add(3);
        a.gauge("g").set(10);
        a.histogram("h").record(4);
        let b = MetricsRegistry::new();
        b.counter("c").add(4);
        b.counter("only_b").add(1);
        b.gauge("g").set(7);
        b.histogram("h").record(4);

        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.counter("c"), 7);
        assert_eq!(m.counter("only_b"), 1);
        assert_eq!(m.gauge("g"), 10);
        assert_eq!(m.histogram("h").unwrap().count(), 2);
        assert_eq!(m.histogram("h").unwrap().sum, 8);
    }

    #[test]
    fn counters_are_thread_safe() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("par");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn text_and_json_render() {
        let reg = MetricsRegistry::new();
        reg.counter("x.count").add(2);
        reg.gauge("x.peak").set(5);
        reg.histogram("x.lat").record(100);
        let snap = reg.snapshot();
        let text = snap.to_text();
        assert!(text.contains("x.count"));
        assert!(text.contains("(gauge)"));
        let json = snap.to_json();
        assert!(json.contains("\"x.count\":2"));
        assert!(json.contains("\"x.peak\":5"));
        assert!(json.contains("\"count\":1"));
        assert!(json.contains("\"p95\":"));
        assert!(text.contains("p95≤"));
    }

    #[test]
    fn renderers_emit_keys_in_sorted_order_regardless_of_insertion() {
        // Register in deliberately reversed order; output must be
        // lexicographic so diffs between runs are stable.
        let reg = MetricsRegistry::new();
        for name in ["z.last", "m.middle", "a.first"] {
            reg.counter(name).inc();
            reg.gauge(&format!("g.{name}")).set(1);
            reg.histogram(&format!("h.{name}")).record(1);
        }
        let snap = reg.snapshot();

        let positions = |hay: &str, needles: &[&str]| -> Vec<usize> {
            needles
                .iter()
                .map(|n| hay.find(n).unwrap_or_else(|| panic!("{n} missing")))
                .collect()
        };
        for rendered in [snap.to_text(), snap.to_json()] {
            let pos = positions(&rendered, &["a.first", "m.middle", "z.last"]);
            assert!(pos.windows(2).all(|w| w[0] < w[1]), "counters unsorted");
            let pos = positions(&rendered, &["g.a.first", "g.m.middle", "g.z.last"]);
            assert!(pos.windows(2).all(|w| w[0] < w[1]), "gauges unsorted");
            let pos = positions(&rendered, &["h.a.first", "h.m.middle", "h.z.last"]);
            assert!(pos.windows(2).all(|w| w[0] < w[1]), "histograms unsorted");
        }
        // Equal snapshots serialize byte-identically.
        assert_eq!(snap.to_json(), reg.snapshot().to_json());
    }

    #[test]
    fn json_snapshot_escapes_hostile_metric_names() {
        let reg = MetricsRegistry::new();
        reg.counter("quoted\"name").add(1);
        reg.counter("tab\tand\nnewline").add(2);
        reg.gauge("unicode.π").set(3);
        reg.histogram("ctrl\u{1}hist").record(7);
        let json = reg.snapshot().to_json();
        assert!(json.is_ascii());
        let v = crate::json::parse(&json).expect("strict parse");
        let counters = v.get("counters").unwrap().as_object().unwrap();
        assert_eq!(
            counters.get("quoted\"name").and_then(|x| x.as_u64()),
            Some(1)
        );
        assert_eq!(
            counters.get("tab\tand\nnewline").and_then(|x| x.as_u64()),
            Some(2)
        );
        let gauges = v.get("gauges").unwrap().as_object().unwrap();
        assert_eq!(gauges.get("unicode.π").and_then(|x| x.as_u64()), Some(3));
        let hists = v.get("histograms").unwrap().as_object().unwrap();
        let h = hists.get("ctrl\u{1}hist").expect("histogram key survives");
        assert_eq!(h.get("count").and_then(|x| x.as_u64()), Some(1));
    }
}
