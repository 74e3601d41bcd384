//! Named counters, gauges and fixed-bucket histograms.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are cheap `Arc` clones
//! over atomics: resolve them once by name, then update lock-free on hot
//! paths. The registry itself is only locked on resolution and snapshot.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing, saturating counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter (registry-less, for tests and ad-hoc use).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        let mut current = self.0.load(Ordering::Relaxed);
        loop {
            let next = current.saturating_add(n);
            match self
                .0
                .compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable signed gauge.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A standalone gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing; one extra
    /// overflow bucket follows implicitly.
    bounds: Vec<f64>,
    /// One count per finite bucket plus the overflow bucket.
    counts: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in value units, accumulated as f64 bits.
    sum_bits: AtomicU64,
    /// Min/max as ordered f64 bit patterns (valid for non-negative values).
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

/// A fixed-bucket histogram for non-negative values (times, sizes, counts).
///
/// Values are assigned to the first bucket whose upper bound is `>=` the
/// value; values above every bound land in an overflow bucket. Quantiles
/// are estimated by linear interpolation inside the containing bucket,
/// which is exact at bucket boundaries and conservative in between.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    /// Default bounds for nanosecond timings: 1 µs to ~17 s, ×2 per bucket.
    pub const DEFAULT_TIME_BOUNDS_NS: &'static [f64] = &[
        1.0e3, 2.0e3, 4.0e3, 8.0e3, 16.0e3, 32.0e3, 64.0e3, 128.0e3, 256.0e3, 512.0e3, 1.0e6,
        2.0e6, 4.0e6, 8.0e6, 16.0e6, 32.0e6, 64.0e6, 128.0e6, 256.0e6, 512.0e6, 1.0e9, 2.0e9,
        4.0e9, 8.0e9, 17.0e9,
    ];

    /// A histogram with the given strictly increasing bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics when `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let counts = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds: bounds.to_vec(),
            counts,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation (negative values clamp to zero).
    pub fn observe(&self, value: f64) {
        let value = if value.is_finite() {
            value.max(0.0)
        } else {
            0.0
        };
        let inner = &self.0;
        let idx = inner
            .bounds
            .partition_point(|&b| b < value)
            .min(inner.counts.len() - 1);
        inner.counts[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        // f64 sum via CAS on the bit pattern.
        let mut current = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => current = seen,
            }
        }
        inner.min_bits.fetch_min(value.to_bits(), Ordering::Relaxed);
        inner.max_bits.fetch_max(value.to_bits(), Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// An immutable snapshot for rendering and quantile estimation.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        let bucket_counts: Vec<u64> = inner
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let count = inner.count.load(Ordering::Relaxed);
        let min = f64::from_bits(inner.min_bits.load(Ordering::Relaxed));
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            bucket_counts,
            count,
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
            min: if count == 0 { 0.0 } else { min },
            max: f64::from_bits(inner.max_bits.load(Ordering::Relaxed)),
        }
    }
}

/// Frozen histogram state.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket counts; the final entry is the overflow bucket.
    pub bucket_counts: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
}

impl HistogramSnapshot {
    /// Mean of the observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`q` in `[0, 1]`) by linear interpolation
    /// within the containing bucket. Overflow-bucket quantiles report the
    /// observed maximum.
    ///
    /// # Panics
    ///
    /// Panics unless `q` lies in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return 0.0;
        }
        let rank = q * self.count as f64;
        let mut cumulative = 0u64;
        for (i, &bucket_count) in self.bucket_counts.iter().enumerate() {
            if bucket_count == 0 {
                continue;
            }
            let next = cumulative + bucket_count;
            if (next as f64) >= rank {
                if i >= self.bounds.len() {
                    // Overflow bucket: the best point estimate is the max.
                    return self.max;
                }
                let lower = if i == 0 {
                    self.min.min(self.bounds[0])
                } else {
                    self.bounds[i - 1]
                };
                let upper = self.bounds[i];
                let into = (rank - cumulative as f64) / bucket_count as f64;
                return (lower + (upper - lower) * into.clamp(0.0, 1.0)).clamp(self.min, self.max);
            }
            cumulative = next;
        }
        self.max
    }

    /// p50, p90, p99 in one call.
    pub fn p50_p90_p99(&self) -> (f64, f64, f64) {
        (self.quantile(0.5), self.quantile(0.9), self.quantile(0.99))
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// The metric namespace: resolves names to handles and takes snapshots.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().expect("registry poisoned");
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created with `bounds` on first use
    /// (an existing histogram keeps its original bounds).
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = self.inner.lock().expect("registry poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .clone()
    }

    /// A consistent snapshot of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.inner.lock().expect("registry poisoned");
        Snapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Frozen registry state.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl Snapshot {
    /// The value of a counter, if it exists.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The value of a gauge, if it exists.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).copied()
    }

    /// The snapshot of a histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Aligned human-readable rendering of every metric.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (name, value) in &self.counters {
                let _ = writeln!(out, "  {name:<44} {value}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (name, value) in &self.gauges {
                let _ = writeln!(out, "  {name:<44} {value}");
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for (name, h) in &self.histograms {
                let (p50, p90, p99) = h.p50_p90_p99();
                let _ = writeln!(
                    out,
                    "  {name:<44} n={} mean={:.1} p50={:.1} p90={:.1} p99={:.1} max={:.1}",
                    h.count,
                    h.mean(),
                    p50,
                    p90,
                    p99,
                    h.max,
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics_and_saturation() {
        let c = Counter::new();
        c.incr();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "counter must saturate, not wrap");
        c.incr();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(10);
        g.add(-25);
        assert_eq!(g.get(), -15);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::with_bounds(&[10.0, 20.0, 30.0]);
        // Exactly on a bound lands in that bucket (first bound >= value).
        h.observe(10.0);
        h.observe(10.1);
        h.observe(20.0);
        h.observe(30.0);
        h.observe(30.1); // overflow
        let s = h.snapshot();
        assert_eq!(s.bucket_counts, vec![1, 2, 1, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.1);
        assert!((s.sum - 100.2).abs() < 1e-9);
    }

    #[test]
    fn histogram_negative_and_nan_clamp_to_zero() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        h.observe(-5.0);
        h.observe(f64::NAN);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert_eq!(s.bucket_counts, vec![2, 0, 0]);
        assert_eq!(s.min, 0.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Histogram::with_bounds(&[100.0, 200.0, 400.0]);
        for _ in 0..50 {
            h.observe(50.0); // first bucket
        }
        for _ in 0..50 {
            h.observe(150.0); // second bucket
        }
        let s = h.snapshot();
        let (p50, p90, _) = s.p50_p90_p99();
        // The 50th of 100 observations sits at the first/second boundary.
        assert!(p50 <= 100.0 + 1e-9, "p50 {p50}");
        assert!(p50 >= 50.0, "p50 {p50}");
        // p90 is 80% into the second bucket (100..200).
        assert!((100.0..=200.0).contains(&p90), "p90 {p90}");
        // Quantiles never leave the observed range.
        assert!(s.quantile(0.0) >= s.min);
        assert!(s.quantile(1.0) <= s.max);
    }

    #[test]
    fn quantiles_in_overflow_report_max() {
        let h = Histogram::with_bounds(&[1.0]);
        h.observe(10.0);
        h.observe(90.0);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.99), 90.0);
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let h = Histogram::with_bounds(&[1.0, 2.0]);
        let s = h.snapshot();
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        Histogram::with_bounds(&[2.0, 1.0]);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let r = MetricsRegistry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        b.add(3);
        assert_eq!(r.snapshot().counter("x"), Some(5));

        let h1 = r.histogram("h", &[1.0, 2.0]);
        // Second resolution with different bounds keeps the original.
        let h2 = r.histogram("h", &[9.0]);
        h1.observe(1.5);
        h2.observe(1.5);
        let snap = r.snapshot();
        assert_eq!(snap.histogram("h").unwrap().count, 2);
        assert_eq!(snap.histogram("h").unwrap().bounds, vec![1.0, 2.0]);
    }

    #[test]
    fn render_text_mentions_every_metric() {
        let r = MetricsRegistry::new();
        r.counter("alerts.accepted").add(7);
        r.gauge("revoked").set(3);
        r.histogram("lat", &[1.0, 10.0]).observe(5.0);
        let text = r.snapshot().render_text();
        assert!(text.contains("alerts.accepted"));
        assert!(text.contains("revoked"));
        assert!(text.contains("lat"));
        assert!(text.contains("p99"));
    }

    #[test]
    fn empty_histogram_edges_are_all_zero() {
        let s = Histogram::with_bounds(&[1.0, 2.0]).snapshot();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0.0, "q={q}");
        }
        assert_eq!((s.min, s.max, s.sum), (0.0, 0.0, 0.0));
        assert_eq!(s.p50_p90_p99(), (0.0, 0.0, 0.0));
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let h = Histogram::with_bounds(&[10.0, 20.0, 40.0]);
        h.observe(15.0);
        let s = h.snapshot();
        // One observation: every quantile must report that observation —
        // interpolation cannot leave the [min, max] = [15, 15] range.
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 15.0, "q={q}");
        }
        assert_eq!(s.mean(), 15.0);
    }

    #[test]
    fn all_equal_samples_have_degenerate_quantiles() {
        let h = Histogram::with_bounds(&[10.0, 20.0, 40.0]);
        for _ in 0..1000 {
            h.observe(15.0);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 15.0, "q={q}");
        }
        // Same when every sample sits exactly on a bucket bound.
        let h = Histogram::with_bounds(&[10.0, 20.0, 40.0]);
        for _ in 0..1000 {
            h.observe(20.0);
        }
        let s = h.snapshot();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(s.quantile(q), 20.0, "q={q}");
        }
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn out_of_range_quantile_panics() {
        Histogram::with_bounds(&[1.0]).snapshot().quantile(1.5);
    }

    #[test]
    fn snapshot_is_coherent_under_concurrent_writers() {
        let r = Arc::new(MetricsRegistry::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let r = r.clone();
                let stop = stop.clone();
                std::thread::spawn(move || {
                    let c = r.counter("w.ops");
                    let h = r.histogram("w.lat", &[10.0, 100.0, 1_000.0]);
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        c.incr();
                        h.observe((t * 100) as f64);
                        r.gauge(&format!("w.g{t}")).set(n as i64);
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        // Snapshots taken mid-write must be internally consistent: the
        // histogram's bucket total never exceeds its recorded count at a
        // later instant, and counters never move backwards across snaps.
        let mut last_ops = 0u64;
        for _ in 0..50 {
            let snap = r.snapshot();
            if let Some(h) = snap.histogram("w.lat") {
                let bucket_total: u64 = h.bucket_counts.iter().sum();
                // `count` is bumped after the bucket, so the bucket total
                // may run ahead by in-flight observers but never lag by
                // more than the writer count.
                assert!(
                    bucket_total + 4 >= h.count && bucket_total <= h.count + 4,
                    "bucket total {bucket_total} vs count {}",
                    h.count
                );
            }
            let ops = snap.counter("w.ops").unwrap_or(0);
            assert!(ops >= last_ops, "counter went backwards");
            last_ops = ops;
        }
        stop.store(true, Ordering::Relaxed);
        let total: u64 = writers.into_iter().map(|w| w.join().unwrap()).sum();
        let snap = r.snapshot();
        assert_eq!(snap.counter("w.ops"), Some(total), "no update lost");
        assert_eq!(snap.histogram("w.lat").unwrap().count, total);
        let bucket_total: u64 = snap.histogram("w.lat").unwrap().bucket_counts.iter().sum();
        assert_eq!(bucket_total, total);
    }

    #[test]
    fn concurrent_updates_are_lossless() {
        let c = Counter::new();
        let h = Histogram::with_bounds(&[1_000.0]);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                let h = h.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                        h.observe(1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }
}
