//! A thread-safe metrics registry: counters, gauges and histograms.
//!
//! Metrics are identified by a dotted name plus sorted label pairs, e.g.
//! `api.calls{endpoint=followers_ids}`. All maps are `BTreeMap`s so every
//! snapshot and rendered summary iterates in one deterministic order.

use crate::sync::lock;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Mutex;

/// Histogram bucket upper bounds in seconds (a final overflow bucket
/// catches everything above the last bound). The scale spans the regimes
/// the reproduction measures: sub-second cache hits, Table II responses
/// (seconds to minutes) and multi-day crawls.
pub const BUCKET_BOUNDS: [f64; 9] = [0.001, 0.01, 0.1, 1.0, 10.0, 60.0, 600.0, 3_600.0, 86_400.0];

/// A metric identity: name plus label pairs (sorted on construction).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricKey {
    /// Dotted metric name, e.g. `cache.hit`.
    pub name: String,
    /// Sorted `(label, value)` pairs.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        Self {
            name: name.to_string(),
            labels,
        }
    }

    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

impl fmt::Display for MetricKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)?;
        if !self.labels.is_empty() {
            f.write_str("{")?;
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    f.write_str(",")?;
                }
                write!(f, "{k}={v}")?;
            }
            f.write_str("}")?;
        }
        Ok(())
    }
}

/// An exemplar: one concrete observation a histogram remembers alongside
/// its aggregate shape, linking a `/metrics` line back to the trace that
/// produced it. Histograms keep the exemplar of their **largest**
/// observation — the worst case is the trace an operator wants to open.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value.
    pub value: f64,
    /// The trace identity of the observation, e.g. `span#42`.
    pub trace_id: String,
}

/// Streaming histogram state: count/sum/min/max plus log-scale buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// `(upper_bound, count)` pairs; the final pair uses
    /// [`f64::INFINITY`] as its bound.
    pub buckets: Vec<(f64, u64)>,
    /// Exemplar of the largest observation recorded with a trace id
    /// (`None` when no exemplar-carrying observation happened).
    pub exemplar: Option<Exemplar>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `q`-quantile by linear interpolation inside the
    /// bucket holding the target rank — the Prometheus
    /// `histogram_quantile` scheme, tightened with the exact `min`/`max`
    /// the snapshot tracks. Clamping, in order:
    ///
    /// * `q` outside `[0, 1]` is clamped to `[0, 1]` (so `quantile(-1.0)`
    ///   behaves like `quantile(0.0)` and `quantile(2.0)` like
    ///   `quantile(1.0)`);
    /// * estimates are clamped to `[min, max]`, so a single-sample
    ///   histogram returns exactly that sample at every `q`;
    /// * a rank landing in the overflow bucket reports `max` rather than
    ///   infinity;
    /// * an empty histogram returns `0.0` at every `q`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        let mut lower = 0.0_f64;
        for &(bound, in_bucket) in &self.buckets {
            let next = cum + in_bucket;
            if in_bucket > 0 && next as f64 >= target {
                if bound.is_infinite() {
                    return self.max;
                }
                let frac = (target - cum as f64) / in_bucket as f64;
                return (lower + frac * (bound - lower)).clamp(self.min, self.max);
            }
            cum = next;
            if bound.is_finite() {
                lower = bound;
            }
        }
        self.max
    }

    /// The median estimate — [`HistogramSnapshot::quantile`] at 0.5.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The 95th-percentile estimate.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// The 99th-percentile estimate.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Merges `other` into `self`: counts and sums add, min/max widen,
    /// buckets add pairwise when the bound layouts match (one side being
    /// empty adopts the other's layout), and the exemplar with the larger
    /// value survives. Merging snapshots with *different* non-empty bound
    /// layouts keeps `self`'s buckets — count/sum/min/max stay exact but
    /// quantile estimates then degrade, which the caller avoids by only
    /// merging snapshots from registries sharing [`BUCKET_BOUNDS`] (all
    /// of them, today).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count > 0 {
            if self.count == 0 {
                self.min = other.min;
                self.max = other.max;
            } else {
                self.min = self.min.min(other.min);
                self.max = self.max.max(other.max);
            }
        }
        self.count += other.count;
        self.sum += other.sum;
        let bounds_match = self.buckets.len() == other.buckets.len()
            && self
                .buckets
                .iter()
                .zip(&other.buckets)
                .all(|(&(a, _), &(b, _))| a == b || (a.is_infinite() && b.is_infinite()));
        if self.buckets.is_empty() {
            self.buckets = other.buckets.clone();
        } else if bounds_match {
            for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
                mine.1 += theirs.1;
            }
        }
        let take_other = match (&self.exemplar, &other.exemplar) {
            (_, None) => false,
            (None, Some(_)) => true,
            (Some(a), Some(b)) => b.value > a.value,
        };
        if take_other {
            self.exemplar = other.exemplar.clone();
        }
    }
}

/// Exact percentiles of raw samples.
///
/// [`HistogramSnapshot::quantile`] estimates from buckets; these two pick
/// an observed sample from an ascending-sorted slice, `q` clamped to
/// `[0, 1]`, `None` when the slice is empty. They are two rules, not one,
/// because committed outputs were produced under each:
///
/// * [`nearest_rank`] — index `ceil(q·n) − 1`, the textbook nearest-rank
///   percentile (at least a `q` share of samples sit at or below it).
///   Trace analysis (latency attribution), the E11 load generator's
///   `BENCH_gateway.json` / ledger numbers and the bench harness's median
///   and p95 use it.
/// * [`rounded_index`] — index `round(q·(n − 1))`, the nearest sample to
///   the linearly interpolated position. The service simulator's
///   `ServerReport` latency and queue-wait percentiles (E8) and the E13
///   query-load bench use it.
///
/// The two differ by at most one sample. Moving every caller to one rule
/// would shift committed E8 numbers, so it waits for a declared
/// regeneration.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let n = sorted.len();
    let rank = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    sorted.get(rank.clamp(1, n.max(1)) - 1).copied()
}

/// The `round(q·(n − 1))` rule; see [`nearest_rank`] for which callers
/// use which rule and why.
pub fn rounded_index<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let last = sorted.len().checked_sub(1)?;
    let index = (q.clamp(0.0, 1.0) * last as f64).round() as usize;
    Some(sorted[index.min(last)])
}

#[derive(Debug, Clone, PartialEq)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; BUCKET_BOUNDS.len() + 1],
    exemplar: Option<Exemplar>,
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: [0; BUCKET_BOUNDS.len() + 1],
            exemplar: None,
        }
    }

    fn observe_with_exemplar(&mut self, v: f64, trace_id: &str) {
        self.observe(v);
        // Keep the worst (largest) exemplar; ties keep the first seen so
        // repeated identical observations stay deterministic.
        if self.exemplar.as_ref().is_none_or(|e| v > e.value) {
            self.exemplar = Some(Exemplar {
                value: v,
                trace_id: trace_id.to_string(),
            });
        }
    }

    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
        let idx = BUCKET_BOUNDS
            .iter()
            .position(|&bound| v <= bound)
            .unwrap_or(BUCKET_BOUNDS.len());
        self.buckets[idx] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets: Vec<(f64, u64)> = BUCKET_BOUNDS
            .iter()
            .copied()
            .zip(self.buckets.iter().copied())
            .collect();
        buckets.push((f64::INFINITY, self.buckets[BUCKET_BOUNDS.len()]));
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets,
            exemplar: self.exemplar.clone(),
        }
    }
}

#[derive(Debug, Default)]
struct Maps {
    counters: BTreeMap<MetricKey, u64>,
    gauges: BTreeMap<MetricKey, f64>,
    histograms: BTreeMap<MetricKey, Histogram>,
}

/// A thread-safe registry of named counters, gauges and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<Maps>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `n` to the counter `name{labels}` (creating it at zero).
    pub fn counter_add(&self, name: &str, labels: &[(&str, &str)], n: u64) {
        let key = MetricKey::new(name, labels);
        *lock(&self.inner).counters.entry(key).or_insert(0) += n;
    }

    /// Sets the gauge `name{labels}` to `v`.
    pub fn gauge_set(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = MetricKey::new(name, labels);
        lock(&self.inner).gauges.insert(key, v);
    }

    /// Records one observation in the histogram `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let key = MetricKey::new(name, labels);
        lock(&self.inner)
            .histograms
            .entry(key)
            .or_insert_with(Histogram::new)
            .observe(v);
    }

    /// Records one observation tagged with an exemplar trace id. The
    /// histogram keeps the exemplar of its largest tagged observation so
    /// renderings can link to the worst trace.
    pub fn observe_with_exemplar(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        v: f64,
        trace_id: &str,
    ) {
        let key = MetricKey::new(name, labels);
        lock(&self.inner)
            .histograms
            .entry(key)
            .or_insert_with(Histogram::new)
            .observe_with_exemplar(v, trace_id);
    }

    /// A deterministic (name-ordered) snapshot of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let maps = lock(&self.inner);
        MetricsSnapshot {
            counters: maps.counters.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            gauges: maps.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            histograms: maps
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry, ordered by metric key.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All counters.
    pub counters: Vec<(MetricKey, u64)>,
    /// All gauges.
    pub gauges: Vec<(MetricKey, f64)>,
    /// All histograms.
    pub histograms: Vec<(MetricKey, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Sum of counter `name` across every label combination.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| v)
            .sum()
    }

    /// The exact counter `name{labels}`, if recorded.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        let key = MetricKey::new(name, labels);
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }

    /// The gauge `name{labels}`, if recorded.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        let key = MetricKey::new(name, labels);
        self.gauges.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// The histogram `name{labels}`, if recorded.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Option<&HistogramSnapshot> {
        let key = MetricKey::new(name, labels);
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// Sum of observations in histogram `name` across every label set.
    pub fn histogram_sum(&self, name: &str) -> f64 {
        self.histograms
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, h)| h.sum)
            .sum()
    }

    /// The distinct values of `label` across all metrics named `name`, in
    /// first-seen (key-sorted) order.
    pub fn label_values(&self, name: &str, label: &str) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        let keys = self
            .counters
            .iter()
            .map(|(k, _)| k)
            .chain(self.gauges.iter().map(|(k, _)| k))
            .chain(self.histograms.iter().map(|(k, _)| k));
        for key in keys {
            if key.name == name {
                if let Some(v) = key.label(label) {
                    if !out.iter().any(|x| x == v) {
                        out.push(v.to_string());
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = MetricsRegistry::new();
        r.counter_add("api.calls", &[("endpoint", "followers_ids")], 3);
        r.counter_add("api.calls", &[("endpoint", "followers_ids")], 2);
        r.counter_add("api.calls", &[("endpoint", "users_lookup")], 7);
        let s = r.snapshot();
        assert_eq!(
            s.counter("api.calls", &[("endpoint", "followers_ids")]),
            Some(5)
        );
        assert_eq!(s.counter_total("api.calls"), 12);
        assert_eq!(s.counter("api.calls", &[("endpoint", "nope")]), None);
    }

    #[test]
    fn gauges_overwrite() {
        let r = MetricsRegistry::new();
        r.gauge_set("cache.entries", &[], 3.0);
        r.gauge_set("cache.entries", &[], 5.0);
        assert_eq!(r.snapshot().gauge("cache.entries", &[]), Some(5.0));
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let r = MetricsRegistry::new();
        for v in [0.5, 2.0, 120.0] {
            r.observe("api.rate_limit_wait_secs", &[], v);
        }
        let s = r.snapshot();
        let h = s.histogram("api.rate_limit_wait_secs", &[]).unwrap();
        assert_eq!(h.count, 3);
        assert!((h.sum - 122.5).abs() < 1e-9);
        assert_eq!(h.min, 0.5);
        assert_eq!(h.max, 120.0);
        assert!((h.mean() - 122.5 / 3.0).abs() < 1e-9);
        // 0.5 → (<=1.0), 2.0 → (<=10.0), 120.0 → (<=600.0).
        let count_at = |bound: f64| {
            h.buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map(|&(_, c)| c)
                .unwrap()
        };
        assert_eq!(count_at(1.0), 1);
        assert_eq!(count_at(10.0), 1);
        assert_eq!(count_at(600.0), 1);
    }

    #[test]
    fn overflow_bucket_catches_huge_values() {
        let r = MetricsRegistry::new();
        r.observe("crawl.secs", &[], 10_000_000.0);
        let s = r.snapshot();
        let h = s.histogram("crawl.secs", &[]).unwrap();
        let (bound, count) = *h.buckets.last().unwrap();
        assert!(bound.is_infinite());
        assert_eq!(count, 1);
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank::<f64>(&[], 0.5), None);
        assert_eq!(nearest_rank(&[4.0], 0.0), Some(4.0));
        assert_eq!(nearest_rank(&[4.0], 1.0), Some(4.0));
        assert_eq!(nearest_rank(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 5.0), Some(2.0)); // q clamped
        assert_eq!(nearest_rank(&[1.0, 2.0], -1.0), Some(1.0));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        // The E11 load generator's sorted latencies.
        let lat = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(nearest_rank(&lat, 0.5), Some(0.2));
        assert_eq!(nearest_rank(&lat, 1.0), Some(0.4));
        assert_eq!(nearest_rank(&lat, 0.0), Some(0.1));
        assert_eq!(nearest_rank::<f64>(&[], 0.5).unwrap_or(0.0), 0.0);
    }

    #[test]
    fn percentiles_over_latencies() {
        // A one-worker simulator run of five back-to-back 10 s requests:
        // latencies 10..50, queue waits 0..40.
        let lat = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(rounded_index(&lat, 0.5), Some(30.0));
        assert_eq!(rounded_index(&lat, 1.0), Some(50.0));
        assert_eq!(rounded_index(&lat, 0.0), Some(10.0));
        let waits = [0.0, 10.0, 20.0, 30.0, 40.0];
        assert_eq!(rounded_index(&waits, 1.0), Some(40.0));
        assert_eq!(rounded_index::<f64>(&[], 0.5), None);
        assert_eq!(rounded_index(&lat, 7.0), Some(50.0)); // q clamped
                                                          // Where the two rules part: four samples at q = 0.5.
        assert_eq!(rounded_index(&[1.0, 2.0, 3.0, 4.0], 0.5), Some(3.0));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = MetricsRegistry::new();
        // 100 observations spread uniformly over (1, 10] — one bucket.
        for i in 1..=100 {
            r.observe("lat", &[], 1.0 + 9.0 * i as f64 / 100.0);
        }
        let s = r.snapshot();
        let h = s.histogram("lat", &[]).unwrap();
        // All mass sits in the (1, 10] bucket; interpolation maps rank
        // q*100 to 1 + 9q.
        assert!((h.p50() - 5.5).abs() < 0.2, "p50 {}", h.p50());
        assert!((h.p95() - 9.55).abs() < 0.2, "p95 {}", h.p95());
        assert!((h.p99() - 9.91).abs() < 0.2, "p99 {}", h.p99());
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn quantile_clamps_to_observed_range() {
        let r = MetricsRegistry::new();
        r.observe("lat", &[], 2.0);
        r.observe("lat", &[], 3.0);
        let s = r.snapshot();
        let h = s.histogram("lat", &[]).unwrap();
        // Both fall in the (1, 10] bucket; naive interpolation would dip
        // below 2.0 at low q and reach 10.0 at q=1.
        assert!(h.quantile(0.0) >= 2.0);
        assert!(h.quantile(1.0) <= 3.0);
    }

    #[test]
    fn quantile_in_overflow_bucket_reports_max() {
        let r = MetricsRegistry::new();
        r.observe("crawl.secs", &[], 100_000.0);
        r.observe("crawl.secs", &[], 2_000_000.0);
        let s = r.snapshot();
        let h = s.histogram("crawl.secs", &[]).unwrap();
        assert_eq!(h.p99(), 2_000_000.0);
        assert!(h.p99().is_finite());
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
            exemplar: None,
        };
        assert_eq!(h.quantile(0.5), 0.0);
        // The clamps hold on the degenerate shape too.
        assert_eq!(h.quantile(-3.0), 0.0);
        assert_eq!(h.quantile(7.0), 0.0);
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let r = MetricsRegistry::new();
        for v in [2.0, 4.0, 8.0] {
            r.observe("lat", &[], v);
        }
        let s = r.snapshot();
        let h = s.histogram("lat", &[]).unwrap();
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NEG_INFINITY), h.quantile(0.0));
        assert_eq!(h.quantile(f64::INFINITY), h.quantile(1.0));
    }

    #[test]
    fn quantile_of_single_sample_is_that_sample() {
        let r = MetricsRegistry::new();
        r.observe("lat", &[], 3.7);
        let s = r.snapshot();
        let h = s.histogram("lat", &[]).unwrap();
        // min == max == 3.7, so the [min, max] clamp pins every quantile
        // to the one observation regardless of bucket interpolation.
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(h.quantile(q), 3.7, "q={q}");
        }
    }

    #[test]
    fn empty_histogram_mean_is_zero() {
        let h = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
            exemplar: None,
        };
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn exemplar_tracks_worst_observation() {
        let r = MetricsRegistry::new();
        r.observe_with_exemplar("lat", &[], 0.5, "span#1");
        r.observe_with_exemplar("lat", &[], 4.0, "span#2");
        r.observe_with_exemplar("lat", &[], 2.0, "span#3");
        // Ties keep the first exemplar seen at that value.
        r.observe_with_exemplar("lat", &[], 4.0, "span#9");
        let s = r.snapshot();
        let h = s.histogram("lat", &[]).unwrap();
        let ex = h.exemplar.as_ref().unwrap();
        assert_eq!(ex.trace_id, "span#2");
        assert_eq!(ex.value, 4.0);
        assert_eq!(h.count, 4);
    }

    #[test]
    fn plain_observe_carries_no_exemplar() {
        let r = MetricsRegistry::new();
        r.observe("lat", &[], 1.0);
        let s = r.snapshot();
        assert!(s.histogram("lat", &[]).unwrap().exemplar.is_none());
    }

    #[test]
    fn merge_adds_counts_and_widens_range() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        for v in [0.5, 2.0] {
            r1.observe("lat", &[], v);
        }
        for v in [0.05, 40.0, 3.0] {
            r2.observe("lat", &[], v);
        }
        let mut a = r1.snapshot().histogram("lat", &[]).unwrap().clone();
        let b = r2.snapshot().histogram("lat", &[]).unwrap().clone();
        a.merge(&b);
        assert_eq!(a.count, 5);
        assert!((a.sum - 45.55).abs() < 1e-9);
        assert_eq!(a.min, 0.05);
        assert_eq!(a.max, 40.0);
        // Buckets added pairwise: the merged bucket counts total 5.
        assert_eq!(a.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 5);
        // Merged quantiles stay inside the widened range.
        assert!(a.p50() >= a.min && a.p99() <= a.max);
    }

    #[test]
    fn merge_into_empty_adopts_other_side() {
        let r = MetricsRegistry::new();
        r.observe_with_exemplar("lat", &[], 7.0, "span#5");
        let full = r.snapshot().histogram("lat", &[]).unwrap().clone();
        let mut empty = HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
            exemplar: None,
        };
        empty.merge(&full);
        assert_eq!(empty, full);
        // And the mirror image: merging an empty side changes nothing.
        let mut kept = full.clone();
        kept.merge(&HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![],
            exemplar: None,
        });
        assert_eq!(kept, full);
    }

    #[test]
    fn merge_keeps_larger_exemplar() {
        let r1 = MetricsRegistry::new();
        let r2 = MetricsRegistry::new();
        r1.observe_with_exemplar("lat", &[], 9.0, "span#big");
        r2.observe_with_exemplar("lat", &[], 1.0, "span#small");
        let big = r1.snapshot().histogram("lat", &[]).unwrap().clone();
        let small = r2.snapshot().histogram("lat", &[]).unwrap().clone();

        let mut a = big.clone();
        a.merge(&small);
        assert_eq!(a.exemplar.as_ref().unwrap().trace_id, "span#big");

        let mut b = small;
        b.merge(&big);
        assert_eq!(b.exemplar.as_ref().unwrap().trace_id, "span#big");
    }

    #[test]
    fn labels_sort_into_one_identity() {
        let a = MetricKey::new("m", &[("b", "2"), ("a", "1")]);
        let b = MetricKey::new("m", &[("a", "1"), ("b", "2")]);
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "m{a=1,b=2}");
        assert_eq!(a.label("a"), Some("1"));
        assert_eq!(MetricKey::new("m", &[]).to_string(), "m");
    }

    #[test]
    fn label_values_are_deduped() {
        let r = MetricsRegistry::new();
        r.counter_add("x", &[("tool", "TA")], 1);
        r.counter_add("x", &[("tool", "SP")], 1);
        r.observe("x", &[("tool", "TA")], 1.0);
        let s = r.snapshot();
        assert_eq!(s.label_values("x", "tool"), vec!["SP", "TA"]);
    }

    #[test]
    fn a_panicking_holder_does_not_wedge_the_registry() {
        let r = MetricsRegistry::new();
        r.counter_add("c", &[], 1);
        crate::sync::poison(&r.inner);
        r.counter_add("c", &[], 2);
        r.observe("h", &[], 0.5);
        r.gauge_set("g", &[], 4.0);
        let s = r.snapshot();
        assert_eq!(s.counter("c", &[]), Some(3));
        assert_eq!(s.histogram("h", &[]).map(|h| h.count), Some(1));
        assert_eq!(s.gauge("g", &[]), Some(4.0));
    }

    #[test]
    fn snapshot_orders_deterministically() {
        let r = MetricsRegistry::new();
        r.counter_add("z.last", &[], 1);
        r.counter_add("a.first", &[], 1);
        let s = r.snapshot();
        assert_eq!(s.counters[0].0.name, "a.first");
        assert_eq!(s.counters[1].0.name, "z.last");
    }
}
