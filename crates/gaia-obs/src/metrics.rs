//! Named monotonic counters and log2-bucketed streaming histograms.
//!
//! The registry is shared across sweep workers and, since the serving
//! telemetry work, between a daemon's engine thread and its metrics
//! exposition thread — so all state is atomic and all accumulation is
//! commutative: counters are plain atomic adds, and histogram sums are
//! stored in fixed-point (micro-units) so the total is independent of
//! observation order. That makes [`MetricsRegistry::snapshot_json`]
//! byte-identical for any worker count — the same property
//! `tests/determinism.rs` already enforces for the sweep's CSV
//! artifacts.
//!
//! # Bucket scheme
//!
//! [`Histogram`] replaced an earlier fixed-bounds design whose
//! milli-unit resolution collapsed every sub-millisecond serving
//! latency into the first bucket. Buckets are now geometric with no
//! configuration: observations are converted to integer micro-units
//! (`value × 1e6`, rounded) and bucket `i ≥ 1` covers micro-values in
//! `(2^(i-1), 2^i]`; bucket `0` covers `0` and `1`. With 64 buckets the
//! range spans sub-microsecond to ~146 millennia of seconds-denominated
//! latency, every bucket's relative width is 2×, and two histograms
//! merge by adding bucket counts — no bounds negotiation, no rebinning.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Fixed-point scale: one unit is `1e6` micro-units.
const SUM_SCALE: f64 = 1e6;

/// Number of log2 buckets in every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A named monotonic counter handle; cheap to clone and thread-safe.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A log2-bucketed streaming histogram; thread-safe and mergeable.
///
/// Observations are stored as integer micro-units. Bucket `0` counts
/// micro-values `≤ 1`; bucket `i` counts micro-values in
/// `(2^(i-1), 2^i]`; the last bucket additionally absorbs everything
/// above its lower bound. The sum is kept in fixed-point micro-units so
/// concurrent observation order cannot perturb it, and quantile queries
/// return the (inclusive) upper bound of the covering bucket — an
/// over-estimate by at most 2×, which is the scheme's stated
/// resolution.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_micro: AtomicU64,
}

/// Bucket index for an observation of `micro` micro-units.
#[inline]
fn bucket_index(micro: u64) -> usize {
    if micro <= 1 {
        0
    } else {
        // ceil(log2(micro)) = 64 - leading_zeros(micro - 1), clamped
        // into the last bucket.
        (64 - (micro - 1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i`, in micro-units.
#[inline]
pub fn bucket_upper_micro(i: usize) -> u64 {
    1u64 << i
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
        }
    }

    /// Record one observation in units. Negative and non-finite values
    /// clamp to zero (they indicate upstream bugs, but metrics must not
    /// panic).
    pub fn observe(&self, v: f64) {
        let v = if v.is_finite() && v > 0.0 { v } else { 0.0 };
        self.observe_micros((v * SUM_SCALE).round() as u64);
    }

    /// Record one observation already expressed in micro-units — the
    /// allocation-free hot path the serving latency telemetry uses
    /// (`Instant::elapsed().as_micros()` when the unit is seconds).
    #[inline]
    pub fn observe_micros(&self, micro: u64) {
        self.buckets[bucket_index(micro)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in units, reconstructed from fixed-point
    /// storage.
    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }

    /// Sum of observations in micro-units.
    pub fn sum_micros(&self) -> u64 {
        self.sum_micro.load(Ordering::Relaxed)
    }

    /// Per-bucket counts, all [`HISTOGRAM_BUCKETS`] of them.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) as the inclusive upper bound of
    /// the covering bucket, in micro-units. Returns 0 for an empty
    /// histogram. The true value lies within a factor of 2 below the
    /// returned bound (exact for bucket 0).
    pub fn quantile_micros(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        let mut last_non_empty = None;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n > 0 {
                last_non_empty = Some(i);
            }
            seen = seen.saturating_add(n);
            if seen >= rank {
                return bucket_upper_micro(i);
            }
        }
        // `count` ran ahead of the buckets (racing observers, or
        // inconsistent `merge_raw` input): answer with the last
        // non-empty bucket's bound.
        last_non_empty.map_or(0, bucket_upper_micro)
    }

    /// The `q`-quantile in units; see [`Histogram::quantile_micros`].
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_micros(q) as f64 / SUM_SCALE
    }

    /// Fold another histogram into this one — the merge used when
    /// combining per-shard telemetry. Bucket-wise addition: the result
    /// is identical to having observed both streams into one histogram.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let n = theirs.load(Ordering::Relaxed);
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_micro
            .fetch_add(other.sum_micro.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Fold raw histogram state into this one: per-bucket counts plus
    /// the total count and fixed-point sum. This is the deserialization
    /// half of [`Histogram::merge_from`] — a shard or result-cache entry
    /// stores `(bucket_counts, count, sum_micros)` and replays it here,
    /// producing the same state as having observed the original stream.
    /// `buckets` beyond [`HISTOGRAM_BUCKETS`] entries are ignored.
    pub fn merge_raw(&self, buckets: &[u64], count: u64, sum_micro: u64) {
        for (mine, &n) in self.buckets.iter().zip(buckets.iter()) {
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_micro.fetch_add(sum_micro, Ordering::Relaxed);
    }

    /// Append this histogram's state to a JSON string: count, sum (in
    /// units), and the non-empty buckets as `{"le": <units>, "count"}`
    /// pairs. Sparse on purpose — 64 mostly-empty buckets would bloat
    /// every snapshot — and still worker-count-invariant because which
    /// buckets are non-empty depends only on the merged totals.
    pub(crate) fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\": ");
        out.push_str(&self.count().to_string());
        out.push_str(", \"sum\": ");
        out.push_str(&format!("{}", self.sum()));
        out.push_str(", \"buckets\": [");
        let mut first = true;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let n = bucket.load(Ordering::Relaxed);
            if n == 0 {
                continue;
            }
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str("{\"le\": ");
            out.push_str(&format!("{}", bucket_upper_micro(i) as f64 / SUM_SCALE));
            out.push_str(", \"count\": ");
            out.push_str(&n.to_string());
            out.push('}');
        }
        out.push_str("]}");
    }
}

/// Registry of named counters and histograms.
///
/// Handles are created on first use and shared afterwards; snapshots
/// iterate names in sorted (BTreeMap) order for deterministic output.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl MetricsRegistry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter with this name.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().expect("metrics registry lock");
        let cell = counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Get or create the histogram with this name. All histograms share
    /// the log2 micro-unit bucket scheme, so there is no bounds
    /// argument and re-registration cannot conflict.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().expect("metrics registry lock");
        let hist = histograms
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(Histogram::new()));
        Arc::clone(hist)
    }

    /// Snapshot every metric as a deterministic JSON document.
    ///
    /// Counters come first, then histograms, each sorted by name;
    /// histogram buckets carry `"le"` upper bounds in units (micro-unit
    /// powers of two divided by 1e6), non-empty buckets only.
    pub fn snapshot_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let counters = self.counters.lock().expect("metrics registry lock");
        for (i, (name, value)) in counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(name);
            out.push_str("\": ");
            out.push_str(&value.load(Ordering::Relaxed).to_string());
        }
        drop(counters);
        out.push_str("\n  },\n  \"histograms\": {");
        let histograms = self.histograms.lock().expect("metrics registry lock");
        for (i, (name, hist)) in histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    \"");
            out.push_str(name);
            out.push_str("\": ");
            hist.write_json(&mut out);
        }
        drop(histograms);
        out.push_str("\n  }\n}\n");
        out
    }

    /// Every counter as `(name, value)`, sorted by name.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        let counters = self.counters.lock().expect("metrics registry lock");
        counters
            .iter()
            .map(|(name, value)| (name.clone(), value.load(Ordering::Relaxed)))
            .collect()
    }

    /// Every histogram handle as `(name, histogram)`, sorted by name.
    pub fn histogram_values(&self) -> Vec<(String, Arc<Histogram>)> {
        let histograms = self.histograms.lock().expect("metrics registry lock");
        histograms
            .iter()
            .map(|(name, hist)| (name.clone(), Arc::clone(hist)))
            .collect()
    }

    /// Fold another registry into this one: counters add, histograms
    /// merge bucket-wise. Metrics accumulation is commutative, so
    /// merging per-cell or per-shard registries in any order yields the
    /// same state as observing everything into one registry — the
    /// property that keeps `metrics.json` byte-identical across worker
    /// and shard counts.
    pub fn merge_from(&self, other: &MetricsRegistry) {
        for (name, value) in other.counter_values() {
            if value > 0 {
                self.counter(&name).add(value);
            } else {
                // Still materialize the name so snapshots list the same
                // metric set regardless of observed values.
                self.counter(&name);
            }
        }
        for (name, hist) in other.histogram_values() {
            self.histogram(&name).merge_from(&hist);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("sweep.cells");
        let b = reg.counter("sweep.cells");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter("sweep.cells").get(), 3);
        assert_eq!(reg.counter("sweep.other").get(), 0);
    }

    #[test]
    fn quantile_past_the_buckets_reads_the_last_non_empty_bound() {
        // `count` ahead of the buckets, as a racing observer or an
        // inconsistent `merge_raw` leaves it.
        let h = Histogram::new();
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        buckets[3] = 1;
        h.merge_raw(&buckets, 5, 8);
        assert_eq!(h.quantile_micros(1.0), bucket_upper_micro(3));
        let empty = Histogram::new();
        empty.merge_raw(&[], 2, 0);
        assert_eq!(empty.quantile_micros(0.5), 0);
    }

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Every bucket's upper bound lands in its own bucket.
        for i in 1..HISTOGRAM_BUCKETS - 1 {
            assert_eq!(bucket_index(bucket_upper_micro(i)), i, "bucket {i}");
            assert_eq!(bucket_index(bucket_upper_micro(i) + 1), i + 1);
        }
    }

    #[test]
    fn histogram_resolves_sub_milli_values() {
        // The old milli-unit fixed buckets collapsed everything below
        // 1ms into one bucket; the log2 µs scheme must keep 2µs and
        // 500µs distinguishable.
        let h = Histogram::new();
        h.observe_micros(2);
        h.observe_micros(500);
        let counts = h.bucket_counts();
        let non_empty: Vec<usize> = (0..counts.len()).filter(|&i| counts[i] > 0).collect();
        assert_eq!(non_empty, vec![1, 9], "2µ → (1,2], 500µ → (256,512]");
    }

    #[test]
    fn histogram_sum_and_count_track_observations() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("wait_hours");
        h.observe(0.5);
        h.observe(1.0);
        h.observe(2.0);
        h.observe(100.0);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 103.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_clamps_pathological_values() {
        let h = Histogram::new();
        h.observe(-5.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.bucket_counts()[0], 3);
    }

    #[test]
    fn quantiles_return_covering_bucket_bounds() {
        let h = Histogram::new();
        assert_eq!(h.quantile_micros(0.5), 0, "empty histogram");
        for micro in [10u64, 20, 30, 40, 1000, 2000, 4000, 8000, 100_000, 900_000] {
            h.observe_micros(micro);
        }
        // p50 rank is the 5th of 10 → 1000µ, bucket (512, 1024].
        assert_eq!(h.quantile_micros(0.50), 1024);
        // p99 rank is the 10th → 900000µ, bucket (524288, 1048576].
        assert_eq!(h.quantile_micros(0.99), 1 << 20);
        // Bounds over-estimate by at most 2×.
        assert!(h.quantile(0.5) >= 1000.0 / SUM_SCALE);
        assert!(h.quantile(0.5) <= 2.0 * 1000.0 / SUM_SCALE);
    }

    #[test]
    fn merge_equals_single_stream() {
        let a = Histogram::new();
        let b = Histogram::new();
        let merged = Histogram::new();
        for i in 0..200u64 {
            let v = i * i * 37;
            if i % 2 == 0 {
                a.observe_micros(v);
            } else {
                b.observe_micros(v);
            }
            merged.observe_micros(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), merged.count());
        assert_eq!(a.sum_micros(), merged.sum_micros());
        assert_eq!(a.bucket_counts(), merged.bucket_counts());
    }

    #[test]
    fn registry_merge_equals_single_registry() {
        let direct = MetricsRegistry::new();
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        for i in 0..50u64 {
            let (part, whole) = if i % 3 == 0 {
                (&a, &direct)
            } else {
                (&b, &direct)
            };
            part.counter("n").inc();
            whole.counter("n").inc();
            part.histogram("v").observe_micros(i * 97);
            whole.histogram("v").observe_micros(i * 97);
        }
        a.counter("only_zero"); // name without increments still merges
        direct.counter("only_zero");
        let merged = MetricsRegistry::new();
        merged.merge_from(&a);
        merged.merge_from(&b);
        assert_eq!(merged.snapshot_json(), direct.snapshot_json());
    }

    #[test]
    fn merge_raw_replays_serialized_state() {
        let src = Histogram::new();
        for micro in [3u64, 700, 15_000, 2_000_000] {
            src.observe_micros(micro);
        }
        let dst = Histogram::new();
        dst.observe_micros(42);
        let replay = Histogram::new();
        replay.observe_micros(42);
        replay.merge_from(&src);
        dst.merge_raw(&src.bucket_counts(), src.count(), src.sum_micros());
        assert_eq!(dst.bucket_counts(), replay.bucket_counts());
        assert_eq!(dst.count(), replay.count());
        assert_eq!(dst.sum_micros(), replay.sum_micros());
    }

    #[test]
    fn snapshot_is_order_independent() {
        // Build the same metrics in two different observation orders and
        // from multiple threads; snapshots must be byte-identical.
        let build = |reverse: bool| {
            let reg = Arc::new(MetricsRegistry::new());
            let values: Vec<f64> = (0..100).map(|i| i as f64 * 0.37).collect();
            let mut handles = Vec::new();
            for chunk in values.chunks(25) {
                let reg = Arc::clone(&reg);
                let mut chunk = chunk.to_vec();
                if reverse {
                    chunk.reverse();
                }
                handles.push(std::thread::spawn(move || {
                    let h = reg.histogram("v");
                    let c = reg.counter("n");
                    for v in chunk {
                        h.observe(v);
                        c.inc();
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            reg.snapshot_json()
        };
        assert_eq!(build(false), build(true));
    }

    #[test]
    fn snapshot_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(7);
        reg.histogram("b.hist").observe(0.25);
        let snap = reg.snapshot_json();
        assert!(snap.contains("\"a.count\": 7"), "{snap}");
        assert!(
            snap.contains("\"b.hist\": {\"count\": 1, \"sum\": 0.25"),
            "{snap}"
        );
        // 0.25 units = 250000µ → bucket (131072, 262144], le 0.262144.
        assert!(snap.contains("{\"le\": 0.262144, \"count\": 1}"), "{snap}");
        // Empty buckets are omitted.
        assert!(!snap.contains("\"count\": 0}"), "{snap}");
    }
}
