//! The benchmark's own arithmetic: medians, nearest-rank percentiles,
//! the tail-percentile rule, open-loop latency, and failure counting.

use std::time::{Duration, Instant};

/// Fewest samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN value: both are benchmark bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert!(!sorted.iter().any(|v| v.is_nan()), "NaN sample");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// 1-based nearest rank of quantile `q` in `n` samples: the smallest
/// rank whose share of samples at or below it reaches `q`.
pub fn nearest_rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank in an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    // The epsilon keeps q·n that is integral in exact arithmetic (0.99 ×
    // 1000) from rounding up a rank through binary representation.
    let rank = (q * n as f64 - 1e-9).ceil() as usize;
    rank.clamp(1, n)
}

/// Samples strictly above the nearest-rank `q` percentile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - nearest_rank(n, q)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), q) - 1]
}

/// The p99 of `samples`, or `None` when fewer than [`MIN_BEYOND`]
/// samples lie beyond it (fewer than 1000 samples).
pub fn p99(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() || samples_beyond(samples.len(), 0.99) < MIN_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile(&sorted, 0.99))
}

/// Median and p99 of one window of samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub p50: f64,
    pub p99: f64,
}

/// Percentiles of consecutive windows of `size` samples; a trailing
/// partial window is dropped. `size` must leave ten samples beyond the
/// p99 (at least 1000).
pub fn windowed(samples: &[f64], size: usize) -> Vec<Window> {
    assert!(
        samples_beyond(size, 0.99) >= MIN_BEYOND,
        "a window of {size} has too few samples beyond its p99"
    );
    samples
        .chunks_exact(size)
        .map(|chunk| {
            let mut sorted = chunk.to_vec();
            sorted.sort_by(f64::total_cmp);
            Window {
                p50: percentile(&sorted, 0.5),
                p99: percentile(&sorted, 0.99),
            }
        })
        .collect()
}

/// An open-loop send schedule: request `i` is due at
/// `start + i × period`, whenever the previous one completed.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub period: Duration,
}

impl Schedule {
    /// When request `i` is due to be sent.
    pub fn due(&self, i: usize) -> Instant {
        self.start + self.period * u32::try_from(i).expect("request index fits u32")
    }

    /// Latency of request `i` answered at `received`, timed from when it
    /// was due, not from when it was sent: a stall that delays the
    /// generator is charged to every request it held back.
    pub fn latency(&self, i: usize, received: Instant) -> Duration {
        received.saturating_duration_since(self.due(i))
    }
}

/// Operations attempted and failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it failed.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Calls per timed one when a layer's calls are too short to time each:
/// reading the clock twice costs about 0.1 us on a virtualised host, as
/// much as a cheap policy decision, so timing every call would inflate
/// the layer by several percent; one in sixteen keeps that under half a
/// percent. The timed calls are the same on every run of the same
/// inputs, so sampling adds no run-to-run noise.
pub const SAMPLE_EVERY: u64 = 16;

/// Whether call `i` (from 0) of a stream is one of those timed: one in
/// [`SAMPLE_EVERY`], from the first.
pub fn is_sampled(i: u64) -> bool {
    i.is_multiple_of(SAMPLE_EVERY)
}

/// A stream of calls of which some are timed.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Sampled {
    pub calls: u64,
    pub timed: u64,
    /// Summed time of the timed calls.
    pub busy: Duration,
}

impl Sampled {
    /// Counts one call, and its time when it was timed.
    pub fn add(&mut self, took: Option<Duration>) {
        self.calls += 1;
        if let Some(took) = took {
            self.timed += 1;
            self.busy += took;
        }
    }

    /// The estimated time of all calls: the timed calls' mean times the
    /// number of calls.
    pub fn total(&self) -> Duration {
        if self.timed == 0 {
            return Duration::ZERO;
        }
        self.busy.mul_f64(self.calls as f64 / self.timed as f64)
    }
}

/// Compares the responses a daemon sent against the expected responses
/// (one per request sent). Each request is one operation; a response
/// that is missing or differs in any byte fails it.
pub fn compare_responses(expected: &[String], got: &[String]) -> Tally {
    let mut tally = Tally::default();
    for (i, want) in expected.iter().enumerate() {
        tally.record(got.get(i) == Some(want));
    }
    tally
}

/// The share of an untraced wall time the traced layers leave
/// unexplained: for each `(layers, wall)` pair — the summed self times of
/// a traced run's named layers and the wall time of an untraced run made
/// beside it — `1 - layers / wall`, and the median over pairs. Negative
/// when the traced layers add up to more than the untraced wall.
pub fn unattributed(pairs: &[(f64, f64)]) -> f64 {
    median(
        &pairs
            .iter()
            .map(|&(layers, wall)| 1.0 - layers / wall)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampled_time_scales_to_all_calls() {
        let ms = Duration::from_millis;
        let mut calls = Sampled::default();
        assert_eq!(calls.total(), Duration::ZERO);
        // 33 calls, one in 16 timed from the first: calls 0, 16 and 32.
        for i in 0..33 {
            calls.add(is_sampled(i).then_some(ms(1)));
        }
        assert_eq!((calls.calls, calls.timed), (33, 3));
        assert_eq!(calls.total(), ms(11 * 3));
        // Unequal timed calls: their mean stands for every call.
        let mut calls = Sampled::default();
        for took in [Some(ms(2)), None, None, Some(ms(4))] {
            calls.add(took);
        }
        assert_eq!(calls.total(), ms(12));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, so ten samples (991..=1000) lie beyond.
        assert_eq!(nearest_rank(1000, 0.99), 990);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        // 999 samples: rank ceil(989.01) = 990 leaves only nine.
        assert_eq!(samples_beyond(999, 0.99), 9);
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p99(&values), Some(990.0));
        assert_eq!(p99(&values[..999]), None);
        assert_eq!(p99(&[]), None);
    }

    #[test]
    fn windows_drop_the_partial_tail() {
        let values: Vec<f64> = (1..=2500).map(f64::from).collect();
        let windows = windowed(&values, 1000);
        assert_eq!(windows.len(), 2);
        assert_eq!(
            windows[0],
            Window {
                p50: 500.0,
                p99: 990.0
            }
        );
        assert_eq!(
            windows[1],
            Window {
                p50: 1500.0,
                p99: 1990.0
            }
        );
    }

    #[test]
    #[should_panic(expected = "too few samples beyond")]
    fn windows_must_support_a_p99() {
        windowed(&[1.0; 999], 999);
    }

    #[test]
    fn nearest_rank_edges() {
        assert_eq!(nearest_rank(1, 0.5), 1);
        assert_eq!(nearest_rank(10, 0.0), 1);
        assert_eq!(nearest_rank(10, 1.0), 10);
        assert_eq!(nearest_rank(4, 0.5), 2);
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.75), 3.0);
    }

    #[test]
    fn open_loop_latency_is_timed_from_due_time() {
        let start = Instant::now();
        let schedule = Schedule {
            start,
            period: Duration::from_millis(2),
        };
        assert_eq!(schedule.due(5), start + Duration::from_millis(10));
        // A 50 ms stall at request 0 holds every request due inside it;
        // request 10 (due at 20 ms) is sent late and answered at 51 ms,
        // so it waited 31 ms, not the 1 ms its round trip took.
        let received = start + Duration::from_millis(51);
        assert_eq!(schedule.latency(10, received), Duration::from_millis(31));
        // Answered before its due time (cannot happen on the wire, but
        // the arithmetic must not wrap).
        assert_eq!(schedule.latency(10, start), Duration::ZERO);
    }

    #[test]
    fn failures_count_missing_and_differing_responses() {
        let expected: Vec<String> = ["a", "b", "c", "d"].map(String::from).to_vec();
        let got: Vec<String> = ["a", "x", "c"].map(String::from).to_vec();
        // "b" differs and "d" is missing.
        assert_eq!(
            compare_responses(&expected, &got),
            Tally {
                attempted: 4,
                failed: 2
            }
        );
        let mut tally = Tally::default();
        tally.record(true);
        tally.record(false);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn unattributed_share_is_the_median_over_pairs() {
        // Layers explaining 90%, 100% and 105% of the untraced wall.
        let pairs = [(0.9, 1.0), (2.0, 2.0), (2.1, 2.0)];
        assert!(unattributed(&pairs).abs() < 1e-12);
        assert!((unattributed(&pairs[..1]) - 0.1).abs() < 1e-12);
        assert!((unattributed(&pairs[2..]) + 0.05).abs() < 1e-12);
    }
}
