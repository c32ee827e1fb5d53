//! Differential tests: every [`ForecastIndex`]-backed query path must be
//! **bit-equal** to the naive slow path it replaced, across random
//! traces, horizons, partial-hour offsets, and forecaster kinds, plus
//! fixed year-scale cases.
//!
//! The oracles below are the pre-index implementations, kept verbatim
//! as the one sort-based copy of each kernel in the tree: `quantile`
//! collected-and-sorted its window, `greenest_slots` sorted every slot
//! by `(ci, start)` and took greedily, and integrals walked the hourly
//! slots (the perfect forecaster has always delegated to the trace's
//! exact prefix-sum integral, which the index reuses unchanged).

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{
    CarbonForecaster, CarbonTrace, ForecastIndex, ForecastView, NoisyForecaster, PerfectForecaster,
    PersistenceForecaster, Region,
};
use gaia_time::{HourlySlots, Minutes, SimTime};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = CarbonTrace> {
    proptest::collection::vec(1.0f64..2000.0, 1..200)
        .prop_map(|v| CarbonTrace::from_hourly(v).expect("positive values"))
}

/// The historical `ForecastView::quantile`: allocate, full-sort, index.
fn oracle_quantile(samples: &mut [f64], q: f64) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let idx = ((samples.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    samples[idx]
}

/// The historical greedy: sort *all* slots by `(ci, start)`, take until
/// `need` is covered, then sort by start and merge.
fn oracle_greenest(slots: Vec<(SimTime, Minutes, f64)>, need: Minutes) -> Vec<(SimTime, Minutes)> {
    let mut slots = slots;
    slots.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)));
    let mut remaining = need;
    let mut chosen: Vec<(SimTime, Minutes)> = Vec::new();
    for (start, avail, _) in slots {
        if remaining.is_zero() {
            break;
        }
        let take = avail.min(remaining);
        chosen.push((start, take));
        remaining -= take;
    }
    assert!(remaining.is_zero(), "horizon >= need guarantees coverage");
    chosen.sort_by_key(|(s, _)| *s);
    let mut merged: Vec<(SimTime, Minutes)> = Vec::with_capacity(chosen.len());
    for (s, l) in chosen {
        match merged.last_mut() {
            Some((ms, ml)) if *ms + *ml == s => *ml += l,
            _ => merged.push((s, l)),
        }
    }
    merged
}

/// The trace's hourly samples over `[start, start + horizon)`, one per
/// slot the window overlaps: the input of [`oracle_quantile`].
fn window_samples(trace: &CarbonTrace, start: SimTime, horizon: Minutes) -> Vec<f64> {
    HourlySlots::spanning(start, horizon)
        .map(|s| trace.intensity_at_hour(s.hour))
        .collect()
}

/// The trace's `(start, usable minutes, ci)` slots over `[start, start +
/// horizon)`: the input of [`oracle_greenest`].
fn window_slots(
    trace: &CarbonTrace,
    start: SimTime,
    horizon: Minutes,
) -> Vec<(SimTime, Minutes, f64)> {
    HourlySlots::spanning(start, horizon)
        .map(|s| (s.start, s.overlap, trace.intensity_at_hour(s.hour)))
        .collect()
}

proptest! {
    /// Index quantiles are bit-equal to sorting the window, for any
    /// partial-hour anchor, horizon (including wrapping past the trace
    /// end, repeatedly), and quantile.
    #[test]
    fn index_quantile_is_bit_equal_to_sort(
        trace in trace_strategy(),
        start in 0u64..20_000,
        horizon in 1u64..9_000,
        q in 0.0f64..=1.0,
    ) {
        let index = ForecastIndex::new(&trace);
        let start = SimTime::from_minutes(start);
        let horizon = Minutes::new(horizon);
        let fast = index.window_quantile(start, horizon, q);
        let slow = oracle_quantile(&mut window_samples(&trace, start, horizon), q);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// Index greenest-slot plans equal the sort-everything greedy's.
    #[test]
    fn index_greenest_slots_equal_full_sort_greedy(
        trace in trace_strategy(),
        start in 0u64..20_000,
        extra in 0u64..3_000,
        need in 1u64..3_000,
    ) {
        let index = ForecastIndex::new(&trace);
        let start = SimTime::from_minutes(start);
        let need = Minutes::new(need);
        let horizon = need + Minutes::new(extra);
        let fast = index.greenest_slots(start, horizon, need);
        let slow = oracle_greenest(window_slots(&trace, start, horizon), need);
        prop_assert_eq!(fast, slow);
    }

    /// Index integrals and averages are bit-equal to the trace's own
    /// prefix-sum path (the engine's historical source of truth).
    #[test]
    fn index_integral_is_bit_equal_to_trace(
        trace in trace_strategy(),
        start in 0u64..20_000,
        len in 1u64..9_000,
    ) {
        let index = ForecastIndex::new(&trace);
        let start = SimTime::from_minutes(start);
        let len = Minutes::new(len);
        prop_assert_eq!(
            index.window_integral(start, len).to_bits(),
            trace.window_integral(start, len).to_bits()
        );
        prop_assert_eq!(
            index.window_avg(start, len).to_bits(),
            trace.window_avg(start, len).to_bits()
        );
    }

    /// The view over a perfect forecaster (index-backed) answers
    /// bit-identically to the view over an equivalent custom forecaster
    /// (naive query path) — the end-to-end API contract.
    #[test]
    fn perfect_view_is_bit_equal_to_naive_view(
        trace in trace_strategy(),
        now in 0u64..20_000,
        horizon in 1u64..5_000,
        need_frac in 0.01f64..1.0,
        q in 0.0f64..=1.0,
    ) {
        /// Forecasts like `PerfectForecaster` but without its `query`
        /// override, so the view falls back to the naive path.
        struct NaivePerfect<'a>(&'a CarbonTrace);
        impl CarbonForecaster for NaivePerfect<'_> {
            fn current(&self, t: SimTime) -> f64 {
                self.0.intensity_at(t)
            }
            fn forecast(&self, _now: SimTime, at: SimTime) -> f64 {
                self.0.intensity_at(at)
            }
            fn forecast_integral(&self, _now: SimTime, start: SimTime, len: Minutes) -> f64 {
                self.0.window_integral(start, len)
            }
        }

        let now = SimTime::from_minutes(now);
        let horizon = Minutes::new(horizon);
        let fast_f = PerfectForecaster::new(&trace);
        let slow_f = NaivePerfect(&trace);
        let fast = ForecastView::new(&fast_f, now);
        let slow = ForecastView::new(&slow_f, now);

        prop_assert_eq!(fast.current().to_bits(), slow.current().to_bits());
        let probe = now + Minutes::new(horizon.as_minutes() / 2);
        prop_assert_eq!(fast.at(probe).to_bits(), slow.at(probe).to_bits());
        prop_assert_eq!(
            fast.integral(now, horizon).to_bits(),
            slow.integral(now, horizon).to_bits()
        );
        prop_assert_eq!(
            fast.average(now, horizon).to_bits(),
            slow.average(now, horizon).to_bits()
        );
        prop_assert_eq!(
            fast.quantile(horizon, q).to_bits(),
            slow.quantile(horizon, q).to_bits()
        );
        let need = Minutes::new(
            ((horizon.as_minutes() as f64 * need_frac) as u64).max(1),
        );
        prop_assert_eq!(
            fast.greenest_slots(horizon, need),
            slow.greenest_slots(horizon, need)
        );
    }

    /// The memoizing query paths (noisy and persistence forecasters) are
    /// bit-identical to re-deriving every sample per call.
    #[test]
    fn memoized_views_are_bit_equal_to_direct_derivation(
        trace in trace_strategy(),
        now in 0u64..20_000,
        horizon in 1u64..5_000,
        sd in 0.0f64..0.6,
        seed in 0u64..1_000,
        q in 0.0f64..=1.0,
    ) {
        let now_t = SimTime::from_minutes(now);
        let horizon = Minutes::new(horizon);
        let noisy = NoisyForecaster::new(&trace, sd, seed);
        let persistence = PersistenceForecaster::new(&trace);
        let forecasters: [&dyn CarbonForecaster; 2] = [&noisy, &persistence];
        for f in forecasters {
            let view = ForecastView::new(f, now_t);
            // Integral: same slot walk, same summation order.
            let naive_integral: f64 = HourlySlots::spanning(now_t, horizon)
                .map(|s| f.forecast(now_t, s.start) * s.fraction())
                .sum();
            prop_assert_eq!(
                view.integral(now_t, horizon).to_bits(),
                naive_integral.to_bits()
            );
            // Quantile: same samples, same nearest-rank pick.
            let mut samples: Vec<f64> = HourlySlots::spanning(now_t, horizon)
                .map(|s| f.forecast(now_t, s.start))
                .collect();
            prop_assert_eq!(
                view.quantile(horizon, q).to_bits(),
                oracle_quantile(&mut samples, q).to_bits()
            );
            // Point samples at canonical and non-canonical instants.
            for offset in [0u64, 1, 59, 60, 90, 240] {
                let at = now_t + Minutes::new(offset);
                prop_assert_eq!(
                    view.at(at).to_bits(),
                    f.forecast(now_t, at).to_bits()
                );
            }
            // Greenest slots: same plan as the full-sort greedy.
            let slots: Vec<(SimTime, Minutes, f64)> = HourlySlots::spanning(now_t, horizon)
                .map(|s| (s.start, s.overlap, f.forecast(now_t, s.start)))
                .collect();
            prop_assert_eq!(
                view.greenest_slots(horizon, horizon),
                oracle_greenest(slots, horizon)
            );
        }
    }
}

/// The year-long trace the fixed cases run on: long enough that windows
/// start at partial-hour offsets deep in the period and wrap its end.
fn year_trace() -> CarbonTrace {
    synthesize_region(Region::SouthAustralia, 42)
}

#[test]
fn quantile_matches_oracle_across_offsets_and_horizons() {
    let trace = year_trace();
    let index = ForecastIndex::new(&trace);
    for start_min in [0u64, 17, 59, 60, 3600, 8759 * 60, 8760 * 60 + 30] {
        for horizon_h in [1u64, 2, 24, 168, 800] {
            let start = SimTime::from_minutes(start_min);
            let horizon = Minutes::from_hours(horizon_h);
            let mut samples = window_samples(&trace, start, horizon);
            for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
                assert_eq!(
                    index.window_quantile(start, horizon, q).to_bits(),
                    oracle_quantile(&mut samples, q).to_bits(),
                    "start={start_min} horizon={horizon_h}h q={q}"
                );
            }
        }
    }
}

#[test]
fn quantile_handles_windows_longer_than_the_trace() {
    let trace = CarbonTrace::from_hourly(vec![30.0, 10.0, 20.0]).expect("valid");
    let index = ForecastIndex::new(&trace);
    // 8 hours over a 3-hour trace: wraps 2 whole periods + 2 hours.
    let (start, horizon) = (SimTime::from_hours(1), Minutes::from_hours(8));
    let mut samples = window_samples(&trace, start, horizon);
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(
            index.window_quantile(start, horizon, q).to_bits(),
            oracle_quantile(&mut samples, q).to_bits(),
            "q={q}"
        );
    }
}

#[test]
fn greenest_slots_match_oracle() {
    let trace = year_trace();
    let index = ForecastIndex::new(&trace);
    for start_min in [0u64, 45, 100 * 60 + 30] {
        for (horizon_h, need_min) in [(6u64, 90u64), (28, 180), (48, 47 * 60 + 30), (24, 1)] {
            let start = SimTime::from_minutes(start_min);
            let horizon = Minutes::from_hours(horizon_h);
            let need = Minutes::new(need_min);
            assert_eq!(
                index.greenest_slots(start, horizon, need),
                oracle_greenest(window_slots(&trace, start, horizon), need),
                "start={start_min} h={horizon_h} need={need_min}"
            );
        }
    }
}

/// Pins the quantile outputs of the three query paths (indexed,
/// memoized noisy, memoized persistence) on a year-long trace.
#[test]
fn quantile_pins_historical_sort_based_outputs() {
    let trace = synthesize_region(Region::Netherlands, 9);
    let horizon = Minutes::from_hours(24);
    let perfect = PerfectForecaster::new(&trace);
    let noisy = NoisyForecaster::new(&trace, 0.3, 11);
    let persistence = PersistenceForecaster::new(&trace);
    let forecasters: [(&dyn CarbonForecaster, &str); 3] = [
        (&perfect, "perfect"),
        (&noisy, "noisy"),
        (&persistence, "persistence"),
    ];
    for (forecaster, name) in forecasters {
        for now_min in [0u64, 30, 100 * 60 + 15] {
            let now = SimTime::from_minutes(now_min);
            let mut samples: Vec<f64> = HourlySlots::spanning(now, horizon)
                .map(|s| forecaster.forecast(now, s.start))
                .collect();
            let view = ForecastView::new(forecaster, now);
            for q in [0.0, 0.25, 0.3, 0.5, 0.75, 1.0] {
                assert_eq!(
                    view.quantile(horizon, q).to_bits(),
                    oracle_quantile(&mut samples, q).to_bits(),
                    "{name} now={now_min} q={q}"
                );
            }
        }
    }
}
