//! Differential tests: every [`ForecastView`] query path must be
//! **bit-equal** to the naive slow path, across random traces, horizons,
//! partial-hour offsets, and forecaster kinds, plus fixed year-scale
//! cases.
//!
//! The oracles below are the historical implementations, kept verbatim
//! as the one sort-based copy of each kernel in the tree: `quantile`
//! collected-and-sorted its window, `greenest_slots` sorted every slot
//! by `(ci, start)` and took greedily, and integrals walked the hourly
//! slots (the perfect forecaster has always delegated to the trace's
//! exact prefix-sum integral, which its views read unchanged).
//!
//! The trace's window integral and its batched scan are checked against
//! [`oracle_window_integral`], the pre-scan `window_integral` kept
//! verbatim.

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{
    CarbonForecaster, CarbonTrace, ForecastView, NoisyForecaster, PerfectForecaster,
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

/// The pre-scan `CarbonTrace::window_integral`, verbatim over prefix
/// sums accumulated the way the trace accumulates its own.
fn oracle_window_integral(trace: &CarbonTrace, start: SimTime, len: Minutes) -> f64 {
    if len.is_zero() {
        return 0.0;
    }
    let values = trace.hourly_values();
    let mut prefix = vec![0.0];
    let mut acc = 0.0;
    for &v in values {
        acc += v;
        prefix.push(acc);
    }
    let n = values.len() as u64;
    let start_hour = start.as_hours_floor();
    let end = start + len;
    let end_hour_floor = end.as_hours_floor();
    if start_hour == end_hour_floor {
        return trace.intensity_at_hour(start_hour) * len.as_minutes() as f64 / 60.0;
    }
    let mut total = 0.0;
    let lead_end = start.ceil_hour();
    if lead_end > start {
        total +=
            trace.intensity_at_hour(start_hour) * (lead_end - start).as_minutes() as f64 / 60.0;
    }
    let tail_start = end.floor_hour();
    if end > tail_start {
        total +=
            trace.intensity_at_hour(end_hour_floor) * (end - tail_start).as_minutes() as f64 / 60.0;
    }
    let first_full = lead_end.as_hours_floor();
    let last_full = tail_start.as_hours_floor();
    if last_full > first_full {
        let (start_hour, count) = (first_full % n, last_full - first_full);
        let total_period = prefix[values.len()];
        let mut sum = (count / n) as f64 * total_period;
        let (s, e) = (start_hour as usize, start_hour + count % n);
        if e <= n {
            sum += prefix[e as usize] - prefix[s];
        } else {
            sum += (prefix[values.len()] - prefix[s]) + prefix[(e - n) as usize];
        }
        total += sum;
    }
    total
}

/// Asserts that the scan, the single-window integral and the oracle
/// agree bit for bit on every candidate of one scan.
fn assert_scan_matches(
    trace: &CarbonTrace,
    start: SimTime,
    step: Minutes,
    len: Minutes,
    count: u64,
) {
    let scanned: Vec<f64> = trace.window_integrals(start, step, len, count).collect();
    assert_eq!(scanned.len() as u64, count);
    for (k, got) in scanned.into_iter().enumerate() {
        let t = start + step * k as u64;
        let want = oracle_window_integral(trace, t, len);
        assert_eq!(
            trace.window_integral(t, len).to_bits(),
            want.to_bits(),
            "window_integral at {t} len {len}"
        );
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "scan k={k} at {t} len {len} step {step}"
        );
    }
}

/// Short traces (1–48 h) with few distinct values, so windows wrap the
/// period often and equal integrals are common.
fn short_trace_strategy() -> impl Strategy<Value = CarbonTrace> {
    proptest::collection::vec(
        prop_oneof![1.0f64..2000.0, Just(100.0), Just(250.5), Just(0.0)],
        1..49,
    )
    .prop_map(|v| CarbonTrace::from_hourly(v).expect("non-negative values"))
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
    /// The batched scan yields exactly `window_integral(start + k·step,
    /// len)`, and both equal the pre-scan integral, for zero lengths,
    /// spans longer than the period, steps that do not divide an hour
    /// and steps of an hour or more.
    #[test]
    fn window_scan_is_bit_equal_to_window_integral(
        trace in short_trace_strategy(),
        start in 0u64..20_000,
        step in prop_oneof![1u64..60, 60u64..200, Just(10u64), Just(60u64), Just(7u64)],
        len in prop_oneof![Just(0u64), 1u64..60, 0u64..10_000],
        count in 0u64..40,
    ) {
        assert_scan_matches(
            &trace,
            SimTime::from_minutes(start),
            Minutes::new(step),
            Minutes::new(len),
            count,
        );
    }

    /// Every view backend's batched scan equals its own per-candidate
    /// integral: the perfect view's trace arm, the boxed perfect query and
    /// the memoized noisy and persistence queries.
    #[test]
    fn view_scans_are_bit_equal_to_per_candidate_integrals(
        trace in trace_strategy(),
        now in 0u64..20_000,
        step in 1u64..120,
        len in 0u64..3_000,
        count in 0u64..30,
        seed in 0u64..1_000,
    ) {
        let now = SimTime::from_minutes(now);
        let (step, len) = (Minutes::new(step), Minutes::new(len));
        let perfect = PerfectForecaster::new(&trace);
        let noisy = NoisyForecaster::new(&trace, 0.3, seed);
        let persistence = PersistenceForecaster::new(&trace);
        let forecasters: [&dyn CarbonForecaster; 3] = [&perfect, &noisy, &persistence];
        for f in forecasters {
            let view = ForecastView::new(f, now);
            let mut scanned = Vec::new();
            view.scan_integrals(now, step, len, count, |v| scanned.push(v));
            let boxed = f.query(now);
            let mut boxed_scanned = Vec::new();
            boxed.scan_integrals(now, step, len, count, &mut |v| boxed_scanned.push(v));
            prop_assert_eq!(scanned.len() as u64, count);
            prop_assert_eq!(boxed_scanned.len() as u64, count);
            for (k, (&a, &b)) in scanned.iter().zip(&boxed_scanned).enumerate() {
                let want = view.integral(now + step * k as u64, len);
                prop_assert_eq!(a.to_bits(), want.to_bits());
                prop_assert_eq!(b.to_bits(), want.to_bits());
            }
        }
    }
}

proptest! {
    /// Perfect-view quantiles are bit-equal to sorting the window, for
    /// any partial-hour anchor, horizon (including wrapping past the
    /// trace end, repeatedly), and quantile.
    #[test]
    fn view_quantile_is_bit_equal_to_sort(
        trace in trace_strategy(),
        start in 0u64..20_000,
        horizon in 1u64..9_000,
        q in 0.0f64..=1.0,
    ) {
        let start = SimTime::from_minutes(start);
        let horizon = Minutes::new(horizon);
        let perfect = PerfectForecaster::new(&trace);
        let fast = ForecastView::new(&perfect, start).quantile(horizon, q);
        let slow = oracle_quantile(&mut window_samples(&trace, start, horizon), q);
        prop_assert_eq!(fast.to_bits(), slow.to_bits());
    }

    /// Perfect-view greenest-slot plans equal the sort-everything
    /// greedy's.
    #[test]
    fn view_greenest_slots_equal_full_sort_greedy(
        trace in trace_strategy(),
        start in 0u64..20_000,
        extra in 0u64..3_000,
        need in 1u64..3_000,
    ) {
        let start = SimTime::from_minutes(start);
        let need = Minutes::new(need);
        let horizon = need + Minutes::new(extra);
        let perfect = PerfectForecaster::new(&trace);
        let fast = ForecastView::new(&perfect, start).greenest_slots(horizon, need);
        let slow = oracle_greenest(window_slots(&trace, start, horizon), need);
        prop_assert_eq!(fast, slow);
    }

    /// Perfect-view integrals and averages are bit-equal to the trace's
    /// own prefix-sum path (the engine's historical source of truth).
    #[test]
    fn view_integral_is_bit_equal_to_trace(
        trace in trace_strategy(),
        start in 0u64..20_000,
        len in 1u64..9_000,
    ) {
        let start = SimTime::from_minutes(start);
        let len = Minutes::new(len);
        let perfect = PerfectForecaster::new(&trace);
        let view = ForecastView::new(&perfect, start);
        prop_assert_eq!(
            view.integral(start, len).to_bits(),
            trace.window_integral(start, len).to_bits()
        );
        prop_assert_eq!(
            view.average(start, len).to_bits(),
            trace.window_avg(start, len).to_bits()
        );
    }

    /// The view over a perfect forecaster (the trace arm) answers
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
        /// Forecasts like `PerfectForecaster` but exposes no exact
        /// trace, so the view falls back to the boxed naive path.
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
fn window_scan_matches_oracle_on_a_year_trace() {
    let trace = year_trace();
    let year = 8760 * 60;
    for start in [
        0u64,
        7,
        59,
        60,
        3_601,
        year - 90,
        year - 1,
        year + 30,
        3 * year + 11,
    ] {
        for step in [1u64, 7, 10, 45, 60, 61, 90, 1_440] {
            for len in [
                0u64,
                1,
                30,
                59,
                60,
                61,
                150,
                1_440,
                4_321,
                year,
                year + 61,
                2 * year + 7,
            ] {
                assert_scan_matches(
                    &trace,
                    SimTime::from_minutes(start),
                    Minutes::new(step),
                    Minutes::new(len),
                    20,
                );
            }
        }
    }
}

#[test]
fn quantile_matches_oracle_across_offsets_and_horizons() {
    let trace = year_trace();
    let perfect = PerfectForecaster::new(&trace);
    for start_min in [0u64, 17, 59, 60, 3600, 8759 * 60, 8760 * 60 + 30] {
        for horizon_h in [1u64, 2, 24, 168, 800] {
            let start = SimTime::from_minutes(start_min);
            let horizon = Minutes::from_hours(horizon_h);
            let view = ForecastView::new(&perfect, start);
            let mut samples = window_samples(&trace, start, horizon);
            for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
                assert_eq!(
                    view.quantile(horizon, q).to_bits(),
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
    let perfect = PerfectForecaster::new(&trace);
    // 8 hours over a 3-hour trace: wraps 2 whole periods + 2 hours.
    let (start, horizon) = (SimTime::from_hours(1), Minutes::from_hours(8));
    let view = ForecastView::new(&perfect, start);
    let mut samples = window_samples(&trace, start, horizon);
    for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(
            view.quantile(horizon, q).to_bits(),
            oracle_quantile(&mut samples, q).to_bits(),
            "q={q}"
        );
    }
}

#[test]
fn greenest_slots_match_oracle() {
    let trace = year_trace();
    let perfect = PerfectForecaster::new(&trace);
    for start_min in [0u64, 45, 100 * 60 + 30] {
        for (horizon_h, need_min) in [(6u64, 90u64), (28, 180), (48, 47 * 60 + 30), (24, 1)] {
            let start = SimTime::from_minutes(start_min);
            let horizon = Minutes::from_hours(horizon_h);
            let need = Minutes::new(need_min);
            assert_eq!(
                ForecastView::new(&perfect, start).greenest_slots(horizon, need),
                oracle_greenest(window_slots(&trace, start, horizon), need),
                "start={start_min} h={horizon_h} need={need_min}"
            );
        }
    }
}

/// Pins the quantile outputs of the three query paths (the perfect
/// view's trace arm, memoized noisy, memoized persistence) on a
/// year-long trace.
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
