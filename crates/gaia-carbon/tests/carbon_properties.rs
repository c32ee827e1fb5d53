//! Property-based tests of the carbon-trace query layer.

use gaia_carbon::{CarbonTrace, ForecastView, PerfectForecaster, Region};
use gaia_time::{HourlySlots, Minutes, SimTime};
use proptest::prelude::*;

fn trace_strategy() -> impl Strategy<Value = CarbonTrace> {
    proptest::collection::vec(1.0f64..2000.0, 24..200)
        .prop_map(|v| CarbonTrace::from_hourly(v).expect("positive values"))
}

proptest! {
    /// The prefix-sum window integral equals the naive minute-by-minute
    /// sum for arbitrary (possibly wrapping) windows.
    #[test]
    fn window_integral_matches_naive(
        trace in trace_strategy(),
        start in 0u64..20_000,
        len in 0u64..5_000,
    ) {
        let fast = trace.window_integral(SimTime::from_minutes(start), Minutes::new(len));
        let mut naive = 0.0;
        for m in start..start + len {
            naive += trace.intensity_at(SimTime::from_minutes(m)) / 60.0;
        }
        prop_assert!((fast - naive).abs() < 1e-6 * (1.0 + naive.abs()));
    }

    /// Integrals are additive over adjacent windows.
    #[test]
    fn window_integral_is_additive(
        trace in trace_strategy(),
        start in 0u64..10_000,
        l1 in 0u64..2_000,
        l2 in 0u64..2_000,
    ) {
        let t = SimTime::from_minutes(start);
        let whole = trace.window_integral(t, Minutes::new(l1 + l2));
        let parts = trace.window_integral(t, Minutes::new(l1))
            + trace.window_integral(t + Minutes::new(l1), Minutes::new(l2));
        prop_assert!((whole - parts).abs() < 1e-6 * (1.0 + whole.abs()));
    }

    /// Greedy greenest-slot plans, as policies read them through a
    /// perfect forecast view, cover exactly the requested work with
    /// ordered, non-overlapping segments, and never emit more carbon than
    /// running contiguously at any aligned start in the horizon.
    #[test]
    fn greenest_slots_cover_and_dominate_contiguous(
        trace in trace_strategy(),
        start_h in 0u64..50,
        need_h in 1u64..8,
        slack_h in 0u64..24,
    ) {
        let start = SimTime::from_hours(start_h);
        let need = Minutes::from_hours(need_h);
        let horizon = need + Minutes::from_hours(slack_h);
        let forecaster = PerfectForecaster::new(&trace);
        let plan = ForecastView::new(&forecaster, start).greenest_slots(horizon, need);
        let total: Minutes = plan.iter().map(|&(_, l)| l).sum();
        prop_assert_eq!(total, need);
        for pair in plan.windows(2) {
            prop_assert!(pair[0].0 + pair[0].1 <= pair[1].0);
        }
        prop_assert!(plan.first().expect("non-empty").0 >= start);
        let plan_carbon: f64 =
            plan.iter().map(|&(s, l)| trace.window_integral(s, l)).sum();
        for k in 0..=slack_h {
            let contiguous =
                trace.window_integral(start + Minutes::from_hours(k), need);
            prop_assert!(plan_carbon <= contiguous + 1e-6);
        }
    }

    /// Forecast-view quantiles are bounded by the window's min and max
    /// and are monotone in `q`.
    #[test]
    fn quantiles_bounded_and_monotone(
        trace in trace_strategy(),
        start in 0u64..5_000,
        horizon_h in 1u64..48,
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let start = SimTime::from_minutes(start);
        let horizon = Minutes::from_hours(horizon_h);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let forecaster = PerfectForecaster::new(&trace);
        let view = ForecastView::new(&forecaster, start);
        let v_lo = view.quantile(horizon, lo);
        let v_hi = view.quantile(horizon, hi);
        prop_assert!(v_lo <= v_hi + 1e-12);
        let window: Vec<f64> = HourlySlots::spanning(start, horizon)
            .map(|s| trace.intensity_at_hour(s.hour))
            .collect();
        prop_assert!(v_lo >= window.iter().copied().fold(f64::INFINITY, f64::min));
        prop_assert!(v_hi <= window.iter().copied().fold(0.0, f64::max));
    }

    /// Rotation is a pure relabeling: it preserves the mean and composes
    /// additively.
    #[test]
    fn rotation_preserves_and_composes(
        trace in trace_strategy(),
        a in 0u64..500,
        b in 0u64..500,
    ) {
        let r = trace.rotate(a);
        prop_assert!((r.mean() - trace.mean()).abs() < 1e-9);
        prop_assert_eq!(r.rotate(b), trace.rotate(a + b));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Synthesized regional traces are valid: positive, finite, with the
    /// documented floor, and reproducible.
    #[test]
    fn synthesis_is_valid_and_reproducible(seed in 0u64..1000) {
        let t = gaia_carbon::synth::synthesize_region(Region::California, seed);
        prop_assert!(t.hourly_values().iter().all(|v| v.is_finite() && *v >= 1.0));
        let again = gaia_carbon::synth::synthesize_region(Region::California, seed);
        prop_assert_eq!(t, again);
    }
}
