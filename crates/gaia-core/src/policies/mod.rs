//! The base scheduling policies (§4.2 and the paper's baselines).

mod allwait;
mod badplan;
mod carbon_scale;
mod carbon_tax;
mod carbon_time;
mod carbon_time_sr;
mod ecovisor;
mod lowest_slot;
mod lowest_window;
mod nowait;
mod price_aware;
mod tiered;
mod waitawhile;

pub use allwait::AllWaitThreshold;
pub use badplan::BadPlan;
pub use carbon_scale::CarbonScale;
pub use carbon_tax::CarbonTax;
pub use carbon_time::CarbonTime;
pub use carbon_time_sr::CarbonTimeSuspend;
pub use ecovisor::Ecovisor;
pub use lowest_slot::LowestSlot;
pub use lowest_window::LowestWindow;
pub use nowait::NoWait;
pub use price_aware::PriceAware;
pub use tiered::TieredCarbonTime;
pub use waitawhile::WaitAwhile;

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::{Minutes, SimTime};
use gaia_workload::Job;

/// A base scheduling policy: decides *when* a job runs.
///
/// Base policies are deliberately ignorant of purchase options — the
/// RES-First / Spot-First wrappers in [`GaiaScheduler`] layer cost
/// awareness on top, mirroring the paper's composition (§4.2.3–4.2.4).
///
/// [`GaiaScheduler`]: crate::GaiaScheduler
pub trait BatchPolicy: Send {
    /// Chooses the execution plan for `job` given the CIS forecasts in
    /// `ctx`.
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision;

    /// The paper's display name for the policy (e.g. `"Carbon-Time"`).
    fn name(&self) -> &'static str;
}

/// What a start-time search scores each candidate start `t` by.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Signal {
    /// The forecast CI integral over `[t, t + len)`, read from the
    /// view's batched [`scan_integrals`](gaia_carbon::ForecastView::scan_integrals).
    Integral(Minutes),
    /// The forecast CI at `t`.
    Intensity,
}

/// The start-time search behind every single-start policy.
///
/// Candidates are `now + k·step` for every `k` with `k·step <= wait`, so
/// the last candidate at or before `now + wait` is included. `step` is
/// the policy's configured scan step, coarsened to at least an hour in
/// degraded mode ([`effective_scan_step`]). Each candidate is scored by
/// `score(t, value)`, where `value` is the candidate's `signal`.
///
/// The search starts at `now`. A later candidate replaces the current
/// best only if its score beats the best score by more than `1e-12`, so
/// exact ties and near-ties keep the earlier start. The margin chains:
/// it is measured against the current best, not against `now`, so
/// scores that creep up in steps smaller than the margin can still move
/// the choice. `score` should be finite; a NaN score at `now` keeps
/// `now`.
///
/// The default scan step is [`DEFAULT_SCAN_STEP`]; policies expose it as
/// a knob so the slot-granularity ablation can vary it.
pub(crate) fn best_start(
    ctx: &SchedulerContext<'_>,
    wait: Minutes,
    step: Minutes,
    signal: Signal,
    mut score: impl FnMut(SimTime, f64) -> f64,
) -> SimTime {
    let step = effective_scan_step(step, ctx);
    #[cfg(test)]
    if oracle::ENABLED.with(std::cell::Cell::get) {
        return oracle::best_start(ctx, wait, step, signal, score);
    }
    let now = ctx.now;
    let count = wait.as_minutes() / step.as_minutes() + 1;
    let mut t = now;
    let mut best_t = now;
    let mut best_score = f64::NAN;
    let mut offer = |value: f64| {
        let s = score(t, value);
        if t == now || s > best_score + 1e-12 {
            best_score = s;
            best_t = t;
        }
        t += step;
    };
    match signal {
        Signal::Integral(len) => ctx.forecast.scan_integrals(now, step, len, count, offer),
        Signal::Intensity => {
            for k in 0..count {
                offer(ctx.forecast.at(now + step * k));
            }
        }
    }
    best_t
}

/// Default scan granularity for carbon-aware start-time searches.
///
/// Carbon intensity is hourly, but the optimum start of a window that
/// ends mid-hour need not be hour-aligned, so policies scan at sub-hour
/// resolution.
pub const DEFAULT_SCAN_STEP: Minutes = Minutes::new(10);

/// The scan step a policy should actually use under `ctx`.
///
/// In degraded mode ([`SchedulerContext::degraded`], set during
/// fault-injected forecast outages) the forecast is a persistence
/// fallback that merely repeats hourly history, so scanning finer than an
/// hour can only chase artifacts of the stand-in data. The configured
/// step is coarsened to at least one hour; outside degraded mode it is
/// returned unchanged.
pub(crate) fn effective_scan_step(step: Minutes, ctx: &SchedulerContext<'_>) -> Minutes {
    if ctx.degraded {
        step.max(Minutes::from_hours(1))
    } else {
        step
    }
}

/// Greedily selects the `need` lowest-forecast-CI minutes (at hourly slot
/// granularity) within `[now, now + horizon)` and returns them merged
/// into ordered, non-overlapping segments summing to exactly `need`.
///
/// A horizon shorter than `need` is widened to `need` so the plan always
/// covers the whole job — a `debug_assert!` used to be the only guard,
/// which in release builds let such calls return silently truncated
/// plans (under-counted carbon and length).
///
/// Slots are ordered with [`f64::total_cmp`], so NaN forecasts (possible
/// with perturbed forecasters) degrade gracefully instead of panicking:
/// NaN sorts after every real CI value and is picked last.
///
/// Shared by the Wait Awhile baseline and the suspend-resume Carbon-Time
/// extension.
pub(crate) fn greenest_slots(
    ctx: &SchedulerContext<'_>,
    horizon: Minutes,
    need: Minutes,
) -> Vec<(SimTime, Minutes)> {
    let horizon = horizon.max(need);
    // The view runs one greedy over the window's hourly slots: the
    // perfect forecaster's slots read its trace, stochastic forecasters'
    // their per-`now` memo, with output identical to the historical
    // sort-everything greedy over `ctx.forecast.at`.
    ctx.forecast.greenest_slots(horizon, need)
}

/// The per-candidate search that [`best_start`] replaced, kept as the
/// reference it is checked against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::cell::Cell;

    use gaia_sim::SchedulerContext;
    use gaia_time::{Minutes, SimTime};

    use super::Signal;

    thread_local! {
        /// While set, [`super::best_start`] answers through [`best_start`]
        /// below, so a policy's decisions can be raced against the
        /// per-candidate loop.
        pub(crate) static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    /// Runs `f` with every start-time search on this thread answered by
    /// the oracle.
    pub(crate) fn with_oracle<R>(f: impl FnOnce() -> R) -> R {
        ENABLED.with(|on| on.set(true));
        let out = f();
        ENABLED.with(|on| on.set(false));
        out
    }

    /// [`super::best_start`] through one `integral` or `at` call per
    /// candidate; `step` is already the effective step.
    pub(crate) fn best_start(
        ctx: &SchedulerContext<'_>,
        wait: Minutes,
        step: Minutes,
        signal: Signal,
        mut score: impl FnMut(SimTime, f64) -> f64,
    ) -> SimTime {
        best_start_by(ctx.now, wait, step, |t| {
            let value = match signal {
                Signal::Integral(len) => ctx.forecast.integral(t, len),
                Signal::Intensity => ctx.forecast.at(t),
            };
            score(t, value)
        })
    }

    /// Scans candidate start times `now + k·step` within `[now, now +
    /// wait]` and returns the one maximizing `score`: the search starts
    /// at `now`, and a later candidate replaces the current best only if
    /// it beats the best score by more than `1e-12`.
    pub(crate) fn best_start_by(
        now: SimTime,
        wait: Minutes,
        step: Minutes,
        mut score: impl FnMut(SimTime) -> f64,
    ) -> SimTime {
        debug_assert!(!step.is_zero(), "scan step must be positive");
        let mut best_t = now;
        let mut best_score = score(now);
        let mut t = now + step;
        while t <= now + wait {
            let s = score(t);
            if s > best_score + 1e-12 {
                best_score = s;
                best_t = t;
            }
            t += step;
        }
        best_t
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for policy unit tests.

    use gaia_carbon::{CarbonForecaster, CarbonTrace, ForecastView, PerfectForecaster};
    use gaia_sim::SchedulerContext;
    use gaia_time::{Minutes, SimTime};
    use gaia_workload::{Job, JobId};

    /// Owns a trace + forecaster so tests can mint contexts.
    pub struct CtxFactory {
        trace: CarbonTrace,
    }

    impl CtxFactory {
        pub fn new(hourly: &[f64]) -> Self {
            CtxFactory {
                trace: CarbonTrace::from_hourly(hourly.to_vec()).expect("valid"),
            }
        }

        #[allow(dead_code)]
        pub fn trace(&self) -> &CarbonTrace {
            &self.trace
        }

        pub fn with_ctx<R>(
            &self,
            now: SimTime,
            reserved_free: u32,
            reserved_capacity: u32,
            f: impl FnOnce(&SchedulerContext<'_>) -> R,
        ) -> R {
            self.ctx(now, reserved_free, reserved_capacity, false, f)
        }

        /// Like [`CtxFactory::with_ctx`] (no reserved capacity), but in
        /// degraded mode, as during a forecast outage.
        #[allow(dead_code)]
        pub fn with_degraded_ctx<R>(
            &self,
            now: SimTime,
            f: impl FnOnce(&SchedulerContext<'_>) -> R,
        ) -> R {
            self.ctx(now, 0, 0, true, f)
        }

        fn ctx<R>(
            &self,
            now: SimTime,
            reserved_free: u32,
            reserved_capacity: u32,
            degraded: bool,
            f: impl FnOnce(&SchedulerContext<'_>) -> R,
        ) -> R {
            let forecaster = PerfectForecaster::new(&self.trace);
            let ctx = SchedulerContext {
                now,
                forecast: ForecastView::new(&forecaster as &dyn CarbonForecaster, now),
                reserved_free,
                reserved_capacity,
                degraded,
            };
            f(&ctx)
        }
    }

    pub fn job(arrival_min: u64, len_min: u64, cpus: u32) -> Job {
        Job::new(
            JobId(0),
            SimTime::from_minutes(arrival_min),
            Minutes::new(len_min),
            cpus,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The starts picked by [`best_start`] (fed `score` through the
    /// intensity signal, whose value it ignores) and by the oracle loop.
    fn both(
        now: SimTime,
        wait: Minutes,
        step: Minutes,
        score: impl Fn(SimTime) -> f64,
    ) -> [SimTime; 2] {
        let factory = testutil::CtxFactory::new(&[100.0; 48]);
        let helper = factory.with_ctx(now, 0, 0, |ctx| {
            best_start(ctx, wait, step, Signal::Intensity, |t, _| score(t))
        });
        [helper, oracle::best_start_by(now, wait, step, &score)]
    }

    #[test]
    fn best_start_prefers_highest_score() {
        let best = both(
            SimTime::ORIGIN,
            Minutes::from_hours(4),
            Minutes::from_hours(1),
            |t| -((t.as_hours_floor() as f64 - 3.0).abs()),
        );
        assert_eq!(best, [SimTime::from_hours(3); 2]);
    }

    #[test]
    fn best_start_ties_go_earliest() {
        let best = both(
            SimTime::from_hours(1),
            Minutes::from_hours(5),
            Minutes::from_hours(1),
            |_| 7.0,
        );
        assert_eq!(best, [SimTime::from_hours(1); 2]);
    }

    #[test]
    fn best_start_includes_window_end() {
        let best = both(
            SimTime::ORIGIN,
            Minutes::from_hours(2),
            Minutes::from_hours(1),
            |t| t.as_minutes() as f64,
        );
        assert_eq!(best, [SimTime::from_hours(2); 2]);
    }

    #[test]
    fn zero_wait_returns_now() {
        let best = both(
            SimTime::from_hours(5),
            Minutes::ZERO,
            Minutes::new(10),
            |_| 1.0,
        );
        assert_eq!(best, [SimTime::from_hours(5); 2]);
    }

    /// The `1e-12` margin is measured against the current best, not
    /// against `now`: scores 0.9e-12 apart never beat their neighbour,
    /// but the third clears the first by 1.8e-12 and wins.
    #[test]
    fn near_ties_chain_by_the_margin() {
        let a = 1.0;
        let score = |t: SimTime| a + 0.9e-12 * t.as_hours_floor() as f64;
        let hour = Minutes::from_hours(1);
        let three = both(SimTime::ORIGIN, Minutes::from_hours(2), hour, score);
        assert_eq!(three, [SimTime::from_hours(2); 2]);
        let two = both(SimTime::ORIGIN, hour, hour, score);
        assert_eq!(two, [SimTime::ORIGIN; 2]);
    }

    /// Regression: `need > horizon` used to be guarded only by a
    /// `debug_assert!`, so release builds returned a silently truncated
    /// plan. The horizon is now widened to cover the need in every build
    /// profile (this test runs under `cargo test --release` in CI too).
    #[test]
    fn greenest_slots_covers_need_beyond_horizon() {
        let factory = testutil::CtxFactory::new(&[100.0, 50.0, 200.0, 75.0, 120.0, 90.0]);
        factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| {
            let need = Minutes::from_hours(4);
            let slots = greenest_slots(ctx, Minutes::from_hours(1), need);
            let total: Minutes = slots.iter().map(|(_, l)| *l).sum();
            assert_eq!(total, need, "plan must cover the whole job");
            for pair in slots.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].0 + pair[0].1,
                    "segments must be ordered and non-overlapping"
                );
            }
        });
    }

    #[test]
    fn greenest_slots_picks_lowest_ci_hours() {
        let factory = testutil::CtxFactory::new(&[100.0, 50.0, 200.0, 75.0]);
        factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| {
            let slots = greenest_slots(ctx, Minutes::from_hours(4), Minutes::from_hours(2));
            // Hours 1 (CI 50) and 3 (CI 75) win; they are disjoint.
            assert_eq!(
                slots,
                vec![
                    (SimTime::from_hours(1), Minutes::from_hours(1)),
                    (SimTime::from_hours(3), Minutes::from_hours(1)),
                ]
            );
        });
    }

    #[test]
    fn degraded_mode_coarsens_scan_to_whole_hours() {
        use gaia_carbon::{CarbonForecaster, CarbonTrace, ForecastView, PerfectForecaster};

        let trace = CarbonTrace::constant(100.0, 24).expect("valid");
        let forecaster = PerfectForecaster::new(&trace);
        let mut ctx = SchedulerContext {
            now: SimTime::ORIGIN,
            forecast: ForecastView::new(&forecaster as &dyn CarbonForecaster, SimTime::ORIGIN),
            reserved_free: 0,
            reserved_capacity: 0,
            degraded: false,
        };
        assert_eq!(
            effective_scan_step(DEFAULT_SCAN_STEP, &ctx),
            DEFAULT_SCAN_STEP
        );
        ctx.degraded = true;
        assert_eq!(
            effective_scan_step(DEFAULT_SCAN_STEP, &ctx),
            Minutes::from_hours(1)
        );
        // An already-coarser configured step is left alone.
        assert_eq!(
            effective_scan_step(Minutes::from_hours(2), &ctx),
            Minutes::from_hours(2)
        );
    }

    /// Regression: the slot sort used `partial_cmp(..).expect("finite
    /// CI")`, so one NaN forecast panicked mid-run. With `total_cmp` NaN
    /// slots sort last and a full-length plan still comes out.
    #[test]
    fn greenest_slots_tolerates_nan_forecasts() {
        use gaia_carbon::{CarbonForecaster, ForecastView};
        use gaia_sim::SchedulerContext;

        /// NaN everywhere except the current instant.
        struct NanForecaster;
        impl CarbonForecaster for NanForecaster {
            fn current(&self, _t: SimTime) -> f64 {
                100.0
            }
            fn forecast(&self, now: SimTime, at: SimTime) -> f64 {
                if at == now {
                    100.0
                } else {
                    f64::NAN
                }
            }
        }
        let forecaster = NanForecaster;
        let ctx = SchedulerContext {
            now: SimTime::ORIGIN,
            forecast: ForecastView::new(&forecaster, SimTime::ORIGIN),
            reserved_free: 0,
            reserved_capacity: 0,
            degraded: false,
        };
        let need = Minutes::from_hours(3);
        let slots = greenest_slots(&ctx, Minutes::from_hours(6), need);
        let total: Minutes = slots.iter().map(|(_, l)| *l).sum();
        assert_eq!(total, need);
        // The only non-NaN slot (now) must be preferred over NaN ones.
        assert_eq!(slots[0].0, SimTime::ORIGIN);
    }
}

/// Every scanning policy decides the same through [`best_start`] as
/// through the per-candidate oracle loop.
#[cfg(test)]
mod differential {
    use gaia_carbon::price::PriceTrace;
    use gaia_carbon::{
        CarbonForecaster, CarbonTrace, ForecastView, NoisyForecaster, PerfectForecaster,
        PersistenceForecaster,
    };
    use gaia_sim::SchedulerContext;
    use gaia_time::{Minutes, SimTime};
    use gaia_workload::ladder::QueueLadder;
    use gaia_workload::{QueueSet, WorkloadTrace};
    use proptest::prelude::*;

    use super::oracle::with_oracle;
    use super::testutil::job;
    use super::*;
    use crate::JobLengthKnowledge;

    /// The six policies that search start times, at scan step `step`
    /// where the policy exposes one.
    fn scanning_policies(step: Minutes, hourly: &[f64]) -> Vec<Box<dyn BatchPolicy>> {
        let history: Vec<_> = [40u64, 90, 200, 500, 900, 1500]
            .iter()
            .map(|&len| job(0, len, 1))
            .collect();
        let queues = QueueSet::paper_defaults().with_averages_from(&history);
        let ladder = QueueLadder::paper_three_tier()
            .with_averages_from(&WorkloadTrace::from_jobs(history.clone()));
        let price = PriceTrace::from_hourly(hourly.iter().rev().map(|v| v / 5.0 + 1.0).collect());
        vec![
            Box::new(CarbonTime::new(queues).with_scan_step(step)),
            Box::new(
                CarbonTime::new(queues)
                    .with_knowledge(JobLengthKnowledge::Exact)
                    .with_scan_step(step),
            ),
            Box::new(LowestWindow::new(queues).with_scan_step(step)),
            Box::new(LowestSlot::new(queues).with_scan_step(step)),
            Box::new(TieredCarbonTime::new(ladder).with_scan_step(step)),
            Box::new(PriceAware::new(queues, price, 0.5, 300.0)),
            Box::new(CarbonTax::new(queues, 3.0, 0.5)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn scanning_policies_match_the_oracle(
            hourly in prop::collection::vec(
                prop_oneof![1.0f64..900.0, Just(200.0), Just(350.0)],
                24..200,
            ),
            now in 0u64..20_000,
            len in 1u64..1_800,
            cpus in 1u32..8,
            kind in 0usize..3,
            degraded in 0u8..2,
            step in prop_oneof![Just(10u64), Just(1u64), Just(7u64), Just(45u64), Just(60u64), Just(90u64)],
            seed in 0u64..1_000,
        ) {
            let trace = CarbonTrace::from_hourly(hourly.clone()).expect("positive values");
            let perfect = PerfectForecaster::new(&trace);
            let noisy = NoisyForecaster::new(&trace, 0.3, seed);
            let persistence = PersistenceForecaster::new(&trace);
            let forecaster: &dyn CarbonForecaster = match kind {
                0 => &perfect,
                1 => &noisy,
                _ => &persistence,
            };
            let now = SimTime::from_minutes(now);
            let ctx = SchedulerContext {
                now,
                forecast: ForecastView::new(forecaster, now),
                reserved_free: 0,
                reserved_capacity: 0,
                degraded: degraded == 1,
            };
            let j = job(now.as_minutes(), len, cpus);
            for mut policy in scanning_policies(Minutes::new(step), &hourly) {
                let fast = policy.decide(&j, &ctx);
                let slow = with_oracle(|| policy.decide(&j, &ctx));
                prop_assert_eq!(fast, slow, "{}", policy.name());
            }
        }
    }
}
