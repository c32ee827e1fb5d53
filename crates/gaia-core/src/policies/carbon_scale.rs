//! The Carbon-Scale policy family — elastic scaling against the
//! forecast, after CarbonScaler (Hanafy et al., SoCC '23): run wider in
//! green hours, narrower or not at all in dirty ones.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use gaia_sim::{Decision, ElasticPlan, ElasticSegment, SchedulerContext};
use gaia_time::{Minutes, SimTime};
use gaia_workload::elastic::{ElasticProfile, SpeedupLadder};
use gaia_workload::{Job, QueueSet};

use super::BatchPolicy;

/// Plans an elastic (variable-width) execution that minimizes carbon by
/// greedy marginal allocation.
///
/// The job's serial length `J` becomes a *work* budget (`J × 1000`
/// milli-minutes). Each hourly slot in the window `[t, t + J + W)` can
/// host width increments; the `k`-th worker added to a slot with
/// forecast intensity `CI` buys `marginal(k)` milli-minutes of work per
/// wall minute at a carbon price proportional to `CI`. The policy
/// repeatedly takes the cheapest available increment — lowest
/// `CI / marginal(k)` — until the budget is covered, then trims the
/// surplus off the latest slots so the job finishes as early as the
/// chosen allocation allows.
///
/// Diminishing marginal throughput (enforced by
/// [`gaia_workload::elastic::SpeedupLadder`]) makes the greedy exchange
/// argument exact for this relaxation: increments are independent, and
/// their prices per unit of work are what the heap orders.
///
/// Like [`WaitAwhile`](super::WaitAwhile), the policy requires exact job
/// lengths — a work budget cannot be covered by estimate. It never uses
/// spot or opportunistic starts on its own; the
/// [`GaiaScheduler`](crate::GaiaScheduler) wrappers layer those on.
///
/// # Examples
///
/// ```
/// use gaia_core::CarbonScale;
/// use gaia_workload::elastic::{ElasticProfile, ScalingCurve};
/// use gaia_workload::QueueSet;
///
/// // Near-perfect scaling up to 4 workers.
/// let profile = ElasticProfile::new(ScalingCurve::amdahl(0.01), 4);
/// let policy = CarbonScale::new(QueueSet::paper_defaults()).with_profile(profile);
/// assert_eq!(policy.profile().max_width(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CarbonScale {
    queues: QueueSet,
    profile: ElasticProfile,
}

/// Wall length of the planning slots Carbon-Scale allocates over.
const SLOT: Minutes = Minutes::new(60);

impl CarbonScale {
    /// Creates the policy with the default elasticity profile
    /// (Amdahl, 5% serial fraction, widths up to 8).
    pub fn new(queues: QueueSet) -> Self {
        CarbonScale {
            queues,
            profile: ElasticProfile::default(),
        }
    }

    /// Overrides the elasticity profile the policy plans against.
    pub fn with_profile(mut self, profile: ElasticProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The elasticity profile in use.
    pub fn profile(&self) -> &ElasticProfile {
        &self.profile
    }

    /// Greedy marginal allocation over hourly slots; see the type docs.
    fn plan(&self, job: &Job, ctx: &SchedulerContext<'_>) -> ElasticPlan {
        let ladder = self.profile.ladder();
        let horizon = job.length + self.queues.max_wait_for(job);
        let need_milli = job.length.as_minutes() * 1000;

        // Slot grid anchored at `now`: full hourly slots priced by one
        // scan, then the partial tail slot, if any.
        let full = horizon.as_minutes() / SLOT.as_minutes();
        let tail = horizon - SLOT * full;
        let slots = full as usize + usize::from(!tail.is_zero());
        let slot = |i: usize| {
            let len = if (i as u64) < full { SLOT } else { tail };
            (ctx.now + SLOT * i as u64, len)
        };
        let mut integrals = Vec::with_capacity(slots);
        ctx.forecast
            .scan_integrals(ctx.now, SLOT, SLOT, full, |v| integrals.push(v));
        if !tail.is_zero() {
            integrals.push(ctx.forecast.integral(slot(full as usize).0, tail));
        }
        let (widths, covered) = allocate(
            &integrals,
            |i| slot(i).1.as_minutes(),
            ladder,
            self.profile.max_width(),
            need_milli,
        );

        // Trim the surplus off the latest used slots: shrink (or drop)
        // from the back while coverage holds, so completion time never
        // pays for work the greedy pass over-bought.
        let mut used: Vec<(SimTime, Minutes, u32)> = Vec::with_capacity(slots);
        used.extend(
            widths
                .iter()
                .enumerate()
                .filter(|(_, &w)| w > 0)
                .map(|(i, &w)| {
                    let (start, len) = slot(i);
                    (start, len, w)
                }),
        );
        let mut excess = covered - need_milli;
        while let Some(&(_, len, width)) = used.last() {
            let speedup = u64::from(ladder.speedup_milli(width));
            let slot_work = speedup * len.as_minutes();
            if slot_work <= excess {
                excess -= slot_work;
                used.pop();
            } else {
                let spare_minutes = excess / speedup;
                if spare_minutes > 0 {
                    let last = used.last_mut().expect("just peeked");
                    last.1 = len.saturating_sub(Minutes::new(spare_minutes));
                    debug_assert!(!last.1.is_zero());
                }
                break;
            }
        }

        // Merge wall-adjacent equal-width slots so the engine sees one
        // slice (and one width change) per sustained width.
        let mut segments: Vec<ElasticSegment> = Vec::with_capacity(used.len());
        for (start, len, width) in used {
            let work_milli = u64::from(ladder.speedup_milli(width)) * len.as_minutes();
            match segments.last_mut() {
                Some(prev) if prev.width == width && prev.end() == start => {
                    prev.len += len;
                    prev.work_milli += work_milli;
                }
                _ => segments.push(ElasticSegment {
                    start,
                    len,
                    width,
                    work_milli,
                }),
            }
        }
        ElasticPlan::new(segments)
    }
}

/// One width increment on offer: the next worker of `slot`, at `price`
/// per unit of work. Ordered so a [`BinaryHeap`] pops the cheapest
/// price first (under [`f64::total_cmp`]) and, among equal prices, the
/// earliest slot.
#[derive(Debug, Clone, Copy)]
struct Increment {
    price: f64,
    slot: usize,
}

impl Ord for Increment {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .price
            .total_cmp(&self.price)
            .then(other.slot.cmp(&self.slot))
    }
}

impl PartialOrd for Increment {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Increment {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Increment {}

/// The cheapest-increment greedy: returns each slot's width and the
/// milli-minutes of work they cover (at least `need_milli`).
///
/// Slot `i` has carbon price `integrals[i]` at width 1 and is
/// `len_of(i)` wall minutes long. `CI / marginal` is independent of the
/// slot length (carbon and work both scale with it), so the integral
/// divided by the next worker's marginal serves directly as that
/// increment's price, and `marginal × len` as the work it buys. A
/// min-heap holds each slot's next increment; it pops the lowest price
/// first and, on a tie, the earliest slot, keeping the plan
/// deterministic.
fn allocate(
    integrals: &[f64],
    len_of: impl Fn(usize) -> u64,
    ladder: &SpeedupLadder,
    max_width: u32,
    need_milli: u64,
) -> (Vec<u32>, u64) {
    let offer = |slot: usize, width: u32| {
        let marginal = ladder.marginal_milli(width + 1);
        (width < max_width && marginal > 0).then(|| Increment {
            price: integrals[slot] / f64::from(marginal),
            slot,
        })
    };
    let mut widths = vec![0u32; integrals.len()];
    let mut heap: BinaryHeap<Increment> =
        (0..integrals.len()).filter_map(|i| offer(i, 0)).collect();
    let mut covered: u64 = 0;
    while covered < need_milli {
        // The width-1 horizon alone covers `J + W ≥ J`, so an increment
        // always exists before the budget is met.
        let Increment { slot: i, .. } = heap.pop().expect("work budget exceeds elastic capacity");
        widths[i] += 1;
        covered += u64::from(ladder.marginal_milli(widths[i])) * len_of(i);
        heap.extend(offer(i, widths[i]));
    }
    (widths, covered)
}

impl BatchPolicy for CarbonScale {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_elastic(self.plan(job, ctx))
    }

    fn name(&self) -> &'static str {
        "Carbon-Scale"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_workload::elastic::ScalingCurve;
    use proptest::prelude::*;

    fn policy() -> CarbonScale {
        CarbonScale::new(QueueSet::paper_defaults())
    }

    /// The greedy the heap replaced: rescan every slot for the cheapest
    /// increment, earliest slot on a tie.
    fn allocate_linear(
        integrals: &[f64],
        len_of: impl Fn(usize) -> u64,
        ladder: &SpeedupLadder,
        max_width: u32,
        need_milli: u64,
    ) -> (Vec<u32>, u64) {
        let mut widths = vec![0u32; integrals.len()];
        let mut covered: u64 = 0;
        while covered < need_milli {
            let mut best: Option<(f64, usize)> = None;
            for (i, &integral) in integrals.iter().enumerate() {
                if widths[i] >= max_width {
                    continue;
                }
                let marginal = ladder.marginal_milli(widths[i] + 1);
                if marginal == 0 {
                    continue;
                }
                let price = integral / f64::from(marginal);
                if best.is_none_or(|(b, _)| price.total_cmp(&b).is_lt()) {
                    best = Some((price, i));
                }
            }
            let (_, i) = best.expect("work budget exceeds elastic capacity");
            widths[i] += 1;
            covered += u64::from(ladder.marginal_milli(widths[i])) * len_of(i);
        }
        (widths, covered)
    }

    proptest! {
        /// The heap makes the linear scan's picks for random ladders
        /// (zero marginals included), widths 1–8, jobs up to 72 h and
        /// slot prices with frequent ties.
        #[test]
        fn heap_greedy_matches_linear_scan(
            gains in prop::collection::vec(prop_oneof![Just(0u32), 0u32..1001], 0..8),
            max_width in 1u32..9,
            job_min in 1u64..(72 * 60 + 1),
            long_wait in 0u8..2,
            prices in prop::collection::vec(
                prop_oneof![Just(0.0f64), Just(120.0), Just(300.5), 1.0f64..900.0],
                100..101,
            ),
        ) {
            let mut gains = gains;
            gains.sort_unstable_by(|a, b| b.cmp(a));
            let mut milli = vec![1000u32];
            for g in gains {
                milli.push(milli[milli.len() - 1] + g);
            }
            let profile = ElasticProfile::new(ScalingCurve::table(milli), max_width);
            let wait = if long_wait == 1 { 24 * 60 } else { 6 * 60 };
            let horizon = job_min + wait;
            let (full, tail) = (horizon / 60, horizon % 60);
            let slots = (full + u64::from(tail > 0)) as usize;
            let integrals: Vec<f64> = (0..slots).map(|i| prices[i % prices.len()]).collect();
            let len_of = |i: usize| if (i as u64) < full { 60 } else { tail };
            let need = job_min * 1000;
            let heap = allocate(&integrals, len_of, profile.ladder(), profile.max_width(), need);
            let linear =
                allocate_linear(&integrals, len_of, profile.ladder(), profile.max_width(), need);
            prop_assert_eq!(heap, linear);
        }
    }

    fn total_work(plan: &ElasticPlan) -> u64 {
        plan.total_work_milli()
    }

    #[test]
    fn plan_always_covers_the_work_budget() {
        let factory =
            CtxFactory::new(&[300.0, 100.0, 200.0, 50.0, 400.0, 120.0, 80.0, 90.0, 500.0]);
        let mut p = policy();
        for len in [25u64, 60, 95, 240] {
            let j = job(10, len, 1);
            let d = factory.with_ctx(SimTime::from_minutes(10), 0, 0, |ctx| p.decide(&j, ctx));
            let plan = d.elastic().expect("elastic plan");
            assert!(
                total_work(plan) >= len * 1000,
                "len {len}: work {} < {}",
                total_work(plan),
                len * 1000
            );
        }
    }

    #[test]
    fn green_valley_attracts_the_width() {
        // Hour 2 is far greener than everything else: with strong
        // scaling, the whole job should compress into it.
        let factory = CtxFactory::new(&[500.0, 500.0, 10.0, 500.0, 500.0, 500.0, 500.0, 500.0]);
        let mut p = policy().with_profile(ElasticProfile::new(ScalingCurve::amdahl(0.0), 8));
        let j = job(0, 180, 1); // 3 serial hours; width 3 fits in one slot
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| p.decide(&j, ctx));
        let plan = d.elastic().expect("elastic plan");
        assert_eq!(plan.segments().len(), 1);
        let seg = plan.segments()[0];
        assert_eq!(seg.start, SimTime::from_hours(2));
        assert_eq!(seg.width, 3);
        assert_eq!(seg.len, Minutes::new(60));
    }

    #[test]
    fn serial_job_degenerates_to_greenest_slots() {
        // Width capped at 1: the plan is exactly a greenest-slots
        // suspend-resume schedule by another name.
        let factory = CtxFactory::new(&[300.0, 100.0, 400.0, 90.0, 500.0, 70.0, 600.0, 310.0]);
        let mut p = policy().with_profile(ElasticProfile::new(ScalingCurve::amdahl(1.0), 1));
        let j = job(0, 120, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| p.decide(&j, ctx));
        let plan = d.elastic().expect("elastic plan");
        for seg in plan.segments() {
            assert_eq!(seg.width, 1);
        }
        let wall: u64 = plan.segments().iter().map(|s| s.len.as_minutes()).sum();
        assert_eq!(wall, 120, "width-1 wall time equals the serial length");
    }

    #[test]
    fn flat_trace_widens_only_for_free() {
        // On a flat trace every slot costs the same per unit of work at
        // width 1; widening is only price-equal under perfect scaling.
        // With a serial fraction, widths beyond 1 are strictly more
        // expensive per unit of work and the greedy must not buy them.
        let factory = CtxFactory::new(&[250.0; 48]);
        let mut p = policy().with_profile(ElasticProfile::new(ScalingCurve::amdahl(0.2), 8));
        let j = job(0, 180, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| p.decide(&j, ctx));
        let plan = d.elastic().expect("elastic plan");
        for seg in plan.segments() {
            assert_eq!(seg.width, 1, "flat trace must not over-widen");
        }
    }

    #[test]
    fn trim_drops_over_bought_work() {
        let factory = CtxFactory::new(&[100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 40.0, 30.0]);
        let mut p = policy();
        let j = job(0, 90, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| p.decide(&j, ctx));
        let plan = d.elastic().expect("elastic plan");
        let work = total_work(plan);
        assert!(work >= 90 * 1000);
        // Over-provision is bounded by one wall minute of the widest
        // slice (the trim's granularity), far below a full slot.
        let max_speedup: u64 = plan
            .segments()
            .iter()
            .map(|s| s.work_milli / s.len.as_minutes().max(1))
            .max()
            .unwrap_or(1000);
        assert!(
            work - 90 * 1000 <= max_speedup,
            "surplus {} exceeds one minute at the widest speedup {max_speedup}",
            work - 90 * 1000
        );
    }

    #[test]
    fn cheaper_carbon_than_carbon_time_on_jagged_traces() {
        use crate::policies::CarbonTime;
        use crate::JobLengthKnowledge;
        // Elastic scaling can exploit two disjoint green hours a single
        // uninterruptible run cannot.
        let hourly = [400.0, 50.0, 400.0, 50.0, 400.0, 400.0, 400.0, 400.0, 400.0];
        let factory = CtxFactory::new(&hourly);
        let j = job(0, 120, 1);
        let elastic = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| {
            policy()
                .with_profile(ElasticProfile::new(ScalingCurve::amdahl(0.0), 4))
                .decide(&j, ctx)
        });
        let once = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| {
            CarbonTime::new(QueueSet::paper_defaults())
                .with_knowledge(JobLengthKnowledge::Exact)
                .decide(&j, ctx)
        });
        let elastic_carbon: f64 = elastic
            .elastic()
            .expect("plan")
            .segments()
            .iter()
            .map(|s| factory.trace().window_integral(s.start, s.len) * f64::from(s.width))
            .sum();
        let once_carbon = factory
            .trace()
            .window_integral(once.planned_start(), j.length);
        assert!(
            elastic_carbon <= once_carbon + 1e-9,
            "elastic {elastic_carbon} must not exceed uninterruptible {once_carbon}"
        );
    }
}
