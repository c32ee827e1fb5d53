//! Energy-price-aware scheduling — §7's private-cloud scenario: "this
//! trade-off also presents itself in private clouds due to dynamic
//! energy pricing. Thus, as the compute cost varies throughout the day,
//! a carbon-aware schedule might not comply with a cost-aware one."

use gaia_carbon::price::PriceTrace;
use gaia_sim::{Decision, SchedulerContext};
use gaia_time::{HourlySlots, Minutes, SimTime};
use gaia_workload::{Job, QueueSet};

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};
use crate::JobLengthKnowledge;

/// Schedules each job into the window minimizing a weighted blend of
/// energy **price** and **carbon**:
///
/// ```text
/// score(t_s) = (1 − λ) · price(t_s, J) / p̄  +  λ · carbon(t_s, J) / c̄
/// ```
///
/// with both integrals normalized by their trace means so `λ` (the
/// *carbon weight*) interpolates meaningfully: `λ = 0` is the private
/// cloud's pure cost optimizer, `λ = 1` is Lowest-Window. On days where
/// the price and carbon valleys align (paper Figure 20, day one) every
/// `λ` agrees; on conflicting days (day two) `λ` picks the side.
///
/// The policy owns its price series (the scheduler context only carries
/// carbon forecasts), mirroring how a private-cloud operator would feed
/// a day-ahead market price signal into the scheduler.
#[derive(Debug, Clone)]
pub struct PriceAware {
    queues: QueueSet,
    price: PriceTrace,
    mean_price: f64,
    carbon_weight: f64,
    knowledge: JobLengthKnowledge,
    step: Minutes,
    mean_carbon: f64,
}

impl PriceAware {
    /// Creates the policy with the given price series and carbon weight
    /// `λ ∈ [0, 1]`. `mean_carbon` normalizes the carbon term; pass the
    /// carbon trace's mean.
    ///
    /// # Panics
    ///
    /// Panics if `carbon_weight` is outside `[0, 1]` or either mean
    /// normalizer would be non-positive.
    pub fn new(queues: QueueSet, price: PriceTrace, carbon_weight: f64, mean_carbon: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&carbon_weight),
            "carbon weight must be in [0, 1]"
        );
        assert!(mean_carbon > 0.0, "mean carbon must be positive");
        let mean_price = price.mean();
        assert!(mean_price > 0.0, "mean price must be positive");
        PriceAware {
            queues,
            price,
            mean_price,
            carbon_weight,
            knowledge: JobLengthKnowledge::QueueAverage,
            step: DEFAULT_SCAN_STEP,
            mean_carbon,
        }
    }

    /// Overrides the job-length knowledge model.
    pub fn with_knowledge(mut self, knowledge: JobLengthKnowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Price integral over `[start, start + len)`, $/MWh·hours.
    fn price_integral(&self, start: SimTime, len: Minutes) -> f64 {
        HourlySlots::spanning(start, len)
            .map(|s| self.price.price_at_hour(s.hour) * s.fraction())
            .sum()
    }
}

impl BatchPolicy for PriceAware {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let wait = self.queues.max_wait_for(job);
        let estimate = self.knowledge.estimate(job, &self.queues);
        let hours = estimate.as_hours_f64();
        let start = best_start(
            ctx,
            wait,
            self.step,
            Signal::Integral(estimate),
            |t, carbon| {
                let price_term = self.price_integral(t, estimate) / (self.mean_price * hours);
                let carbon_term = carbon / (self.mean_carbon * hours);
                -((1.0 - self.carbon_weight) * price_term + self.carbon_weight * carbon_term)
            },
        );
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Price-Aware"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;

    /// Price cheap at hour 2, carbon cheap at hour 5 — a conflicting day.
    fn conflicting_setup() -> (CtxFactory, PriceTrace) {
        let carbon = CtxFactory::new(&[400.0, 400.0, 390.0, 400.0, 400.0, 50.0, 400.0, 400.0]);
        let price = PriceTrace::from_hourly(vec![80.0, 80.0, 10.0, 80.0, 80.0, 78.0, 80.0, 80.0]);
        (carbon, price)
    }

    #[test]
    fn pure_price_weight_chases_the_price_valley() {
        let (factory, price) = conflicting_setup();
        let mut policy = PriceAware::new(QueueSet::paper_defaults(), price, 0.0, 350.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(2));
    }

    #[test]
    fn pure_carbon_weight_chases_the_carbon_valley() {
        let (factory, price) = conflicting_setup();
        let mut policy = PriceAware::new(QueueSet::paper_defaults(), price, 1.0, 350.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(5));
    }

    #[test]
    fn aligned_valleys_need_no_trade_off() {
        // Figure 20's first day: both valleys at hour 3.
        let carbon = CtxFactory::new(&[400.0, 400.0, 400.0, 50.0, 400.0, 400.0, 400.0, 400.0]);
        let price = PriceTrace::from_hourly(vec![80.0, 80.0, 80.0, 10.0, 80.0, 80.0, 80.0, 80.0]);
        for weight in [0.0, 0.5, 1.0] {
            let mut policy =
                PriceAware::new(QueueSet::paper_defaults(), price.clone(), weight, 350.0)
                    .with_knowledge(JobLengthKnowledge::Exact);
            let j = job(0, 60, 1);
            let d = carbon.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
            assert_eq!(d.planned_start(), SimTime::from_hours(3), "weight {weight}");
        }
    }

    #[test]
    fn intermediate_weight_interpolates() {
        // Price valley is proportionally deeper (10/80 vs 50/400 == equal
        // relative depth -> adjust): make the carbon valley shallower so
        // a low carbon weight prefers price and a high one prefers carbon.
        let carbon = CtxFactory::new(&[400.0, 400.0, 390.0, 400.0, 400.0, 200.0, 400.0, 400.0]);
        let price = PriceTrace::from_hourly(vec![80.0, 80.0, 10.0, 80.0, 80.0, 78.0, 80.0, 80.0]);
        let j = job(0, 60, 1);
        let run = |weight: f64| {
            let mut policy =
                PriceAware::new(QueueSet::paper_defaults(), price.clone(), weight, 350.0)
                    .with_knowledge(JobLengthKnowledge::Exact);
            carbon
                .with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx))
                .planned_start()
        };
        assert_eq!(run(0.1), SimTime::from_hours(2), "mostly price-driven");
        assert_eq!(run(0.9), SimTime::from_hours(5), "mostly carbon-driven");
    }

    /// Under a forecast outage the scan coarsens to whole hours: the
    /// 10-minute grid finds a start mid-hour, the degraded one cannot.
    #[test]
    fn degraded_mode_scans_whole_hours() {
        // Pure carbon weight: a 90-minute window fits best at 2:30, over
        // the back half of hour 2 and all of hour 3.
        let carbon = CtxFactory::new(&[500.0, 500.0, 100.0, 50.0, 500.0, 500.0, 500.0, 500.0]);
        let price = PriceTrace::from_hourly(vec![80.0; 8]);
        let mut policy = PriceAware::new(QueueSet::paper_defaults(), price, 1.0, 350.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 90, 1);
        let fine = carbon.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(fine.planned_start(), SimTime::from_minutes(150));
        let coarse = carbon.with_degraded_ctx(SimTime::ORIGIN, |ctx| policy.decide(&j, ctx));
        assert_eq!(coarse.planned_start(), SimTime::from_hours(2));
    }

    #[test]
    #[should_panic(expected = "carbon weight")]
    fn rejects_out_of_range_weight() {
        let price = PriceTrace::from_hourly(vec![10.0]);
        let _ = PriceAware::new(QueueSet::paper_defaults(), price, 1.5, 100.0);
    }
}
