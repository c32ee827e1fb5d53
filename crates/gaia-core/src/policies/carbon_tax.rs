//! Carbon-tax scheduling — the §7 discussion made concrete: "an
//! alternative approach is to assign an explicit cost to carbon and thus
//! reduce the problem to a simpler cost-performance trade-off".

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::Minutes;
use gaia_workload::{Job, QueueSet};

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};
use crate::JobLengthKnowledge;

/// Monetizes the three-way trade-off: each candidate start time is scored
/// by its total *money* cost,
///
/// ```text
/// money(t_s) = tax · carbon(t_s) + delay_value · (t_s − t)
/// ```
///
/// with `tax` in $ per kg CO₂eq and `delay_value` in $ per hour of
/// delayed start (the user's monetized performance cost). At `tax = 0`
/// the policy degenerates to NoWait; as `tax → ∞` it approaches
/// Lowest-Window. Policymakers tune the incentive by moving one knob —
/// exactly the mechanism §7 describes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonTax {
    queues: QueueSet,
    tax_per_kg: f64,
    delay_value_per_hour: f64,
    knowledge: JobLengthKnowledge,
    step: Minutes,
}

impl CarbonTax {
    /// Creates the policy with a carbon tax (`$ / kg CO₂eq`) and a
    /// delay value (`$ / hour` of start delay).
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or non-finite.
    pub fn new(queues: QueueSet, tax_per_kg: f64, delay_value_per_hour: f64) -> Self {
        assert!(
            tax_per_kg.is_finite() && tax_per_kg >= 0.0,
            "carbon tax must be non-negative"
        );
        assert!(
            delay_value_per_hour.is_finite() && delay_value_per_hour >= 0.0,
            "delay value must be non-negative"
        );
        CarbonTax {
            queues,
            tax_per_kg,
            delay_value_per_hour,
            knowledge: JobLengthKnowledge::QueueAverage,
            step: DEFAULT_SCAN_STEP,
        }
    }

    /// Overrides the job-length knowledge model.
    pub fn with_knowledge(mut self, knowledge: JobLengthKnowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// The configured tax, $ per kg CO₂eq.
    pub fn tax_per_kg(&self) -> f64 {
        self.tax_per_kg
    }
}

impl BatchPolicy for CarbonTax {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let wait = self.queues.max_wait_for(job);
        let estimate = self.knowledge.estimate(job, &self.queues);
        let now = ctx.now;
        let cpus = job.cpus as f64;
        let start = best_start(
            ctx,
            wait,
            self.step,
            Signal::Integral(estimate),
            |t, integral| {
                // Forecast integral is (g/kWh)·h; at the simulator's 1 kW per
                // CPU this is grams per CPU, so scale by CPUs and g->kg.
                let carbon_kg = integral * cpus / 1000.0;
                let delay_cost = self.delay_value_per_hour * (t - now).as_hours_f64();
                -(self.tax_per_kg * carbon_kg + delay_cost)
            },
        );
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Carbon-Tax"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_time::SimTime;

    fn valley_factory() -> CtxFactory {
        // Deep valley at hour 4.
        CtxFactory::new(&[500.0, 480.0, 460.0, 440.0, 50.0, 450.0, 470.0, 490.0])
    }

    #[test]
    fn zero_tax_never_waits() {
        let factory = valley_factory();
        let mut policy = CarbonTax::new(QueueSet::paper_defaults(), 0.0, 1.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::ORIGIN);
    }

    #[test]
    fn high_tax_chases_the_valley() {
        let factory = valley_factory();
        let mut policy = CarbonTax::new(QueueSet::paper_defaults(), 1000.0, 1.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(4));
    }

    #[test]
    fn tax_level_interpolates() {
        // At an intermediate tax the 4-hour delay to save ~0.45 kg per
        // CPU is worth it only if tax * 0.45 > delay_value * 4.
        let factory = valley_factory();
        let j = job(0, 60, 1);
        let marginal_tax = 4.0 / 0.45; // break-even, roughly
        let mut cheap = CarbonTax::new(QueueSet::paper_defaults(), marginal_tax * 0.5, 1.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let mut dear = CarbonTax::new(QueueSet::paper_defaults(), marginal_tax * 2.0, 1.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let d_cheap = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| cheap.decide(&j, ctx));
        let d_dear = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| dear.decide(&j, ctx));
        assert_eq!(d_cheap.planned_start(), SimTime::ORIGIN);
        assert_eq!(d_dear.planned_start(), SimTime::from_hours(4));
    }

    #[test]
    fn free_delay_behaves_like_lowest_window() {
        use crate::policies::LowestWindow;
        let factory = valley_factory();
        let j = job(0, 90, 1);
        let mut taxed = CarbonTax::new(QueueSet::paper_defaults(), 1.0, 0.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let mut lw =
            LowestWindow::new(QueueSet::paper_defaults()).with_knowledge(JobLengthKnowledge::Exact);
        let d_tax = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| taxed.decide(&j, ctx));
        let d_lw = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| lw.decide(&j, ctx));
        assert_eq!(d_tax.planned_start(), d_lw.planned_start());
    }

    #[test]
    fn wider_jobs_feel_the_tax_more() {
        // Same job lengths, different widths: the 8-CPU job's carbon term
        // is 8x larger, so it is willing to wait at a tax where the 1-CPU
        // job is not.
        let factory = valley_factory();
        let tax = 2.5;
        let mut policy = CarbonTax::new(QueueSet::paper_defaults(), tax, 1.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let narrow = job(0, 60, 1);
        let wide = job(0, 60, 8);
        let d_narrow = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&narrow, ctx));
        let d_wide = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&wide, ctx));
        assert_eq!(d_narrow.planned_start(), SimTime::ORIGIN);
        assert_eq!(d_wide.planned_start(), SimTime::from_hours(4));
    }

    /// Under a forecast outage the scan coarsens to whole hours: the
    /// 10-minute grid finds a start mid-hour, the degraded one cannot.
    #[test]
    fn degraded_mode_scans_whole_hours() {
        // Free delay: a 90-minute window fits best at 2:30, over the
        // back half of hour 2 and all of hour 3.
        let factory = CtxFactory::new(&[500.0, 500.0, 100.0, 50.0, 500.0, 500.0, 500.0, 500.0]);
        let mut policy = CarbonTax::new(QueueSet::paper_defaults(), 1.0, 0.0)
            .with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 90, 1);
        let fine = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(fine.planned_start(), SimTime::from_minutes(150));
        let coarse = factory.with_degraded_ctx(SimTime::ORIGIN, |ctx| policy.decide(&j, ctx));
        assert_eq!(coarse.planned_start(), SimTime::from_hours(2));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_tax() {
        let _ = CarbonTax::new(QueueSet::paper_defaults(), -1.0, 1.0);
    }
}
