//! The Carbon-Time policy (§4.2.2) — the paper's flagship
//! performance-aware proposal.

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::Minutes;
use gaia_workload::{Job, QueueSet};

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};
use crate::JobLengthKnowledge;

/// Maximizes the **Carbon Saving per Completion Time** (CST):
///
/// ```text
/// CST(t_s) = (C(t) − C(t_s)) / (t_s + J − t)
/// ```
///
/// where `C(t)` is the footprint of starting immediately and `C(t_s)` the
/// footprint of starting at `t_s` (§4.2.2). Unlike the purely
/// carbon-aware policies, Carbon-Time refuses to chase marginal carbon
/// savings at large completion-time cost: a delay only wins if its
/// *rate* of carbon saving per unit of completion time is the best
/// available. Starting immediately scores `CST = 0`, so a job is only
/// delayed when some start time yields a strictly positive saving rate.
///
/// Uses the queue-average length estimate by default, like
/// [`LowestWindow`](super::LowestWindow).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarbonTime {
    queues: QueueSet,
    knowledge: JobLengthKnowledge,
    step: Minutes,
}

impl CarbonTime {
    /// Creates the policy with the paper's defaults.
    pub fn new(queues: QueueSet) -> Self {
        CarbonTime {
            queues,
            knowledge: JobLengthKnowledge::QueueAverage,
            step: DEFAULT_SCAN_STEP,
        }
    }

    /// Overrides the job-length knowledge model.
    pub fn with_knowledge(mut self, knowledge: JobLengthKnowledge) -> Self {
        self.knowledge = knowledge;
        self
    }

    /// Overrides the start-time scan granularity.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero.
    pub fn with_scan_step(mut self, step: Minutes) -> Self {
        assert!(!step.is_zero(), "scan step must be positive");
        self.step = step;
        self
    }
}

impl BatchPolicy for CarbonTime {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let wait = self.queues.max_wait_for(job);
        let estimate = self.knowledge.estimate(job, &self.queues);
        let immediate_footprint = ctx.forecast.integral(ctx.now, estimate);
        let now = ctx.now;
        let start = best_start(
            ctx,
            wait,
            self.step,
            Signal::Integral(estimate),
            |t, integral| {
                let saving = immediate_footprint - integral;
                let completion_hours = (t - now + estimate).as_hours_f64();
                saving / completion_hours
            },
        );
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Carbon-Time"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_time::SimTime;

    fn exact(queues: QueueSet) -> CarbonTime {
        CarbonTime::new(queues).with_knowledge(JobLengthKnowledge::Exact)
    }

    #[test]
    fn no_saving_means_no_delay() {
        // Carbon only rises: every delay has negative CST, so start now.
        let factory = CtxFactory::new(&[100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0]);
        let mut policy = exact(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::ORIGIN);
    }

    #[test]
    fn deep_nearby_valley_wins() {
        // A deep valley one hour away: large saving for a small delay.
        let factory = CtxFactory::new(&[500.0, 10.0, 500.0, 500.0, 500.0, 500.0, 500.0]);
        let mut policy = exact(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(1));
    }

    #[test]
    fn prefers_near_valley_over_slightly_deeper_far_one() {
        // Hour 1: CI 100 (saving 400, completion 2 h -> CST 200).
        // Hour 5: CI 80  (saving 420, completion 6 h -> CST 70).
        // Lowest-Window would chase hour 5; Carbon-Time must not.
        let factory = CtxFactory::new(&[500.0, 100.0, 500.0, 500.0, 500.0, 80.0, 500.0]);
        let mut policy = exact(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(1));
    }

    #[test]
    fn flat_trace_runs_immediately() {
        let factory = CtxFactory::new(&[250.0; 48]);
        let mut policy = exact(QueueSet::paper_defaults());
        let j = job(120, 90, 1);
        let d = factory.with_ctx(SimTime::from_minutes(120), 0, 0, |ctx| {
            policy.decide(&j, ctx)
        });
        assert_eq!(d.planned_start(), SimTime::from_minutes(120));
    }

    #[test]
    fn queue_average_is_the_default_estimate() {
        // With a 1-hour queue average, the policy evaluates 1-hour
        // windows even for this (actually 3-hour) job.
        let jobs = vec![job(0, 60, 1)];
        let queues = QueueSet::paper_defaults().with_averages_from(&jobs);
        let factory = CtxFactory::new(&[500.0, 10.0, 500.0, 500.0, 500.0, 500.0, 500.0]);
        let mut policy = CarbonTime::new(queues);
        let j = job(0, 180, 1); // long queue; avg defaults to cap/2
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        // The decision is still a valid single start within the window.
        assert!(d.planned_start() >= SimTime::ORIGIN);
        assert!(d.planned_start() <= SimTime::from_hours(24));
        assert!(d.segments().is_none());
    }

    #[test]
    fn waiting_window_bounds_the_delay() {
        // Short job: the valley at hour 8 is outside W_short = 6 h.
        let mut hourly = vec![500.0; 24];
        hourly[8] = 1.0;
        let factory = CtxFactory::new(&hourly);
        let mut policy = exact(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert!(d.planned_start() <= SimTime::from_hours(6));
    }
}
