//! The Lowest Carbon Window policy (§4.2.1).

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::Minutes;
use gaia_workload::{Job, QueueSet};

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};
use crate::JobLengthKnowledge;

/// Starts each job at the beginning of the `J`-long window with the
/// lowest total carbon footprint inside the waiting window (§4.2.1,
/// "Lowest-Window"):
///
/// ```text
/// t_start = argmin_{t_s in [t, t+W)}  Σ_{u=t_s}^{t_s+J} c(u) · e
/// ```
///
/// Since real schedulers rarely know `J`, the policy estimates it with
/// the historical queue-wide average `J_avg` by default
/// ([`JobLengthKnowledge::QueueAverage`]); pass
/// [`JobLengthKnowledge::Exact`] to ablate the knowledge assumption.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowestWindow {
    queues: QueueSet,
    knowledge: JobLengthKnowledge,
    step: Minutes,
}

impl LowestWindow {
    /// Creates the policy with the paper's defaults (queue-average
    /// length knowledge).
    pub fn new(queues: QueueSet) -> Self {
        LowestWindow {
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

impl BatchPolicy for LowestWindow {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let wait = self.queues.max_wait_for(job);
        let estimate = self.knowledge.estimate(job, &self.queues);
        let start = best_start(
            ctx,
            wait,
            self.step,
            Signal::Integral(estimate),
            |_, integral| -integral,
        );
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Lowest-Window"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_time::SimTime;

    #[test]
    fn exact_knowledge_picks_cheapest_window() {
        // Hour 3 is the cheapest slot but hours 5-6 are the cheapest
        // *2-hour window*; with exact knowledge of a 2-hour job the policy
        // must choose hour 5.
        let factory =
            CtxFactory::new(&[300.0, 280.0, 260.0, 50.0, 400.0, 90.0, 80.0, 500.0, 500.0]);
        let mut policy =
            LowestWindow::new(QueueSet::paper_defaults()).with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 120, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(5));
    }

    #[test]
    fn queue_average_estimate_drives_choice() {
        // Same trace, but the queue-wide average is 1 h, so the cheapest
        // 1-hour window is the hour-3 valley.
        let factory =
            CtxFactory::new(&[300.0, 280.0, 260.0, 50.0, 400.0, 90.0, 80.0, 500.0, 500.0]);
        let jobs = vec![job(0, 30, 1), job(0, 90, 1)]; // short-queue average: 60 min
        let queues = QueueSet::paper_defaults().with_averages_from(&jobs);
        let mut policy = LowestWindow::new(queues);
        let j = job(0, 120, 1); // actual length is irrelevant to the policy
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(3));
    }

    #[test]
    fn sub_hour_start_can_beat_aligned_start() {
        // A 90-minute job: starting at 2:30 covers the last half of the
        // cheap hour 2 and all of cheap hour 3, beating any aligned start.
        let factory = CtxFactory::new(&[500.0, 500.0, 100.0, 50.0, 500.0, 500.0, 500.0]);
        let mut policy =
            LowestWindow::new(QueueSet::paper_defaults()).with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 90, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_minutes(150));
    }

    #[test]
    fn respects_waiting_window_for_long_jobs() {
        // Long job: W = 24 h; the day-2 valley is unreachable.
        let mut hourly = vec![400.0; 72];
        hourly[20] = 100.0;
        hourly[21] = 100.0;
        hourly[50] = 1.0;
        hourly[51] = 1.0;
        let factory = CtxFactory::new(&hourly);
        let mut policy =
            LowestWindow::new(QueueSet::paper_defaults()).with_knowledge(JobLengthKnowledge::Exact);
        let j = job(0, 150, 1); // long queue (2.5 h)
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        // Cheapest reachable 2.5-hour window starts just before hour 20
        // so that the job covers both cheap hours.
        assert!(d.planned_start() >= SimTime::from_hours(19));
        assert!(d.planned_start() <= SimTime::from_hours(20));
    }

    #[test]
    fn flat_trace_runs_immediately() {
        let factory = CtxFactory::new(&[77.0; 48]);
        let mut policy = LowestWindow::new(QueueSet::paper_defaults());
        let j = job(45, 60, 1);
        let d = factory.with_ctx(SimTime::from_minutes(45), 0, 0, |ctx| {
            policy.decide(&j, ctx)
        });
        assert_eq!(d.planned_start(), SimTime::from_minutes(45));
    }
}
