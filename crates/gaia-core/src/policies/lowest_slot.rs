//! The Lowest Carbon Slot policy (§4.2.1).

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::Minutes;
use gaia_workload::{Job, QueueSet};

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};

/// Starts each job at the single lowest-carbon-intensity slot within its
/// waiting window `[t, t + W)` — without knowing anything about the job's
/// length (§4.2.1, "Lowest-Slot").
///
/// Because only the *starting* slot's intensity is considered, long jobs
/// may run straight through later carbon peaks; that blindness is exactly
/// what [`LowestWindow`](super::LowestWindow) fixes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowestSlot {
    queues: QueueSet,
    step: Minutes,
}

impl LowestSlot {
    /// Creates the policy with the paper's default scan granularity.
    pub fn new(queues: QueueSet) -> Self {
        LowestSlot {
            queues,
            step: DEFAULT_SCAN_STEP,
        }
    }

    /// Overrides the start-time scan granularity (slot-size ablation).
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

impl BatchPolicy for LowestSlot {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let wait = self.queues.max_wait_for(job);
        // Minimize the CI of the starting instant (maximize its negation).
        let start = best_start(ctx, wait, self.step, Signal::Intensity, |_, ci| -ci);
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Lowest-Slot"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_time::SimTime;

    #[test]
    fn picks_the_greenest_slot_in_window() {
        // Valley at hour 3; short job (W = 6 h) can reach it.
        let factory = CtxFactory::new(&[300.0, 250.0, 200.0, 50.0, 220.0, 260.0, 280.0, 290.0]);
        let mut policy = LowestSlot::new(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(3));
    }

    #[test]
    fn ignores_job_length_entirely() {
        // Hour 3 is the cheapest *slot*, even though a 5-hour job starting
        // there would run straight into the enormous hour-5 peak.
        let factory = CtxFactory::new(&[
            300.0, 250.0, 200.0, 50.0, 220.0, 9000.0, 9000.0, 9000.0, 100.0,
        ]);
        let mut policy = LowestSlot::new(QueueSet::paper_defaults());
        let long = job(0, 300, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&long, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(3));
    }

    #[test]
    fn respects_waiting_window() {
        // The global valley (hour 30) is outside the short queue's 6-hour
        // window; the policy must settle for the best slot inside it.
        let mut hourly = vec![500.0; 48];
        hourly[4] = 400.0;
        hourly[30] = 1.0;
        let factory = CtxFactory::new(&hourly);
        let mut policy = LowestSlot::new(QueueSet::paper_defaults());
        let j = job(0, 60, 1);
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(d.planned_start(), SimTime::from_hours(4));
    }

    #[test]
    fn flat_trace_starts_immediately() {
        let factory = CtxFactory::new(&[100.0; 48]);
        let mut policy = LowestSlot::new(QueueSet::paper_defaults());
        let j = job(90, 60, 1);
        let d = factory.with_ctx(SimTime::from_minutes(90), 0, 0, |ctx| {
            policy.decide(&j, ctx)
        });
        assert_eq!(d.planned_start(), SimTime::from_minutes(90));
    }

    #[test]
    #[should_panic(expected = "scan step")]
    fn rejects_zero_step() {
        let _ = LowestSlot::new(QueueSet::paper_defaults()).with_scan_step(Minutes::ZERO);
    }
}
