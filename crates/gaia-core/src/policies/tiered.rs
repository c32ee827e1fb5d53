//! N-queue (tiered) variants of the GAIA policies — the §4.2 claim that
//! "our policies can be extended to an arbitrary number of queues",
//! realized over [`QueueLadder`].

use gaia_sim::{Decision, SchedulerContext};
use gaia_time::Minutes;
use gaia_workload::ladder::QueueLadder;
use gaia_workload::Job;

use super::{best_start, BatchPolicy, Signal, DEFAULT_SCAN_STEP};

/// Carbon-Time over an arbitrary queue ladder: each rung contributes its
/// own waiting bound `W_i` and historical average `J_avg,i`, and the CST
/// objective is evaluated per rung exactly as in the two-queue policy
/// (§4.2.2).
///
/// With [`QueueLadder::paper_three_tier`] this realizes §7's tuning
/// advice natively: medium (3–12 h) jobs — the ones with "the most
/// potential to reduce carbon emissions" — get their own 12-hour window
/// instead of inheriting either extreme.
#[derive(Debug, Clone, PartialEq)]
pub struct TieredCarbonTime {
    ladder: QueueLadder,
    step: Minutes,
}

impl TieredCarbonTime {
    /// Creates the policy over the given queue ladder.
    pub fn new(ladder: QueueLadder) -> Self {
        TieredCarbonTime {
            ladder,
            step: DEFAULT_SCAN_STEP,
        }
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

    /// The ladder in use.
    pub fn ladder(&self) -> &QueueLadder {
        &self.ladder
    }
}

impl BatchPolicy for TieredCarbonTime {
    fn decide(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let rung = self.ladder.classify(job);
        let wait = self.ladder.max_wait(rung);
        let estimate = self.ladder.avg_length(rung);
        let immediate = ctx.forecast.integral(ctx.now, estimate);
        let now = ctx.now;
        let start = best_start(
            ctx,
            wait,
            self.step,
            Signal::Integral(estimate),
            |t, integral| {
                let saving = immediate - integral;
                saving / (t - now + estimate).as_hours_f64()
            },
        );
        Decision::run_at(start)
    }

    fn name(&self) -> &'static str {
        "Tiered-Carbon-Time"
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{job, CtxFactory};
    use super::*;
    use gaia_time::SimTime;
    use gaia_workload::WorkloadTrace;

    fn ladder_with_averages() -> QueueLadder {
        // Learn averages so the estimates are meaningful per rung.
        let jobs: Vec<gaia_workload::Job> = [60u64, 90, 300, 600, 1500, 2000]
            .iter()
            .map(|&len| job(0, len, 1))
            .collect();
        QueueLadder::paper_three_tier().with_averages_from(&WorkloadTrace::from_jobs(jobs))
    }

    #[test]
    fn medium_jobs_get_the_medium_window() {
        // Valley at hour 10: beyond the short rung's 6-hour window but
        // inside the medium rung's 12-hour one.
        let mut hourly = vec![500.0; 48];
        hourly[10] = 10.0;
        let factory = CtxFactory::new(&hourly);
        let mut policy = TieredCarbonTime::new(ladder_with_averages());
        let short = job(0, 60, 1);
        let medium = job(0, 300, 1);
        let d_short = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&short, ctx));
        let d_medium = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&medium, ctx));
        // The short job's 6-hour window cannot reach hour 10, so with a
        // flat landscape inside its window it runs immediately.
        assert_eq!(d_short.planned_start(), SimTime::ORIGIN);
        // The medium rung's 12-hour window can: the chosen start waits
        // and its estimated execution window covers the valley.
        let start = d_medium.planned_start();
        let estimate = policy.ladder().avg_length(1);
        assert!(
            start > SimTime::ORIGIN,
            "medium job must wait for the valley"
        );
        assert!(start <= SimTime::from_hours(10));
        assert!(
            start + estimate > SimTime::from_hours(10),
            "window covers the valley"
        );
    }

    #[test]
    fn two_rung_ladder_matches_carbon_time() {
        use crate::policies::CarbonTime;
        use gaia_workload::QueueSet;
        // A ladder converted from the paper's two queues must make the
        // same decisions as the two-queue CarbonTime.
        let jobs: Vec<gaia_workload::Job> = [60u64, 90, 300, 600]
            .iter()
            .map(|&len| job(0, len, 1))
            .collect();
        let set = QueueSet::paper_defaults().with_averages_from(&jobs);
        let factory =
            CtxFactory::new(&[500.0, 80.0, 450.0, 400.0, 40.0, 350.0, 300.0, 250.0, 200.0]);
        let mut tiered = TieredCarbonTime::new(QueueLadder::from(set));
        let mut flat = CarbonTime::new(set);
        for len in [30u64, 90, 150, 400] {
            let j = job(0, len, 1);
            let a = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| tiered.decide(&j, ctx));
            let b = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| flat.decide(&j, ctx));
            assert_eq!(a.planned_start(), b.planned_start(), "len {len}");
        }
    }

    /// Under a forecast outage the scan coarsens to whole hours: the
    /// 10-minute grid finds a start mid-hour, the degraded one cannot.
    #[test]
    fn degraded_mode_scans_whole_hours() {
        // A 90-minute job saves carbon fastest starting at 1:30, over
        // the back half of hour 1 and all of the hour-2 valley.
        let factory = CtxFactory::new(&[500.0, 300.0, 10.0, 500.0, 500.0, 500.0, 500.0, 500.0]);
        let jobs: Vec<gaia_workload::Job> = [90u64].iter().map(|&len| job(0, len, 1)).collect();
        let ladder =
            QueueLadder::paper_three_tier().with_averages_from(&WorkloadTrace::from_jobs(jobs));
        let mut policy = TieredCarbonTime::new(ladder);
        let j = job(0, 90, 1);
        let fine = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&j, ctx));
        assert_eq!(fine.planned_start(), SimTime::from_minutes(90));
        let coarse = factory.with_degraded_ctx(SimTime::ORIGIN, |ctx| policy.decide(&j, ctx));
        assert_eq!(coarse.planned_start(), SimTime::from_hours(1));
    }

    #[test]
    fn catch_all_rung_handles_oversized_jobs() {
        let factory = CtxFactory::new(&[100.0; 120]);
        let mut policy = TieredCarbonTime::new(QueueLadder::paper_three_tier());
        let huge = job(0, 10_000, 1); // beyond every cap
        let d = factory.with_ctx(SimTime::ORIGIN, 0, 0, |ctx| policy.decide(&huge, ctx));
        assert_eq!(d.planned_start(), SimTime::ORIGIN); // flat trace: run now
    }
}
