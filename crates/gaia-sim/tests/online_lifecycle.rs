//! The online engine's job lifecycle as a caller sees it: status
//! transitions, cancellation, completion draining, counters, submission
//! checks and the carbon-agnostic baseline.

use gaia_carbon::{CarbonTrace, PerfectForecaster};
use gaia_obs::NullSink;
use gaia_sim::{
    stagger_capacity, stagger_reserve, CancelOutcome, ClusterConfig, Decision, JobStatus,
    OnlineEngine, PurchaseOption, Scheduler, SchedulerContext, SimError,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId};

fn job(id: u64, arrival_min: u64, len_min: u64, cpus: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_minutes(arrival_min),
        Minutes::new(len_min),
        cpus,
    )
}

fn carbon() -> CarbonTrace {
    CarbonTrace::from_hourly(vec![100.0, 300.0, 50.0, 200.0, 150.0, 80.0]).expect("valid")
}

/// Delays every job by a fixed offset.
struct DelayBy(Minutes);
impl Scheduler for DelayBy {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival + self.0)
    }
}

/// Runs `body` against a fresh engine over [`carbon`] and `config`.
fn with_engine(config: ClusterConfig, body: impl FnOnce(&mut OnlineEngine<'_, NullSink>)) {
    let carbon = carbon();
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = NullSink;
    let mut engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    body(&mut engine);
}

#[test]
fn status_walks_from_pending_to_done() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::new(30));
        let idx = engine.submit(job(0, 60, 45, 2)).expect("valid submission");
        assert_eq!(engine.job_status(idx), Some(JobStatus::Pending));

        engine
            .advance_to(SimTime::from_minutes(60), &mut scheduler)
            .unwrap();
        assert_eq!(
            engine.job_status(idx),
            Some(JobStatus::Queued {
                planned_start: SimTime::from_minutes(90)
            })
        );

        engine
            .advance_to(SimTime::from_minutes(100), &mut scheduler)
            .unwrap();
        assert_eq!(
            engine.job_status(idx),
            Some(JobStatus::Running {
                pool: PurchaseOption::OnDemand,
                since: SimTime::from_minutes(90)
            })
        );

        engine.run_until_idle(&mut scheduler).unwrap();
        match engine.job_status(idx) {
            Some(JobStatus::Done {
                finish,
                carbon_g,
                cost,
                waiting,
                evictions,
            }) => {
                assert_eq!(finish, SimTime::from_minutes(135));
                assert_eq!(waiting, Minutes::new(30));
                assert_eq!(evictions, 0);
                assert!(carbon_g > 0.0 && cost > 0.0);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(engine.now(), SimTime::from_minutes(135));
    });
}

#[test]
fn unknown_jobs_have_no_status_and_cancel_as_unknown() {
    with_engine(ClusterConfig::default(), |engine| {
        assert_eq!(engine.job_status(0), None);
        assert_eq!(engine.cancel(0).unwrap(), CancelOutcome::Unknown);
        engine.submit(job(0, 0, 10, 1)).unwrap();
        assert_eq!(engine.job_status(1), None);
        assert_eq!(engine.cancel(1).unwrap(), CancelOutcome::Unknown);
        assert_eq!(engine.cancelled(), 0);
    });
}

#[test]
fn cancelling_a_queued_job_spends_nothing() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::from_hours(2));
        engine.submit(job(0, 0, 60, 4)).unwrap();
        engine
            .advance_to(SimTime::from_minutes(10), &mut scheduler)
            .unwrap();
        assert!(matches!(
            engine.job_status(0),
            Some(JobStatus::Queued { .. })
        ));

        assert_eq!(engine.cancel(0).unwrap(), CancelOutcome::Cancelled);
        assert_eq!(
            engine.job_status(0),
            Some(JobStatus::Cancelled {
                at: SimTime::from_minutes(10),
                carbon_g: 0.0,
                cost: 0.0
            })
        );
        assert_eq!(engine.cancel(0).unwrap(), CancelOutcome::AlreadyFinished);

        // The stale start event must not revive the job.
        engine.run_until_idle(&mut scheduler).unwrap();
        assert_eq!((engine.completed(), engine.cancelled()), (0, 1));
        assert!(engine.take_completions().is_empty());
    });
}

#[test]
fn cancelling_a_running_job_keeps_what_it_already_spent() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        engine.submit(job(0, 0, 180, 2)).unwrap();
        engine
            .advance_to(SimTime::from_minutes(60), &mut scheduler)
            .unwrap();
        let (full_carbon, full_cost) = engine.naive_baseline(SimTime::ORIGIN, Minutes::new(180), 2);
        let (hour_carbon, hour_cost) = engine.naive_baseline(SimTime::ORIGIN, Minutes::new(60), 2);

        assert_eq!(engine.cancel(0).unwrap(), CancelOutcome::Cancelled);
        match engine.job_status(0) {
            Some(JobStatus::Cancelled { at, carbon_g, cost }) => {
                assert_eq!(at, SimTime::from_minutes(60));
                assert!(
                    (carbon_g - hour_carbon).abs() < 1e-9,
                    "{carbon_g} vs {hour_carbon}"
                );
                assert!((cost - hour_cost).abs() < 1e-9, "{cost} vs {hour_cost}");
                assert!(carbon_g < full_carbon && cost < full_cost);
            }
            other => panic!("expected Cancelled, got {other:?}"),
        }
        engine.run_until_idle(&mut scheduler).unwrap();
        assert_eq!(engine.completed(), 0);
    });
}

#[test]
fn a_cancelled_reserved_job_frees_its_cpus_for_the_next() {
    with_engine(ClusterConfig::default().with_reserved(2), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        engine.submit(job(0, 0, 300, 2)).unwrap();
        engine.submit(job(1, 30, 60, 2)).unwrap();
        engine
            .advance_to(SimTime::from_minutes(30), &mut scheduler)
            .unwrap();
        assert!(matches!(
            engine.job_status(0),
            Some(JobStatus::Running {
                pool: PurchaseOption::Reserved,
                ..
            })
        ));
        assert!(matches!(
            engine.job_status(1),
            Some(JobStatus::Running {
                pool: PurchaseOption::OnDemand,
                ..
            })
        ));
        engine.cancel(0).unwrap();
        engine.submit(job(2, 40, 60, 2)).unwrap();
        engine
            .advance_to(SimTime::from_minutes(40), &mut scheduler)
            .unwrap();
        assert_eq!(
            engine.job_status(2),
            Some(JobStatus::Running {
                pool: PurchaseOption::Reserved,
                since: SimTime::from_minutes(40)
            }),
            "the cancelled job's reserved CPUs must be free again"
        );
    });
}

#[test]
fn completions_drain_in_completion_order() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        for (id, len) in [(0, 90), (1, 30), (2, 60)] {
            engine.submit(job(id, 0, len, 1)).unwrap();
        }
        engine
            .advance_to(SimTime::from_minutes(45), &mut scheduler)
            .unwrap();
        assert_eq!(engine.take_completions(), vec![1]);
        assert!(engine.take_completions().is_empty(), "draining empties it");
        engine.run_until_idle(&mut scheduler).unwrap();
        assert_eq!(engine.take_completions(), vec![2, 0]);
    });
}

#[test]
fn counters_and_pending_events_follow_the_queue() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        for id in 0..4 {
            engine.submit(job(id, id * 100, 50, 1)).unwrap();
        }
        assert_eq!(engine.submitted(), 4);
        assert_eq!(engine.queued(), 4);
        assert_eq!(engine.pending_events(), 4, "one arrival event per job");
        engine.cancel(3).unwrap();
        engine
            .advance_to(SimTime::from_minutes(160), &mut scheduler)
            .unwrap();
        assert_eq!(
            (engine.completed(), engine.cancelled(), engine.queued()),
            (2, 1, 1),
            "jobs 0 and 1 finished at 50 and 150; job 2 arrives at 200"
        );
        engine.run_until_idle(&mut scheduler).unwrap();
        assert_eq!((engine.completed(), engine.queued()), (3, 0));
        assert_eq!(engine.pending_events(), 0);
    });
}

#[test]
fn submissions_need_dense_ids_and_no_past_arrivals() {
    with_engine(ClusterConfig::default(), |engine| {
        let err = engine.submit(job(1, 0, 10, 1)).unwrap_err();
        assert!(
            matches!(&err, SimError::Internal(m) if m.contains("dense submission-ordered ids")),
            "{err}"
        );
        assert_eq!(engine.submitted(), 0, "a rejected job is not recorded");

        let mut scheduler = DelayBy(Minutes::ZERO);
        engine
            .advance_to(SimTime::from_minutes(100), &mut scheduler)
            .unwrap();
        assert_eq!(engine.now(), SimTime::from_minutes(100));
        let err = engine.submit(job(0, 99, 10, 1)).unwrap_err();
        assert!(
            matches!(&err, SimError::Internal(m) if m.contains("engine clock")),
            "{err}"
        );
        assert_eq!(engine.submit(job(0, 100, 10, 1)).unwrap(), 0);
    });
}

#[test]
fn the_clock_never_rewinds() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        engine
            .advance_to(SimTime::from_minutes(500), &mut scheduler)
            .unwrap();
        engine
            .advance_to(SimTime::from_minutes(200), &mut scheduler)
            .unwrap();
        assert_eq!(engine.now(), SimTime::from_minutes(500));
    });
}

#[test]
fn an_immediate_on_demand_run_costs_its_naive_baseline() {
    with_engine(ClusterConfig::default(), |engine| {
        let mut scheduler = DelayBy(Minutes::ZERO);
        engine.submit(job(0, 37, 170, 3)).unwrap();
        engine.run_until_idle(&mut scheduler).unwrap();
        let (base_carbon, base_cost) =
            engine.naive_baseline(SimTime::from_minutes(37), Minutes::new(170), 3);
        match engine.job_status(0) {
            Some(JobStatus::Done { carbon_g, cost, .. }) => {
                assert!((carbon_g - base_carbon).abs() < 1e-9 * base_carbon);
                assert!((cost - base_cost).abs() < 1e-9 * base_cost);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        // Two hours later the trace is cleaner, so the baseline differs.
        let (later, _) = engine.naive_baseline(SimTime::from_minutes(157), Minutes::new(170), 3);
        assert_ne!(later, base_carbon);
    });
}

#[test]
fn stagger_reserve_gives_each_rung_its_spare_room() {
    assert!(stagger_capacity(1) > stagger_capacity(0));
    let mut a: Vec<u8> = Vec::new();
    let mut b: Vec<u8> = Vec::new();
    stagger_reserve(&mut a, 0, 100);
    stagger_reserve(&mut b, 1, 100);
    assert!(a.capacity() >= 100 + stagger_capacity(0));
    assert!(b.capacity() >= 100 + stagger_capacity(1));
    assert_ne!(a.capacity(), b.capacity());
    // Already large enough: no reallocation.
    let before = a.as_ptr();
    let cap = a.capacity();
    stagger_reserve(&mut a, 0, 10);
    assert_eq!((a.as_ptr(), a.capacity()), (before, cap));
}
