//! End-to-end fault-injection behaviour: the empty-plan byte-identity
//! contract, per-fault-kind degradation accounting, and equivalence of
//! the engine's internal fault wiring with manually-constructed
//! fallbacks.

use gaia_carbon::{CarbonTrace, PerfectForecaster, PersistenceForecaster};
use gaia_sim::{
    audit_report_faulted, ClusterConfig, Decision, ElasticPlan, ElasticSegment, EvictionModel,
    FaultPlan, FaultSchedule, FaultSpec, Scheduler, SchedulerContext, Simulation, TraceEvent,
    VecSink,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId, WorkloadTrace};

fn job(id: u64, arrival_min: u64, len_min: u64, cpus: u32) -> Job {
    Job::new(
        JobId(id),
        SimTime::from_minutes(arrival_min),
        Minutes::new(len_min),
        cpus,
    )
}

/// A varying (but deterministic) carbon trace so forecast-driven
/// decisions actually depend on the forecaster they see.
fn carbon() -> CarbonTrace {
    CarbonTrace::from_hourly((0..96).map(|h| 100.0 + ((h * 37) % 83) as f64).collect())
        .expect("valid trace")
}

fn workload() -> WorkloadTrace {
    WorkloadTrace::from_jobs(vec![
        job(0, 0, 180, 1),
        job(1, 30, 240, 2),
        job(2, 60, 120, 1),
        job(3, 90, 300, 1),
        job(4, 1500, 60, 1),
        job(5, 1530, 200, 2),
    ])
}

/// Starts each job at the greenest whole hour within the next 12, as the
/// forecaster it is handed predicts — so swapping the forecaster (outage
/// fallback, bridged gaps) visibly changes the schedule.
struct GreenestStart;
impl Scheduler for GreenestStart {
    fn on_arrival(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        let mut best = (f64::INFINITY, ctx.now);
        for h in 0..12u64 {
            let t = ctx.now + Minutes::from_hours(h);
            let intensity = ctx.forecast.at(t);
            if intensity < best.0 {
                best = (intensity, t);
            }
        }
        let _ = job;
        Decision::run_at(best.1)
    }
}

/// Runs everything immediately on spot.
struct SpotNow;
impl Scheduler for SpotNow {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival).on_spot()
    }
}

/// Runs everything immediately (reserved first, else on-demand).
struct RunNow;
impl Scheduler for RunNow {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_at(job.arrival)
    }
}

/// Runs every job at arrival two workers wide, at ideal speedup
/// (Carbon-Scale's shape without its carbon search).
struct WideNow;
impl Scheduler for WideNow {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        Decision::run_elastic(ElasticPlan::new(vec![ElasticSegment {
            start: job.arrival,
            len: Minutes::new(job.length.as_minutes() / 2),
            width: 2,
            work_milli: job.length.as_minutes() * 1000,
        }]))
    }
}

fn compile(specs: Vec<FaultSpec>) -> FaultSchedule {
    let mut plan = FaultPlan::new();
    for spec in specs {
        plan.push(spec);
    }
    plan.compile().expect("valid plan")
}

fn jsonl(events: &[TraceEvent]) -> String {
    events
        .iter()
        .flat_map(|ev| [ev.to_json_line(), "\n".to_string()])
        .collect()
}

#[test]
fn empty_fault_plan_is_byte_identical_to_no_plan() {
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default()
        .with_reserved(2)
        .with_eviction(EvictionModel::hourly(0.3))
        .with_seed(11);
    let empty = FaultPlan::new().compile().expect("empty plan compiles");
    assert!(empty.is_empty());

    let run = |faults: Option<&FaultSchedule>| {
        let mut sim = Simulation::new(config, &carbon);
        if let Some(f) = faults {
            sim = sim.with_faults(f);
        }
        let mut sink = VecSink::new();
        let mut policy = GreenestStart;
        let report = sim
            .runner(&trace, &mut policy)
            .sink(&mut sink)
            .execute()
            .expect("run succeeds")
            .into_report();
        (report, jsonl(&sink.into_events()))
    };

    let (base_report, base_stream) = run(None);
    let (faulted_report, faulted_stream) = run(Some(&empty));
    assert_eq!(base_report, faulted_report);
    assert_eq!(base_stream, faulted_stream);
    assert!(base_report.degradation.is_clean());
}

#[test]
fn eviction_storm_amplifies_evictions_and_is_audit_clean() {
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default()
        .with_eviction(EvictionModel::hourly(0.02))
        .with_seed(3);
    let schedule = compile(vec![FaultSpec::EvictionStorm {
        start: SimTime::ORIGIN,
        end: SimTime::from_hours(96),
        multiplier: 40.0,
    }]);

    let evictions = |faults: Option<&FaultSchedule>| {
        let mut sim = Simulation::new(config, &carbon);
        if let Some(f) = faults {
            sim = sim.with_faults(f);
        }
        let mut policy = SpotNow;
        let run = sim
            .runner(&trace, &mut policy)
            .audit(true)
            .execute()
            .expect("run succeeds");
        let audit = run.audit.as_ref().expect("audit enabled");
        assert!(audit.is_clean(), "{:?}", audit.violations);
        (run.report.totals.evictions, run.report.degradation)
    };

    let (base, base_stats) = evictions(None);
    let (stormed, storm_stats) = evictions(Some(&schedule));
    assert!(base_stats.is_clean());
    assert!(
        stormed > base,
        "storm should amplify evictions: {stormed} vs {base}"
    );
    assert!(storm_stats.storm_evictions > 0);
    assert_eq!(storm_stats.storm_evictions, stormed);
}

#[test]
fn forecast_outage_matches_manual_persistence_fallback() {
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default().with_reserved(2).with_seed(5);
    let schedule = compile(vec![FaultSpec::ForecastOutage {
        start: SimTime::ORIGIN,
        end: SimTime::from_hours(96),
    }]);

    let mut sink = VecSink::new();
    let mut policy = GreenestStart;
    let run = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(&trace, &mut policy)
        .sink(&mut sink)
        .audit(true)
        .execute()
        .expect("run succeeds");
    let audit = run.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let faulted = run.report;
    assert_eq!(faulted.degradation.degraded_decisions, trace.len() as u64);

    let events = sink.into_events();
    assert!(events
        .iter()
        .any(|ev| matches!(ev, TraceEvent::FaultInjected { t: 0, .. })));
    assert!(events
        .iter()
        .any(|ev| matches!(ev, TraceEvent::DegradedModeEntered { .. })));

    // The whole run is one long outage, so every decision must equal a
    // run planned against a persistence forecaster outright.
    let persistence = PersistenceForecaster::new(&carbon);
    let mut policy = GreenestStart;
    let manual = Simulation::new(config, &carbon)
        .with_forecaster(&persistence)
        .runner(&trace, &mut policy)
        .execute()
        .expect("run succeeds")
        .into_report();
    assert_eq!(faulted.jobs, manual.jobs);
    assert_eq!(faulted.totals, manual.totals);

    // And differ from the un-degraded schedule (the fault had teeth).
    let mut policy = GreenestStart;
    let base = Simulation::new(config, &carbon)
        .runner(&trace, &mut policy)
        .execute()
        .expect("run succeeds")
        .into_report();
    assert_ne!(faulted.jobs, base.jobs, "outage should change decisions");
}

#[test]
fn trace_gap_matches_manual_bridged_forecaster() {
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default().with_reserved(2).with_seed(5);
    let schedule = compile(vec![FaultSpec::TraceGap {
        start_hour: 10,
        hours: 14,
    }]);

    let mut policy = GreenestStart;
    let run = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(&trace, &mut policy)
        .audit(true)
        .execute()
        .expect("run succeeds");
    let audit = run.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let faulted = run.report;
    assert_eq!(faulted.degradation.bridged_gap_hours, 14);

    let bridged = carbon.with_gaps_bridged(&[(10, 14)]).expect("valid gap");
    let perfect = PerfectForecaster::new(&bridged);
    let mut policy = GreenestStart;
    let manual = Simulation::new(config, &carbon)
        .with_forecaster(&perfect)
        .runner(&trace, &mut policy)
        .execute()
        .expect("run succeeds")
        .into_report();
    // Decisions follow the bridged trace; accounting follows the truth.
    assert_eq!(faulted.jobs, manual.jobs);
    assert_eq!(faulted.totals, manual.totals);
}

#[test]
fn price_spike_surcharges_without_touching_base_accounting() {
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default().with_seed(5);
    let schedule = compile(vec![FaultSpec::PriceSpike {
        start: SimTime::ORIGIN,
        end: SimTime::from_hours(96),
        multiplier: 3.0,
    }]);

    let mut policy = RunNow;
    let run = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(&trace, &mut policy)
        .audit(true)
        .execute()
        .expect("run succeeds");
    let audit = run.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let faulted = run.report;

    let mut policy = RunNow;
    let base = Simulation::new(config, &carbon)
        .runner(&trace, &mut policy)
        .execute()
        .expect("run succeeds")
        .into_report();
    assert_eq!(faulted.jobs, base.jobs);
    assert_eq!(faulted.totals, base.totals);
    assert!(faulted.degradation.price_surcharge > 0.0);
    // Everything billed elastic at 3×: the surcharge is exactly twice the
    // usage cost.
    let usage = base.totals.cost_on_demand + base.totals.cost_spot;
    assert!(
        (faulted.degradation.price_surcharge - 2.0 * usage).abs() < 1e-6,
        "surcharge {} vs 2 × usage {usage}",
        faulted.degradation.price_surcharge
    );
}

#[test]
fn price_spike_over_wide_elastic_spans_audits_clean() {
    // No reserved pool, so every two-wide span is billed on demand for
    // twice the job's CPUs; the audit must recompute the surcharge at
    // that width, as the engine bills it.
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default().with_reserved(0).with_seed(5);
    let schedule = compile(vec![FaultSpec::PriceSpike {
        start: SimTime::ORIGIN,
        end: SimTime::from_hours(96),
        multiplier: 3.0,
    }]);

    let run = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(&trace, &mut WideNow)
        .audit(true)
        .execute()
        .expect("run succeeds");
    assert!(run
        .report
        .jobs
        .iter()
        .all(|o| o.segments.iter().all(|s| s.width == 2)));
    let audit = run.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let usage = run.report.totals.cost_on_demand + run.report.totals.cost_spot;
    assert!(
        (run.report.degradation.price_surcharge - 2.0 * usage).abs() < 1e-6,
        "surcharge {} vs 2 × usage {usage}",
        run.report.degradation.price_surcharge
    );
}

#[test]
fn capacity_drop_delays_but_never_strands_work() {
    let carbon = carbon();
    // Three concurrent single-CPU jobs, no reserved pool: all elastic.
    let trace = WorkloadTrace::from_jobs(vec![
        job(0, 60, 300, 1),
        job(1, 61, 300, 1),
        job(2, 62, 300, 1),
    ]);
    let config = ClusterConfig::default().with_seed(5);
    let schedule = compile(vec![FaultSpec::CapacityDrop {
        start: SimTime::ORIGIN,
        end: SimTime::from_hours(4),
        cap: 1,
    }]);

    let mut policy = RunNow;
    let run = Simulation::new(config, &carbon)
        .with_faults(&schedule)
        .runner(&trace, &mut policy)
        .audit(true)
        .execute()
        .expect("run succeeds");
    let audit = run.audit.as_ref().expect("audit enabled");
    assert!(audit.is_clean(), "{:?}", audit.violations);
    let report = run.report;

    assert!(report.degradation.capacity_denials > 0);
    // Every job still completes its full length.
    for outcome in &report.jobs {
        assert!(outcome.executed() >= outcome.job.length, "{:?}", outcome);
    }
    // Some job was pushed past the clamp window's end.
    assert!(
        report
            .jobs
            .iter()
            .any(|o| o.finish > SimTime::from_hours(4)),
        "clamp should delay at least one job"
    );
}

#[test]
fn faulted_audit_flags_unfaulted_reports_with_fault_stats() {
    // Cross-check: handing the *faulted* schedule and an *unfaulted*
    // report to the audit must trip the degradation family (the stats
    // claim gap bridging that the schedule implies but the report lacks).
    let carbon = carbon();
    let trace = workload();
    let config = ClusterConfig::default().with_seed(5);
    let schedule = compile(vec![FaultSpec::TraceGap {
        start_hour: 0,
        hours: 5,
    }]);
    let mut policy = RunNow;
    let base = Simulation::new(config, &carbon)
        .runner(&trace, &mut policy)
        .execute()
        .expect("run succeeds")
        .into_report();
    let audit = audit_report_faulted(&base, &config, &carbon, Some(&schedule));
    assert!(
        audit
            .violations
            .iter()
            .any(|v| v.detail.contains("bridged_gap_hours")),
        "{:?}",
        audit.violations
    );
}
