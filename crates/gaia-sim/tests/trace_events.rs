//! End-to-end checks of the engine's trace instrumentation: JSONL
//! round-trip fidelity, event ordering, per-job stream balance, and
//! agreement between summarized traces and `SimReport` totals.

use gaia_carbon::CarbonTrace;
use gaia_sim::{
    ClusterConfig, Decision, EvictionModel, JsonlSink, NullSink, Scheduler, SchedulerContext,
    SegmentPlan, Simulation, TraceEvent, TraceSummary, VecSink,
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

/// Exercises every emit site: an immediate spot run (evicted), a delayed
/// opportunistic run, and a suspend-resume segment plan.
struct MixedPolicy;
impl Scheduler for MixedPolicy {
    fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
        match job.id.0 % 3 {
            0 => Decision::run_at(job.arrival).on_spot(),
            1 => Decision::run_at(job.arrival + Minutes::from_hours(2)).opportunistic(),
            _ => {
                let a = job.arrival;
                let half = Minutes::new(job.length.as_minutes() / 2);
                Decision::run_segments(SegmentPlan::new(vec![
                    (a + Minutes::from_hours(1), half),
                    (a + Minutes::from_hours(6), job.length - half),
                ]))
            }
        }
    }
}

fn scenario() -> (CarbonTrace, WorkloadTrace, ClusterConfig) {
    let carbon = CarbonTrace::constant(120.0, 72).expect("valid trace");
    let trace = WorkloadTrace::from_jobs(vec![
        job(0, 0, 180, 1),
        job(1, 30, 240, 2),
        job(2, 60, 120, 1),
        job(3, 90, 300, 1),
        job(4, 120, 60, 1),
        job(5, 150, 200, 2),
    ]);
    let config = ClusterConfig::default()
        .with_reserved(2)
        .with_eviction(EvictionModel::hourly(0.8))
        .with_seed(7);
    (carbon, trace, config)
}

fn traced_events() -> (Vec<TraceEvent>, gaia_sim::SimReport) {
    let (carbon, trace, config) = scenario();
    let mut sink = VecSink::new();
    let report = Simulation::new(config, &carbon)
        .runner(&trace, &mut MixedPolicy)
        .sink(&mut sink)
        .execute()
        .expect("simulation succeeds")
        .into_report();
    (sink.into_events(), report)
}

#[test]
fn jsonl_round_trip_preserves_stream_exactly() {
    let (events, _) = traced_events();
    assert!(
        events.len() > 20,
        "expected a rich stream, got {}",
        events.len()
    );

    let mut jsonl = JsonlSink::new(Vec::new());
    for ev in &events {
        use gaia_sim::Sink;
        jsonl.emit(ev);
    }
    let bytes = jsonl.finish().expect("vec write cannot fail");
    let text = String::from_utf8(bytes).expect("valid utf-8");

    let parsed: Vec<TraceEvent> = text
        .lines()
        .map(|line| TraceEvent::from_json_line(line).expect(line))
        .collect();
    assert_eq!(parsed, events, "parse must reproduce the exact stream");

    // Re-serialization is byte-stable.
    let reserialized: String = parsed
        .iter()
        .flat_map(|ev| [ev.to_json_line(), "\n".to_string()])
        .collect();
    assert_eq!(reserialized, text);
}

#[test]
fn timestamps_are_monotonic() {
    let (events, _) = traced_events();
    let mut last = 0;
    for ev in &events {
        let t = ev.timestamp().expect("sim events are timestamped");
        assert!(t >= last, "{} at t={t} after t={last}", ev.name());
        last = t;
    }
}

#[test]
fn per_job_streams_are_balanced() {
    let (events, _) = traced_events();
    let summary = TraceSummary::from_events(&events);
    assert!(
        summary.issues.is_empty(),
        "stream validation failed: {:?}",
        summary.issues
    );
    assert_eq!(summary.segments_started, summary.segments_finished);
}

#[test]
fn summary_matches_sim_report_totals() {
    let (events, report) = traced_events();
    let summary = TraceSummary::from_events(&events);

    assert_eq!(summary.jobs_submitted as usize, report.jobs.len());
    assert_eq!(summary.jobs_completed as usize, report.jobs.len());
    assert_eq!(summary.plans_chosen as usize, report.jobs.len());

    let report_wait: u64 = report.jobs.iter().map(|j| j.waiting.as_minutes()).sum();
    assert_eq!(summary.total_wait_min, report_wait);

    let report_evictions: u64 = report.jobs.iter().map(|j| u64::from(j.evictions)).sum();
    assert_eq!(summary.evictions, report_evictions);
    assert!(report_evictions > 0, "scenario should exercise evictions");

    let report_jobs_evicted = report.jobs.iter().filter(|j| j.evictions > 0).count();
    assert_eq!(summary.jobs_evicted as usize, report_jobs_evicted);
}

/// Tracing is out-of-band: the report is the same untraced, traced
/// into an explicit `NullSink`, and traced into a recording sink.
#[test]
fn traced_and_untraced_reports_are_identical() {
    let (carbon, trace, config) = scenario();
    let untraced = Simulation::new(config, &carbon)
        .runner(&trace, &mut MixedPolicy)
        .execute()
        .expect("simulation succeeds")
        .into_report();
    let null_traced = Simulation::new(config, &carbon)
        .runner(&trace, &mut MixedPolicy)
        .sink(&mut NullSink)
        .execute()
        .expect("simulation succeeds")
        .into_report();
    let (_, traced) = traced_events();
    assert_eq!(null_traced, untraced);
    assert_eq!(traced, untraced);
}

#[test]
fn trace_is_deterministic_across_runs() {
    let render = || {
        let (events, _) = traced_events();
        events
            .iter()
            .map(|ev| ev.to_json_line())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(render(), render());
}
