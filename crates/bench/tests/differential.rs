//! Differential property tests: the columnar [`OnlineEngine`] against
//! the pre-refactor per-event [`gaia_sim::oracle::OracleEngine`].
//!
//! The oracle is a verbatim copy of the engine before the
//! columnar/batched overhaul, so these properties pin the rewrite to
//! the exact behaviour it replaced: for random workloads × policies ×
//! seeds, both engines must produce **equal `SimReport`s** and
//! **byte-identical JSONL trace streams**. One year-scale case covers the
//! contract at depth on five fixed policies; the properties cover
//! breadth — adversarial small workloads (duplicate arrival minutes,
//! zero-ish gaps, eviction-heavy configs) that a fixed grid never hits.
//!
//! Also here: regression properties for the latent bugs fixed alongside
//! the overhaul — pre-reservation (`reserve_jobs`) must be
//! behaviour-neutral, and a "mega-minute" workload where every waiting
//! job targets the same low-carbon minute must spill through the event
//! queue's fixed-size overflow segments without reordering.

use gaia_carbon::{CarbonTrace, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_sim::oracle::OracleEngine;
use gaia_sim::{ClusterConfig, EvictionModel, JsonlSink, OnlineEngine, SimReport};
use gaia_time::{Minutes, SimTime};
use gaia_workload::synth::TraceFamily;
use gaia_workload::{Job, JobId, QueueSet, WorkloadTrace};
use proptest::prelude::*;

/// Runs the columnar engine over the trace and returns the report plus
/// the raw JSONL trace bytes.
fn run_columnar(
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    spec: PolicySpec,
    trace: &WorkloadTrace,
    reserve: bool,
) -> (SimReport, Vec<u8>) {
    let forecaster = PerfectForecaster::new(carbon);
    let mut sink = JsonlSink::new(Vec::new());
    let mut engine = OnlineEngine::new(config, carbon, &forecaster, &mut sink);
    if reserve {
        engine.reserve_jobs(trace.len());
    }
    let mut policy = spec.build(QueueSet::paper_defaults());
    for job in trace.jobs() {
        engine.submit(*job).expect("submit");
    }
    engine.run_until_idle(&mut policy).expect("run");
    let report = engine.into_report();
    let bytes = sink.finish().expect("in-memory sink cannot fail");
    (report, bytes)
}

fn run_oracle(
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    spec: PolicySpec,
    trace: &WorkloadTrace,
) -> (SimReport, Vec<u8>) {
    let forecaster = PerfectForecaster::new(carbon);
    let mut sink = JsonlSink::new(Vec::new());
    let mut engine = OracleEngine::new(config, carbon, &forecaster, &mut sink);
    let mut policy = spec.build(QueueSet::paper_defaults());
    for job in trace.jobs() {
        engine.submit(*job).expect("submit");
    }
    engine.run_until_idle(&mut policy).expect("run");
    let report = engine.into_report();
    let bytes = sink.finish().expect("in-memory sink cannot fail");
    (report, bytes)
}

fn policy_strategy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::plain(BasePolicyKind::NoWait)),
        Just(PolicySpec::plain(BasePolicyKind::CarbonTime)),
        Just(PolicySpec::res_first(BasePolicyKind::NoWait)),
        Just(PolicySpec::res_first(BasePolicyKind::CarbonTime)),
        Just(PolicySpec::res_first(BasePolicyKind::AllWaitThreshold)),
        Just(PolicySpec::spot_res(BasePolicyKind::CarbonTime)),
    ]
}

/// Random jobs over a two-day window. Arrival minutes collide on
/// purpose (small range, many jobs) so same-minute batching in the
/// columnar loop is exercised on every case.
fn trace_strategy() -> impl Strategy<Value = WorkloadTrace> {
    prop::collection::vec((0u64..2_880, 1u64..600, 1u32..8), 1..60).prop_map(|rows| {
        WorkloadTrace::from_jobs(
            rows.into_iter()
                .enumerate()
                .map(|(i, (arrival, len, cpus))| {
                    Job::new(
                        JobId(i as u64),
                        SimTime::from_minutes(arrival),
                        Minutes::new(len),
                        cpus,
                    )
                })
                .collect(),
        )
    })
}

fn carbon_strategy() -> impl Strategy<Value = CarbonTrace> {
    // Enough hours to cover the two-day arrival window plus the longest
    // job and any carbon-motivated deferral the policies will choose.
    prop::collection::vec(20.0f64..900.0, 24 * 8..24 * 10)
        .prop_map(|hourly| CarbonTrace::from_hourly(hourly).expect("positive intensities"))
}

fn config_strategy() -> impl Strategy<Value = ClusterConfig> {
    (
        0u32..12,
        0u64..u64::MAX,
        prop_oneof![Just(0.0), Just(0.05), Just(0.3)],
    )
        .prop_map(|(reserved, seed, evict_rate)| {
            let eviction = if evict_rate > 0.0 {
                EvictionModel::hourly(evict_rate)
            } else {
                EvictionModel::never()
            };
            ClusterConfig::default()
                .with_reserved(reserved)
                .with_seed(seed)
                .with_eviction(eviction)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The core differential property: reports equal, trace streams
    /// byte-identical.
    #[test]
    fn columnar_engine_matches_oracle(
        trace in trace_strategy(),
        carbon in carbon_strategy(),
        config in config_strategy(),
        spec in policy_strategy(),
    ) {
        let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, false);
        let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace);
        prop_assert_eq!(&columnar, &oracle, "SimReports diverged ({})", spec.name());
        prop_assert!(
            columnar_bytes == oracle_bytes,
            "trace streams diverged ({}): {} vs {} bytes",
            spec.name(),
            columnar_bytes.len(),
            oracle_bytes.len()
        );
    }

    /// Regression for the tail-latency fix: pre-reserving columns (the
    /// staggered `reserve_jobs` ladder) is a pure capacity hint — it
    /// must not change a single report field or trace byte.
    #[test]
    fn pre_reservation_is_behaviour_neutral(
        trace in trace_strategy(),
        carbon in carbon_strategy(),
        config in config_strategy(),
        spec in policy_strategy(),
    ) {
        let (plain, plain_bytes) = run_columnar(&config, &carbon, spec, &trace, false);
        let (reserved, reserved_bytes) = run_columnar(&config, &carbon, spec, &trace, true);
        prop_assert_eq!(&plain, &reserved, "reserve_jobs changed the report");
        prop_assert!(plain_bytes == reserved_bytes, "reserve_jobs changed the trace");
    }
}

/// Regression for the event-queue mega-bucket fix: thousands of jobs
/// all deferred to the same minute overflow one calendar bucket into
/// the fixed-size spill segments. The spill must stay invisible — same
/// report, same trace bytes as the oracle's single `BinaryHeap`.
#[test]
fn mega_minute_spill_matches_oracle() {
    // One short job per id, every one arriving in the first hour; a
    // deep carbon valley at hour 30 pulls every deferral to the same
    // region of the calendar.
    let jobs: Vec<Job> = (0..20_000u64)
        .map(|i| Job::new(JobId(i), SimTime::from_minutes(i % 60), Minutes::new(30), 1))
        .collect();
    let trace = WorkloadTrace::from_jobs(jobs);
    let mut hourly = vec![600.0; 24 * 4];
    hourly[30] = 10.0;
    let carbon = CarbonTrace::from_hourly(hourly).expect("positive intensities");
    let config = ClusterConfig::default().with_reserved(4).with_seed(7);
    let spec = PolicySpec::res_first(BasePolicyKind::CarbonTime);

    let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, true);
    let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace);
    assert_eq!(columnar, oracle, "mega-minute reports diverged");
    assert!(
        columnar_bytes == oracle_bytes,
        "mega-minute trace streams diverged: {} vs {} bytes",
        columnar_bytes.len(),
        oracle_bytes.len()
    );
}

/// The year-scale contract: a 3k-job AlibabaPai trace spread over the
/// year, the reserved pool at mean demand, and South Australia carbon,
/// under five policy shapes (plain, reserved-first over eager,
/// carbon-aware and threshold bases, and spot-then-reserved).
#[test]
fn year_scale_grid_matches_oracle() {
    let trace = TraceFamily::AlibabaPai.year_long(3_000, bench::WORKLOAD_SEED);
    let carbon = bench::carbon(Region::SouthAustralia);
    let config = ClusterConfig::default()
        .with_reserved(bench::reserved_at_mean_demand(&trace))
        .with_seed(42)
        .with_billing_horizon(bench::year_billing());
    for spec in [
        PolicySpec::plain(BasePolicyKind::NoWait),
        PolicySpec::res_first(BasePolicyKind::NoWait),
        PolicySpec::res_first(BasePolicyKind::CarbonTime),
        PolicySpec::res_first(BasePolicyKind::AllWaitThreshold),
        PolicySpec::spot_res(BasePolicyKind::CarbonTime),
    ] {
        let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, true);
        let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace);
        assert_eq!(columnar, oracle, "{}: reports diverged", spec.name());
        assert!(
            columnar_bytes == oracle_bytes,
            "{}: trace streams diverged: {} vs {} bytes",
            spec.name(),
            columnar_bytes.len(),
            oracle_bytes.len()
        );
    }
}
