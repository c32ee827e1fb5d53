//! Differential property tests: the columnar [`OnlineEngine`] against
//! [`OracleEngine`], the pre-columnar per-event engine kept in `oracle/`
//! beside this file.
//!
//! The oracle keeps the engine's batch and fault paths as they stood
//! before the columnar/batched overhaul, so these properties pin the
//! rewrite to the exact behaviour it replaced: for random workloads ×
//! policies × seeds, both engines must produce **equal `SimReport`s** and
//! **byte-identical JSONL trace streams**. Two year-scale cases cover the
//! contract at depth, one plain and one under every engine-level fault
//! kind with capacity caps, checkpointing and instance overheads; the
//! properties cover breadth — adversarial small workloads (duplicate
//! arrival minutes, zero-ish gaps, eviction-heavy configs, random fault
//! plans) that a fixed grid never hits. Both engines wire their
//! forecasters through [`PolicyCarbon`], as the batch path does.
//!
//! Also here: regression properties for the latent bugs fixed alongside
//! the overhaul — pre-reservation (`reserve_jobs`) must be
//! behaviour-neutral, and a "mega-minute" workload where every waiting
//! job targets the same low-carbon minute must come out of the event
//! queue without reordering.

mod oracle;

use gaia_carbon::{CarbonTrace, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_sim::{
    CapacityCap, CheckpointConfig, ClusterConfig, EvictionModel, FaultPlan, FaultSchedule,
    FaultSpec, InstanceOverheads, JsonlSink, OnlineEngine, PolicyCarbon, SimReport,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::synth::TraceFamily;
use gaia_workload::{Job, JobId, QueueSet, WorkloadTrace};
use oracle::OracleEngine;
use proptest::prelude::*;

/// Runs the columnar engine over the trace, under `faults` if given, and
/// returns the report plus the raw JSONL trace bytes.
fn run_columnar(
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    spec: PolicySpec,
    trace: &WorkloadTrace,
    faults: Option<&FaultSchedule>,
    reserve: bool,
) -> (SimReport, Vec<u8>) {
    let policy_carbon = PolicyCarbon::new(carbon, faults).expect("fault plan fits the trace");
    let forecaster = PerfectForecaster::new(policy_carbon.trace());
    let persistence = policy_carbon.fallback();
    let mut sink = JsonlSink::new(Vec::new());
    let mut engine = OnlineEngine::new(config, carbon, &forecaster, &mut sink);
    if let Some(faults) = faults {
        engine = engine.with_faults(faults, persistence.as_ref().map(|p| p as _));
    }
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

/// [`run_columnar`] on the oracle.
fn run_oracle(
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    spec: PolicySpec,
    trace: &WorkloadTrace,
    faults: Option<&FaultSchedule>,
) -> (SimReport, Vec<u8>) {
    let policy_carbon = PolicyCarbon::new(carbon, faults).expect("fault plan fits the trace");
    let forecaster = PerfectForecaster::new(policy_carbon.trace());
    let persistence = policy_carbon.fallback();
    let mut sink = JsonlSink::new(Vec::new());
    let mut engine = OracleEngine::new(config, carbon, &forecaster, &mut sink);
    if let Some(faults) = faults {
        engine = engine.with_faults(faults, persistence.as_ref().map(|p| p as _));
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
        let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, None, false);
        let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace, None);
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
        let (plain, plain_bytes) = run_columnar(&config, &carbon, spec, &trace, None, false);
        let (reserved, reserved_bytes) = run_columnar(&config, &carbon, spec, &trace, None, true);
        prop_assert_eq!(&plain, &reserved, "reserve_jobs changed the report");
        prop_assert!(plain_bytes == reserved_bytes, "reserve_jobs changed the trace");
    }
}

/// [`policy_strategy`] plus the suspend-resume and window policies, whose
/// segment plans meet caps, overheads and outages only under faults.
fn faulted_policy_strategy() -> impl Strategy<Value = PolicySpec> {
    prop_oneof![
        Just(PolicySpec::plain(BasePolicyKind::NoWait)),
        Just(PolicySpec::plain(BasePolicyKind::CarbonTime)),
        Just(PolicySpec::res_first(BasePolicyKind::NoWait)),
        Just(PolicySpec::res_first(BasePolicyKind::CarbonTime)),
        Just(PolicySpec::res_first(BasePolicyKind::AllWaitThreshold)),
        Just(PolicySpec::spot_res(BasePolicyKind::CarbonTime)),
        Just(PolicySpec::plain(BasePolicyKind::WaitAwhile)),
        Just(PolicySpec::plain(BasePolicyKind::Ecovisor)),
        Just(PolicySpec::plain(BasePolicyKind::LowestWindow)),
        Just(PolicySpec::spot_first(BasePolicyKind::WaitAwhile)),
    ]
}

/// A half-open window inside the two-day arrival span.
fn window_strategy() -> impl Strategy<Value = (SimTime, SimTime)> {
    (0u64..2_879, 1u64..1_440).prop_map(|(start, len)| {
        (
            SimTime::from_minutes(start),
            SimTime::from_minutes((start + len).min(2_880)),
        )
    })
}

/// Random fault schedules: each engine-level fault kind on or off, with
/// windows inside the arrival span and gaps inside the carbon trace.
fn fault_strategy() -> impl Strategy<Value = FaultSchedule> {
    (
        prop_oneof![
            Just(None),
            (window_strategy(), 2.0f64..40.0).prop_map(|((start, end), multiplier)| {
                Some(FaultSpec::EvictionStorm {
                    start,
                    end,
                    multiplier,
                })
            }),
        ],
        prop_oneof![
            Just(None),
            window_strategy()
                .prop_map(|(start, end)| Some(FaultSpec::ForecastOutage { start, end })),
        ],
        prop_oneof![
            Just(None),
            (window_strategy(), 1.5f64..4.0).prop_map(|((start, end), multiplier)| {
                Some(FaultSpec::PriceSpike {
                    start,
                    end,
                    multiplier,
                })
            }),
        ],
        prop_oneof![
            Just(None),
            (window_strategy(), 0u32..6)
                .prop_map(|((start, end), cap)| Some(FaultSpec::CapacityDrop { start, end, cap })),
        ],
        prop_oneof![
            Just(None),
            // The carbon strategy draws at least 192 hours.
            (0u64..150, 1u64..24)
                .prop_map(|(start_hour, hours)| Some(FaultSpec::TraceGap { start_hour, hours })),
        ],
    )
        .prop_map(|(storm, outage, spike, drop, gap)| {
            let mut plan = FaultPlan::new();
            for spec in [storm, outage, spike, drop, gap].into_iter().flatten() {
                plan.push(spec);
            }
            plan.compile().expect("valid fault plan")
        })
}

/// [`config_strategy`] plus the engine branches only faulted grids reach:
/// static and carbon-responsive caps, checkpointing, instance overheads.
fn faulted_config_strategy() -> impl Strategy<Value = ClusterConfig> {
    (
        config_strategy(),
        prop_oneof![
            Just(CapacityCap::None),
            (0u32..8).prop_map(CapacityCap::Static),
            (1u32..10, 0u32..4, 100.0f64..700.0).prop_map(
                |(normal_cap, high_carbon_cap, ci_threshold)| CapacityCap::CarbonResponsive {
                    normal_cap,
                    high_carbon_cap,
                    ci_threshold,
                }
            ),
        ],
        prop_oneof![
            Just(None),
            (1u64..4, 0u64..15).prop_map(|(hours, overhead)| {
                Some(CheckpointConfig::every_hours(hours, overhead))
            }),
        ],
        prop_oneof![
            Just(InstanceOverheads::none()),
            (1u64..10).prop_map(InstanceOverheads::symmetric),
        ],
    )
        .prop_map(|(config, cap, checkpoint, overheads)| {
            let config = config.with_capacity_cap(cap).with_overheads(overheads);
            match checkpoint {
                Some(cp) => config.with_checkpointing(cp),
                None => config,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The differential property under random fault plans, caps,
    /// checkpointing and overheads: reports equal, trace streams
    /// byte-identical.
    #[test]
    fn faulted_engine_matches_oracle(
        trace in trace_strategy(),
        carbon in carbon_strategy(),
        config in faulted_config_strategy(),
        spec in faulted_policy_strategy(),
        faults in fault_strategy(),
    ) {
        let (columnar, columnar_bytes) =
            run_columnar(&config, &carbon, spec, &trace, Some(&faults), false);
        let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace, Some(&faults));
        prop_assert_eq!(&columnar, &oracle, "SimReports diverged ({})", spec.name());
        prop_assert!(
            columnar_bytes == oracle_bytes,
            "trace streams diverged ({}): {} vs {} bytes",
            spec.name(),
            columnar_bytes.len(),
            oracle_bytes.len()
        );
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

    let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, None, true);
    let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace, None);
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
        let (columnar, columnar_bytes) = run_columnar(&config, &carbon, spec, &trace, None, true);
        let (oracle, oracle_bytes) = run_oracle(&config, &carbon, spec, &trace, None);
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

/// The year-scale contract under faults: the 3k-job AlibabaPai year
/// trace in South Australia, 5% hourly spot eviction, and one plan with
/// every engine-level fault kind, over five configs (base, a static cap,
/// a carbon-responsive cap, checkpointing, instance overheads) and seven
/// policies. Carbon-Scale stays out: the oracle predates elastic plans.
#[test]
fn faulted_year_grid_matches_oracle() {
    let trace = TraceFamily::AlibabaPai.year_long(3_000, bench::WORKLOAD_SEED);
    let carbon = bench::carbon(Region::SouthAustralia);
    let day = |d: u64| SimTime::from_hours(24 * d);
    let mut plan = FaultPlan::new();
    for spec in [
        FaultSpec::EvictionStorm {
            start: day(20),
            end: day(50),
            multiplier: 8.0,
        },
        FaultSpec::ForecastOutage {
            start: day(80),
            end: day(110),
        },
        FaultSpec::PriceSpike {
            start: day(140),
            end: day(170),
            multiplier: 2.5,
        },
        FaultSpec::CapacityDrop {
            start: day(200),
            end: day(230),
            cap: 2,
        },
        FaultSpec::TraceGap {
            start_hour: 24 * 260,
            hours: 72,
        },
    ] {
        plan.push(spec);
    }
    let faults = plan.compile().expect("valid fault plan");
    let base = ClusterConfig::default()
        .with_reserved(bench::reserved_at_mean_demand(&trace))
        .with_eviction(EvictionModel::hourly(0.05))
        .with_seed(7)
        .with_billing_horizon(bench::year_billing());
    let configs = [
        base,
        base.with_capacity_cap(CapacityCap::Static(8)),
        base.with_capacity_cap(CapacityCap::CarbonResponsive {
            normal_cap: 16,
            high_carbon_cap: 4,
            ci_threshold: 250.0,
        }),
        base.with_checkpointing(CheckpointConfig::every_hours(1, 5)),
        base.with_overheads(InstanceOverheads::symmetric(5)),
    ];
    for (i, config) in configs.iter().enumerate() {
        for spec in [
            PolicySpec::plain(BasePolicyKind::NoWait),
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            PolicySpec::res_first(BasePolicyKind::CarbonTime),
            PolicySpec::plain(BasePolicyKind::LowestWindow),
            PolicySpec::spot_res(BasePolicyKind::CarbonTime),
            PolicySpec::plain(BasePolicyKind::WaitAwhile),
            PolicySpec::plain(BasePolicyKind::Ecovisor),
        ] {
            let (columnar, columnar_bytes) =
                run_columnar(config, &carbon, spec, &trace, Some(&faults), true);
            let (oracle, oracle_bytes) = run_oracle(config, &carbon, spec, &trace, Some(&faults));
            assert!(
                !columnar.degradation.is_clean(),
                "config {i}, {}: faults left no trace",
                spec.name()
            );
            assert_eq!(
                columnar,
                oracle,
                "config {i}, {}: reports diverged",
                spec.name()
            );
            assert!(
                columnar_bytes == oracle_bytes,
                "config {i}, {}: trace streams diverged: {} vs {} bytes",
                spec.name(),
                columnar_bytes.len(),
                oracle_bytes.len()
            );
        }
    }
}
