//! Executes policy specifications against workloads — the glue between
//! the catalog, the simulator, and the summaries.

use gaia_carbon::CarbonTrace;
use gaia_core::catalog::PolicySpec;
use gaia_sim::{ClusterConfig, SimError, SimReport, SimRun, Simulation};
use gaia_workload::{QueueSet, WorkloadTrace};

use crate::Summary;

/// Runs one policy spec and returns the full report.
///
/// Queue-average job lengths are computed from the trace being replayed
/// (the scheduler consulting its historical accounting database, §4.2.1).
pub fn run_spec_report(
    spec: PolicySpec,
    trace: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
) -> SimReport {
    run_spec_report_with_queues(spec, trace, carbon, config, default_queues(trace))
}

/// Like [`run_spec_report`] but with explicit queue configuration (used
/// by the waiting-time sweeps of Figure 14).
pub fn run_spec_report_with_queues(
    spec: PolicySpec,
    trace: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
    queues: QueueSet,
) -> SimReport {
    let mut scheduler = spec.build(queues);
    Simulation::new(config, carbon)
        .runner(trace, &mut scheduler)
        .execute()
        .unwrap_or_else(|e| panic!("{e}"))
        .into_report()
}

/// Like [`run_spec_report_with_queues`] but returns invalid policy
/// decisions as a typed [`SimError`] instead of panicking — the variant
/// sweeps use so one malformed cell fails alone.
pub fn try_run_spec_report_with_queues(
    spec: PolicySpec,
    trace: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
    queues: QueueSet,
) -> Result<SimReport, SimError> {
    let mut scheduler = spec.build(queues);
    Simulation::new(config, carbon)
        .runner(trace, &mut scheduler)
        .execute()
        .map(SimRun::into_report)
}

/// Runs one policy spec and summarizes it.
pub fn run_spec(
    spec: PolicySpec,
    trace: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
) -> Summary {
    Summary::of(spec.name(), &run_spec_report(spec, trace, carbon, config))
}

/// Runs a list of specs under identical conditions and returns their
/// summaries in order.
pub fn run_specs(
    specs: &[PolicySpec],
    trace: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
) -> Vec<Summary> {
    specs
        .iter()
        .map(|&spec| run_spec(spec, trace, carbon, config))
        .collect()
}

/// The paper-default queue set with averages learned from `trace`.
pub fn default_queues(trace: &WorkloadTrace) -> QueueSet {
    QueueSet::paper_defaults().with_averages_from(trace.jobs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_core::catalog::BasePolicyKind;
    use gaia_time::Minutes;
    use gaia_workload::QueueKind;

    fn tiny_setup() -> (WorkloadTrace, CarbonTrace) {
        let trace = gaia_workload::synth::section3_workload(3);
        let carbon = gaia_carbon::CarbonTrace::from_hourly(
            (0..24 * 5)
                .map(|h| 200.0 + 150.0 * ((h % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
                .collect(),
        )
        .expect("valid");
        (trace, carbon)
    }

    #[test]
    fn nowait_baseline_properties() {
        let (trace, carbon) = tiny_setup();
        let summary = run_spec(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &carbon,
            ClusterConfig::default(),
        );
        assert_eq!(summary.mean_wait_hours, 0.0);
        assert_eq!(summary.jobs, trace.len());
        assert!(summary.carbon_g > 0.0);
    }

    #[test]
    fn carbon_aware_policies_save_carbon_with_perfect_forecasts() {
        let (trace, carbon) = tiny_setup();
        let config = ClusterConfig::default();
        let nowait = run_spec(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &carbon,
            config,
        );
        for kind in [
            BasePolicyKind::LowestSlot,
            BasePolicyKind::LowestWindow,
            BasePolicyKind::CarbonTime,
            BasePolicyKind::WaitAwhile,
        ] {
            let run = run_spec(PolicySpec::plain(kind), &trace, &carbon, config);
            assert!(
                run.carbon_g <= nowait.carbon_g * 1.02,
                "{} carbon {} vs NoWait {}",
                kind.name(),
                run.carbon_g,
                nowait.carbon_g
            );
        }
    }

    #[test]
    fn try_runner_surfaces_policy_errors() {
        let (trace, carbon) = tiny_setup();
        let err = try_run_spec_report_with_queues(
            PolicySpec::plain(BasePolicyKind::BadPlan),
            &trace,
            &carbon,
            ClusterConfig::default(),
            default_queues(&trace),
        )
        .expect_err("the fault-injection policy must fail");
        assert!(matches!(err, SimError::Policy(_)), "{err}");
        let report = try_run_spec_report_with_queues(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &carbon,
            ClusterConfig::default(),
            default_queues(&trace),
        )
        .expect("valid policy");
        assert_eq!(report.jobs.len(), trace.len());
    }

    #[test]
    fn run_specs_preserves_order_and_names() {
        let (trace, carbon) = tiny_setup();
        let specs = vec![
            PolicySpec::plain(BasePolicyKind::NoWait),
            PolicySpec::plain(BasePolicyKind::CarbonTime),
        ];
        let rows = run_specs(&specs, &trace, &carbon, ClusterConfig::default());
        assert_eq!(rows[0].name, "NoWait");
        assert_eq!(rows[1].name, "Carbon-Time");
    }

    #[test]
    #[should_panic(expected = "invalid policy decision")]
    fn panicking_runner_reports_the_policy_error() {
        let (trace, carbon) = tiny_setup();
        run_spec_report(
            PolicySpec::plain(BasePolicyKind::BadPlan),
            &trace,
            &carbon,
            ClusterConfig::default(),
        );
    }

    #[test]
    fn run_spec_summarizes_its_own_report() {
        let (trace, carbon) = tiny_setup();
        let spec = PolicySpec::plain(BasePolicyKind::CarbonTime);
        let config = ClusterConfig::default().with_reserved(2);
        let report = run_spec_report(spec, &trace, &carbon, config);
        assert_eq!(
            run_spec(spec, &trace, &carbon, config),
            Summary::of(spec.name(), &report)
        );
    }

    #[test]
    fn explicit_queues_bound_every_wait() {
        let (trace, carbon) = tiny_setup();
        let budget = Minutes::new(1);
        let run = |queues| {
            run_spec_report_with_queues(
                PolicySpec::plain(BasePolicyKind::CarbonTime),
                &trace,
                &carbon,
                ClusterConfig::default(),
                queues,
            )
        };
        let tight = run(default_queues(&trace).with_waits(budget, budget));
        assert!(tight.jobs.iter().all(|o| o.waiting <= budget));
        let loose = run(default_queues(&trace));
        assert!(
            loose.totals.total_waiting > tight.totals.total_waiting,
            "the paper-default budgets let Carbon-Time wait for greener hours"
        );
    }

    #[test]
    fn default_queues_learn_their_averages_from_the_trace() {
        let (trace, _) = tiny_setup();
        let queues = default_queues(&trace);
        for kind in [QueueKind::Short, QueueKind::Long] {
            let lengths: Vec<u64> = trace
                .jobs()
                .iter()
                .filter(|j| queues.classify(j) == kind)
                .map(|j| j.length.as_minutes())
                .collect();
            if lengths.is_empty() {
                continue;
            }
            let mean = lengths.iter().sum::<u64>() as f64 / lengths.len() as f64;
            let avg = queues.avg_length(kind).as_minutes() as f64;
            assert!((avg - mean).abs() <= 1.0, "{kind:?}: {avg} vs {mean}");
        }
    }
}
