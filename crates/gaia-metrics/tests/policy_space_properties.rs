//! Property tests over the policy space's two new axes: random scaling
//! curves through the elastic Carbon-Scale family, and random
//! region/seed combinations through the placed runner — every sampled
//! configuration must audit clean, and the degenerate configurations
//! (single-region placement) must reproduce plain runs exactly.

use gaia_carbon::{synth::synthesize_region, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::placement::{PlacementSpec, TransferModel};
use gaia_core::{CarbonScale, GaiaScheduler};
use gaia_metrics::placed::{audit_placed, run_placed};
use gaia_metrics::runner::{self, run_spec_report};
use gaia_sim::{audit_report, ClusterConfig, Simulation, TransferStats};
use gaia_workload::elastic::{ElasticProfile, ScalingCurve};
use gaia_workload::synth::section3_workload;
use proptest::prelude::*;

fn region(idx: usize) -> Region {
    Region::ALL[idx % Region::ALL.len()]
}

proptest! {
    // Each case runs whole simulations; keep the sample count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Carbon-Scale stays audit-clean (coverage by work, occupancy,
    /// accounting, conservation, timing) for any Amdahl curve, ladder
    /// width, region, and workload seed.
    #[test]
    fn carbon_scale_audits_clean_for_random_curves(
        serial_fraction in 0.0f64..=1.0,
        max_width in 1u32..=8,
        region_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        let trace = section3_workload(seed);
        let carbon = synthesize_region(region(region_idx), 42);
        let config = ClusterConfig::default().with_reserved(4);
        let profile = ElasticProfile::new(ScalingCurve::amdahl(serial_fraction), max_width);
        let mut scheduler = GaiaScheduler::new(
            CarbonScale::new(runner::default_queues(&trace)).with_profile(profile),
        );
        let report = Simulation::new(config, &carbon)
            .runner(&trace, &mut scheduler)
            .execute()
            .expect("valid elastic plans")
            .into_report();
        prop_assert_eq!(report.jobs.len(), trace.len());
        for outcome in &report.jobs {
            prop_assert!(
                outcome.useful_work_milli() >= outcome.job.length.as_minutes() * 1000,
                "{} under-covered", outcome.job.id
            );
            for segment in &outcome.segments {
                prop_assert!(segment.width <= max_width);
            }
        }
        let audit = audit_report(&report, &config, &carbon);
        prop_assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    /// A width-1 ladder is the elasticity-off switch: every slice the
    /// policy emits is serial, and the run is audit-clean.
    #[test]
    fn width_one_ladder_never_widens(
        region_idx in 0usize..6,
        seed in 0u64..1000,
    ) {
        let trace = section3_workload(seed);
        let carbon = synthesize_region(region(region_idx), 42);
        let config = ClusterConfig::default();
        let profile = ElasticProfile::new(ScalingCurve::amdahl(0.0), 1);
        let mut scheduler = GaiaScheduler::new(
            CarbonScale::new(runner::default_queues(&trace)).with_profile(profile),
        );
        let report = Simulation::new(config, &carbon)
            .runner(&trace, &mut scheduler)
            .execute()
            .expect("valid elastic plans")
            .into_report();
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                prop_assert_eq!(segment.width, 1);
            }
        }
        let audit = audit_report(&report, &config, &carbon);
        prop_assert!(audit.is_clean(), "{:?}", audit.violations);
    }

    /// Single-region placement is the spatial-off switch: for any
    /// region, seed, and policy, the placed run equals the plain run
    /// exactly — outcomes, totals, timeline, and zero transfer.
    #[test]
    fn single_region_placement_equals_plain_run(
        region_idx in 0usize..6,
        seed in 0u64..1000,
        policy_pick in 0u8..2,
    ) {
        let trace = section3_workload(seed);
        let home = region(region_idx);
        let carbon = synthesize_region(home, 42);
        let config = ClusterConfig::default().with_reserved(4);
        let kind = if policy_pick == 1 {
            BasePolicyKind::CarbonTime
        } else {
            BasePolicyKind::NoWait
        };
        let spec = PolicySpec::plain(kind);
        let plain = run_spec_report(spec, &trace, &carbon, config);
        let placed = run_placed(
            spec,
            &trace,
            &[(home, &carbon)],
            &PlacementSpec::single(home),
            config,
        );
        prop_assert!(placed.report.transfer.is_zero());
        prop_assert_eq!(placed.report, plain);
    }

    /// Federated placement over random region pairs covers every job
    /// exactly once and audits clean, including the transfer bill, under
    /// the default transfer model and a zero-cost one. Free moves bill
    /// nothing and add no waiting to the region runs' own.
    #[test]
    fn federated_placement_audits_clean(
        home_idx in 0usize..6,
        other_idx in 0usize..6,
        seed in 0u64..1000,
        zero_cost in 0u8..2,
    ) {
        let home = region(home_idx);
        let other = region(other_idx + usize::from(home_idx == other_idx));
        let trace = section3_workload(seed);
        let traces = [(home, synthesize_region(home, 42)), (other, synthesize_region(other, 42))];
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let mut spec = PlacementSpec::federated(home).with_candidates(&[home, other]);
        if zero_cost == 1 {
            spec = spec.with_model(TransferModel {
                gb_per_cpu: 0.0,
                cost_per_gb: 0.0,
                carbon_g_per_gb: 0.0,
                minutes_per_1000km: 0.0,
            });
        }
        let config = ClusterConfig::default();
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            &refs,
            &spec,
            config,
        );
        prop_assert_eq!(placed.report.jobs.len(), trace.len());
        prop_assert_eq!(
            placed.report.transfer.jobs_moved as usize,
            placed.placement.moved()
        );
        let audit = audit_placed(&placed, &trace, &refs, &spec, &config);
        prop_assert!(audit.is_clean(), "{:?}", audit.violations);
        if zero_cost == 1 {
            let transfer = placed.report.transfer;
            prop_assert_eq!(
                transfer,
                TransferStats { jobs_moved: transfer.jobs_moved, ..TransferStats::default() }
            );
            for run in &placed.regions {
                for (outcome, &original) in run.report.jobs.iter().zip(&run.job_ids) {
                    prop_assert!(placed.report.jobs[original].waiting <= outcome.waiting);
                }
            }
        }
    }
}
