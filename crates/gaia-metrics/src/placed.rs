//! Multi-region placement: running one workload across several regions'
//! carbon traces, with data-transfer penalties.
//!
//! The temporal policies in `gaia-core` decide *when* a job runs inside
//! one region; [`run_placed`] adds the spatial axis studied by the
//! paper's §7 discussion. Each job's input data lives in a **home**
//! region ([`PlacementSpec::home`]); before the simulation, a greedy
//! scorer assigns every job to the candidate region whose forecast
//! minimizes the job's estimated carbon — execution carbon over the
//! greenest length-`J` window reachable within the job's waiting budget,
//! plus the network carbon of shipping its data there
//! ([`gaia_core::placement::TransferModel::penalty`]). The workload is then partitioned, each
//! region runs an ordinary single-region simulation under the same
//! policy spec, and the per-region reports are merged back into one
//! [`SimReport`] whose [`TransferStats`] carries the movement bill.
//!
//! ## Semantics
//!
//! * A moved job's **arrival is delayed** by the transfer latency in its
//!   destination region (the data must arrive first), and that latency
//!   is charged to its merged `waiting`/`completion` (the identity
//!   `completion = waiting + length` still holds for plain runs).
//! * Transfer **dollars and network carbon are kept out of** per-job and
//!   cluster accounting — they surface only in
//!   [`SimReport::transfer`] — so every per-region report stays exactly
//!   auditable against its own carbon trace.
//! * The merged totals are the field-wise sum of the per-region totals:
//!   each active region prepays its own reserved pool, so
//!   `cost_reserved_prepaid` counts once per region that ran jobs.
//! * Under [`PlacementSpec::single`] the placed run degenerates to a
//!   plain [`run_spec_report`](crate::runner::run_spec_report) and the
//!   merged report is **identical** to it, byte for byte.

use gaia_carbon::{CarbonTrace, Region};
use gaia_core::catalog::PolicySpec;
use gaia_core::placement::{Placement, PlacementSpec};
use gaia_sim::{
    audit_report, AllocationTimeline, AuditInvariant, AuditReport, AuditViolation, ClusterConfig,
    ClusterTotals, JobOutcome, SimReport, TransferStats,
};
use gaia_time::{Minutes, SimTime, MINUTES_PER_HOUR};
use gaia_workload::{Job, QueueSet, WorkloadTrace};

use crate::runner::{default_queues, run_spec_report_with_queues};

/// One region's share of a placed run.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionRun {
    /// The region this share ran in.
    pub region: Region,
    /// The ordinary single-region report for the share, self-consistent
    /// against this region's carbon trace (arrivals already include any
    /// transfer latency).
    pub report: SimReport,
    /// Original (whole-workload) dense job ids, indexed by this share's
    /// local job id.
    pub job_ids: Vec<usize>,
}

/// The result of a multi-region placed run.
///
/// # Examples
///
/// ```
/// use gaia_carbon::{synth::synthesize_region, Region};
/// use gaia_core::catalog::{BasePolicyKind, PolicySpec};
/// use gaia_core::placement::PlacementSpec;
/// use gaia_metrics::placed::run_placed;
/// use gaia_sim::ClusterConfig;
/// use gaia_workload::synth::TraceFamily;
///
/// let trace = TraceFamily::AlibabaPai.week_long_1k(42);
/// let traces: Vec<_> = [Region::California, Region::Ontario]
///     .into_iter()
///     .map(|r| (r, synthesize_region(r, 42)))
///     .collect();
/// let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
/// let spec = PlacementSpec::federated(Region::California)
///     .with_candidates(&[Region::California, Region::Ontario]);
/// let placed = run_placed(
///     PolicySpec::plain(BasePolicyKind::CarbonTime),
///     &trace,
///     &refs,
///     &spec,
///     ClusterConfig::default(),
/// );
/// assert_eq!(placed.report.jobs.len(), trace.len());
/// assert_eq!(placed.report.transfer.jobs_moved as usize, placed.placement.moved());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedReport {
    /// The per-job region assignment chosen by the scorer.
    pub placement: Placement,
    /// Per-region runs, in candidate order; regions that received no
    /// jobs are omitted.
    pub regions: Vec<RegionRun>,
    /// The merged whole-workload view: outcomes back in original job-id
    /// order with transfer latency charged to waiting/completion, summed
    /// totals and timeline, and [`SimReport::transfer`] populated.
    pub report: SimReport,
}

/// Runs `spec` over `trace` placed across regions, panicking on invalid
/// policy decisions (the placed analogue of
/// [`run_spec_report`](crate::runner::run_spec_report)).
///
/// `traces` must contain a carbon trace for every candidate region in
/// `placement` (extra entries are ignored).
///
/// # Panics
///
/// Panics if a candidate region has no carbon trace in `traces`, or if
/// the policy makes an invalid decision.
pub fn run_placed(
    spec: PolicySpec,
    trace: &WorkloadTrace,
    traces: &[(Region, &CarbonTrace)],
    placement: &PlacementSpec,
    config: ClusterConfig,
) -> PlacedReport {
    let queues = default_queues(trace);
    let assignment = assign_regions(
        trace,
        traces,
        placement,
        &queues,
        &config,
        greenest_integral,
    );

    let mut regions = Vec::new();
    for &candidate in &placement.candidates {
        let job_ids: Vec<usize> = assignment
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == candidate)
            .map(|(i, _)| i)
            .collect();
        if job_ids.is_empty() {
            continue;
        }
        let latency = placement.model.latency(placement.home, candidate);
        // Jobs are in arrival order already (dense submission-ordered
        // ids) and the latency shift is uniform per region, so the
        // stable re-sort in `from_jobs` preserves this order and local
        // id `i` maps back to `job_ids[i]`.
        let shifted: Vec<Job> = job_ids
            .iter()
            .map(|&i| {
                let job = trace.jobs()[i];
                Job::new(job.id, job.arrival + latency, job.length, job.cpus)
            })
            .collect();
        let region_trace = WorkloadTrace::from_jobs(shifted);
        let carbon = trace_for(traces, candidate);
        let report = run_spec_report_with_queues(spec, &region_trace, carbon, config, queues);
        regions.push(RegionRun {
            region: candidate,
            report,
            job_ids,
        });
    }

    let placement_result = Placement {
        regions: assignment,
        home: placement.home,
    };
    let report = merge(trace, placement, &placement_result, &regions, &config);
    PlacedReport {
        placement: placement_result,
        regions,
        report,
    }
}

/// Scores every job against every candidate region and returns the
/// per-job assignment (indexed by dense job id).
///
/// The score of running `job` in region `r` is the CI integral of the
/// greenest length-`J` window starting within the job's waiting budget
/// after its (latency-shifted) arrival (`greenest`, which is
/// [`greenest_integral`] outside tests), converted to grams through the
/// cluster's energy model, plus the network carbon of the move. Ties
/// keep the earlier candidate, so a flat score surface stays home.
fn assign_regions(
    trace: &WorkloadTrace,
    traces: &[(Region, &CarbonTrace)],
    placement: &PlacementSpec,
    queues: &QueueSet,
    config: &ClusterConfig,
    greenest: impl Fn(&CarbonTrace, SimTime, Minutes, Minutes) -> f64,
) -> Vec<Region> {
    let candidates: Vec<(Region, &CarbonTrace)> = placement
        .candidates
        .iter()
        .map(|&r| (r, trace_for(traces, r)))
        .collect();
    trace
        .jobs()
        .iter()
        .map(|job| {
            let budget = queues.max_wait_for(job);
            let mut best: Option<(f64, Region)> = None;
            for &(region, carbon) in &candidates {
                let penalty = placement.model.penalty(job, placement.home, region);
                let earliest = job.arrival + penalty.latency;
                let integral = greenest(carbon, earliest, job.length, budget);
                let grams =
                    integral * config.energy.kw_per_cpu * f64::from(job.cpus) + penalty.carbon_g;
                if best.is_none_or(|(b, _)| grams < b) {
                    best = Some((grams, region));
                }
            }
            best.expect("placement specs always have at least one candidate")
                .1
        })
        .collect()
}

/// The least CI integral of a `length` window starting within `budget`
/// of `earliest`. The candidate starts are `earliest` and each whole hour
/// after it up to `budget`, from one [`CarbonTrace::window_integrals`]
/// scan, plus `earliest + budget` itself when `budget` is not a whole
/// number of hours. A candidate replaces the minimum only when strictly
/// lower, which for finite integrals gives the same value in any order.
fn greenest_integral(
    carbon: &CarbonTrace,
    earliest: SimTime,
    length: Minutes,
    budget: Minutes,
) -> f64 {
    let hourly = budget.as_minutes() / MINUTES_PER_HOUR + 1;
    let last = (!budget.as_minutes().is_multiple_of(MINUTES_PER_HOUR))
        .then(|| carbon.window_integral(earliest + budget, length));
    carbon
        .window_integrals(earliest, Minutes::from_hours(1), length, hourly)
        .chain(last)
        .fold(f64::INFINITY, |best, candidate| {
            if candidate < best {
                candidate
            } else {
                best
            }
        })
}

/// Merges per-region runs back into one whole-workload report.
fn merge(
    trace: &WorkloadTrace,
    spec: &PlacementSpec,
    placement: &Placement,
    regions: &[RegionRun],
    config: &ClusterConfig,
) -> SimReport {
    let mut jobs: Vec<Option<JobOutcome>> = vec![None; trace.len()];
    for run in regions {
        let latency = spec.model.latency(spec.home, run.region);
        for (local, outcome) in run.report.jobs.iter().enumerate() {
            let original = run.job_ids[local];
            let mut merged = outcome.clone();
            // Restore the submission-time identity of the job; the
            // transfer latency the region run folded into the arrival
            // becomes observable waiting.
            merged.job = trace.jobs()[original];
            merged.waiting += latency;
            merged.completion += latency;
            jobs[original] = Some(merged);
        }
    }
    let jobs: Vec<JobOutcome> = jobs
        .into_iter()
        .map(|o| o.expect("every job is assigned to exactly one region"))
        .collect();

    let mut totals = ClusterTotals {
        carbon_g: 0.0,
        cost_reserved_prepaid: 0.0,
        cost_on_demand: 0.0,
        cost_spot: 0.0,
        total_waiting: Minutes::ZERO,
        total_completion: Minutes::ZERO,
        reserved_cpu_hours: 0.0,
        on_demand_cpu_hours: 0.0,
        spot_cpu_hours: 0.0,
        evictions: 0,
        jobs: 0,
        billing_horizon: Minutes::ZERO,
        reserved_capacity: config.reserved_cpus,
    };
    let mut timeline = AllocationTimeline::default();
    for run in regions {
        let t = &run.report.totals;
        totals.carbon_g += t.carbon_g;
        totals.cost_reserved_prepaid += t.cost_reserved_prepaid;
        totals.cost_on_demand += t.cost_on_demand;
        totals.cost_spot += t.cost_spot;
        totals.reserved_cpu_hours += t.reserved_cpu_hours;
        totals.on_demand_cpu_hours += t.on_demand_cpu_hours;
        totals.spot_cpu_hours += t.spot_cpu_hours;
        totals.evictions += t.evictions;
        totals.jobs += t.jobs;
        totals.billing_horizon = totals.billing_horizon.max(t.billing_horizon);
        extend_lanes(&mut timeline, &run.report.timeline);
    }
    // Waiting/completion sums come from the merged outcomes so the
    // latency charge is included.
    for outcome in &jobs {
        totals.total_waiting += outcome.waiting;
        totals.total_completion += outcome.completion;
    }

    SimReport {
        jobs,
        totals,
        timeline,
        degradation: Default::default(),
        transfer: transfer_stats(trace, spec, placement),
    }
}

/// Element-wise sum of two timelines, padding to the longer horizon.
fn extend_lanes(into: &mut AllocationTimeline, from: &AllocationTimeline) {
    fn add(into: &mut Vec<f64>, from: &[f64]) {
        if into.len() < from.len() {
            into.resize(from.len(), 0.0);
        }
        for (slot, value) in into.iter_mut().zip(from) {
            *slot += value;
        }
    }
    add(&mut into.reserved, &from.reserved);
    add(&mut into.on_demand, &from.on_demand);
    add(&mut into.spot, &from.spot);
}

/// Recomputes the transfer bill of `placement` from first principles.
///
/// Used both to populate [`SimReport::transfer`] and, independently, by
/// [`audit_placed`] to cross-check it.
pub fn transfer_stats(
    trace: &WorkloadTrace,
    spec: &PlacementSpec,
    placement: &Placement,
) -> TransferStats {
    let mut stats = TransferStats::default();
    for (job, &region) in trace.jobs().iter().zip(&placement.regions) {
        if region == spec.home {
            continue;
        }
        let penalty = spec.model.penalty(job, spec.home, region);
        stats.jobs_moved += 1;
        stats.gigabytes += penalty.gigabytes;
        stats.cost += penalty.cost;
        stats.carbon_g += penalty.carbon_g;
        stats.latency_minutes += penalty.latency.as_minutes();
    }
    stats
}

/// Audits a placed run: every per-region report against its own carbon
/// trace (all five invariant families), plus placed-level consistency —
/// the merged [`TransferStats`] must equal their independent
/// recomputation from the assignment, and every job must appear in
/// exactly one region.
///
/// The merged report itself is a cross-region *view* (its prepaid
/// reserved cost counts one pool per active region), so it is checked
/// here rather than fed to [`audit_report`] directly.
pub fn audit_placed(
    placed: &PlacedReport,
    trace: &WorkloadTrace,
    traces: &[(Region, &CarbonTrace)],
    spec: &PlacementSpec,
    config: &ClusterConfig,
) -> AuditReport {
    let mut out = AuditReport::default();
    for run in &placed.regions {
        let regional = audit_report(&run.report, config, trace_for(traces, run.region));
        out.checks_run += regional.checks_run;
        out.violations.extend(regional.violations);
    }

    out.checks_run += 1;
    let expected = transfer_stats(trace, spec, &placed.placement);
    if placed.report.transfer != expected {
        out.violations.push(AuditViolation {
            invariant: AuditInvariant::Accounting,
            job: None,
            detail: format!(
                "merged transfer stats {:?} != recomputed {:?}",
                placed.report.transfer, expected
            ),
        });
    }

    out.checks_run += 1;
    let placed_jobs: usize = placed.regions.iter().map(|r| r.job_ids.len()).sum();
    if placed_jobs != trace.len() || placed.report.jobs.len() != trace.len() {
        out.violations.push(AuditViolation {
            invariant: AuditInvariant::Accounting,
            job: None,
            detail: format!(
                "placed {placed_jobs} jobs across regions, merged {}, trace has {}",
                placed.report.jobs.len(),
                trace.len()
            ),
        });
    }
    out
}

fn trace_for<'t>(traces: &[(Region, &'t CarbonTrace)], region: Region) -> &'t CarbonTrace {
    traces
        .iter()
        .find(|(r, _)| *r == region)
        .unwrap_or_else(|| panic!("no carbon trace supplied for candidate region {region}"))
        .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_spec_report;
    use gaia_carbon::synth::synthesize_region;
    use gaia_core::catalog::BasePolicyKind;
    use gaia_core::placement::TransferModel;
    use gaia_workload::synth::TraceFamily;
    use proptest::prelude::*;

    fn week_trace() -> WorkloadTrace {
        TraceFamily::AlibabaPai.week_long_1k(42)
    }

    /// The per-offset search [`greenest_integral`] replaced: hourly
    /// offsets from zero, then one last candidate at `budget`.
    fn greenest_integral_loop(
        carbon: &CarbonTrace,
        earliest: SimTime,
        length: Minutes,
        budget: Minutes,
    ) -> f64 {
        let mut integral = f64::INFINITY;
        let mut offset = Minutes::ZERO;
        loop {
            let candidate = carbon.window_integral(earliest + offset, length);
            if candidate < integral {
                integral = candidate;
            }
            if offset >= budget {
                break;
            }
            offset = (offset + Minutes::from_hours(1)).min(budget);
        }
        integral
    }

    proptest! {
        /// The scan finds the loop's minimum bit for bit, for budgets of
        /// zero, under an hour, whole hours and not whole hours.
        #[test]
        fn greenest_integral_matches_the_offset_loop(
            hourly in prop::collection::vec(0.0f64..900.0, 1..60),
            earliest in 0u64..20_000,
            length in 0u64..3_000,
            budget in prop_oneof![
                Just(0u64),
                1u64..60,
                (0u64..48).prop_map(|h| h * 60),
                0u64..3_000,
            ],
        ) {
            let carbon = CarbonTrace::from_hourly(hourly).expect("non-negative values");
            let (earliest, length, budget) =
                (SimTime::from_minutes(earliest), Minutes::new(length), Minutes::new(budget));
            prop_assert_eq!(
                greenest_integral(&carbon, earliest, length, budget).to_bits(),
                greenest_integral_loop(&carbon, earliest, length, budget).to_bits()
            );
        }
    }

    /// Placement assigns every job to the same region through the scan
    /// as through the offset loop, over random per-queue waiting
    /// budgets, most of them not whole hours.
    #[test]
    fn assignments_match_the_offset_loop_over_random_budgets() {
        let trace = week_trace();
        let traces: Vec<_> = [Region::SouthAustralia, Region::California, Region::Ontario]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(Region::California).with_candidates(&[
            Region::California,
            Region::SouthAustralia,
            Region::Ontario,
        ]);
        let config = ClusterConfig::default();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1 + (state >> 33) % bound
        };
        let mut budgets = vec![(1, 1), (59, 61), (60, 720), (90, 725)];
        budgets.extend((0..6).map(|_| (draw(6 * 60), draw(36 * 60))));
        for (short, long) in budgets {
            let queues = default_queues(&trace).with_waits(Minutes::new(short), Minutes::new(long));
            let scanned = assign_regions(&trace, &refs, &spec, &queues, &config, greenest_integral);
            let looped = assign_regions(
                &trace,
                &refs,
                &spec,
                &queues,
                &config,
                greenest_integral_loop,
            );
            assert_eq!(scanned, looped, "budgets short={short} long={long}");
            assert!(scanned.iter().any(|&r| r != Region::California));
        }
    }

    #[test]
    fn single_region_placement_is_byte_identical_to_a_plain_run() {
        let trace = week_trace();
        let config = ClusterConfig::default().with_reserved(9);
        for kind in [BasePolicyKind::CarbonTime, BasePolicyKind::NoWait] {
            let spec = PolicySpec::plain(kind);
            for region in [Region::California, Region::SouthAustralia] {
                let carbon = synthesize_region(region, 42);
                let plain = run_spec_report(spec, &trace, &carbon, config);
                let placed = run_placed(
                    spec,
                    &trace,
                    &[(region, &carbon)],
                    &PlacementSpec::single(region),
                    config,
                );
                assert_eq!(placed.placement.moved(), 0);
                assert!(placed.report.transfer.is_zero());
                assert_eq!(
                    placed.report, plain,
                    "single-region placed run must equal the plain run exactly"
                );
            }
        }
    }

    #[test]
    fn federated_placement_covers_every_job_exactly_once() {
        let trace = week_trace();
        let traces: Vec<_> = [Region::SouthAustralia, Region::California, Region::Ontario]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(Region::California).with_candidates(&[
            Region::California,
            Region::SouthAustralia,
            Region::Ontario,
        ]);
        let config = ClusterConfig::default().with_reserved(9);
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            &refs,
            &spec,
            config,
        );
        assert_eq!(placed.report.jobs.len(), trace.len());
        for (i, outcome) in placed.report.jobs.iter().enumerate() {
            assert_eq!(outcome.job.id.0 as usize, i);
            assert_eq!(outcome.job.arrival, trace.jobs()[i].arrival);
            assert_eq!(
                outcome.completion,
                outcome.waiting + outcome.job.length,
                "the paper's timing identity survives the latency charge"
            );
        }
        let audit = audit_placed(&placed, &trace, &refs, &spec, &config);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.checks_run > 2);
    }

    #[test]
    fn moves_happen_only_when_they_pay_and_are_billed() {
        let trace = week_trace();
        let home = Region::Kentucky; // coal-heavy: moves should pay off
        let traces: Vec<_> = [home, Region::Sweden]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(home).with_candidates(&[home, Region::Sweden]);
        let config = ClusterConfig::default().with_reserved(9);
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            &refs,
            &spec,
            config,
        );
        assert!(
            placed.placement.moved() > 0,
            "hydro-rich Sweden should attract jobs away from Kentucky"
        );
        let stats = &placed.report.transfer;
        assert_eq!(stats.jobs_moved as usize, placed.placement.moved());
        assert!(stats.gigabytes > 0.0 && stats.cost > 0.0 && stats.carbon_g > 0.0);
        let plain = run_spec_report(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            refs[0].1,
            config,
        );
        assert!(
            placed.report.totals.carbon_g + stats.carbon_g < plain.totals.carbon_g,
            "placement must cut carbon even after paying for the network"
        );
    }

    #[test]
    fn audit_catches_tampered_transfer_stats() {
        let trace = week_trace();
        let traces: Vec<_> = [Region::California, Region::Sweden]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(Region::California)
            .with_candidates(&[Region::California, Region::Sweden]);
        let config = ClusterConfig::default();
        let mut placed = run_placed(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &refs,
            &spec,
            config,
        );
        placed.report.transfer.cost += 1.0;
        let audit = audit_placed(&placed, &trace, &refs, &spec, &config);
        assert!(!audit.is_clean(), "tampered transfer stats must be caught");
    }

    /// A model under which moving a job costs nothing.
    fn free_model() -> TransferModel {
        TransferModel {
            gb_per_cpu: 0.0,
            cost_per_gb: 0.0,
            carbon_g_per_gb: 0.0,
            minutes_per_1000km: 0.0,
        }
    }

    #[test]
    #[should_panic(expected = "no carbon trace supplied for candidate region")]
    fn a_candidate_without_a_trace_panics() {
        let trace = week_trace();
        let carbon = synthesize_region(Region::California, 42);
        let spec = PlacementSpec::federated(Region::California)
            .with_candidates(&[Region::California, Region::Sweden]);
        run_placed(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &[(Region::California, &carbon)],
            &spec,
            ClusterConfig::default(),
        );
    }

    #[test]
    fn identical_traces_keep_every_job_home() {
        let trace = week_trace();
        let carbon = synthesize_region(Region::Ontario, 42);
        let refs = [(Region::Ontario, &carbon), (Region::Sweden, &carbon)];
        // Even with free moves, a tie keeps the earlier candidate, and
        // home comes first; a region that gets no jobs is not run.
        let spec = PlacementSpec::federated(Region::Ontario)
            .with_candidates(&[Region::Ontario, Region::Sweden])
            .with_model(free_model());
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            &refs,
            &spec,
            ClusterConfig::default(),
        );
        assert_eq!(placed.placement.moved(), 0);
        assert_eq!(placed.regions.len(), 1);
        assert_eq!(placed.regions[0].region, Region::Ontario);
        assert!(placed.report.transfer.is_zero());
    }

    #[test]
    fn merged_totals_are_the_sum_of_the_region_totals() {
        let trace = week_trace();
        // Out-of-phase solar valleys split the workload between regions.
        let south = synthesize_region(Region::SouthAustralia, 42);
        let west = synthesize_region(Region::California, 42).rotate(18);
        let refs = [
            (Region::SouthAustralia, &south),
            (Region::California, &west),
        ];
        let spec = PlacementSpec::federated(Region::SouthAustralia)
            .with_candidates(&[Region::SouthAustralia, Region::California])
            .with_model(free_model());
        let config = ClusterConfig::default().with_reserved(6);
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::CarbonTime),
            &trace,
            &refs,
            &spec,
            config,
        );
        assert!(placed.regions.len() > 1, "the test needs a split workload");
        let t = &placed.report.totals;
        let sum = |f: fn(&ClusterTotals) -> f64| -> f64 {
            placed.regions.iter().map(|r| f(&r.report.totals)).sum()
        };
        assert_eq!(t.carbon_g, sum(|t| t.carbon_g));
        assert_eq!(t.cost_reserved_prepaid, sum(|t| t.cost_reserved_prepaid));
        assert_eq!(t.cost_on_demand, sum(|t| t.cost_on_demand));
        assert_eq!(t.reserved_cpu_hours, sum(|t| t.reserved_cpu_hours));
        assert_eq!(t.jobs, trace.len());
        let horizon = placed
            .regions
            .iter()
            .map(|r| r.report.totals.billing_horizon)
            .max()
            .unwrap();
        assert_eq!(t.billing_horizon, horizon);
        let merged_hours = placed.report.timeline.hours();
        for h in 0..merged_hours {
            let parts: f64 = placed
                .regions
                .iter()
                .map(|r| r.report.timeline.total_at(h))
                .sum();
            assert!((placed.report.timeline.total_at(h) - parts).abs() < 1e-9);
        }
    }

    #[test]
    fn moved_jobs_wait_for_their_data() {
        let trace = week_trace();
        let home = Region::Kentucky;
        let traces: Vec<_> = [home, Region::Sweden]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(home).with_candidates(&[home, Region::Sweden]);
        let placed = run_placed(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &refs,
            &spec,
            ClusterConfig::default(),
        );
        let latency = spec.model.latency(home, Region::Sweden);
        assert!(latency > Minutes::ZERO);
        assert!(placed.placement.moved() > 0);
        for run in &placed.regions {
            let charge = if run.region == home {
                Minutes::ZERO
            } else {
                latency
            };
            for (local, outcome) in run.report.jobs.iter().enumerate() {
                let original = run.job_ids[local];
                let merged = &placed.report.jobs[original];
                assert_eq!(outcome.job.arrival, trace.jobs()[original].arrival + charge);
                assert_eq!(merged.waiting, outcome.waiting + charge);
                assert_eq!(merged.completion, outcome.completion + charge);
            }
        }
        assert_eq!(
            placed.report.transfer.latency_minutes,
            latency.as_minutes() * placed.placement.moved() as u64
        );
    }

    #[test]
    fn free_moves_are_counted_but_not_billed() {
        let trace = week_trace();
        let placement = Placement {
            regions: trace
                .jobs()
                .iter()
                .map(|j| {
                    if j.id.0 % 3 == 0 {
                        Region::Sweden
                    } else {
                        Region::Ontario
                    }
                })
                .collect(),
            home: Region::Ontario,
        };
        let free = PlacementSpec::federated(Region::Ontario).with_model(free_model());
        let stats = transfer_stats(&trace, &free, &placement);
        assert_eq!(stats.jobs_moved as usize, placement.moved());
        assert_eq!(
            (
                stats.gigabytes,
                stats.cost,
                stats.carbon_g,
                stats.latency_minutes
            ),
            (0.0, 0.0, 0.0, 0)
        );
        let billed = transfer_stats(
            &trace,
            &PlacementSpec::federated(Region::Ontario),
            &placement,
        );
        assert_eq!(billed.jobs_moved, stats.jobs_moved);
        assert!(billed.gigabytes > 0.0 && billed.latency_minutes > 0);
    }

    #[test]
    fn audit_catches_a_job_dropped_from_its_region() {
        let trace = week_trace();
        let traces: Vec<_> = [Region::California, Region::Sweden]
            .into_iter()
            .map(|r| (r, synthesize_region(r, 42)))
            .collect();
        let refs: Vec<_> = traces.iter().map(|(r, t)| (*r, t)).collect();
        let spec = PlacementSpec::federated(Region::California)
            .with_candidates(&[Region::California, Region::Sweden]);
        let config = ClusterConfig::default();
        let mut placed = run_placed(
            PolicySpec::plain(BasePolicyKind::NoWait),
            &trace,
            &refs,
            &spec,
            config,
        );
        placed.regions[0].job_ids.pop();
        let audit = audit_placed(&placed, &trace, &refs, &spec, &config);
        assert!(
            audit
                .violations
                .iter()
                .any(|v| v.detail.starts_with("placed ") && v.detail.contains("trace has")),
            "{:?}",
            audit.violations
        );
    }

    #[test]
    fn extend_lanes_pads_to_the_longer_timeline() {
        let mut into = AllocationTimeline {
            reserved: vec![1.0],
            on_demand: vec![0.5],
            spot: vec![0.0],
        };
        let from = AllocationTimeline {
            reserved: vec![2.0, 3.0],
            on_demand: vec![0.0, 1.0],
            spot: vec![0.25, 0.0],
        };
        extend_lanes(&mut into, &from);
        assert_eq!(into.reserved, vec![3.0, 3.0]);
        assert_eq!(into.on_demand, vec![0.5, 1.0]);
        assert_eq!(into.spot, vec![0.25, 0.0]);
        // A shorter timeline adds into the prefix and leaves the rest.
        extend_lanes(&mut into, &AllocationTimeline::default());
        assert_eq!(into.hours(), 2);
    }

    #[test]
    fn greenest_integral_without_a_budget_is_the_arrival_window() {
        let carbon = CarbonTrace::from_hourly(vec![500.0, 100.0, 100.0, 900.0]).unwrap();
        let at = SimTime::from_minutes(30);
        let len = Minutes::from_hours(1);
        assert_eq!(
            greenest_integral(&carbon, at, len, Minutes::ZERO),
            carbon.window_integral(at, len)
        );
        // Half an hour of budget reaches the all-100 window at 60 min,
        // which is not on the hourly grid from `at`.
        assert_eq!(
            greenest_integral(&carbon, at, len, Minutes::new(30)),
            carbon.window_integral(SimTime::from_minutes(60), len)
        );
    }

    #[test]
    fn traces_for_non_candidates_are_ignored() {
        let trace = week_trace();
        let home = synthesize_region(Region::California, 42);
        let other = synthesize_region(Region::SouthAustralia, 42);
        let spec = PolicySpec::plain(BasePolicyKind::CarbonTime);
        let config = ClusterConfig::default();
        let placed = run_placed(
            spec,
            &trace,
            &[
                (Region::SouthAustralia, &other),
                (Region::California, &home),
            ],
            &PlacementSpec::single(Region::California),
            config,
        );
        assert_eq!(placed.regions.len(), 1);
        assert_eq!(placed.regions[0].region, Region::California);
        assert_eq!(
            placed.report,
            run_spec_report(spec, &trace, &home, config),
            "the extra South Australia trace must not be read"
        );
    }
}
