//! Post-run invariant audit (the correctness analogue of a sanitizer).
//!
//! [`audit_report`] replays the accounting identities the rest of the
//! stack silently relies on — segment coverage, capacity occupancy,
//! carbon/cost folds, work conservation, and timing consistency — against
//! a completed [`SimReport`] and reports every violation it finds.
//!
//! Design rule: **the audit must never false-positive.** Every check is
//! either valid for all configurations or explicitly gated on the
//! configuration features (instance overheads, checkpointing, capacity
//! caps) that relax it; where event ordering at a shared instant is
//! ambiguous from the segment records alone, the check takes the lenient
//! reading. A reported violation therefore always indicates a real bug in
//! the engine or a policy, never an artifact of the audit itself.

use gaia_carbon::CarbonTrace;
use gaia_fault::FaultSchedule;
use gaia_time::SimTime;
use gaia_workload::JobId;

use crate::account::{segment_carbon, segment_cost, ClusterTotals};
use crate::config::{CapacityCap, ClusterConfig};
use crate::plan::PurchaseOption;
use crate::report::SimReport;

/// The invariant families the audit enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AuditInvariant {
    /// Each job's useful segments cover exactly its length, without
    /// overlap.
    SegmentCoverage,
    /// Reserved / elastic occupancy never exceeds configured capacity.
    Occupancy,
    /// Per-job and cluster totals equal the fold of their segments.
    Accounting,
    /// No job runs on-demand while reserved capacity sits idle.
    WorkConservation,
    /// Waiting / completion / segment times are consistent.
    Timing,
    /// Degradation stats in the report are consistent with the fault
    /// schedule the run was given (and identically zero without one).
    Degradation,
}

impl AuditInvariant {
    /// Stable lowercase name, used in reports and manifests.
    pub fn name(&self) -> &'static str {
        match self {
            AuditInvariant::SegmentCoverage => "segment-coverage",
            AuditInvariant::Occupancy => "occupancy",
            AuditInvariant::Accounting => "accounting",
            AuditInvariant::WorkConservation => "work-conservation",
            AuditInvariant::Timing => "timing",
            AuditInvariant::Degradation => "degradation",
        }
    }
}

impl std::fmt::Display for AuditInvariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken invariant, localized to a job where possible.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditViolation {
    /// Which invariant family was broken.
    pub invariant: AuditInvariant,
    /// The job involved, if the violation is job-local.
    pub job: Option<JobId>,
    /// Human-readable description with the offending numbers.
    pub detail: String,
}

impl std::fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.job {
            Some(job) => write!(f, "[{}] {job}: {}", self.invariant, self.detail),
            None => write!(f, "[{}] {}", self.invariant, self.detail),
        }
    }
}

/// Outcome of auditing one completed run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AuditReport {
    /// Every invariant violation found, in deterministic order.
    pub violations: Vec<AuditViolation>,
    /// Number of elementary checks evaluated (for "audited N things"
    /// reporting; zero checks would itself be suspicious).
    pub checks_run: usize,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Absolute-plus-tiny-relative tolerance for accounting comparisons.
/// Recomputed folds repeat the engine's own operation order, so equality
/// is near-bitwise; 1e-6 absolute is the contract, the relative term
/// guards year-scale magnitudes.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 + 1e-9 * b.abs()
}

/// The reserved pool's occupancy, built once per audit by sorting the
/// reserved segment endpoints and shared by the occupancy and
/// work-conservation families.
///
/// A segment counts over its closed span `[start, end]`, so at instant
/// `t` the busy CPUs are `Σ{start ≤ t} − Σ{end < t}`, and on the open
/// interval after `t` they are `Σ{start ≤ t} − Σ{end ≤ t}`. Inverted
/// segments (`end < start`) cover no instant under that reading and are
/// left out; the timing family reports them.
struct ReservedTimeline {
    /// `(start, Σ cpus of this and every earlier entry)`, by start.
    starts: Vec<(SimTime, u64)>,
    /// `(end, Σ cpus of this and every earlier entry)`, by end.
    ends: Vec<(SimTime, u64)>,
}

impl ReservedTimeline {
    fn new(report: &SimReport) -> Self {
        let mut starts = Vec::new();
        let mut ends = Vec::new();
        for outcome in &report.jobs {
            for segment in &outcome.segments {
                if segment.option == PurchaseOption::Reserved && segment.start <= segment.end {
                    let cpus = segment.cpus_used(outcome.job.cpus) as u64;
                    starts.push((segment.start, cpus));
                    ends.push((segment.end, cpus));
                }
            }
        }
        for endpoints in [&mut starts, &mut ends] {
            endpoints.sort_unstable_by_key(|&(t, _)| t);
            let mut sum = 0;
            for (_, cpus) in endpoints.iter_mut() {
                sum += *cpus;
                *cpus = sum;
            }
        }
        ReservedTimeline { starts, ends }
    }

    /// Σ cpus over the first `n` entries of `endpoints`.
    fn sum(endpoints: &[(SimTime, u64)], n: usize) -> u64 {
        n.checked_sub(1).map_or(0, |last| endpoints[last].1)
    }

    /// Reserved CPUs busy at instant `t` under the closed reading.
    fn busy_at(&self, t: SimTime) -> u64 {
        let started = self.starts.partition_point(|&(start, _)| start <= t);
        let ended = self.ends.partition_point(|&(end, _)| end < t);
        Self::sum(&self.starts, started) - Self::sum(&self.ends, ended)
    }

    /// `(t, CPUs busy on the open interval after t)` for every distinct
    /// endpoint `t`, ascending: a merge walk over both lists.
    fn busy_after_each(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        let (mut started, mut ended) = (0, 0);
        std::iter::from_fn(move || {
            let t = [self.starts.get(started), self.ends.get(ended)]
                .into_iter()
                .flatten()
                .map(|&(t, _)| t)
                .min()?;
            while self
                .starts
                .get(started)
                .is_some_and(|&(start, _)| start == t)
            {
                started += 1;
            }
            while self.ends.get(ended).is_some_and(|&(end, _)| end == t) {
                ended += 1;
            }
            Some((
                t,
                Self::sum(&self.starts, started) - Self::sum(&self.ends, ended),
            ))
        })
    }
}

struct Auditor<'a> {
    report: &'a SimReport,
    config: &'a ClusterConfig,
    carbon: &'a CarbonTrace,
    faults: Option<&'a FaultSchedule>,
    out: AuditReport,
}

/// Audits a completed run against `config` and the true carbon trace.
///
/// Checks (gating noted; defaults — no overheads, no checkpointing — run
/// everything):
///
/// 1. **Segment coverage** — useful segments sum to exactly the job
///    length and never overlap (strict form requires no instance
///    overheads and no checkpointing, which legitimately stretch or
///    re-credit segments; otherwise executed time must still be at least
///    the length).
/// 2. **Occupancy** — reserved occupancy never exceeds
///    `config.reserved_cpus` (always valid: reserved instances have no
///    boot/teardown), and elastic occupancy respects a
///    [`CapacityCap::Static`] cap except for the documented single
///    wider-than-cap job escape.
/// 3. **Accounting** — per-job carbon/cost equal the fold of their
///    segments through the same `account` integrals the engine uses, and
///    [`ClusterTotals`] equals the re-aggregated outcomes, all within
///    1e-6.
/// 4. **Work conservation** — every on-demand segment starts at an
///    instant when the `config.reserved_cpus` pool was exhausted (the
///    engine always tries reserved first).
/// 5. **Timing** — completion = finish − arrival, completion = waiting +
///    length, completion ≥ length, and every segment is well-formed and
///    starts at or after arrival.
pub fn audit_report(
    report: &SimReport,
    config: &ClusterConfig,
    carbon: &CarbonTrace,
) -> AuditReport {
    audit_report_faulted(report, config, carbon, None)
}

/// [`audit_report`] for a run that (possibly) executed under a fault
/// schedule.
///
/// All five base families apply unchanged — fault effects are designed to
/// never corrupt the accounting identities (price spikes surcharge
/// separately, trace gaps bridge only the policy-visible trace, storms
/// and capacity clamps only reshape legal schedules). A sixth family,
/// [`AuditInvariant::Degradation`], additionally checks that the report's
/// [`DegradationStats`] are consistent with `faults`: zero without a
/// schedule, gap hours matching the schedule, the price surcharge equal
/// to its per-segment recomputation, and no counter touched by a fault
/// kind the schedule does not contain.
///
/// [`DegradationStats`]: crate::DegradationStats
pub fn audit_report_faulted(
    report: &SimReport,
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    faults: Option<&FaultSchedule>,
) -> AuditReport {
    let mut auditor = Auditor {
        report,
        config,
        carbon,
        faults: faults.filter(|f| !f.is_empty()),
        out: AuditReport::default(),
    };
    auditor.check_segment_coverage();
    let reserved = ReservedTimeline::new(report);
    auditor.check_occupancy(&reserved);
    auditor.check_accounting();
    auditor.check_work_conservation(&reserved);
    auditor.check_timing();
    auditor.check_degradation();
    auditor.out
}

impl Auditor<'_> {
    fn violation(&mut self, invariant: AuditInvariant, job: Option<JobId>, detail: String) {
        self.out.violations.push(AuditViolation {
            invariant,
            job,
            detail,
        });
    }

    fn tally(&mut self) {
        self.out.checks_run += 1;
    }

    /// Strict per-job segment accounting only holds in the paper's
    /// default mode: boot/teardown stretch segments past the useful work,
    /// and checkpointing re-credits partially-lost segments as useful.
    fn strict_segments(&self) -> bool {
        self.config.overheads.is_none() && self.config.checkpoint.is_none()
    }

    fn check_segment_coverage(&mut self) {
        let strict = self.strict_segments();
        for outcome in &self.report.jobs {
            self.tally();
            // Elastic jobs are covered by *work*, not wall time: each
            // slice completes `work_milli` milli-minutes of serial work,
            // and the plan contract is that the useful total reaches the
            // job's serial length.
            if outcome.is_elastic() {
                let work = outcome.useful_work_milli();
                let needed = outcome.job.length.as_minutes() * 1000;
                if work < needed {
                    self.violation(
                        AuditInvariant::SegmentCoverage,
                        Some(outcome.job.id),
                        format!("useful elastic work {work} milli-minutes, job needs {needed}"),
                    );
                }
                let mut spans: Vec<(SimTime, SimTime)> =
                    outcome.segments.iter().map(|s| (s.start, s.end)).collect();
                spans.sort();
                for pair in spans.windows(2) {
                    if pair[1].0 < pair[0].1 {
                        self.violation(
                            AuditInvariant::SegmentCoverage,
                            Some(outcome.job.id),
                            format!(
                                "segment starting {} overlaps segment ending {}",
                                pair[1].0, pair[0].1
                            ),
                        );
                    }
                }
            } else if strict {
                let useful: gaia_time::Minutes = outcome
                    .segments
                    .iter()
                    .filter(|s| s.useful)
                    .map(|s| s.len())
                    .sum();
                if useful != outcome.job.length {
                    self.violation(
                        AuditInvariant::SegmentCoverage,
                        Some(outcome.job.id),
                        format!(
                            "useful segments cover {useful}, job length is {}",
                            outcome.job.length
                        ),
                    );
                }
                let mut spans: Vec<(SimTime, SimTime)> =
                    outcome.segments.iter().map(|s| (s.start, s.end)).collect();
                spans.sort();
                for pair in spans.windows(2) {
                    if pair[1].0 < pair[0].1 {
                        self.violation(
                            AuditInvariant::SegmentCoverage,
                            Some(outcome.job.id),
                            format!(
                                "segment starting {} overlaps segment ending {}",
                                pair[1].0, pair[0].1
                            ),
                        );
                    }
                }
            } else if outcome.executed() < outcome.job.length {
                self.violation(
                    AuditInvariant::SegmentCoverage,
                    Some(outcome.job.id),
                    format!(
                        "executed {} in total, less than the job length {}",
                        outcome.executed(),
                        outcome.job.length
                    ),
                );
            }
        }
    }

    /// Sweeps segment boundaries and checks occupancy on every open
    /// interval between events. Interval occupancy is exact (no same-
    /// instant ordering ambiguity), so this cannot false-positive; it
    /// checks the sustained occupancy the capacity contract is about.
    fn check_occupancy(&mut self, reserved: &ReservedTimeline) {
        self.tally();
        self.sweep_reserved(reserved);
        if self.config.overheads.is_none() {
            if let CapacityCap::Static(cap) = self.config.capacity_cap {
                self.tally();
                self.sweep_elastic(cap);
            }
        }
    }

    fn sweep_reserved(&mut self, reserved: &ReservedTimeline) {
        let capacity = self.config.reserved_cpus as u64;
        for (t, busy) in reserved.busy_after_each() {
            if busy > capacity {
                self.violation(
                    AuditInvariant::Occupancy,
                    None,
                    format!("{busy} reserved CPUs busy after {t}, capacity is {capacity}"),
                );
            }
        }
    }

    fn sweep_elastic(&mut self, cap: u32) {
        // (time, is_start, job index, cpus) — ends sort before starts
        // at ties. Elastic slices occupy `width × cpus`, so the CPU
        // count travels with the event instead of being a per-job fact.
        let mut events: Vec<(SimTime, bool, usize, u32)> = Vec::new();
        for (idx, outcome) in self.report.jobs.iter().enumerate() {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::Reserved {
                    let cpus = segment.cpus_used(outcome.job.cpus);
                    events.push((segment.start, true, idx, cpus));
                    events.push((segment.end, false, idx, cpus));
                }
            }
        }
        events.sort_by_key(|&(t, is_start, idx, cpus)| (t, is_start, idx, cpus));
        let mut active: std::collections::BTreeMap<usize, u32> = std::collections::BTreeMap::new();
        let mut busy = 0u64;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                let (_, is_start, idx, cpus) = events[i];
                if is_start {
                    *active.entry(idx).or_insert(0) += 1;
                    busy += cpus as u64;
                } else {
                    let count = active.get_mut(&idx).expect("balanced segment events");
                    *count -= 1;
                    if *count == 0 {
                        active.remove(&idx);
                    }
                    busy -= cpus as u64;
                }
                i += 1;
            }
            // One job wider than the cap may run alone (the documented
            // anti-deadlock escape); anything else must fit the cap.
            if busy > cap as u64 && active.len() > 1 {
                self.violation(
                    AuditInvariant::Occupancy,
                    None,
                    format!(
                        "{busy} elastic CPUs busy across {} jobs after {t}, cap is {cap}",
                        active.len()
                    ),
                );
            }
        }
    }

    fn check_accounting(&mut self) {
        for outcome in &self.report.jobs {
            self.tally();
            let carbon: f64 = outcome
                .segments
                .iter()
                .map(|s| {
                    segment_carbon(
                        self.carbon,
                        &self.config.energy,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    )
                })
                .sum();
            if !close(outcome.carbon_g, carbon) {
                self.violation(
                    AuditInvariant::Accounting,
                    Some(outcome.job.id),
                    format!(
                        "carbon {} g differs from segment fold {carbon} g",
                        outcome.carbon_g
                    ),
                );
            }
            let cost: f64 = outcome
                .segments
                .iter()
                .map(|s| {
                    segment_cost(
                        &self.config.pricing,
                        s.option,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    )
                })
                .sum();
            if !close(outcome.cost, cost) {
                self.violation(
                    AuditInvariant::Accounting,
                    Some(outcome.job.id),
                    format!("cost ${} differs from segment fold ${cost}", outcome.cost),
                );
            }
        }
        self.tally();
        let totals = &self.report.totals;
        let expected =
            ClusterTotals::aggregate(&self.report.jobs, self.config, totals.billing_horizon);
        let fields = [
            ("carbon_g", totals.carbon_g, expected.carbon_g),
            (
                "cost_reserved_prepaid",
                totals.cost_reserved_prepaid,
                expected.cost_reserved_prepaid,
            ),
            (
                "cost_on_demand",
                totals.cost_on_demand,
                expected.cost_on_demand,
            ),
            ("cost_spot", totals.cost_spot, expected.cost_spot),
            (
                "reserved_cpu_hours",
                totals.reserved_cpu_hours,
                expected.reserved_cpu_hours,
            ),
            (
                "on_demand_cpu_hours",
                totals.on_demand_cpu_hours,
                expected.on_demand_cpu_hours,
            ),
            (
                "spot_cpu_hours",
                totals.spot_cpu_hours,
                expected.spot_cpu_hours,
            ),
        ];
        for (name, actual, recomputed) in fields {
            if !close(actual, recomputed) {
                self.violation(
                    AuditInvariant::Accounting,
                    None,
                    format!("totals.{name} = {actual} but re-aggregation gives {recomputed}"),
                );
            }
        }
        if totals.total_waiting != expected.total_waiting
            || totals.total_completion != expected.total_completion
            || totals.evictions != expected.evictions
            || totals.jobs != expected.jobs
            || totals.reserved_capacity != expected.reserved_capacity
        {
            self.violation(
                AuditInvariant::Accounting,
                None,
                format!(
                    "totals counters (waiting {}, completion {}, evictions {}, jobs {}, \
                     reserved capacity {}) differ from re-aggregation (waiting {}, \
                     completion {}, evictions {}, jobs {}, reserved capacity {})",
                    totals.total_waiting,
                    totals.total_completion,
                    totals.evictions,
                    totals.jobs,
                    totals.reserved_capacity,
                    expected.total_waiting,
                    expected.total_completion,
                    expected.evictions,
                    expected.jobs,
                    expected.reserved_capacity
                ),
            );
        }
    }

    /// The engine always offers reserved capacity first, so an on-demand
    /// segment can only start when the reserved pool cannot hold the job.
    /// Occupancy at the start instant is read with closed ends (a
    /// reserved segment ending exactly then still counts as busy): the
    /// engine may legitimately start blocked work midway through a batch
    /// of same-instant releases, and the lenient reading keeps those
    /// legal interleavings out of the violation list.
    fn check_work_conservation(&mut self, reserved: &ReservedTimeline) {
        let capacity = self.config.reserved_cpus as u64;
        for outcome in &self.report.jobs {
            for segment in &outcome.segments {
                if segment.option != PurchaseOption::OnDemand {
                    continue;
                }
                self.tally();
                let t = segment.start;
                let busy = reserved.busy_at(t);
                if busy + segment.cpus_used(outcome.job.cpus) as u64 <= capacity {
                    self.violation(
                        AuditInvariant::WorkConservation,
                        Some(outcome.job.id),
                        format!(
                            "started on-demand at {t} although only {busy}/{capacity} \
                             reserved CPUs were busy"
                        ),
                    );
                }
            }
        }
    }

    /// Degradation stats must be zero without a fault schedule, and
    /// consistent with the schedule when one was injected. Counter checks
    /// are one-sided (a fault kind absent from the schedule cannot have
    /// left a mark); the price surcharge is recomputed exactly from the
    /// segments, so it is checked both ways.
    fn check_degradation(&mut self) {
        self.tally();
        let stats = &self.report.degradation;
        let Some(faults) = self.faults else {
            if !stats.is_clean() {
                self.violation(
                    AuditInvariant::Degradation,
                    None,
                    format!("degradation stats {stats:?} are nonzero without a fault schedule"),
                );
            }
            return;
        };
        if stats.bridged_gap_hours != faults.total_gap_hours() {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "bridged_gap_hours = {} but the schedule's gap union covers {} hours",
                    stats.bridged_gap_hours,
                    faults.total_gap_hours()
                ),
            );
        }
        let mut gated = vec![];
        if !faults.has_storms() && stats.storm_evictions != 0 {
            gated.push(("storm_evictions", stats.storm_evictions));
        }
        if !faults.has_outages() && stats.degraded_decisions != 0 {
            gated.push(("degraded_decisions", stats.degraded_decisions));
        }
        if !faults.has_capacity_drops() && stats.capacity_denials != 0 {
            gated.push(("capacity_denials", stats.capacity_denials));
        }
        for (name, value) in gated {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!("{name} = {value} but the schedule contains no such fault"),
            );
        }
        if stats.storm_evictions > self.report.totals.evictions {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "storm_evictions = {} exceeds total evictions {}",
                    stats.storm_evictions, self.report.totals.evictions
                ),
            );
        }
        self.tally();
        let surcharge: f64 = self
            .report
            .jobs
            .iter()
            .flat_map(|outcome| outcome.segments.iter().map(move |s| (outcome, s)))
            .map(|(outcome, s)| {
                let multiplier = faults.price_multiplier_at(s.start);
                if multiplier > 1.0 {
                    segment_cost(
                        &self.config.pricing,
                        s.option,
                        s.cpus_used(outcome.job.cpus),
                        s.start,
                        s.end,
                    ) * (multiplier - 1.0)
                } else {
                    0.0
                }
            })
            .sum();
        if !close(stats.price_surcharge, surcharge) {
            self.violation(
                AuditInvariant::Degradation,
                None,
                format!(
                    "price_surcharge = ${} but the per-segment recomputation gives ${surcharge}",
                    stats.price_surcharge
                ),
            );
        }
    }

    fn check_timing(&mut self) {
        let strict = self.strict_segments();
        for outcome in &self.report.jobs {
            self.tally();
            let job = &outcome.job;
            let completion = outcome.finish.saturating_since(job.arrival);
            if outcome.completion != completion {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "completion {} but finish - arrival is {completion}",
                        outcome.completion
                    ),
                );
            }
            if outcome.is_elastic() {
                // An elastic job finishes its serial work in less wall
                // time than `length`, so the plain identities above do
                // not apply. Instead: waiting is completion minus the
                // useful execution wall (exact in the paper's default
                // mode; boot/teardown make it approximate otherwise).
                if strict {
                    let exec: gaia_time::Minutes = outcome
                        .segments
                        .iter()
                        .filter(|s| s.useful)
                        .map(|s| s.len())
                        .sum();
                    let expected = outcome.completion.saturating_sub(exec);
                    if outcome.waiting != expected {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "elastic waiting {} but completion {} - useful \
                                 execution {exec} gives {expected}",
                                outcome.waiting, outcome.completion
                            ),
                        );
                    }
                }
            } else {
                if outcome.completion < job.length {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "completion {} is shorter than the job length {}",
                            outcome.completion, job.length
                        ),
                    );
                }
                if outcome.waiting + job.length != outcome.completion {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "waiting {} + length {} != completion {}",
                            outcome.waiting, job.length, outcome.completion
                        ),
                    );
                }
            }
            if outcome.first_start < job.arrival {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "first start {} precedes arrival {}",
                        outcome.first_start, job.arrival
                    ),
                );
            }
            if outcome.finish < outcome.first_start {
                self.violation(
                    AuditInvariant::Timing,
                    Some(job.id),
                    format!(
                        "finish {} precedes first start {}",
                        outcome.finish, outcome.first_start
                    ),
                );
            }
            // The scalar timing columns (`first_start`, `finish`,
            // `waiting`) and the segment records live in different parts
            // of the engine state; corruption that shifts both scalars
            // consistently (the failure the old `saturating_sub` clamp
            // used to swallow) passes every check above. Tie the columns
            // to the segment ground truth. Outside the paper's default
            // mode boot/teardown stretch segments past the useful span,
            // so the exact-equality form only holds in strict mode.
            if strict {
                if let Some(earliest) = outcome.segments.iter().map(|s| s.start).min() {
                    if earliest != outcome.first_start {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "first start {} but the earliest segment starts {earliest}",
                                outcome.first_start
                            ),
                        );
                    }
                }
                if let Some(latest) = outcome.segments.iter().map(|s| s.end).max() {
                    if latest != outcome.finish {
                        self.violation(
                            AuditInvariant::Timing,
                            Some(job.id),
                            format!(
                                "finish {} but the last segment ends {latest}",
                                outcome.finish
                            ),
                        );
                    }
                }
            }
            for segment in &outcome.segments {
                if segment.is_empty() {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "empty segment [{}, {}] recorded",
                            segment.start, segment.end
                        ),
                    );
                }
                if segment.start < job.arrival {
                    self.violation(
                        AuditInvariant::Timing,
                        Some(job.id),
                        format!(
                            "segment starts {} before arrival {}",
                            segment.start, job.arrival
                        ),
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::SegmentRecord;
    use crate::config::ClusterConfig;
    use crate::Simulation;
    use gaia_time::Minutes;
    use gaia_workload::{Job, WorkloadTrace};

    fn trace() -> CarbonTrace {
        CarbonTrace::from_hourly((0..48).map(|h| 100.0 + h as f64).collect()).expect("valid")
    }

    fn run_default() -> (SimReport, ClusterConfig, CarbonTrace) {
        let carbon = trace();
        let config = ClusterConfig::default()
            .with_reserved(2)
            .with_billing_horizon(Minutes::from_days(2));
        let jobs = WorkloadTrace::from_jobs(vec![
            Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(2), 2),
            Job::new(JobId(1), SimTime::from_hours(1), Minutes::from_hours(3), 1),
            Job::new(JobId(2), SimTime::from_hours(1), Minutes::new(30), 1),
        ]);
        struct Asap;
        impl crate::Scheduler for Asap {
            fn on_arrival(
                &mut self,
                job: &Job,
                _ctx: &crate::SchedulerContext<'_>,
            ) -> crate::Decision {
                crate::Decision::run_at(job.arrival)
            }
        }
        let report = Simulation::new(config, &carbon)
            .runner(&jobs, &mut Asap)
            .execute()
            .expect("valid decisions")
            .into_report();
        (report, config, carbon)
    }

    #[test]
    fn clean_run_audits_clean() {
        let (report, config, carbon) = run_default();
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit.is_clean(), "{:?}", audit.violations);
        assert!(audit.checks_run > 0);
    }

    #[test]
    fn corrupted_carbon_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].carbon_g += 1.0;
        let audit = audit_report(&report, &config, &carbon);
        assert!(!audit.is_clean());
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Accounting && v.job == Some(JobId(0))));
        // The stored totals no longer match a re-aggregation of the
        // (corrupted) outcomes either.
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Accounting && v.job.is_none()));
    }

    #[test]
    fn truncated_segments_are_flagged() {
        let (mut report, config, carbon) = run_default();
        let seg = report.jobs[1].segments[0];
        report.jobs[1].segments[0] = SegmentRecord {
            end: seg.end - Minutes::new(10),
            ..seg
        };
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::SegmentCoverage));
    }

    #[test]
    fn overlapping_segments_are_flagged() {
        let (mut report, config, carbon) = run_default();
        let seg = report.jobs[1].segments[0];
        report.jobs[1].segments.push(SegmentRecord {
            start: seg.start,
            end: seg.start + Minutes::new(5),
            option: seg.option,
            useful: false,
            width: 1,
            work_milli: 0,
        });
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit.violations.iter().any(
            |v| v.invariant == AuditInvariant::SegmentCoverage && v.detail.contains("overlaps")
        ));
    }

    #[test]
    fn oversubscribed_reserved_is_flagged() {
        let (mut report, config, carbon) = run_default();
        // Forge a third concurrent reserved segment: capacity is 2.
        let forged = SegmentRecord {
            start: SimTime::ORIGIN,
            end: SimTime::from_hours(1),
            option: PurchaseOption::Reserved,
            useful: false,
            width: 1,
            work_milli: 0,
        };
        report.jobs[2].segments.insert(0, forged);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Occupancy));
    }

    #[test]
    fn idle_reserved_on_demand_start_is_flagged() {
        let (mut report, config, carbon) = run_default();
        // Rewrite a reserved segment as on-demand: reserved was idle then.
        let idx = report
            .jobs
            .iter()
            .position(|o| o.segments[0].option == PurchaseOption::Reserved)
            .expect("some job ran reserved");
        report.jobs[idx].segments[0].option = PurchaseOption::OnDemand;
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::WorkConservation));
    }

    #[test]
    fn inconsistent_timing_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].waiting += Minutes::new(7);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Timing && v.job == Some(JobId(0))));
    }

    /// Regression for the silent-saturation bug: shift `finish`,
    /// `completion`, and `waiting` *consistently*, so every pre-existing
    /// timing check still passes (the clamp used to make exactly this
    /// class of corruption self-consistent). Only the column-vs-segment
    /// cross-check can see it.
    #[test]
    fn consistent_column_shift_is_flagged_against_segments() {
        let (mut report, config, carbon) = run_default();
        let outcome = &mut report.jobs[0];
        outcome.finish += Minutes::new(11);
        outcome.completion += Minutes::new(11);
        outcome.waiting += Minutes::new(11);
        let audit = audit_report(&report, &config, &carbon);
        let timing: Vec<_> = audit
            .violations
            .iter()
            .filter(|v| v.invariant == AuditInvariant::Timing)
            .collect();
        assert_eq!(timing.len(), 1, "{timing:?}");
        assert!(timing[0].detail.contains("the last segment ends"));
    }

    #[test]
    fn shifted_first_start_is_flagged_against_segments() {
        let (mut report, config, carbon) = run_default();
        report.jobs[0].first_start += Minutes::new(5);
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Timing
                && v.detail.contains("the earliest segment starts")));
    }

    #[test]
    fn nonzero_degradation_without_schedule_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.degradation.degraded_decisions = 3;
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation));
    }

    #[test]
    fn schedule_gated_counters_are_flagged() {
        use gaia_fault::{FaultPlan, FaultSpec};
        let (mut report, config, carbon) = run_default();
        let schedule = {
            let mut plan = FaultPlan::new();
            plan.push(FaultSpec::ForecastOutage {
                start: SimTime::ORIGIN,
                end: SimTime::from_hours(1),
            });
            plan.compile().expect("valid plan")
        };
        // Outage-only schedule: degraded decisions are legitimate, storm
        // evictions are not.
        report.degradation.degraded_decisions = 2;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit.is_clean(), "{:?}", audit.violations);
        report.degradation.storm_evictions = 1;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation
                && v.detail.contains("storm_evictions")));
    }

    #[test]
    fn forged_price_surcharge_is_flagged() {
        use gaia_fault::{FaultPlan, FaultSpec};
        let (mut report, config, carbon) = run_default();
        let schedule = {
            let mut plan = FaultPlan::new();
            plan.push(FaultSpec::PriceSpike {
                start: SimTime::from_hours(100),
                end: SimTime::from_hours(101),
                multiplier: 3.0,
            });
            plan.compile().expect("valid plan")
        };
        // No segment overlaps the spike window, so the true surcharge is
        // zero; a forged one must be caught.
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit.is_clean(), "{:?}", audit.violations);
        report.degradation.price_surcharge = 12.5;
        let audit = audit_report_faulted(&report, &config, &carbon, Some(&schedule));
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Degradation
                && v.detail.contains("price_surcharge")));
    }

    #[test]
    fn forged_reserved_capacity_is_flagged() {
        let (mut report, config, carbon) = run_default();
        report.totals.reserved_capacity += 1;
        let audit = audit_report(&report, &config, &carbon);
        assert!(audit
            .violations
            .iter()
            .any(|v| v.invariant == AuditInvariant::Accounting
                && v.detail.contains("reserved capacity 3")));
    }

    impl Auditor<'_> {
        /// The O(R·D) reference for [`Auditor::check_work_conservation`]:
        /// sums every reserved segment for each on-demand start.
        fn check_work_conservation_oracle(&mut self) {
            let capacity = self.config.reserved_cpus as u64;
            let mut reserved: Vec<(SimTime, SimTime, u32)> = Vec::new();
            for outcome in &self.report.jobs {
                for segment in &outcome.segments {
                    if segment.option == PurchaseOption::Reserved {
                        reserved.push((
                            segment.start,
                            segment.end,
                            segment.cpus_used(outcome.job.cpus),
                        ));
                    }
                }
            }
            for outcome in &self.report.jobs {
                for segment in &outcome.segments {
                    if segment.option != PurchaseOption::OnDemand {
                        continue;
                    }
                    self.tally();
                    let t = segment.start;
                    let busy: u64 = reserved
                        .iter()
                        .filter(|&&(start, end, _)| start <= t && t <= end)
                        .map(|&(_, _, cpus)| cpus as u64)
                        .sum();
                    if busy + segment.cpus_used(outcome.job.cpus) as u64 <= capacity {
                        self.violation(
                            AuditInvariant::WorkConservation,
                            Some(outcome.job.id),
                            format!(
                                "started on-demand at {t} although only {busy}/{capacity} \
                                 reserved CPUs were busy"
                            ),
                        );
                    }
                }
            }
        }

        /// The event-sort reference for [`Auditor::sweep_reserved`],
        /// skipping inverted segments as the timeline does.
        fn sweep_reserved_oracle(&mut self) {
            let capacity = self.config.reserved_cpus as i64;
            // (time, delta) with releases sorted before acquisitions.
            let mut events: Vec<(SimTime, i64)> = Vec::new();
            for outcome in &self.report.jobs {
                for segment in &outcome.segments {
                    if segment.option == PurchaseOption::Reserved && segment.start <= segment.end {
                        let cpus = segment.cpus_used(outcome.job.cpus) as i64;
                        events.push((segment.start, cpus));
                        events.push((segment.end, -cpus));
                    }
                }
            }
            events.sort();
            let mut busy = 0i64;
            let mut i = 0;
            while i < events.len() {
                let t = events[i].0;
                while i < events.len() && events[i].0 == t {
                    busy += events[i].1;
                    i += 1;
                }
                if busy > capacity {
                    self.violation(
                        AuditInvariant::Occupancy,
                        None,
                        format!("{busy} reserved CPUs busy after {t}, capacity is {capacity}"),
                    );
                }
            }
        }
    }

    /// `(start, end, option, width)`: minutes, then 0 reserved, 1
    /// on-demand, else spot.
    type Span = (u64, u64, u8, u32);

    /// A report over `jobs`, each `(cpus, spans)`. Only the segment
    /// records matter to the capacity families.
    fn synthetic_report(jobs: Vec<(u32, Vec<Span>)>, config: &ClusterConfig) -> SimReport {
        let outcomes: Vec<crate::JobOutcome> = jobs
            .into_iter()
            .enumerate()
            .map(|(i, (cpus, segments))| crate::JobOutcome {
                job: Job::new(JobId(i as u64), SimTime::ORIGIN, Minutes::new(1), cpus),
                first_start: SimTime::ORIGIN,
                finish: SimTime::ORIGIN,
                waiting: Minutes::ZERO,
                completion: Minutes::ZERO,
                carbon_g: 0.0,
                cost: 0.0,
                segments: segments
                    .into_iter()
                    .map(|(start, end, option, width)| SegmentRecord {
                        start: SimTime::from_minutes(start),
                        end: SimTime::from_minutes(end),
                        option: match option {
                            0 => PurchaseOption::Reserved,
                            1 => PurchaseOption::OnDemand,
                            _ => PurchaseOption::Spot,
                        },
                        useful: true,
                        width,
                        work_milli: 0,
                    })
                    .collect(),
                evictions: 0,
            })
            .collect();
        SimReport {
            totals: ClusterTotals::aggregate(&[], config, Minutes::ZERO),
            jobs: outcomes,
            timeline: Default::default(),
            degradation: Default::default(),
            transfer: Default::default(),
        }
    }

    fn auditor<'a>(
        report: &'a SimReport,
        config: &'a ClusterConfig,
        carbon: &'a CarbonTrace,
    ) -> Auditor<'a> {
        Auditor {
            report,
            config,
            carbon,
            faults: None,
            out: AuditReport::default(),
        }
    }

    #[test]
    fn inverted_reserved_segment_hides_no_oversubscription() {
        // Two CPUs over [0, 120] fill the pool; a third over [10, 20]
        // oversubscribes it. An inverted span over the same window covers
        // no instant and must not cancel the excess out.
        let carbon = trace();
        let config = ClusterConfig::default().with_reserved(2);
        let report = synthetic_report(
            vec![
                (2, vec![(0, 120, 0, 1)]),
                (1, vec![(10, 20, 0, 1), (20, 10, 0, 1)]),
            ],
            &config,
        );
        let mut audit = auditor(&report, &config, &carbon);
        audit.sweep_reserved(&ReservedTimeline::new(&report));
        let details: Vec<&str> = audit
            .out
            .violations
            .iter()
            .map(|v| v.detail.as_str())
            .collect();
        assert_eq!(
            details,
            ["3 reserved CPUs busy after d0+00:10, capacity is 2"],
            "{details:?}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Both capacity families over the shared timeline report exactly
        /// what their reference implementations report, in the same
        /// order and words, with the same tally. Endpoints come from a
        /// narrow range so same-instant starts and ends, zero-length and
        /// inverted spans are all common.
        #[test]
        fn capacity_families_match_their_oracles(
            jobs in proptest::collection::vec(
                (
                    1u32..4,
                    proptest::collection::vec((0u64..12, 0u64..12, 0u8..3, 1u32..4), 0..6),
                ),
                0..10,
            ),
            capacity in 0u32..25,
        ) {
            let carbon = trace();
            let config = ClusterConfig::default().with_reserved(capacity);
            let report = synthetic_report(jobs, &config);
            let reserved = ReservedTimeline::new(&report);
            let mut fast = auditor(&report, &config, &carbon);
            fast.check_work_conservation(&reserved);
            fast.sweep_reserved(&reserved);
            let mut oracle = auditor(&report, &config, &carbon);
            oracle.check_work_conservation_oracle();
            oracle.sweep_reserved_oracle();
            proptest::prop_assert_eq!(&fast.out.violations, &oracle.out.violations);
            proptest::prop_assert_eq!(fast.out.checks_run, oracle.out.checks_run);
        }
    }

    #[test]
    fn violation_display_is_readable() {
        let v = AuditViolation {
            invariant: AuditInvariant::Accounting,
            job: Some(JobId(4)),
            detail: "off by one gram".into(),
        };
        let text = v.to_string();
        assert!(text.contains("accounting"), "{text}");
        assert!(text.contains("off by one gram"), "{text}");
        let global = AuditViolation {
            invariant: AuditInvariant::Occupancy,
            job: None,
            detail: "too busy".into(),
        };
        assert!(global.to_string().starts_with("[occupancy]"));
    }
}
