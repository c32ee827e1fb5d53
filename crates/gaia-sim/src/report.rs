//! Simulation output: per-job outcomes, cluster totals, and the hourly
//! allocation timeline (the paper's "run time file", §A.6).

use gaia_time::{HourlySlots, Minutes, SimTime};
use serde::{Deserialize, Serialize};

use crate::account::{ClusterTotals, JobOutcome};
use crate::plan::PurchaseOption;

/// Hourly average CPU occupancy broken down by purchase option — the data
/// behind paper Figure 2a's demand curves.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AllocationTimeline {
    /// Average reserved CPUs busy during each hour.
    pub reserved: Vec<f64>,
    /// Average on-demand CPUs busy during each hour.
    pub on_demand: Vec<f64>,
    /// Average spot CPUs busy during each hour.
    pub spot: Vec<f64>,
}

impl AllocationTimeline {
    /// Builds the timeline from job outcomes, sized to `horizon`.
    pub fn from_outcomes(outcomes: &[JobOutcome], horizon: Minutes) -> Self {
        let hours = horizon.as_hours_ceil() as usize;
        let mut timeline = AllocationTimeline {
            reserved: vec![0.0; hours],
            on_demand: vec![0.0; hours],
            spot: vec![0.0; hours],
        };
        for outcome in outcomes {
            for segment in &outcome.segments {
                let lane = match segment.option {
                    PurchaseOption::Reserved => &mut timeline.reserved,
                    PurchaseOption::OnDemand => &mut timeline.on_demand,
                    PurchaseOption::Spot => &mut timeline.spot,
                };
                let cpus = segment.cpus_used(outcome.job.cpus) as f64;
                for span in HourlySlots::new(segment.start, segment.end) {
                    let h = span.hour as usize;
                    if h < lane.len() {
                        lane[h] += span.fraction() * cpus;
                    }
                }
            }
        }
        timeline
    }

    /// Total average CPUs busy during hour `h`.
    pub fn total_at(&self, h: usize) -> f64 {
        self.reserved.get(h).unwrap_or(&0.0)
            + self.on_demand.get(h).unwrap_or(&0.0)
            + self.spot.get(h).unwrap_or(&0.0)
    }

    /// Number of hours covered.
    pub fn hours(&self) -> usize {
        self.reserved.len()
    }
}

/// Graceful-degradation accounting for a fault-injected run.
///
/// Every counter is zero — and the struct equals `Default::default()` —
/// when the run had no fault schedule (or an empty one). The engine keeps
/// fault effects out of the base cost/carbon accounting; this struct is
/// where their magnitude is reported instead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct DegradationStats {
    /// Scheduling decisions taken in degraded mode (forecast outage →
    /// persistence fallback).
    pub degraded_decisions: u64,
    /// Spot evictions sampled while a storm multiplier above 1.0 was
    /// active for the run's start instant.
    pub storm_evictions: u64,
    /// Admission checks denied solely by a fault capacity clamp (the
    /// configured cap would have admitted the work).
    pub capacity_denials: u64,
    /// Extra dollars attributable to price-spike windows, computed as
    /// `segment cost × (multiplier − 1)` at each segment's start. Base
    /// cost accounting is untouched; spikes surface only here.
    pub price_surcharge: f64,
    /// Hours of carbon-trace data bridged by interpolation (union of all
    /// trace-gap windows).
    pub bridged_gap_hours: u64,
}

impl DegradationStats {
    /// `true` when no fault left any trace on the run.
    pub fn is_clean(&self) -> bool {
        *self == DegradationStats::default()
    }
}

/// Inter-region data-transfer accounting for a multi-region (placed)
/// run.
///
/// Every field is zero — and the struct equals `Default::default()` —
/// for single-region runs, which is why adding it to [`SimReport`]
/// changes nothing about existing outputs. The placement layer in
/// `gaia-metrics` fills it in when jobs are shipped away from their home
/// region; transfer carbon and dollars are kept **out** of the per-job
/// and cluster accounting (which audit against segment records) and
/// surface only here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct TransferStats {
    /// Jobs placed outside their home region.
    pub jobs_moved: u64,
    /// Total input data shipped, in gigabytes.
    pub gigabytes: f64,
    /// Egress dollars for the shipped data.
    pub cost: f64,
    /// Network carbon for the shipped data, in grams CO₂.
    pub carbon_g: f64,
    /// Total added start latency across moved jobs, in minutes.
    pub latency_minutes: u64,
}

impl TransferStats {
    /// `true` when no job left its home region.
    pub fn is_zero(&self) -> bool {
        *self == TransferStats::default()
    }
}

/// The full result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-job outcomes, in job-id order.
    pub jobs: Vec<JobOutcome>,
    /// Cluster-wide totals.
    pub totals: ClusterTotals,
    /// Hourly allocation breakdown.
    pub timeline: AllocationTimeline,
    /// Fault-injection accounting; `Default::default()` on unfaulted runs.
    #[serde(default)]
    pub degradation: DegradationStats,
    /// Inter-region transfer accounting; `Default::default()` on
    /// single-region runs.
    #[serde(default)]
    pub transfer: TransferStats,
}

impl SimReport {
    /// Instant the last job finished.
    pub fn makespan(&self) -> SimTime {
        self.jobs
            .iter()
            .map(|j| j.finish)
            .max()
            .unwrap_or(SimTime::ORIGIN)
    }

    /// Mean waiting time.
    pub fn mean_waiting(&self) -> Minutes {
        self.totals.mean_waiting()
    }

    /// Total carbon, grams.
    pub fn carbon_g(&self) -> f64 {
        self.totals.carbon_g
    }

    /// Total dollar cost (prepaid reserved + usage).
    pub fn total_cost(&self) -> f64 {
        self.totals.total_cost()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::account::SegmentRecord;
    use gaia_workload::{Job, JobId};

    fn outcome_with_segments(cpus: u32, segments: Vec<SegmentRecord>) -> JobOutcome {
        let executed: Minutes = segments.iter().map(|s| s.len()).sum();
        let first = segments.first().expect("segments").start;
        let last = segments.last().expect("segments").end;
        JobOutcome {
            job: Job::new(JobId(0), SimTime::ORIGIN, executed, cpus),
            first_start: first,
            finish: last,
            waiting: Minutes::ZERO,
            completion: last - SimTime::ORIGIN,
            carbon_g: 0.0,
            cost: 0.0,
            segments,
            evictions: 0,
        }
    }

    #[test]
    fn timeline_accumulates_by_option() {
        let outcomes = vec![
            outcome_with_segments(
                2,
                vec![SegmentRecord {
                    start: SimTime::ORIGIN,
                    end: SimTime::from_minutes(90),
                    option: PurchaseOption::Reserved,
                    useful: true,
                    width: 1,
                    work_milli: 0,
                }],
            ),
            outcome_with_segments(
                1,
                vec![SegmentRecord {
                    start: SimTime::from_minutes(30),
                    end: SimTime::from_minutes(60),
                    option: PurchaseOption::OnDemand,
                    useful: true,
                    width: 1,
                    work_milli: 0,
                }],
            ),
        ];
        let t = AllocationTimeline::from_outcomes(&outcomes, Minutes::from_hours(2));
        assert_eq!(t.hours(), 2);
        assert!((t.reserved[0] - 2.0).abs() < 1e-12);
        assert!((t.reserved[1] - 1.0).abs() < 1e-12); // half the hour at 2 cpus
        assert!((t.on_demand[0] - 0.5).abs() < 1e-12);
        assert_eq!(t.spot[0], 0.0);
        assert!((t.total_at(0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn timeline_ignores_segments_past_horizon() {
        let outcomes = vec![outcome_with_segments(
            1,
            vec![SegmentRecord {
                start: SimTime::from_hours(5),
                end: SimTime::from_hours(6),
                option: PurchaseOption::Spot,
                useful: true,
                width: 1,
                work_milli: 0,
            }],
        )];
        let t = AllocationTimeline::from_outcomes(&outcomes, Minutes::from_hours(2));
        assert_eq!(t.hours(), 2);
        assert_eq!(t.total_at(0), 0.0);
        assert_eq!(t.total_at(5), 0.0); // out of range reads as zero
    }

    #[test]
    fn empty_timeline() {
        let t = AllocationTimeline::from_outcomes(&[], Minutes::ZERO);
        assert_eq!(t.hours(), 0);
        assert_eq!(t.total_at(0), 0.0);
    }

    #[test]
    fn degradation_and_transfer_stats_are_clean_only_at_default() {
        assert!(DegradationStats::default().is_clean());
        let touched = [
            DegradationStats {
                degraded_decisions: 1,
                ..Default::default()
            },
            DegradationStats {
                price_surcharge: 0.01,
                ..Default::default()
            },
            DegradationStats {
                bridged_gap_hours: 1,
                ..Default::default()
            },
        ];
        assert!(touched.iter().all(|d| !d.is_clean()));

        assert!(TransferStats::default().is_zero());
        let moved = TransferStats {
            jobs_moved: 1,
            ..Default::default()
        };
        assert!(!moved.is_zero(), "a free move is still a move");
    }

    #[test]
    fn report_accessors_read_jobs_and_totals() {
        let segment = |start: u64, end: u64| SegmentRecord {
            start: SimTime::from_minutes(start),
            end: SimTime::from_minutes(end),
            option: PurchaseOption::OnDemand,
            useful: true,
            width: 1,
            work_milli: 0,
        };
        let jobs = vec![
            outcome_with_segments(1, vec![segment(0, 200)]),
            outcome_with_segments(1, vec![segment(10, 70)]),
        ];
        let config = crate::ClusterConfig::default();
        let totals = ClusterTotals::aggregate(&jobs, &config, Minutes::from_hours(4));
        let report = SimReport {
            timeline: AllocationTimeline::from_outcomes(&jobs, Minutes::from_hours(4)),
            jobs,
            totals,
            degradation: DegradationStats::default(),
            transfer: TransferStats::default(),
        };
        assert_eq!(report.makespan(), SimTime::from_minutes(200));
        assert_eq!(report.mean_waiting(), report.totals.mean_waiting());
        assert_eq!(report.carbon_g(), report.totals.carbon_g);
        assert_eq!(report.total_cost(), report.totals.total_cost());
        assert!(report.total_cost() > 0.0);

        let empty = SimReport {
            jobs: Vec::new(),
            ..report
        };
        assert_eq!(empty.makespan(), SimTime::ORIGIN);
    }
}
