//! Spatial placement: choosing *where* a job runs, across the six
//! studied regions, with data-transfer penalties.
//!
//! The temporal policies (Carbon-Time, Carbon-Scale, and the rest of
//! the catalog) decide *when* — and, for [`crate::CarbonScale`], *how
//! wide* — a job runs inside one region. This module
//! adds the spatial axis: a job's input data lives in a **home** region,
//! and shipping it elsewhere costs egress dollars, network carbon, and
//! start latency proportional to great-circle distance
//! ([`gaia_carbon::Region::distance_km`]). The placed runner in
//! `gaia-metrics` scores candidate regions against their forecasts and
//! partitions the workload; this module owns the data model: the
//! transfer economics ([`TransferModel`]), the candidate set
//! ([`PlacementSpec`]), and the resulting assignment ([`Placement`]).

use gaia_carbon::Region;
use gaia_time::Minutes;
use gaia_workload::Job;

/// The cost of moving one job's input data between two regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferPenalty {
    /// Data shipped, in gigabytes (zero within the home region).
    pub gigabytes: f64,
    /// Egress dollars.
    pub cost: f64,
    /// Network carbon, in grams CO₂.
    pub carbon_g: f64,
    /// Added start latency.
    pub latency: Minutes,
}

impl TransferPenalty {
    /// The zero penalty (job stays home).
    pub const NONE: TransferPenalty = TransferPenalty {
        gigabytes: 0.0,
        cost: 0.0,
        carbon_g: 0.0,
        latency: Minutes::ZERO,
    };
}

/// Economics of inter-region data movement.
///
/// The defaults are deliberately round, paper-scale numbers: cloud
/// egress near $0.02/GB, network-transit carbon near 10 g CO₂/GB, and
/// bulk-transfer latency that grows with distance (a job's input must
/// arrive before it can start). All four knobs are public so sweeps can
/// ablate them.
///
/// # Examples
///
/// ```
/// use gaia_carbon::Region;
/// use gaia_core::placement::TransferModel;
/// use gaia_time::{Minutes, SimTime};
/// use gaia_workload::{Job, JobId};
///
/// let model = TransferModel::default();
/// let job = Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(2), 4);
/// let p = model.penalty(&job, Region::California, Region::Ontario);
/// assert_eq!(p.gigabytes, 8.0); // 2 GB per requested CPU
/// assert!(p.latency > Minutes::ZERO);
/// let home = model.penalty(&job, Region::California, Region::California);
/// assert_eq!(home.gigabytes, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TransferModel {
    /// Input data per requested CPU, in gigabytes.
    pub gb_per_cpu: f64,
    /// Egress price, dollars per gigabyte.
    pub cost_per_gb: f64,
    /// Network carbon, grams CO₂ per gigabyte.
    pub carbon_g_per_gb: f64,
    /// Transfer latency per 1000 km of great-circle distance, in
    /// minutes (rounded up to whole minutes per hop).
    pub minutes_per_1000km: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        TransferModel {
            gb_per_cpu: 2.0,
            cost_per_gb: 0.02,
            carbon_g_per_gb: 10.0,
            minutes_per_1000km: 2.0,
        }
    }
}

impl TransferModel {
    /// Input-data volume for `job`, in gigabytes.
    pub fn data_gb(&self, job: &Job) -> f64 {
        self.gb_per_cpu * f64::from(job.cpus)
    }

    /// Start latency for shipping data from `from` to `to` (zero when
    /// they are the same region).
    pub fn latency(&self, from: Region, to: Region) -> Minutes {
        if from == to {
            return Minutes::ZERO;
        }
        let minutes = (from.distance_km(to) / 1000.0 * self.minutes_per_1000km).ceil();
        Minutes::new(minutes as u64)
    }

    /// Full penalty for running `job` (whose data lives in `from`) in
    /// region `to`. [`TransferPenalty::NONE`] when `from == to`.
    pub fn penalty(&self, job: &Job, from: Region, to: Region) -> TransferPenalty {
        if from == to {
            return TransferPenalty::NONE;
        }
        let gigabytes = self.data_gb(job);
        TransferPenalty {
            gigabytes,
            cost: gigabytes * self.cost_per_gb,
            carbon_g: gigabytes * self.carbon_g_per_gb,
            latency: self.latency(from, to),
        }
    }
}

/// A spatial scheduling configuration: where data lives, which regions
/// may run work, and what movement costs.
///
/// # Examples
///
/// ```
/// use gaia_carbon::Region;
/// use gaia_core::placement::PlacementSpec;
///
/// let spec = PlacementSpec::federated(Region::California);
/// assert_eq!(spec.candidates.len(), 6);
/// let pinned = PlacementSpec::single(Region::California);
/// assert_eq!(pinned.candidates, vec![Region::California]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementSpec {
    /// The region holding every job's input data.
    pub home: Region,
    /// Regions allowed to run work, in preference (tie-break) order.
    pub candidates: Vec<Region>,
    /// Transfer economics.
    pub model: TransferModel,
}

impl PlacementSpec {
    /// Single-region placement: every job runs at home, no transfers.
    /// A placed run under this spec is identical to a plain run.
    pub fn single(home: Region) -> PlacementSpec {
        PlacementSpec {
            home,
            candidates: vec![home],
            model: TransferModel::default(),
        }
    }

    /// Federated placement over all six studied regions, home first (so
    /// ties stay home and a flat score surface degenerates to
    /// single-region behaviour).
    pub fn federated(home: Region) -> PlacementSpec {
        let mut candidates = vec![home];
        candidates.extend(Region::ALL.into_iter().filter(|&r| r != home));
        PlacementSpec {
            home,
            candidates,
            model: TransferModel::default(),
        }
    }

    /// Restricts the candidate set (home is prepended if absent).
    pub fn with_candidates(mut self, regions: &[Region]) -> PlacementSpec {
        let mut candidates = Vec::with_capacity(regions.len() + 1);
        if !regions.contains(&self.home) {
            candidates.push(self.home);
        }
        candidates.extend_from_slice(regions);
        self.candidates = candidates;
        self
    }

    /// Overrides the transfer economics.
    pub fn with_model(mut self, model: TransferModel) -> PlacementSpec {
        self.model = model;
        self
    }
}

/// The result of placing a workload: one region per job, in job order.
///
/// Produced by the placed runner in `gaia-metrics`; consumed by its
/// merge/audit stage to recompute transfer totals independently.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The region each job was assigned, indexed by dense job id.
    pub regions: Vec<Region>,
    /// The home region the assignment was made against.
    pub home: Region,
}

impl Placement {
    /// Number of jobs assigned away from home.
    pub fn moved(&self) -> usize {
        self.regions.iter().filter(|&&r| r != self.home).count()
    }

    /// Jobs assigned to `region`, as dense job-id indexes.
    pub fn jobs_in(&self, region: Region) -> Vec<usize> {
        self.regions
            .iter()
            .enumerate()
            .filter(|&(_, &r)| r == region)
            .map(|(i, _)| i)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_time::SimTime;
    use gaia_workload::JobId;

    fn job(cpus: u32) -> Job {
        Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(1), cpus)
    }

    #[test]
    fn home_placement_is_free() {
        let model = TransferModel::default();
        for region in Region::ALL {
            assert_eq!(
                model.penalty(&job(8), region, region),
                TransferPenalty::NONE
            );
        }
    }

    #[test]
    fn penalties_scale_with_data_and_distance() {
        let model = TransferModel::default();
        let near = model.penalty(&job(4), Region::Sweden, Region::Netherlands);
        let far = model.penalty(&job(4), Region::Sweden, Region::SouthAustralia);
        assert_eq!(near.gigabytes, far.gigabytes);
        assert_eq!(near.cost, far.cost);
        assert!(far.latency > near.latency, "distance drives latency");
        let big = model.penalty(&job(8), Region::Sweden, Region::Netherlands);
        assert_eq!(big.gigabytes, 2.0 * near.gigabytes);
        assert_eq!(big.latency, near.latency, "latency is data-independent");
    }

    #[test]
    fn federated_spec_puts_home_first_without_duplicates() {
        for home in Region::ALL {
            let spec = PlacementSpec::federated(home);
            assert_eq!(spec.candidates[0], home);
            assert_eq!(spec.candidates.len(), 6);
            let mut sorted = spec.candidates.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 6);
        }
    }

    #[test]
    fn with_candidates_prepends_home() {
        let spec = PlacementSpec::single(Region::Kentucky)
            .with_candidates(&[Region::Sweden, Region::Ontario]);
        assert_eq!(
            spec.candidates,
            vec![Region::Kentucky, Region::Sweden, Region::Ontario]
        );
        let kept = PlacementSpec::single(Region::Kentucky)
            .with_candidates(&[Region::Kentucky, Region::Sweden]);
        assert_eq!(kept.candidates, vec![Region::Kentucky, Region::Sweden]);
    }

    #[test]
    fn placement_counts_moves() {
        let p = Placement {
            regions: vec![Region::Sweden, Region::Ontario, Region::Sweden],
            home: Region::Sweden,
        };
        assert_eq!(p.moved(), 1);
        assert_eq!(p.jobs_in(Region::Sweden), vec![0, 2]);
        assert_eq!(p.jobs_in(Region::Ontario), vec![1]);
        assert_eq!(p.jobs_in(Region::Kentucky), Vec::<usize>::new());
    }

    #[test]
    fn a_zero_cost_model_moves_for_free() {
        let free = TransferModel {
            gb_per_cpu: 0.0,
            cost_per_gb: 0.0,
            carbon_g_per_gb: 0.0,
            minutes_per_1000km: 0.0,
        };
        for from in Region::ALL {
            for to in Region::ALL {
                assert_eq!(
                    free.penalty(&job(16), from, to),
                    TransferPenalty::NONE,
                    "{from} -> {to}"
                );
            }
        }
    }

    #[test]
    fn latency_is_symmetric_and_rounds_up_to_whole_minutes() {
        let model = TransferModel {
            minutes_per_1000km: 0.001,
            ..TransferModel::default()
        };
        // Any distinct pair is more than zero km apart, so a tiny rate
        // still costs one whole minute.
        assert_eq!(
            model.latency(Region::Sweden, Region::Netherlands),
            Minutes::new(1)
        );
        let model = TransferModel::default();
        for a in Region::ALL {
            for b in Region::ALL {
                assert_eq!(model.latency(a, b), model.latency(b, a));
                let exact = a.distance_km(b) / 1000.0 * model.minutes_per_1000km;
                let whole = model.latency(a, b).as_minutes() as f64;
                assert!(whole >= exact && whole < exact + 1.0, "{a} -> {b}");
            }
        }
    }

    #[test]
    fn with_model_replaces_only_the_transfer_economics() {
        let model = TransferModel {
            gb_per_cpu: 0.5,
            ..TransferModel::default()
        };
        let base = PlacementSpec::federated(Region::Ontario).with_candidates(&[Region::California]);
        let spec = base.clone().with_model(model);
        assert_eq!(spec.model, model);
        assert_eq!((spec.home, &spec.candidates), (base.home, &base.candidates));
        assert_eq!(base.model, TransferModel::default());
    }
}
