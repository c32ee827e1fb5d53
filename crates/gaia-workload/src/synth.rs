//! Synthetic generators for the paper's three production workloads.
//!
//! The paper's traces cannot be redistributed, so each generator encodes
//! the distributional facts the paper publishes about its trace and draws
//! a statistically equivalent workload:
//!
//! * **Alibaba-PAI** (§6.1, Figure 5): 38% of jobs are shorter than five
//!   minutes yet contribute only 0.36% of compute; about half of the
//!   *filtered* jobs are ≤ 1 h (Figure 9); lengths span minutes to days;
//!   per-job demand spans 1–100 units. Mean demand of the year-long
//!   sample ≈ 100 units (Figure 17's R).
//! * **Mustang-HPC** (§6.4.1): maximum job length 16 h, job-length mean
//!   "representative of the whole trace" (low spread); many parallel MPI
//!   jobs (demand unit = one 24-core machine); hourly-demand CoV ≈ 0.8
//!   (bursty submission campaigns); mean demand ≈ 468 (Figure 17).
//! * **Azure-VM** (§6.4.1): VM lifetimes with a heavy tail crossing
//!   multiple days ("long jobs that span across cycles of carbon
//!   intensity"); smooth aggregate demand, CoV ≈ 0.3; mean demand ≈ 142
//!   (Figure 17).
//!
//! Raw generators produce "original-like" traces *including* the very
//! short jobs; the paper's filter-and-sample pipeline ([`crate::sample`])
//! is applied on top by the convenience constructors.

use gaia_time::{Minutes, SimTime, MINUTES_PER_DAY};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::dist::{Discrete, Exponential, LogNormal, Sample, Truncated};
use crate::sample::SamplePipeline;
use crate::{Job, JobId, WorkloadTrace};

/// The workload families evaluated in the paper (§6.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceFamily {
    /// Alibaba's PAI machine-learning cluster.
    AlibabaPai,
    /// Azure's VM-lifetime workload.
    AzureVm,
    /// LANL's Mustang HPC cluster.
    MustangHpc,
}

impl TraceFamily {
    /// All three families, in the paper's figure order.
    pub const ALL: [TraceFamily; 3] = [
        TraceFamily::MustangHpc,
        TraceFamily::AlibabaPai,
        TraceFamily::AzureVm,
    ];

    /// Display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TraceFamily::AlibabaPai => "Alibaba",
            TraceFamily::AzureVm => "Azure",
            TraceFamily::MustangHpc => "Mustang",
        }
    }

    /// Generates a raw "original-like" trace of `n_jobs` jobs arriving
    /// over `horizon`, including the very short jobs that the paper's
    /// pipeline later filters out.
    pub fn generate_raw(self, n_jobs: usize, horizon: Minutes, seed: u64) -> WorkloadTrace {
        let profile = self.profile();
        let mut rng = StdRng::seed_from_u64(seed ^ self.seed_salt());
        let mut jobs = Vec::with_capacity(n_jobs);
        let mut arrivals = ArrivalProcess::new(&profile, n_jobs, horizon);
        while jobs.len() < n_jobs {
            let arrival = arrivals.next_arrival(&mut rng, horizon);
            let cpus = profile.cpus.sample(&mut rng);
            let length = Minutes::new(profile.sample_length(&mut rng, cpus));
            jobs.push(Job::new(JobId(0), arrival, length, cpus));
        }
        WorkloadTrace::from_jobs(jobs)
    }

    /// A smaller year-long sample for fast experimentation and tests.
    pub fn year_long(self, n_jobs: usize, seed: u64) -> WorkloadTrace {
        let horizon = Minutes::from_days(365);
        let raw = self.generate_raw(n_jobs * 165 / 100 + 64, horizon, seed);
        SamplePipeline::paper_defaults(n_jobs).apply(&raw, seed)
    }

    /// The week-long, 1k-job Alibaba-PAI sample used by the prototype
    /// experiments (Figures 8–12): jobs capped at 4 CPUs "for budgetary
    /// reasons" (§6.1).
    ///
    /// Available for every family for symmetry, with the same 4-CPU cap.
    pub fn week_long_1k(self, seed: u64) -> WorkloadTrace {
        let horizon = Minutes::from_days(7);
        let raw = self.generate_raw(4_000, horizon, seed);
        SamplePipeline::paper_defaults(1_000)
            .with_max_cpus(4)
            .apply(&raw, seed)
    }

    fn seed_salt(self) -> u64 {
        match self {
            TraceFamily::AlibabaPai => 0xA11B_ABA0,
            TraceFamily::AzureVm => 0xA27E_0000,
            TraceFamily::MustangHpc => 0x0005_7A46,
        }
    }

    fn profile(self) -> FamilyProfile {
        match self {
            // ML platform: bimodal lengths (38% < 5 min), demand 1..100.
            TraceFamily::AlibabaPai => FamilyProfile {
                tiny_frac: 0.38,
                tiny_length: Truncated::new(LogNormal::with_median(1.6, 0.7), 1.0, 4.9),
                body_length: Truncated::new(
                    LogNormal::with_median(30.0, 1.35),
                    5.0,
                    4.0 * MINUTES_PER_DAY as f64,
                ),
                cpus: Discrete::new(vec![
                    (1, 0.44),
                    (2, 0.21),
                    (4, 0.16),
                    (8, 0.10),
                    (16, 0.06),
                    (32, 0.010),
                    (64, 0.002),
                    (100, 0.0008),
                ]),
                diurnal_amp: 0.35,
                campaign_prob: 0.06,
                campaign_mean: 4.0,
                cpu_length_coupling: 0.45,
                max_length: 4.0 * MINUTES_PER_DAY as f64,
            },
            // VM lifetimes: heavy tail into multiple days, smooth demand.
            TraceFamily::AzureVm => FamilyProfile {
                tiny_frac: 0.30,
                tiny_length: Truncated::new(LogNormal::with_median(2.0, 0.6), 1.0, 4.9),
                body_length: Truncated::new(
                    LogNormal::with_median(110.0, 1.85),
                    5.0,
                    7.0 * MINUTES_PER_DAY as f64,
                ),
                cpus: Discrete::new(vec![(1, 0.50), (2, 0.25), (4, 0.15), (8, 0.10)]),
                diurnal_amp: 0.10,
                campaign_prob: 0.0,
                campaign_mean: 1.0,
                cpu_length_coupling: 0.15,
                max_length: 7.0 * MINUTES_PER_DAY as f64,
            },
            // HPC: 16-hour scheduler cap, parallel MPI jobs, bursty
            // submission campaigns.
            TraceFamily::MustangHpc => FamilyProfile {
                tiny_frac: 0.22,
                tiny_length: Truncated::new(LogNormal::with_median(2.0, 0.7), 1.0, 4.9),
                body_length: Truncated::new(LogNormal::with_median(150.0, 0.95), 5.0, 960.0),
                cpus: Discrete::new(vec![
                    (1, 0.30),
                    (2, 0.20),
                    (4, 0.18),
                    (8, 0.14),
                    (16, 0.10),
                    (32, 0.05),
                    (64, 0.03),
                ]),
                diurnal_amp: 0.45,
                campaign_prob: 0.22,
                campaign_mean: 12.0,
                cpu_length_coupling: 0.25,
                max_length: 960.0,
            },
        }
    }
}

/// Distributional profile of one workload family.
#[derive(Debug, Clone)]
struct FamilyProfile {
    /// Fraction of jobs shorter than 5 minutes.
    tiny_frac: f64,
    tiny_length: Truncated<LogNormal>,
    body_length: Truncated<LogNormal>,
    cpus: Discrete<u32>,
    /// Relative amplitude of the day/night submission-rate swing.
    diurnal_amp: f64,
    /// Probability that an arrival opens a submission campaign.
    campaign_prob: f64,
    /// Mean number of extra jobs in a campaign (geometric).
    campaign_mean: f64,
    /// Exponent coupling job length to CPU width: wider (more parallel)
    /// jobs run longer, as in production ML/HPC traces. Length is scaled
    /// by `cpus^coupling`, re-clamped to the family's length bounds.
    cpu_length_coupling: f64,
    /// Upper clamp applied after coupling, minutes.
    max_length: f64,
}

impl FamilyProfile {
    fn sample_length<R: Rng + ?Sized>(&self, rng: &mut R, cpus: u32) -> u64 {
        let d: f64 = rng.random();
        let minutes = if d < self.tiny_frac {
            self.tiny_length.sample(rng)
        } else {
            let scale = (cpus as f64).powf(self.cpu_length_coupling);
            (self.body_length.sample(rng) * scale).clamp(5.0, self.max_length)
        };
        (minutes.round() as u64).max(1)
    }
}

/// Stateful arrival generator: thinned Poisson with diurnal modulation
/// plus geometric submission campaigns (bursts of near-simultaneous
/// arrivals), wrapping around the horizon if the process overshoots.
struct ArrivalProcess {
    cursor_minutes: f64,
    gap: Exponential,
    diurnal_amp: f64,
    campaign_prob: f64,
    campaign_mean: f64,
    pending_campaign: u32,
}

impl ArrivalProcess {
    fn new(profile: &FamilyProfile, n_jobs: usize, horizon: Minutes) -> Self {
        // Campaigns emit extra jobs per arrival event, so stretch the base
        // gap to keep the expected total near n_jobs across the horizon.
        let events_per_job = 1.0 + profile.campaign_prob * profile.campaign_mean;
        let mean_gap = horizon.as_minutes() as f64 / n_jobs as f64 * events_per_job;
        ArrivalProcess {
            cursor_minutes: 0.0,
            gap: Exponential::with_mean(mean_gap.max(f64::MIN_POSITIVE)),
            diurnal_amp: profile.diurnal_amp,
            campaign_prob: profile.campaign_prob,
            campaign_mean: profile.campaign_mean,
            pending_campaign: 0,
        }
    }

    fn next_arrival<R: Rng + ?Sized>(&mut self, rng: &mut R, horizon: Minutes) -> SimTime {
        if self.pending_campaign > 0 {
            // Campaign members land within a few minutes of the opener.
            self.pending_campaign -= 1;
            let jitter = rng.random::<f64>() * 5.0;
            let t = (self.cursor_minutes + jitter) % horizon.as_minutes() as f64;
            return SimTime::from_minutes(t as u64);
        }
        // Advance by an exponential gap, stretched at night (slow
        // submission) and compressed during working hours.
        let raw_gap = self.gap.sample(rng);
        let hour = (self.cursor_minutes / 60.0) % 24.0;
        // Working hours (9-21h local) submit faster.
        let modulation = if (9.0..21.0).contains(&hour) {
            1.0 - self.diurnal_amp * 0.5
        } else {
            1.0 + self.diurnal_amp
        };
        self.cursor_minutes =
            (self.cursor_minutes + raw_gap * modulation) % horizon.as_minutes() as f64;
        if rng.random::<f64>() < self.campaign_prob {
            // Geometric count with the configured mean.
            let p = 1.0 / self.campaign_mean.max(1.0);
            let mut count = 0u32;
            while rng.random::<f64>() > p && count < 64 {
                count += 1;
            }
            self.pending_campaign = count;
        }
        SimTime::from_minutes(self.cursor_minutes as u64)
    }
}

/// The Section 3 motivating workload: a three-day trace with
/// exponentially distributed inter-arrivals (mean 48 min), exponentially
/// distributed lengths (mean 4 h), and one CPU per job — an average
/// demand of five CPUs.
///
/// # Examples
///
/// ```
/// use gaia_workload::synth::section3_workload;
///
/// let trace = section3_workload(7);
/// let demand = trace.mean_demand();
/// assert!(demand > 2.5 && demand < 8.5, "demand {demand}");
/// ```
pub fn section3_workload(seed: u64) -> WorkloadTrace {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC7_1003);
    let interarrival = Exponential::with_mean(48.0);
    let length = Exponential::with_mean(240.0);
    let horizon = Minutes::from_days(3);
    let mut jobs = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += interarrival.sample(&mut rng);
        if t >= horizon.as_minutes() as f64 {
            break;
        }
        let len = (length.sample(&mut rng).round() as u64).max(1);
        jobs.push(Job::new(
            JobId(0),
            SimTime::from_minutes(t as u64),
            Minutes::new(len),
            1,
        ));
    }
    WorkloadTrace::from_jobs(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_time::MINUTES_PER_HOUR;

    #[test]
    fn deterministic_per_seed() {
        let a = TraceFamily::AlibabaPai.generate_raw(500, Minutes::from_days(7), 1);
        let b = TraceFamily::AlibabaPai.generate_raw(500, Minutes::from_days(7), 1);
        let c = TraceFamily::AlibabaPai.generate_raw(500, Minutes::from_days(7), 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn families_use_distinct_streams() {
        let a = TraceFamily::AlibabaPai.generate_raw(100, Minutes::from_days(7), 1);
        let b = TraceFamily::AzureVm.generate_raw(100, Minutes::from_days(7), 1);
        assert_ne!(a, b);
    }

    #[test]
    fn alibaba_tiny_job_fraction_matches_paper() {
        // §6.1: 38% of Alibaba-PAI jobs are under five minutes...
        let raw = TraceFamily::AlibabaPai.generate_raw(20_000, Minutes::from_days(60), 3);
        let tiny =
            raw.iter().filter(|j| j.length < Minutes::new(5)).count() as f64 / raw.len() as f64;
        assert!((tiny - 0.38).abs() < 0.03, "tiny fraction {tiny}");
        // ...but contribute well under 2% of the compute cycles.
        let tiny_cpu: u64 = raw
            .iter()
            .filter(|j| j.length < Minutes::new(5))
            .map(|j| j.cpu_minutes())
            .sum();
        let share = tiny_cpu as f64 / raw.total_cpu_minutes() as f64;
        assert!(share < 0.02, "tiny compute share {share}");
    }

    #[test]
    fn mustang_respects_sixteen_hour_cap() {
        let raw = TraceFamily::MustangHpc.generate_raw(20_000, Minutes::from_days(60), 3);
        assert!(raw.iter().all(|j| j.length <= Minutes::from_hours(16)));
    }

    #[test]
    fn azure_has_multi_day_jobs() {
        let raw = TraceFamily::AzureVm.generate_raw(20_000, Minutes::from_days(60), 3);
        let multi_day = raw
            .iter()
            .filter(|j| j.length > Minutes::from_days(1))
            .count();
        assert!(multi_day > 100, "multi-day jobs {multi_day}");
    }

    #[test]
    fn demand_cov_ordering_matches_section_6_4_4() {
        // §6.4.4: demand CoV — Mustang ≈ 0.8 (bursty), Azure ≈ 0.3 (smooth).
        let mustang = TraceFamily::MustangHpc
            .year_long(12_000, 5)
            .demand_curve()
            .cov();
        let azure = TraceFamily::AzureVm
            .year_long(12_000, 5)
            .demand_curve()
            .cov();
        assert!(
            mustang > azure + 0.2,
            "Mustang CoV {mustang} must clearly exceed Azure CoV {azure}"
        );
        assert!(mustang > 0.5 && mustang < 1.3, "Mustang CoV {mustang}");
        assert!(azure > 0.1 && azure < 0.6, "Azure CoV {azure}");
    }

    #[test]
    fn week_long_trace_matches_prototype_setup() {
        let trace = TraceFamily::AlibabaPai.week_long_1k(11);
        assert_eq!(trace.len(), 1000);
        assert!(trace.max_cpus() <= 4, "cpus capped at 4 (§6.1)");
        assert!(trace.iter().all(|j| j.length >= Minutes::new(5)));
        assert!(trace.iter().all(|j| j.length <= Minutes::from_days(3)));
        assert!(trace.last_arrival().expect("non-empty") < SimTime::from_days(7));
    }

    #[test]
    fn year_long_sample_counts() {
        let trace = TraceFamily::AzureVm.year_long(5_000, 2);
        assert_eq!(trace.len(), 5_000);
        assert!(trace.last_arrival().expect("non-empty") < SimTime::from_days(365));
    }

    #[test]
    fn about_half_of_filtered_alibaba_jobs_are_short() {
        // Figure 9: jobs ≤ 1 h are almost 50% of the filtered trace.
        let trace = TraceFamily::AlibabaPai.year_long(10_000, 4);
        let stats = trace.stats();
        assert!(
            (stats.frac_short_1h - 0.5).abs() < 0.15,
            "short fraction {}",
            stats.frac_short_1h
        );
    }

    #[test]
    fn section3_trace_statistics() {
        let trace = section3_workload(1);
        // ~90 arrivals over three days.
        assert!(
            trace.len() > 50 && trace.len() < 140,
            "jobs {}",
            trace.len()
        );
        assert!(trace.iter().all(|j| j.cpus == 1));
        let mean_len: f64 = trace
            .iter()
            .map(|j| j.length.as_minutes() as f64)
            .sum::<f64>()
            / trace.len() as f64;
        assert!(
            (mean_len - 240.0).abs() < 90.0,
            "mean length {mean_len} far from 4 h"
        );
        // Average demand near five CPUs (paper Section 3).
        let demand = trace.mean_demand();
        assert!(demand > 2.0 && demand < 9.0, "demand {demand}");
    }

    #[test]
    fn mean_lengths_are_hours_scale() {
        for family in TraceFamily::ALL {
            let trace = family.year_long(4_000, 9);
            let mean_h = trace.stats().mean_length.as_minutes() as f64 / MINUTES_PER_HOUR as f64;
            assert!(
                mean_h > 1.0 && mean_h < 24.0,
                "{family:?} mean length {mean_h} h"
            );
        }
    }
}
