//! Sweep-domain encodings over the workspace codec
//! ([`gaia_sim::codec`]): scenarios, grids, cell outcomes and metric
//! registries, as persisted in content-addressed result-cache entries
//! and shard cell manifests. Enum tags are validated on decode, so a
//! truncated or bit-flipped file decodes to an error instead of a wrong
//! result.
//!
//! Determinism matters more than compactness: the same value always
//! encodes to the same bytes, which is what lets cell fingerprints and
//! shard manifests participate in the byte-identity contract.

use gaia_carbon::Region;
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::SpotConfig;
use gaia_metrics::Summary;
use gaia_obs::{MetricsRegistry, HISTOGRAM_BUCKETS};
pub(crate) use gaia_sim::codec::{Reader, Writer};
use gaia_sim::{AuditInvariant, AuditReport, AuditViolation};
use gaia_time::Minutes;
use gaia_workload::synth::TraceFamily;
use gaia_workload::JobId;

use crate::grid::{ClusterSpec, QueueSpec, ScaleSpec, Scenario, SweepGrid};
use crate::CellOutcome;

/// Decode failures are strings; callers wrap them into their own error
/// types (cache: treat as miss; merge: report as corrupt shard).
pub(crate) type Result<T> = std::result::Result<T, String>;

fn base_policy_tag(base: BasePolicyKind) -> u8 {
    match base {
        BasePolicyKind::NoWait => 0,
        BasePolicyKind::AllWaitThreshold => 1,
        BasePolicyKind::WaitAwhile => 2,
        BasePolicyKind::Ecovisor => 3,
        BasePolicyKind::LowestSlot => 4,
        BasePolicyKind::LowestWindow => 5,
        BasePolicyKind::CarbonTime => 6,
        BasePolicyKind::BadPlan => 7,
        BasePolicyKind::CarbonScale => 8,
    }
}

fn base_policy_from_tag(tag: u8) -> Result<BasePolicyKind> {
    Ok(match tag {
        0 => BasePolicyKind::NoWait,
        1 => BasePolicyKind::AllWaitThreshold,
        2 => BasePolicyKind::WaitAwhile,
        3 => BasePolicyKind::Ecovisor,
        4 => BasePolicyKind::LowestSlot,
        5 => BasePolicyKind::LowestWindow,
        6 => BasePolicyKind::CarbonTime,
        7 => BasePolicyKind::BadPlan,
        8 => BasePolicyKind::CarbonScale,
        other => return Err(format!("invalid base policy tag {other}")),
    })
}

fn region_tag(region: Region) -> u8 {
    match region {
        Region::Sweden => 0,
        Region::Ontario => 1,
        Region::SouthAustralia => 2,
        Region::California => 3,
        Region::Netherlands => 4,
        Region::Kentucky => 5,
    }
}

fn region_from_tag(tag: u8) -> Result<Region> {
    Ok(match tag {
        0 => Region::Sweden,
        1 => Region::Ontario,
        2 => Region::SouthAustralia,
        3 => Region::California,
        4 => Region::Netherlands,
        5 => Region::Kentucky,
        other => return Err(format!("invalid region tag {other}")),
    })
}

fn family_tag(family: TraceFamily) -> u8 {
    match family {
        TraceFamily::AlibabaPai => 0,
        TraceFamily::AzureVm => 1,
        TraceFamily::MustangHpc => 2,
    }
}

fn family_from_tag(tag: u8) -> Result<TraceFamily> {
    Ok(match tag {
        0 => TraceFamily::AlibabaPai,
        1 => TraceFamily::AzureVm,
        2 => TraceFamily::MustangHpc,
        other => return Err(format!("invalid trace family tag {other}")),
    })
}

fn invariant_tag(invariant: AuditInvariant) -> u8 {
    match invariant {
        AuditInvariant::SegmentCoverage => 0,
        AuditInvariant::Occupancy => 1,
        AuditInvariant::Accounting => 2,
        AuditInvariant::WorkConservation => 3,
        AuditInvariant::Timing => 4,
        AuditInvariant::Degradation => 5,
    }
}

fn invariant_from_tag(tag: u8) -> Result<AuditInvariant> {
    Ok(match tag {
        0 => AuditInvariant::SegmentCoverage,
        1 => AuditInvariant::Occupancy,
        2 => AuditInvariant::Accounting,
        3 => AuditInvariant::WorkConservation,
        4 => AuditInvariant::Timing,
        5 => AuditInvariant::Degradation,
        other => return Err(format!("invalid audit invariant tag {other}")),
    })
}

pub(crate) fn write_policy(w: &mut Writer, policy: &PolicySpec) {
    w.u8(base_policy_tag(policy.base));
    w.bool(policy.res_first);
    w.opt(policy.spot.as_ref(), |w, spot: &SpotConfig| {
        w.u64(spot.j_max.as_minutes());
    });
}

pub(crate) fn read_policy(r: &mut Reader<'_>) -> Result<PolicySpec> {
    let base = base_policy_from_tag(r.u8()?)?;
    let res_first = r.bool()?;
    let spot = r.opt(|r| {
        r.u64().map(|m| SpotConfig {
            j_max: Minutes::new(m),
        })
    })?;
    Ok(PolicySpec {
        base,
        res_first,
        spot,
    })
}

pub(crate) fn write_scale(w: &mut Writer, scale: ScaleSpec) {
    match scale {
        ScaleSpec::Week => w.u8(0),
        ScaleSpec::Year { jobs } => {
            w.u8(1);
            w.u64(jobs as u64);
        }
    }
}

pub(crate) fn read_scale(r: &mut Reader<'_>) -> Result<ScaleSpec> {
    Ok(match r.u8()? {
        0 => ScaleSpec::Week,
        1 => ScaleSpec::Year {
            jobs: r.u64()? as usize,
        },
        other => return Err(format!("invalid scale tag {other}")),
    })
}

pub(crate) fn write_cluster(w: &mut Writer, cluster: &ClusterSpec) {
    w.u32(cluster.reserved);
    w.f64(cluster.eviction);
    w.u64(cluster.billing_days);
}

pub(crate) fn read_cluster(r: &mut Reader<'_>) -> Result<ClusterSpec> {
    Ok(ClusterSpec {
        reserved: r.u32()?,
        eviction: r.f64()?,
        billing_days: r.u64()?,
    })
}

pub(crate) fn write_queues(w: &mut Writer, queues: &QueueSpec) {
    w.u64(queues.short_hours);
    w.u64(queues.long_hours);
}

pub(crate) fn read_queues(r: &mut Reader<'_>) -> Result<QueueSpec> {
    Ok(QueueSpec {
        short_hours: r.u64()?,
        long_hours: r.u64()?,
    })
}

pub(crate) fn write_scenario(w: &mut Writer, scenario: &Scenario) {
    write_policy(w, &scenario.policy);
    w.u8(region_tag(scenario.region));
    w.u8(family_tag(scenario.family));
    write_scale(w, scenario.scale);
    w.u64(scenario.seed);
    write_cluster(w, &scenario.cluster);
    write_queues(w, &scenario.queues);
}

pub(crate) fn read_scenario(r: &mut Reader<'_>) -> Result<Scenario> {
    Ok(Scenario {
        policy: read_policy(r)?,
        region: region_from_tag(r.u8()?)?,
        family: family_from_tag(r.u8()?)?,
        scale: read_scale(r)?,
        seed: r.u64()?,
        cluster: read_cluster(r)?,
        queues: read_queues(r)?,
    })
}

pub(crate) fn write_grid(w: &mut Writer, grid: &SweepGrid) {
    w.u64(grid.policies.len() as u64);
    for policy in &grid.policies {
        write_policy(w, policy);
    }
    w.u64(grid.regions.len() as u64);
    for &region in &grid.regions {
        w.u8(region_tag(region));
    }
    w.u64(grid.families.len() as u64);
    for &family in &grid.families {
        w.u8(family_tag(family));
    }
    write_scale(w, grid.scale);
    w.u64(grid.seeds.len() as u64);
    for &seed in &grid.seeds {
        w.u64(seed);
    }
    w.u64(grid.clusters.len() as u64);
    for cluster in &grid.clusters {
        write_cluster(w, cluster);
    }
    w.u64(grid.queues.len() as u64);
    for queues in &grid.queues {
        write_queues(w, queues);
    }
}

pub(crate) fn read_grid(r: &mut Reader<'_>) -> Result<SweepGrid> {
    let n = r.count(3)?;
    let mut policies = Vec::with_capacity(n);
    for _ in 0..n {
        policies.push(read_policy(r)?);
    }
    let n = r.count(1)?;
    let mut regions = Vec::with_capacity(n);
    for _ in 0..n {
        regions.push(region_from_tag(r.u8()?)?);
    }
    let n = r.count(1)?;
    let mut families = Vec::with_capacity(n);
    for _ in 0..n {
        families.push(family_from_tag(r.u8()?)?);
    }
    let scale = read_scale(r)?;
    let n = r.count(8)?;
    let mut seeds = Vec::with_capacity(n);
    for _ in 0..n {
        seeds.push(r.u64()?);
    }
    let n = r.count(20)?;
    let mut clusters = Vec::with_capacity(n);
    for _ in 0..n {
        clusters.push(read_cluster(r)?);
    }
    let n = r.count(16)?;
    let mut queues = Vec::with_capacity(n);
    for _ in 0..n {
        queues.push(read_queues(r)?);
    }
    if policies.is_empty()
        || regions.is_empty()
        || families.is_empty()
        || seeds.is_empty()
        || clusters.is_empty()
        || queues.is_empty()
    {
        return Err("grid with an empty axis".to_owned());
    }
    Ok(SweepGrid {
        policies,
        regions,
        families,
        scale,
        seeds,
        clusters,
        queues,
    })
}

pub(crate) fn write_summary(w: &mut Writer, summary: &Summary) {
    w.str(&summary.name);
    w.f64(summary.carbon_g);
    w.f64(summary.total_cost);
    w.f64(summary.mean_wait_hours);
    w.f64(summary.mean_completion_hours);
    w.f64(summary.reserved_utilization);
    w.u64(summary.evictions);
    w.u64(summary.jobs as u64);
}

pub(crate) fn read_summary(r: &mut Reader<'_>) -> Result<Summary> {
    Ok(Summary {
        name: r.str()?,
        carbon_g: r.f64()?,
        total_cost: r.f64()?,
        mean_wait_hours: r.f64()?,
        mean_completion_hours: r.f64()?,
        reserved_utilization: r.f64()?,
        evictions: r.u64()?,
        jobs: r.u64()? as usize,
    })
}

pub(crate) fn write_audit(w: &mut Writer, audit: &AuditReport) {
    w.u64(audit.checks_run as u64);
    w.u64(audit.violations.len() as u64);
    for violation in &audit.violations {
        w.u8(invariant_tag(violation.invariant));
        w.opt(violation.job.as_ref(), |w, job: &JobId| w.u64(job.0));
        w.str(&violation.detail);
    }
}

pub(crate) fn read_audit(r: &mut Reader<'_>) -> Result<AuditReport> {
    let checks_run = r.u64()? as usize;
    let n = r.count(10)?;
    let mut violations = Vec::with_capacity(n);
    for _ in 0..n {
        violations.push(AuditViolation {
            invariant: invariant_from_tag(r.u8()?)?,
            job: r.opt(|r| r.u64().map(JobId))?,
            detail: r.str()?,
        });
    }
    Ok(AuditReport {
        violations,
        checks_run,
    })
}

pub(crate) fn write_outcome(w: &mut Writer, outcome: &CellOutcome) {
    match outcome {
        CellOutcome::Completed { summary, audit } => {
            w.u8(0);
            write_summary(w, summary);
            w.opt(audit.as_ref(), write_audit);
        }
        CellOutcome::Retried {
            summary,
            audit,
            attempts,
            timed_out,
            recovered_error,
        } => {
            w.u8(1);
            write_summary(w, summary);
            w.opt(audit.as_ref(), write_audit);
            w.u32(*attempts);
            w.bool(*timed_out);
            w.str(recovered_error);
        }
        CellOutcome::Failed { error } => {
            w.u8(2);
            w.str(error);
        }
    }
}

pub(crate) fn read_outcome(r: &mut Reader<'_>) -> Result<CellOutcome> {
    Ok(match r.u8()? {
        0 => CellOutcome::Completed {
            summary: read_summary(r)?,
            audit: r.opt(read_audit)?,
        },
        1 => CellOutcome::Retried {
            summary: read_summary(r)?,
            audit: r.opt(read_audit)?,
            attempts: r.u32()?,
            timed_out: r.bool()?,
            recovered_error: r.str()?,
        },
        2 => CellOutcome::Failed { error: r.str()? },
        other => return Err(format!("invalid cell outcome tag {other}")),
    })
}

/// Serialize a registry's full state (counters and histograms) so a
/// cached or shard-local registry can be replayed into another registry
/// with [`read_metrics_into`]. Iteration order is the registry's own
/// sorted order, so equal states encode to equal bytes.
pub(crate) fn write_metrics(w: &mut Writer, registry: &MetricsRegistry) {
    let counters = registry.counter_values();
    w.u64(counters.len() as u64);
    for (name, value) in counters {
        w.str(&name);
        w.u64(value);
    }
    let histograms = registry.histogram_values();
    w.u64(histograms.len() as u64);
    for (name, hist) in histograms {
        w.str(&name);
        let buckets = hist.bucket_counts();
        debug_assert_eq!(buckets.len(), HISTOGRAM_BUCKETS);
        for count in &buckets {
            w.u64(*count);
        }
        w.u64(hist.count());
        w.u64(hist.sum_micros());
    }
}

/// Replay a [`write_metrics`] payload into `target` (additive merge).
pub(crate) fn read_metrics_into(r: &mut Reader<'_>, target: &MetricsRegistry) -> Result<()> {
    let n = r.count(16)?;
    for _ in 0..n {
        let name = r.str()?;
        let value = r.u64()?;
        if value > 0 {
            target.counter(&name).add(value);
        } else {
            target.counter(&name);
        }
    }
    let n = r.count(8 * (HISTOGRAM_BUCKETS + 2))?;
    for _ in 0..n {
        let name = r.str()?;
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for bucket in buckets.iter_mut() {
            *bucket = r.u64()?;
        }
        let count = r.u64()?;
        let sum_micro = r.u64()?;
        let bucketed = buckets
            .iter()
            .try_fold(0u64, |total, &n| total.checked_add(n));
        if bucketed != Some(count) {
            return Err(format!(
                "histogram {name:?} counts {count} observations but its buckets hold {}",
                bucketed.map_or_else(|| "more than u64::MAX".to_owned(), |n| n.to_string())
            ));
        }
        target
            .histogram(&name)
            .merge_raw(&buckets, count, sum_micro);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_scenarios() -> Vec<Scenario> {
        let mut grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec {
                    base: BasePolicyKind::CarbonTime,
                    res_first: true,
                    spot: Some(SpotConfig {
                        j_max: Minutes::from_hours(2),
                    }),
                },
            ])
            .regions(vec![Region::SouthAustralia, Region::Kentucky])
            .seeds(vec![42, 43]);
        grid.scale = ScaleSpec::Year { jobs: 1234 };
        grid.scenarios()
    }

    #[test]
    fn scenario_round_trips() {
        for scenario in sample_scenarios() {
            let mut w = Writer::new();
            write_scenario(&mut w, &scenario);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = read_scenario(&mut r).expect("decode");
            r.done().expect("no trailing bytes");
            assert_eq!(back.key(), scenario.key());
            // Re-encoding is byte-stable (the fingerprint contract).
            let mut w2 = Writer::new();
            write_scenario(&mut w2, &back);
            assert_eq!(w2.into_bytes(), bytes);
        }
    }

    #[test]
    fn grid_round_trips() {
        let grid = SweepGrid::week(9)
            .regions(vec![Region::California, Region::Ontario])
            .seeds(vec![1, 2, 3]);
        let mut w = Writer::new();
        write_grid(&mut w, &grid);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = read_grid(&mut r).expect("decode");
        r.done().expect("no trailing bytes");
        assert_eq!(back.describe(), grid.describe());
        assert_eq!(back.len(), grid.len());
    }

    #[test]
    fn outcome_round_trips() {
        let summary = Summary {
            name: "Carbon-Time".to_owned(),
            carbon_g: 1234.5,
            total_cost: 67.89,
            mean_wait_hours: 0.5,
            mean_completion_hours: 3.25,
            reserved_utilization: 0.91,
            evictions: 3,
            jobs: 1000,
        };
        let audit = AuditReport {
            violations: vec![AuditViolation {
                invariant: AuditInvariant::Timing,
                job: Some(JobId(7)),
                detail: "late by 3 min".to_owned(),
            }],
            checks_run: 512,
        };
        let outcomes = vec![
            CellOutcome::Completed {
                summary: summary.clone(),
                audit: Some(audit.clone()),
            },
            CellOutcome::Completed {
                summary: summary.clone(),
                audit: None,
            },
            CellOutcome::Retried {
                summary,
                audit: Some(audit),
                attempts: 3,
                timed_out: false,
                recovered_error: "injected fault (attempt 2)".to_owned(),
            },
            CellOutcome::Failed {
                error: "invalid policy decision".to_owned(),
            },
        ];
        for outcome in outcomes {
            let mut w = Writer::new();
            write_outcome(&mut w, &outcome);
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes);
            let back = read_outcome(&mut r).expect("decode");
            r.done().expect("no trailing bytes");
            assert_eq!(back, outcome);
        }
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let mut w = Writer::new();
        write_scenario(&mut w, &sample_scenarios()[0]);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(read_scenario(&mut r).is_err(), "cut at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut extended = bytes.clone();
        extended.push(0xFF);
        let mut r = Reader::new(&extended);
        read_scenario(&mut r).expect("prefix decodes");
        assert!(r.done().is_err());

        // A grid, an outcome and an audit report: every cut fails, and
        // overwrites and `u64::MAX` counts give an error or a valid
        // value, never a panic or an unbounded allocation.
        let mut w = Writer::new();
        write_grid(&mut w, &SweepGrid::week(9).seeds(vec![1, 2]));
        write_outcome(
            &mut w,
            &CellOutcome::Failed {
                error: "invalid policy decision".to_owned(),
            },
        );
        write_audit(
            &mut w,
            &AuditReport {
                violations: vec![AuditViolation {
                    invariant: AuditInvariant::Timing,
                    job: Some(JobId(7)),
                    detail: "late".to_owned(),
                }],
                checks_run: 3,
            },
        );
        let bytes = w.into_bytes();
        let decode = |bytes: &[u8]| {
            let mut r = Reader::new(bytes);
            read_grid(&mut r)?;
            read_outcome(&mut r)?;
            read_audit(&mut r)?;
            Ok::<_, String>(r.done()?)
        };
        decode(&bytes).expect("the valid payload decodes");
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        for corrupt in gaia_sim::codec::corruptions(&bytes) {
            let _ = decode(&corrupt);
        }
    }

    #[test]
    fn metrics_with_a_count_off_the_bucket_sum_are_rejected() {
        let src = MetricsRegistry::new();
        src.histogram("sweep.cell_wait_hours").observe(1.5);
        let mut w = Writer::new();
        write_metrics(&mut w, &src);
        let bytes = w.into_bytes();
        // The histogram's `count` sits just before its trailing `sum`.
        let count_at = bytes.len() - 16;
        let decode =
            |bytes: &[u8]| read_metrics_into(&mut Reader::new(bytes), &MetricsRegistry::new());
        decode(&bytes).expect("the valid payload decodes");
        for forged in [0u64, 2, u64::MAX] {
            let mut bad = bytes.clone();
            bad[count_at..count_at + 8].copy_from_slice(&forged.to_le_bytes());
            let err = decode(&bad).expect_err("count off the bucket sum");
            assert!(err.contains("buckets hold 1"), "{err}");
        }
        // Buckets whose sum overflows cannot match any count.
        let mut bad = bytes.clone();
        let first_bucket = count_at - 8 * HISTOGRAM_BUCKETS;
        for i in 0..2 {
            let at = first_bucket + 8 * i;
            bad[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        }
        let err = decode(&bad).expect_err("overflowing bucket sum");
        assert!(err.contains("more than u64::MAX"), "{err}");
    }

    #[test]
    fn metrics_round_trip_merges_additively() {
        let src = MetricsRegistry::new();
        src.counter("sweep.cells").add(7);
        src.counter("zeroed");
        src.histogram("sweep.cell_wait_hours").observe(1.5);
        src.histogram("sweep.cell_wait_hours").observe(0.01);
        let mut w = Writer::new();
        write_metrics(&mut w, &src);
        let bytes = w.into_bytes();

        let dst = MetricsRegistry::new();
        dst.counter("sweep.cells").add(1);
        let mut r = Reader::new(&bytes);
        read_metrics_into(&mut r, &dst).expect("decode");
        r.done().expect("no trailing bytes");

        let expect = MetricsRegistry::new();
        expect.counter("sweep.cells").add(8);
        expect.counter("zeroed");
        expect.histogram("sweep.cell_wait_hours").observe(1.5);
        expect.histogram("sweep.cell_wait_hours").observe(0.01);
        assert_eq!(dst.snapshot_json(), expect.snapshot_json());
    }
}
