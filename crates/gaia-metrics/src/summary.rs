//! Per-run summaries and the paper's two normalization conventions.

use gaia_sim::SimReport;
use serde::{Deserialize, Serialize};

/// One row of an experiment: the metrics the paper reports for a single
/// (policy, configuration) run.
///
/// # Examples
///
/// ```
/// use gaia_carbon::CarbonTrace;
/// use gaia_core::catalog::{BasePolicyKind, PolicySpec};
/// use gaia_metrics::{runner, Summary};
/// use gaia_sim::ClusterConfig;
/// use gaia_workload::synth::section3_workload;
///
/// let carbon = CarbonTrace::constant(100.0, 24 * 4)?;
/// let trace = section3_workload(1);
/// let summary = runner::run_spec(
///     PolicySpec::plain(BasePolicyKind::NoWait),
///     &trace,
///     &carbon,
///     ClusterConfig::default(),
/// );
/// assert_eq!(summary.mean_wait_hours, 0.0);
/// # Ok::<(), gaia_carbon::CarbonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Composed policy name (e.g. `"RES-First-Carbon-Time"`).
    pub name: String,
    /// Total carbon, grams CO₂eq.
    pub carbon_g: f64,
    /// Total cost: reserved prepayment plus usage.
    pub total_cost: f64,
    /// Mean per-job waiting time, hours.
    pub mean_wait_hours: f64,
    /// Mean per-job completion time, hours.
    pub mean_completion_hours: f64,
    /// Utilization of reserved capacity in `[0, 1]`.
    pub reserved_utilization: f64,
    /// Total spot evictions.
    pub evictions: u64,
    /// Number of jobs.
    pub jobs: usize,
}

impl Summary {
    /// Summarizes a simulation report under the given display name.
    pub fn of(name: impl Into<String>, report: &SimReport) -> Summary {
        Summary {
            name: name.into(),
            carbon_g: report.totals.carbon_g,
            total_cost: report.totals.total_cost(),
            mean_wait_hours: report.totals.mean_waiting().as_hours_f64(),
            mean_completion_hours: report.totals.mean_completion().as_hours_f64(),
            reserved_utilization: report.totals.reserved_utilization(),
            evictions: report.totals.evictions,
            jobs: report.totals.jobs,
        }
    }

    /// Carbon in kilograms.
    pub fn carbon_kg(&self) -> f64 {
        self.carbon_g / 1000.0
    }
}

/// A summary with each metric normalized into `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NormalizedSummary {
    /// Composed policy name.
    pub name: String,
    /// Carbon relative to the reference.
    pub carbon: f64,
    /// Cost relative to the reference.
    pub cost: f64,
    /// Mean waiting time relative to the reference.
    pub waiting: f64,
}

/// Normalizes each metric to the **highest value among the rows** — the
/// convention of Figures 8, 10, 13, and 17 ("normalized to the highest
/// value in each metric").
///
/// Metrics whose maximum is zero (e.g. waiting under all-NoWait rows)
/// normalize to zero.
pub fn normalize_to_max(rows: &[Summary]) -> Vec<NormalizedSummary> {
    let max_carbon = rows.iter().map(|r| r.carbon_g).fold(0.0, f64::max);
    let max_cost = rows.iter().map(|r| r.total_cost).fold(0.0, f64::max);
    let max_wait = rows.iter().map(|r| r.mean_wait_hours).fold(0.0, f64::max);
    let norm = |v: f64, max: f64| if max > 0.0 { v / max } else { 0.0 };
    rows.iter()
        .map(|r| NormalizedSummary {
            name: r.name.clone(),
            carbon: norm(r.carbon_g, max_carbon),
            cost: norm(r.total_cost, max_cost),
            waiting: norm(r.mean_wait_hours, max_wait),
        })
        .collect()
}

/// Expresses `run`'s metrics relative to `baseline` (1.0 = equal) — the
/// convention of Figures 11, 15, 16, 18, and 19 ("w.r.t. NoWait
/// execution").
///
/// A baseline metric of zero maps to 1.0 when the run's metric is also
/// zero and `f64::INFINITY` otherwise.
pub fn relative_to(run: &Summary, baseline: &Summary) -> NormalizedSummary {
    let rel = |v: f64, b: f64| {
        if b > 0.0 {
            v / b
        } else if v == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    };
    NormalizedSummary {
        name: run.name.clone(),
        carbon: rel(run.carbon_g, baseline.carbon_g),
        cost: rel(run.total_cost, baseline.total_cost),
        waiting: rel(run.mean_wait_hours, baseline.mean_wait_hours),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(name: &str, carbon: f64, cost: f64, wait: f64) -> Summary {
        Summary {
            name: name.into(),
            carbon_g: carbon,
            total_cost: cost,
            mean_wait_hours: wait,
            mean_completion_hours: wait + 1.0,
            reserved_utilization: 0.5,
            evictions: 0,
            jobs: 10,
        }
    }

    #[test]
    fn normalize_to_max_scales_each_metric() {
        let rows = vec![
            summary("a", 100.0, 10.0, 0.0),
            summary("b", 50.0, 20.0, 4.0),
        ];
        let normalized = normalize_to_max(&rows);
        assert_eq!(normalized[0].carbon, 1.0);
        assert_eq!(normalized[1].carbon, 0.5);
        assert_eq!(normalized[0].cost, 0.5);
        assert_eq!(normalized[1].cost, 1.0);
        assert_eq!(normalized[0].waiting, 0.0);
        assert_eq!(normalized[1].waiting, 1.0);
    }

    #[test]
    fn normalize_handles_all_zero_metric() {
        let rows = vec![summary("a", 10.0, 5.0, 0.0), summary("b", 20.0, 5.0, 0.0)];
        let normalized = normalize_to_max(&rows);
        assert!(normalized.iter().all(|r| r.waiting == 0.0));
    }

    #[test]
    fn relative_to_baseline() {
        let baseline = summary("NoWait", 200.0, 10.0, 0.0);
        let run = summary("Carbon-Time", 150.0, 12.0, 2.0);
        let rel = relative_to(&run, &baseline);
        assert!((rel.carbon - 0.75).abs() < 1e-12);
        assert!((rel.cost - 1.2).abs() < 1e-12);
        assert!(rel.waiting.is_infinite()); // baseline waiting is zero
                                            // Equal zero metrics are 1.0.
        let same = relative_to(&baseline, &baseline);
        assert_eq!(same.waiting, 1.0);
    }

    #[test]
    fn carbon_kg_conversion() {
        assert!((summary("x", 2500.0, 0.0, 0.0).carbon_kg() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn summary_of_reads_the_report_totals() {
        let trace = gaia_workload::synth::section3_workload(2);
        let carbon = gaia_carbon::CarbonTrace::constant(300.0, 24 * 5).unwrap();
        let config = gaia_sim::ClusterConfig::default().with_reserved(3);
        let report = crate::runner::run_spec_report(
            gaia_core::catalog::PolicySpec::plain(gaia_core::catalog::BasePolicyKind::NoWait),
            &trace,
            &carbon,
            config,
        );
        let s = Summary::of("row", &report);
        assert_eq!(s.name, "row");
        assert_eq!(s.carbon_g, report.totals.carbon_g);
        assert_eq!(s.total_cost, report.totals.total_cost());
        assert_eq!(s.mean_wait_hours, report.mean_waiting().as_hours_f64());
        assert_eq!(
            s.mean_completion_hours,
            report.totals.mean_completion().as_hours_f64()
        );
        assert_eq!(s.reserved_utilization, report.totals.reserved_utilization());
        assert_eq!(s.evictions, report.totals.evictions);
        assert_eq!(s.jobs, trace.len());
    }

    #[test]
    fn normalize_keeps_row_order_and_names() {
        assert!(normalize_to_max(&[]).is_empty());
        let rows = vec![summary("z", 1.0, 1.0, 1.0), summary("a", 2.0, 2.0, 2.0)];
        let names: Vec<String> = normalize_to_max(&rows)
            .into_iter()
            .map(|r| r.name)
            .collect();
        assert_eq!(names, ["z", "a"]);
    }
}
