//! CSV writers matching the paper artifact's three output files (§A.6):
//! "an aggregate file that contains the total consumption, a details
//! file that contains the consumption of each job, and a run time file
//! that contains the allocation and carbon consumption during the
//! execution time".

use std::io::Write;

use gaia_carbon::CarbonTrace;
use gaia_obs::text::RowWriter;
use gaia_time::SimTime;

use crate::report::SimReport;

const AGGREGATE_HEADER: &str = "jobs,carbon_g,cost_total,cost_reserved_prepaid,cost_on_demand,\
    cost_spot,total_waiting_min,total_completion_min,reserved_cpu_hours,on_demand_cpu_hours,\
    spot_cpu_hours,reserved_utilization,evictions";

const DETAILS_HEADER: &str = "job_id,arrival_min,length_min,cpus,first_start_min,finish_min,\
    waiting_min,completion_min,carbon_g,marginal_cost,evictions,segments";

const RUNTIME_HEADER: &str =
    "hour,reserved_cpus,on_demand_cpus,spot_cpus,carbon_intensity,carbon_g";

/// Writes the aggregate file: one row of cluster-wide totals.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_aggregate_csv<W: Write>(writer: W, report: &SimReport) -> std::io::Result<()> {
    let mut rows = RowWriter::new(writer);
    rows.text(AGGREGATE_HEADER).end_row()?;
    let t = &report.totals;
    rows.u64(t.jobs as u64)
        .fixed(t.carbon_g, 3)
        .fixed(t.total_cost(), 5)
        .fixed(t.cost_reserved_prepaid, 5)
        .fixed(t.cost_on_demand, 5)
        .fixed(t.cost_spot, 5)
        .u64(t.total_waiting.as_minutes())
        .u64(t.total_completion.as_minutes())
        .fixed(t.reserved_cpu_hours, 3)
        .fixed(t.on_demand_cpu_hours, 3)
        .fixed(t.spot_cpu_hours, 3)
        .fixed(t.reserved_utilization(), 4)
        .u64(t.evictions)
        .end_row()?;
    rows.finish()
}

/// Writes the details file: one row per job.
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_details_csv<W: Write>(writer: W, report: &SimReport) -> std::io::Result<()> {
    let mut rows = RowWriter::new(writer);
    rows.text(DETAILS_HEADER).end_row()?;
    for outcome in &report.jobs {
        rows.u64(outcome.job.id.0)
            .u64(outcome.job.arrival.as_minutes())
            .u64(outcome.job.length.as_minutes())
            .u64(u64::from(outcome.job.cpus))
            .u64(outcome.first_start.as_minutes())
            .u64(outcome.finish.as_minutes())
            .u64(outcome.waiting.as_minutes())
            .u64(outcome.completion.as_minutes())
            .fixed(outcome.carbon_g, 3)
            .fixed(outcome.cost, 5)
            .u64(u64::from(outcome.evictions))
            .u64(outcome.segments.len() as u64)
            .end_row()?;
    }
    rows.finish()
}

/// Writes the run-time file: hourly allocation per purchase option plus
/// the carbon consumed during that hour (all running jobs weighted by
/// the hour's carbon intensity).
///
/// # Errors
///
/// Returns any I/O error from the writer.
pub fn write_runtime_csv<W: Write>(
    writer: W,
    report: &SimReport,
    carbon: &CarbonTrace,
) -> std::io::Result<()> {
    let mut rows = RowWriter::new(writer);
    rows.text(RUNTIME_HEADER).end_row()?;
    let timeline = &report.timeline;
    for hour in 0..timeline.hours() {
        let busy = timeline.total_at(hour);
        let ci = carbon.intensity_at(SimTime::from_hours(hour as u64));
        rows.u64(hour as u64)
            .fixed(timeline.reserved[hour], 3)
            .fixed(timeline.on_demand[hour], 3)
            .fixed(timeline.spot[hour], 3)
            .fixed(ci, 1)
            .fixed(busy * ci, 3)
            .end_row()?;
    }
    rows.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClusterConfig, Decision, EvictionModel, Scheduler, SchedulerContext, Simulation};
    use gaia_carbon::Region;
    use gaia_time::Minutes;
    use gaia_workload::synth::TraceFamily;
    use gaia_workload::{Job, JobId, WorkloadTrace};

    /// The `writeln!` writers the [`RowWriter`] ones replaced: the
    /// reference their bytes are compared against.
    mod oracle {
        use super::*;

        pub fn write_aggregate_csv<W: Write>(
            mut writer: W,
            report: &SimReport,
        ) -> std::io::Result<()> {
            writeln!(
                writer,
                "jobs,carbon_g,cost_total,cost_reserved_prepaid,cost_on_demand,cost_spot,\
                 total_waiting_min,total_completion_min,reserved_cpu_hours,on_demand_cpu_hours,\
                 spot_cpu_hours,reserved_utilization,evictions"
            )?;
            let t = &report.totals;
            writeln!(
                writer,
                "{},{:.3},{:.5},{:.5},{:.5},{:.5},{},{},{:.3},{:.3},{:.3},{:.4},{}",
                t.jobs,
                t.carbon_g,
                t.total_cost(),
                t.cost_reserved_prepaid,
                t.cost_on_demand,
                t.cost_spot,
                t.total_waiting.as_minutes(),
                t.total_completion.as_minutes(),
                t.reserved_cpu_hours,
                t.on_demand_cpu_hours,
                t.spot_cpu_hours,
                t.reserved_utilization(),
                t.evictions,
            )
        }

        pub fn write_details_csv<W: Write>(
            mut writer: W,
            report: &SimReport,
        ) -> std::io::Result<()> {
            writeln!(
                writer,
                "job_id,arrival_min,length_min,cpus,first_start_min,finish_min,waiting_min,\
                 completion_min,carbon_g,marginal_cost,evictions,segments"
            )?;
            for outcome in &report.jobs {
                writeln!(
                    writer,
                    "{},{},{},{},{},{},{},{},{:.3},{:.5},{},{}",
                    outcome.job.id.0,
                    outcome.job.arrival.as_minutes(),
                    outcome.job.length.as_minutes(),
                    outcome.job.cpus,
                    outcome.first_start.as_minutes(),
                    outcome.finish.as_minutes(),
                    outcome.waiting.as_minutes(),
                    outcome.completion.as_minutes(),
                    outcome.carbon_g,
                    outcome.cost,
                    outcome.evictions,
                    outcome.segments.len(),
                )?;
            }
            Ok(())
        }

        pub fn write_runtime_csv<W: Write>(
            mut writer: W,
            report: &SimReport,
            carbon: &CarbonTrace,
        ) -> std::io::Result<()> {
            writeln!(
                writer,
                "hour,reserved_cpus,on_demand_cpus,spot_cpus,carbon_intensity,carbon_g"
            )?;
            for hour in 0..report.timeline.hours() {
                let busy = report.timeline.total_at(hour);
                let ci = carbon.intensity_at(SimTime::from_hours(hour as u64));
                writeln!(
                    writer,
                    "{},{:.3},{:.3},{:.3},{:.1},{:.3}",
                    hour,
                    report.timeline.reserved[hour],
                    report.timeline.on_demand[hour],
                    report.timeline.spot[hour],
                    ci,
                    busy * ci,
                )?;
            }
            Ok(())
        }
    }

    struct RunNow;
    impl Scheduler for RunNow {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            Decision::run_at(job.arrival)
        }
    }

    fn small_report() -> (SimReport, CarbonTrace) {
        let carbon = CarbonTrace::from_hourly(vec![100.0, 200.0, 50.0, 75.0]).expect("valid");
        let trace = WorkloadTrace::from_jobs(vec![
            Job::new(JobId(0), SimTime::ORIGIN, Minutes::new(90), 2),
            Job::new(JobId(0), SimTime::from_hours(1), Minutes::new(30), 1),
        ]);
        let report = Simulation::new(ClusterConfig::default().with_reserved(1), &carbon)
            .runner(&trace, &mut RunNow)
            .execute()
            .expect("valid decisions")
            .into_report();
        (report, carbon)
    }

    /// Jobs of up to two hours go to spot at arrival, the rest run at
    /// arrival on reserved capacity, spilling to on-demand.
    struct ShortOnSpot;
    impl Scheduler for ShortOnSpot {
        fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
            let decision = Decision::run_at(job.arrival);
            if job.length <= Minutes::new(120) {
                decision.on_spot()
            } else {
                decision
            }
        }
    }

    fn bytes(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf).expect("writing to a Vec cannot fail");
        buf
    }

    #[test]
    fn writers_match_the_writeln_oracles_on_a_year_scale_report() {
        let carbon = gaia_carbon::synth::synthesize_region(Region::SouthAustralia, 7);
        let trace = TraceFamily::AlibabaPai.year_long(3_000, 7);
        let config = ClusterConfig::default()
            .with_reserved(8)
            .with_eviction(EvictionModel::hourly(0.2))
            .with_seed(7);
        let report = Simulation::new(config, &carbon)
            .runner(&trace, &mut ShortOnSpot)
            .execute()
            .expect("valid decisions")
            .into_report();
        let t = &report.totals;
        assert!(t.evictions > 0, "no spot evictions");
        assert!(t.cost_on_demand > 0.0 && t.cost_spot > 0.0);

        let details = bytes(|w| write_details_csv(w, &report));
        // Several 64 KiB blocks, so block boundaries are crossed.
        assert!(details.len() > 2 * 64 * 1024, "{} bytes", details.len());
        assert!(details == bytes(|w| oracle::write_details_csv(w, &report)));
        assert!(
            bytes(|w| write_aggregate_csv(w, &report))
                == bytes(|w| oracle::write_aggregate_csv(w, &report))
        );
        let runtime = bytes(|w| write_runtime_csv(w, &report, &carbon));
        assert!(runtime == bytes(|w| oracle::write_runtime_csv(w, &report, &carbon)));
        assert_eq!(
            String::from_utf8(runtime).expect("utf-8").lines().count(),
            1 + report.timeline.hours()
        );
    }

    #[test]
    fn aggregate_csv_has_one_data_row() {
        let (report, _) = small_report();
        let mut buf = Vec::new();
        write_aggregate_csv(&mut buf, &report).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("jobs,carbon_g"));
        assert!(lines[1].starts_with("2,"));
        // Column count matches the header.
        assert_eq!(lines[0].split(',').count(), lines[1].split(',').count());
    }

    #[test]
    fn details_csv_has_one_row_per_job() {
        let (report, _) = small_report();
        let mut buf = Vec::new();
        write_details_csv(&mut buf, &report).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().nth(1).expect("row").starts_with("0,0,90,2,"));
    }

    #[test]
    fn runtime_csv_covers_billing_horizon() {
        let (report, carbon) = small_report();
        let mut buf = Vec::new();
        write_runtime_csv(&mut buf, &report, &carbon).expect("write");
        let text = String::from_utf8(buf).expect("utf-8");
        // Header + one row per timeline hour.
        assert_eq!(text.lines().count(), 1 + report.timeline.hours());
        // Hour 0: 2 cpus busy at CI 100 -> 200 g.
        let hour0 = text.lines().nth(1).expect("row");
        assert!(hour0.starts_with("0,"), "{hour0}");
        assert!(hour0.ends_with("200.000"), "{hour0}");
    }
}
