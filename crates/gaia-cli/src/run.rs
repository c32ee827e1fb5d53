//! Experiment execution for the `gaia` CLI.

use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::CarbonTrace;
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::{BatchPolicy, CarbonTax, CarbonTimeSuspend, GaiaScheduler, SpotConfig};
use gaia_metrics::table::TextTable;
use gaia_metrics::{relative_to, Summary};
use gaia_obs::{JsonlSink, MetricsRegistry, NullSink, Profiler, Sink};
use gaia_sim::{
    CheckpointConfig, ClusterConfig, EvictionModel, FaultPlan, FaultSchedule, InstanceOverheads,
    SimRun, Simulation,
};
use gaia_time::Minutes;
use gaia_workload::synth::{section3_workload, TraceFamily};
use gaia_workload::{QueueSet, WorkloadTrace};

use crate::args::{Options, PolicyChoice, Scale, TraceChoice};

/// Runs the experiment described by `options`.
///
/// Exit codes: 0 on success, 1 on usage/I/O/simulation errors, 2 when
/// `--audit` finds invariant violations in the finished run.
pub fn execute(options: &Options) -> ExitCode {
    match try_execute(options) {
        Ok(code) => code,
        Err(message) => {
            gaia_obs::error!("{message}");
            ExitCode::FAILURE
        }
    }
}

fn try_execute(options: &Options) -> Result<ExitCode, String> {
    // Self-profiling rides with --metrics; phases cover trace loading,
    // the engine (plan + event loop), the audit, and artifact writes.
    let profiler = options.metrics.then(Profiler::new);
    let profiler = profiler.as_ref();
    let carbon = {
        let _t = profiler.map(|p| p.phase("load_carbon"));
        load_carbon(options)?
    };
    let workload = {
        let _t = profiler.map(|p| p.phase("load_workload"));
        load_workload(options)?
    };
    let queues = QueueSet::paper_defaults()
        .with_waits(options.wait_short, options.wait_long)
        .with_averages_from(workload.jobs());
    let faults = load_faults(options)?;
    let faults = faults.as_ref();

    let billing = billing_horizon(&workload);
    let mut config = ClusterConfig::default()
        .with_reserved(options.reserved)
        .with_eviction(EvictionModel::hourly(options.eviction))
        .with_seed(options.seed)
        .with_billing_horizon(billing)
        .with_overheads(InstanceOverheads {
            startup: Minutes::new(options.overheads.0),
            teardown: Minutes::new(options.overheads.1),
        });
    if let Some((interval_h, overhead_min)) = options.checkpoint {
        config = config.with_checkpointing(CheckpointConfig::every_hours(interval_h, overhead_min));
    }

    // The event trace covers the primary policy run only; the --baseline
    // comparison run stays untraced (NullSink: instrumentation compiles
    // out, so traced and untraced runs produce identical reports). The
    // invariant audit rides inside the same runner call when --audit is
    // set, so its phase timing lands next to plan/event_loop.
    let SimRun { report, audit } = match &options.trace_out {
        Some(path) => {
            let file = File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let mut sink = JsonlSink::new(BufWriter::new(file));
            let run = run_choice(
                options,
                &workload,
                &carbon,
                config,
                queues,
                faults,
                &mut sink,
                profiler,
                options.audit,
            )?;
            let events = sink.written();
            sink.finish()
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            gaia_obs::info!("trace: {events} events written to {path}");
            run
        }
        None => run_choice(
            options,
            &workload,
            &carbon,
            config,
            queues,
            faults,
            &mut NullSink,
            profiler,
            options.audit,
        )?,
    };
    let summary = Summary::of(policy_name(options), &report);

    {
        let _t = profiler.map(|p| p.phase("write"));
        if let Some(path) = &options.details {
            write_csv(path, |w| gaia_sim::output::write_details_csv(w, &report))?;
        }
        if let Some(path) = &options.aggregate {
            write_csv(path, |w| gaia_sim::output::write_aggregate_csv(w, &report))?;
        }
        if let Some(path) = &options.runtime {
            write_csv(path, |w| {
                gaia_sim::output::write_runtime_csv(w, &report, &carbon)
            })?;
        }
    }

    let mut table = TextTable::new(vec![
        "policy",
        "carbon (kg)",
        "cost ($)",
        "mean wait (h)",
        "mean completion (h)",
        "reserved util",
        "evictions",
    ]);
    push_summary_row(&mut table, &summary);

    if options.baseline && summary.name != "NoWait" {
        let baseline_spec = PolicySpec::plain(BasePolicyKind::NoWait);
        // The baseline runs under the same fault plan so the relative
        // metrics compare policies, not fault exposure.
        let baseline_report = run(
            baseline_spec,
            &workload,
            &carbon,
            config,
            queues,
            faults,
            &mut NullSink,
            profiler,
            false,
        )?
        .report;
        let baseline = Summary::of("NoWait", &baseline_report);
        push_summary_row(&mut table, &baseline);
        print_table(options, &table);
        let rel = relative_to(&summary, &baseline);
        println!(
            "relative to NoWait: carbon {:.3}  cost {:.3}  ({:+.1}% carbon, {:+.1}% cost)",
            rel.carbon,
            rel.cost,
            (rel.carbon - 1.0) * 100.0,
            (rel.cost - 1.0) * 100.0,
        );
    } else {
        print_table(options, &table);
    }

    if options.metrics {
        let registry = MetricsRegistry::new();
        gaia_metrics::observe::observe_report(&registry, &report);
        println!("{}", registry.snapshot_json());
    }

    let audit_code = if let Some(audit) = audit {
        if audit.is_clean() {
            gaia_obs::info!("audit: {} checks, no violations", audit.checks_run);
            ExitCode::SUCCESS
        } else {
            for violation in &audit.violations {
                gaia_obs::error!("audit: {violation}");
            }
            gaia_obs::error!(
                "audit: {} violation(s) across {} checks",
                audit.violations.len(),
                audit.checks_run
            );
            ExitCode::from(2)
        }
    } else {
        ExitCode::SUCCESS
    };

    if let Some(p) = profiler {
        gaia_obs::info!("phase timings\n{}", p.table());
    }
    Ok(audit_code)
}

fn print_table(options: &Options, table: &TextTable) {
    if options.csv {
        print!("{}", table.to_csv());
    } else {
        print!("{table}");
    }
}

fn push_summary_row(table: &mut TextTable, summary: &Summary) {
    table.row(vec![
        summary.name.clone(),
        format!("{:.1}", summary.carbon_kg()),
        format!("{:.2}", summary.total_cost),
        format!("{:.2}", summary.mean_wait_hours),
        format!("{:.2}", summary.mean_completion_hours),
        format!("{:.2}", summary.reserved_utilization),
        summary.evictions.to_string(),
    ]);
}

#[allow(clippy::too_many_arguments)]
fn run<S: Sink>(
    spec: PolicySpec,
    workload: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
    queues: QueueSet,
    faults: Option<&FaultSchedule>,
    sink: &mut S,
    profiler: Option<&Profiler>,
    audit: bool,
) -> Result<SimRun, String> {
    let mut scheduler = spec.build(queues);
    simulate(
        config,
        carbon,
        workload,
        &mut scheduler,
        faults,
        sink,
        profiler,
        audit,
    )
}

/// Builds and runs the selected policy, including the extension policies
/// that live outside the paper's Table 1 catalog. Invalid policy
/// decisions come back as an error (exit 1), not a process abort.
#[allow(clippy::too_many_arguments)]
fn run_choice<S: Sink>(
    options: &Options,
    workload: &WorkloadTrace,
    carbon: &CarbonTrace,
    config: ClusterConfig,
    queues: QueueSet,
    faults: Option<&FaultSchedule>,
    sink: &mut S,
    profiler: Option<&Profiler>,
    audit: bool,
) -> Result<SimRun, String> {
    let base: Box<dyn BatchPolicy> = match options.policy {
        PolicyChoice::Base(kind) => {
            let spec = PolicySpec {
                base: kind,
                res_first: options.res_first,
                spot: options.spot_j_max.map(|j_max| SpotConfig { j_max }),
            };
            return run(
                spec, workload, carbon, config, queues, faults, sink, profiler, audit,
            );
        }
        PolicyChoice::CarbonTimeSr => Box::new(CarbonTimeSuspend::new(queues)),
        PolicyChoice::CarbonTax => Box::new(CarbonTax::new(
            queues,
            options.tax_per_kg,
            options.delay_value_per_hour,
        )),
    };
    let mut scheduler = GaiaScheduler::new(base);
    if options.res_first {
        scheduler = scheduler.res_first();
    }
    if let Some(j_max) = options.spot_j_max {
        scheduler = scheduler.spot_first(SpotConfig { j_max });
    }
    simulate(
        config,
        carbon,
        workload,
        &mut scheduler,
        faults,
        sink,
        profiler,
        audit,
    )
}

#[allow(clippy::too_many_arguments)]
fn simulate<S: Sink>(
    config: ClusterConfig,
    carbon: &CarbonTrace,
    workload: &WorkloadTrace,
    scheduler: &mut dyn gaia_sim::Scheduler,
    faults: Option<&FaultSchedule>,
    sink: &mut S,
    profiler: Option<&Profiler>,
    audit: bool,
) -> Result<SimRun, String> {
    let mut sim = Simulation::new(config, carbon);
    if let Some(schedule) = faults {
        sim = sim.with_faults(schedule);
    }
    if let Some(p) = profiler {
        sim = sim.with_profiler(p);
    }
    sim.runner(workload, scheduler)
        .sink(sink)
        .audit(audit)
        .execute()
        .map_err(|e| e.to_string())
}

/// Loads and compiles `--faults FILE` into an engine-ready schedule.
fn load_faults(options: &Options) -> Result<Option<FaultSchedule>, String> {
    let Some(path) = &options.faults else {
        return Ok(None);
    };
    let plan = FaultPlan::load(std::path::Path::new(path))
        .map_err(|e| format!("cannot load fault plan {path}: {e}"))?;
    let schedule = plan
        .compile()
        .map_err(|e| format!("invalid fault plan {path}: {e}"))?;
    gaia_obs::info!(
        "fault plan: {} spec(s) loaded from {path}",
        plan.specs().len()
    );
    Ok(Some(schedule))
}

/// The display name for the selected policy configuration.
fn policy_name(options: &Options) -> String {
    let base = match options.policy {
        PolicyChoice::Base(kind) => {
            return PolicySpec {
                base: kind,
                res_first: options.res_first,
                spot: options.spot_j_max.map(|j_max| SpotConfig { j_max }),
            }
            .name()
        }
        PolicyChoice::CarbonTimeSr => "Carbon-Time-SR",
        PolicyChoice::CarbonTax => "Carbon-Tax",
    };
    match (options.res_first, options.spot_j_max.is_some()) {
        (false, false) => base.to_owned(),
        (true, false) => format!("RES-First-{base}"),
        (false, true) => format!("Spot-First-{base}"),
        (true, true) => format!("Spot-RES-{base}"),
    }
}

fn load_carbon(options: &Options) -> Result<CarbonTrace, String> {
    if let Some(path) = &options.carbon_csv {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return gaia_carbon::io::read_trace_csv(BufReader::new(file))
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    Ok(synthesize_region(options.region, options.seed))
}

fn load_workload(options: &Options) -> Result<WorkloadTrace, String> {
    if let Some(path) = &options.workload_csv {
        let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
        return gaia_workload::io::read_trace_csv(BufReader::new(file))
            .map_err(|e| format!("cannot parse {path}: {e}"));
    }
    let trace = match (options.trace, options.scale) {
        (TraceChoice::Section3, _) => section3_workload(options.seed),
        (choice, Scale::Week) => family(choice).week_long_1k(options.seed),
        (choice, Scale::Year) => family(choice).year_long(options.jobs, options.seed),
    };
    Ok(trace)
}

fn family(choice: TraceChoice) -> TraceFamily {
    match choice {
        TraceChoice::Alibaba => TraceFamily::AlibabaPai,
        TraceChoice::Azure => TraceFamily::AzureVm,
        TraceChoice::Mustang => TraceFamily::MustangHpc,
        TraceChoice::Section3 => unreachable!("handled by the caller"),
    }
}

fn billing_horizon(workload: &WorkloadTrace) -> Minutes {
    // Contract period: the workload span rounded up to whole days, plus
    // two days of slack for delayed tails (identical across policies).
    let span_days = workload
        .nominal_makespan()
        .as_minutes()
        .div_ceil(gaia_time::MINUTES_PER_DAY);
    Minutes::from_days(span_days + 2)
}

fn write_csv(
    path: &str,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let mut writer =
        BufWriter::new(File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?);
    write(&mut writer).map_err(|e| format!("cannot write {path}: {e}"))?;
    writer
        .flush()
        .map_err(|e| format!("cannot flush {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_workload::{Job, JobId};

    #[test]
    fn policy_names_carry_the_capacity_prefixes() {
        let mut options = Options {
            policy: PolicyChoice::CarbonTax,
            ..Options::default()
        };
        assert_eq!(policy_name(&options), "Carbon-Tax");
        options.res_first = true;
        assert_eq!(policy_name(&options), "RES-First-Carbon-Tax");
        options.spot_j_max = Some(Minutes::from_hours(2));
        assert_eq!(policy_name(&options), "Spot-RES-Carbon-Tax");
        options.res_first = false;
        options.policy = PolicyChoice::CarbonTimeSr;
        assert_eq!(policy_name(&options), "Spot-First-Carbon-Time-SR");

        // Base policies take their name from the catalog.
        let base = Options {
            res_first: true,
            ..Options::default()
        };
        let spec = PolicySpec {
            base: BasePolicyKind::CarbonTime,
            res_first: true,
            spot: None,
        };
        assert_eq!(policy_name(&base), spec.name());
    }

    #[test]
    fn billing_covers_whole_days_plus_two_of_slack() {
        let trace = |end_min: u64| {
            WorkloadTrace::from_jobs(vec![Job::new(
                JobId(0),
                gaia_time::SimTime::ORIGIN,
                Minutes::new(end_min),
                1,
            )])
        };
        assert_eq!(billing_horizon(&trace(1)), Minutes::from_days(3));
        assert_eq!(billing_horizon(&trace(24 * 60)), Minutes::from_days(3));
        assert_eq!(billing_horizon(&trace(24 * 60 + 1)), Minutes::from_days(4));
        assert_eq!(
            billing_horizon(&WorkloadTrace::from_jobs(Vec::new())),
            Minutes::from_days(2)
        );
    }

    #[test]
    fn missing_input_files_are_reported_by_path() {
        let missing = "no/such/dir/input.csv".to_string();
        let options = Options {
            carbon_csv: Some(missing.clone()),
            workload_csv: Some(missing.clone()),
            faults: Some(missing.clone()),
            ..Options::default()
        };
        let err = load_carbon(&options).unwrap_err();
        assert!(err.starts_with(&format!("cannot open {missing}")), "{err}");
        let err = load_workload(&options).unwrap_err();
        assert!(err.starts_with(&format!("cannot open {missing}")), "{err}");
        let err = load_faults(&options).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot load fault plan {missing}")),
            "{err}"
        );
        let err = write_csv(&missing, |_| Ok(())).unwrap_err();
        assert!(
            err.starts_with(&format!("cannot create {missing}")),
            "{err}"
        );
    }

    #[test]
    fn default_inputs_are_synthesized_from_the_seed() {
        let options = Options::default();
        assert!(load_faults(&options).unwrap().is_none());
        assert_eq!(
            load_carbon(&options).unwrap(),
            synthesize_region(options.region, options.seed)
        );
        let week = load_workload(&options).unwrap();
        assert_eq!(week, TraceFamily::AlibabaPai.week_long_1k(options.seed));
        let section3 = Options {
            trace: TraceChoice::Section3,
            scale: Scale::Year,
            ..Options::default()
        };
        assert_eq!(
            load_workload(&section3).unwrap(),
            section3_workload(options.seed),
            "the section-3 workload ignores the scale"
        );
    }
}
