//! `run_year`: the `gaia run` path with its defaults (audit off) over a
//! year-scale 100k-job Alibaba trace in SA-AU, reserved pool at mean
//! demand, five policies per pass. A pass goes from policy build to the
//! written details and aggregate CSVs, as `gaia run --details
//! --aggregate` does for each policy.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{CarbonTrace, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::SpotConfig;
use gaia_metrics::Summary;
use gaia_sim::{
    ClusterConfig, Decision, EvictionModel, Scheduler, SchedulerContext, SimReport, Simulation,
};
use gaia_time::Minutes;
use gaia_workload::synth::TraceFamily;
use gaia_workload::{Job, QueueSet, WorkloadTrace};

use crate::span::Tracer;
use crate::stats::{self, median, Sampled};
use crate::{host, write_spans, Args, Outcome, RECONCILE_TOLERANCE};

/// Jobs in the year-scale trace.
pub const JOBS: usize = 100_000;
/// Trace syntheses timed per [`Synthesis::sample`] for `setup_s`.
pub const SETUP_REPEATS: usize = 9;
/// Passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;

/// One policy of the pass and the spot eviction rate it runs under.
struct Case {
    spec: PolicySpec,
    eviction: f64,
}

fn cases() -> [Case; 5] {
    let plain = |base| Case {
        spec: PolicySpec::plain(base),
        eviction: 0.0,
    };
    [
        plain(BasePolicyKind::NoWait),
        Case {
            spec: PolicySpec {
                base: BasePolicyKind::CarbonTime,
                res_first: true,
                spot: None,
            },
            eviction: 0.0,
        },
        plain(BasePolicyKind::LowestWindow),
        Case {
            spec: PolicySpec {
                base: BasePolicyKind::CarbonTime,
                res_first: true,
                spot: Some(SpotConfig::default()),
            },
            eviction: 0.05,
        },
        plain(BasePolicyKind::CarbonScale),
    ]
}

/// Counts every policy decision of the scheduler it wraps and times a
/// sample of them (see [`stats::SAMPLE_EVERY`]).
struct Timed<'a> {
    inner: &'a mut dyn Scheduler,
    decisions: Sampled,
}

impl Scheduler for Timed<'_> {
    fn on_arrival(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision {
        if !stats::is_sampled(self.decisions.calls) {
            self.decisions.add(None);
            return self.inner.on_arrival(job, ctx);
        }
        let started = Instant::now();
        let decision = self.inner.on_arrival(job, ctx);
        self.decisions.add(Some(started.elapsed()));
        decision
    }
}

/// The synthesized inputs of one seed.
pub struct Inputs {
    pub carbon: CarbonTrace,
    pub workload: WorkloadTrace,
}

/// Timed trace syntheses, seconds: carbon and workload per repeat. A run
/// samples once before its timed work and once after, so the median
/// spans the run rather than one moment of a shared host.
#[derive(Default)]
pub struct Synthesis(Vec<(f64, f64)>);

impl Synthesis {
    /// Synthesizes the carbon and workload traces `SETUP_REPEATS` times,
    /// timing each; returns the last inputs.
    pub fn sample(&mut self, seed: u64, jobs: usize) -> Inputs {
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            let started = Instant::now();
            let carbon = synthesize_region(Region::SouthAustralia, seed);
            let mid = Instant::now();
            let workload = TraceFamily::AlibabaPai.year_long(jobs, seed);
            self.0.push((
                mid.duration_since(started).as_secs_f64(),
                mid.elapsed().as_secs_f64(),
            ));
            last = Some(Inputs { carbon, workload });
        }
        last.expect("at least one repeat")
    }

    fn median(&self, f: fn(&(f64, f64)) -> f64) -> f64 {
        median(&self.0.iter().map(f).collect::<Vec<_>>())
    }

    pub fn total_s(&self) -> f64 {
        self.median(|t| t.0 + t.1)
    }

    pub fn carbon_s(&self) -> f64 {
        self.median(|t| t.0)
    }

    pub fn workload_s(&self) -> f64 {
        self.median(|t| t.1)
    }
}

/// Everything a pass needs, fixed for the run.
struct Setup {
    inputs: Inputs,
    queues: QueueSet,
    config: ClusterConfig,
    out: PathBuf,
}

/// What one pass produced.
struct Pass {
    wall: f64,
    /// Its policy runs, in [`cases`] order. All five reports stay live
    /// until the pass ends, so the peak resident set does not hinge on
    /// when the allocator returns memory.
    runs: Vec<Run>,
    /// Per policy, the digest of its written CSVs, taken after the clock
    /// stopped.
    digests: Vec<u64>,
}

/// One policy run, from policy build to written CSVs.
struct Run {
    secs: f64,
    /// In a traced run, the summed durations of its layer spans (not the
    /// glue between them), seconds.
    layers: f64,
    report: SimReport,
}

impl Setup {
    fn new(inputs: Inputs, out: PathBuf) -> Setup {
        let queues = QueueSet::paper_defaults()
            .with_waits(Minutes::from_hours(6), Minutes::from_hours(24))
            .with_averages_from(inputs.workload.jobs());
        // The paper's reserved capacity: the trace's mean demand.
        let reserved = inputs.workload.mean_demand().round() as u32;
        // `gaia run`'s contract period: the span in whole days plus two.
        let span_days = inputs
            .workload
            .nominal_makespan()
            .as_minutes()
            .div_ceil(gaia_time::MINUTES_PER_DAY);
        let config = ClusterConfig::default()
            .with_reserved(reserved)
            .with_billing_horizon(Minutes::from_days(span_days + 2));
        Setup {
            inputs,
            queues,
            config,
            out,
        }
    }

    fn csv(&self, i: usize, kind: &str) -> PathBuf {
        self.out.join(format!("policy{i}-{kind}.csv"))
    }

    /// One pass over every policy, untraced.
    fn pass(&self, seed: u64) -> Result<Pass, String> {
        let started = Instant::now();
        let mut runs = Vec::new();
        for i in 0..cases().len() {
            runs.push(self.run(i, seed, None)?);
        }
        let wall = started.elapsed().as_secs_f64();
        let digests = (0..runs.len())
            .map(|i| self.digest(i))
            .collect::<Result<_, _>>()?;
        Ok(Pass {
            wall,
            runs,
            digests,
        })
    }

    /// Digest of the CSVs policy `i` of [`cases`] last wrote.
    fn digest(&self, i: usize) -> Result<u64, String> {
        let mut bytes = read(&self.csv(i, "details"))?;
        bytes.extend(read(&self.csv(i, "aggregate"))?);
        Ok(gaia_sim::fnv1a(&bytes))
    }

    /// Runs policy `i` of [`cases`]; `tracer` records spans when given.
    fn run(&self, i: usize, seed: u64, mut tracer: Option<&mut Tracer>) -> Result<Run, String> {
        let (carbon, workload) = (&self.inputs.carbon, &self.inputs.workload);
        let case = &cases()[i];
        let started = Instant::now();
        let config = self
            .config
            .with_eviction(EvictionModel::hourly(case.eviction))
            .with_seed(seed);
        let build = tracer.as_deref_mut().map(|t| t.enter("core.build"));
        let mut scheduler = case.spec.build(self.queues);
        close(&mut tracer, build);
        let simulate = |scheduler: &mut dyn Scheduler| {
            Simulation::new(config, carbon)
                .runner(workload, scheduler)
                .execute()
                .map_err(|e| format!("{}: {e}", case.spec.name()))
        };
        let mut sim = None;
        let result = match tracer.as_deref_mut() {
            Some(t) => {
                let run = t.enter("sim.run");
                sim = Some(run);
                let mut timed = Timed {
                    inner: &mut scheduler,
                    decisions: Sampled::default(),
                };
                let result = simulate(&mut timed)?;
                let decisions = timed.decisions;
                t.aggregate("core.on_arrival", run, decisions.total(), decisions.calls);
                t.exit(run);
                result
            }
            None => simulate(&mut scheduler)?,
        };
        let summary = tracer.as_deref_mut().map(|t| t.enter("metrics.summary"));
        let summary_row = Summary::of(case.spec.name(), &result.report);
        std::hint::black_box(&summary_row);
        close(&mut tracer, summary);
        let output = tracer.as_deref_mut().map(|t| t.enter("sim.output"));
        write_csv(&self.csv(i, "details"), |w| {
            gaia_sim::output::write_details_csv(w, &result.report)
        })?;
        write_csv(&self.csv(i, "aggregate"), |w| {
            gaia_sim::output::write_aggregate_csv(w, &result.report)
        })?;
        close(&mut tracer, output);
        let secs = started.elapsed().as_secs_f64();
        let layers = tracer.as_deref().map_or(0.0, |t| {
            let spans = [build, sim, summary, output];
            spans.iter().flatten().map(|&id| t.duration(id)).sum()
        });
        Ok(Run {
            secs,
            layers,
            report: result.report,
        })
    }
}

fn close(tracer: &mut Option<&mut Tracer>, id: Option<usize>) {
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.exit(id);
    }
}

fn read(path: &Path) -> Result<Vec<u8>, String> {
    std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
}

fn write_csv(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> std::io::Result<()>,
) -> Result<(), String> {
    let file = File::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    let mut writer = BufWriter::new(file);
    write(&mut writer)
        .and_then(|()| writer.flush())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per policy, the digest of its first run's CSVs, which every later
/// run of it must match.
#[derive(Default)]
struct Digests(Vec<u64>);

impl Digests {
    fn check(&mut self, outcome: &mut Outcome, i: usize, digest: u64) {
        if self.0.len() == i {
            self.0.push(digest);
        }
        let same = digest == self.0[i];
        outcome.tally.record(same);
        if !same {
            outcome.problem(format!("policy {i}: report digest changed between runs"));
        }
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let out = args.work.join("run_year");
    std::fs::create_dir_all(&out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let mut synthesis = Synthesis::default();
    let setup = Setup::new(synthesis.sample(args.seed, JOBS), out);
    let mut outcome = Outcome::default();
    let mut digests = Digests::default();

    if !args.trace {
        let started = Instant::now();
        let (mut walls, mut p50s) = (Vec::new(), Vec::new());
        while walls.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
            let pass = setup.pass(args.seed)?;
            for (i, &digest) in pass.digests.iter().enumerate() {
                digests.check(&mut outcome, i, digest);
            }
            walls.push(pass.wall);
            p50s.push(median(&pass.runs.iter().map(|r| r.secs).collect::<Vec<_>>()) * 1e3);
        }
        eprintln!("run_year pass walls (s): {walls:?}");
        // Read before the closing syntheses, which allocate traces.
        outcome.set("peak_rss_mb", host::peak_rss_mb("self")?);
        synthesis.sample(args.seed, JOBS);
        let wall = median(&walls);
        outcome.set("setup_s", synthesis.total_s());
        outcome.set("wall_s", wall);
        outcome.set("p50_ms", median(&p50s));
        outcome.set("lockstep_rps", (JOBS * cases().len()) as f64 / wall);
        return Ok(outcome);
    }

    // Traced run: each policy runs untraced and traced back to back, so
    // the two see the same moment of a shared host. Which of the two
    // goes first alternates from one round to the next, so a host that
    // speeds up or slows down over a pair favours neither.
    let mut tracer = Tracer::new();
    let warm = tracer.enter("carbon.forecast_warm");
    PerfectForecaster::new(&setup.inputs.carbon).warm();
    tracer.exit(warm);
    // Per round, the summed untraced and traced run times.
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    // Each traced run's layers beside the untraced run of its pair.
    let mut pairs = Vec::new();
    let mut last = Vec::new();
    let started = Instant::now();
    while traced.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        last.clear();
        for i in 0..cases().len() {
            // Both runs of a pair write the same files: each is checked
            // before the other overwrites them.
            let mut run_checked = |tracer: Option<&mut Tracer>| -> Result<Run, String> {
                let run = setup.run(i, args.seed, tracer)?;
                digests.check(&mut outcome, i, setup.digest(i)?);
                Ok(run)
            };
            let (untraced, run) = if (traced.len() + i) % 2 == 0 {
                let untraced = run_checked(None)?;
                (untraced, run_checked(Some(&mut tracer))?)
            } else {
                let traced_run = run_checked(Some(&mut tracer))?;
                (run_checked(None)?, traced_run)
            };
            plain_s += untraced.secs;
            traced_s += run.secs;
            pairs.push((run.layers, untraced.secs));
            last.push(run);
        }
        plain.push(plain_s);
        traced.push(traced_s);
    }
    // The audit is off on this path; run it beside the rounds, on the
    // last round's reports, to check them.
    let mut checks = 0usize;
    for (case, run) in cases().iter().zip(&last) {
        let config = setup
            .config
            .with_eviction(EvictionModel::hourly(case.eviction))
            .with_seed(args.seed);
        let audit = tracer.span("sim.audit", || {
            gaia_sim::audit_report(&run.report, &config, &setup.inputs.carbon)
        });
        checks += audit.checks_run;
        if !audit.is_clean() {
            outcome.problem(format!(
                "{}: audit found {} violation(s)",
                case.spec.name(),
                audit.violations.len()
            ));
        }
    }
    write_spans(&tracer, args)?;
    synthesis.sample(args.seed, JOBS);

    let n = traced.len() as f64;
    let by_name = tracer.self_by_name();
    let total = |name: &str| by_name.get(name).map_or(0.0, |(own, _)| *own);
    let per_pass = |name: &str| total(name) / n;
    let calls = |name: &str| by_name.get(name).map_or(0, |(_, count)| *count) as f64 / n;
    outcome.set("carbon.synth_s", synthesis.carbon_s());
    outcome.set("workload.synth_s", synthesis.workload_s());
    outcome.set("carbon.forecast_warm_s", tracer.duration(warm));
    outcome.set("core.decisions", calls("core.on_arrival"));
    outcome.set(
        "core.policy_s",
        per_pass("core.on_arrival") + per_pass("core.build"),
    );
    outcome.set("sim.engine_s", per_pass("sim.run"));
    outcome.set("sim.output_s", per_pass("sim.output"));
    outcome.set("metrics.summary_s", per_pass("metrics.summary"));
    // Audited once, beside the rounds: a total, not per pass.
    outcome.set("sim.audit_s", total("sim.audit"));
    outcome.set("sim.audit_checks", checks as f64);
    outcome.set("trace.overhead_s", median(&traced) - median(&plain));
    // A pass is its policy runs; each traced run's layers must add up to
    // the untraced run of its pair, so the layers of a round add up to an
    // untraced pass, i.e. to `wall_s`. Pairing runs back to back, not
    // passes, keeps the two sides of a pair under the same host
    // conditions and gives five times as many pairs for the median.
    eprintln!(
        "run_year traced layers / untraced run, per pair: {:?}",
        pairs.iter().map(|(l, w)| l / w).collect::<Vec<_>>()
    );
    let unattributed = stats::unattributed(&pairs);
    outcome.set("trace.unattributed_frac", unattributed);
    if unattributed.abs() > RECONCILE_TOLERANCE {
        outcome.problem(format!(
            "layer self times leave {:.1}% of the untraced pass unexplained",
            unattributed * 100.0
        ));
    }
    Ok(outcome)
}
