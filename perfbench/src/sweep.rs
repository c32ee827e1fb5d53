//! `sweep_audit`: the `gaia sweep` default path — audit on, a cold trace
//! cache, one worker per core — over a year-scale grid with reserved
//! capacity and RES-First policies, so jobs spill to on-demand and the
//! audit has both pools to cross-check. A pass goes from the grid to
//! the artifacts in the result store.

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use gaia_carbon::PerfectForecaster;
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::{Event, Profiler, SharedSink, Sink};
use gaia_sweep::{
    ClusterSpec, Executor, ObsHooks, QueueSpec, Region, ResultStore, SweepGrid, SweepRun,
    TraceCache, TraceFamily,
};

use crate::batch::{Synthesis, JOBS};
use crate::span::Tracer;
use crate::stats::{self, median};
use crate::{host, write_spans, Args, Outcome, RECONCILE_TOLERANCE};

/// Seeds in the grid per worker; two policies each, so every worker
/// draws about four cells and the makespan does not hinge on which one
/// draws the slow cell.
const SEEDS_PER_WORKER: u64 = 2;
/// `gaia sweep --scale year`'s billing horizon, days.
const BILLING_DAYS: u64 = 368;
/// Passes measured even when `--seconds` runs out first.
const MIN_PASSES: usize = 3;

fn grid(seed: u64, reserved: u32, workers: usize) -> SweepGrid {
    let seeds = SEEDS_PER_WORKER * workers as u64;
    let res_first = |base| PolicySpec {
        base,
        res_first: true,
        spot: None,
    };
    SweepGrid::year(JOBS, BILLING_DAYS)
        .policies(vec![
            res_first(BasePolicyKind::CarbonTime),
            res_first(BasePolicyKind::LowestWindow),
        ])
        .regions(vec![Region::SouthAustralia])
        .families(vec![TraceFamily::AlibabaPai])
        .seeds((seed..seed + seeds).collect())
        .clusters(vec![
            ClusterSpec::on_demand(BILLING_DAYS).with_reserved(reserved)
        ])
        .queue_specs(vec![QueueSpec::default()])
}

/// When a cell ran.
#[derive(Debug, Clone, Copy)]
struct CellTime {
    start: Instant,
    end: Instant,
}

/// Timestamps `CellFinished` events on the worker thread that emits
/// them; the event carries the cell's execution time.
#[derive(Clone, Default)]
struct CellClock(Arc<Mutex<Vec<CellTime>>>);

impl Sink for CellClock {
    fn emit(&mut self, event: &Event) {
        if let Event::CellFinished { exec_s, .. } = event {
            let end = Instant::now();
            let start = end - Duration::from_secs_f64(*exec_s);
            self.0
                .lock()
                .expect("cell clock lock")
                .push(CellTime { start, end });
        }
    }
}

/// Layer timings of one traced pass, seconds.
#[derive(Debug, Default, Clone, Copy)]
struct Layers {
    checks: f64,
    /// Summed over cells (worker-seconds).
    trace_gen: f64,
    plan: f64,
    event_loop_self: f64,
    audit: f64,
    cells: f64,
    /// Wall-clock.
    execute: f64,
    store: f64,
    wall: f64,
    hits: f64,
    misses: f64,
}

impl Layers {
    /// The pass time the named layers account for: the store, plus the
    /// execute phase, whose `workers × wall` worker-seconds are the
    /// cells' profiled phases plus idle workers.
    fn explained(&self, workers: f64) -> f64 {
        let idle = workers * self.execute - self.cells;
        self.store
            + (self.trace_gen + self.plan + self.event_loop_self + self.audit + idle) / workers
    }
}

struct Pass {
    wall: f64,
    /// Execution time of each cell, seconds, ascending.
    cells: Vec<f64>,
    scenarios: Vec<u8>,
    layers: Layers,
}

fn phase(profiler: &Profiler, name: &str) -> f64 {
    profiler
        .snapshot()
        .iter()
        .filter(|(phase, _, _)| *phase == name)
        .map(|(_, total, _)| total.as_secs_f64())
        .sum()
}

/// One sweep from the grid to the written artifacts.
fn pass(
    grid: &SweepGrid,
    workers: usize,
    out: &Path,
    tracer: Option<&mut Tracer>,
    outcome: &mut Outcome,
) -> Result<Pass, String> {
    let executor = Executor::new(workers).with_progress(false);
    let profiler = Arc::new(Profiler::new());
    let clock = CellClock::default();
    // Cell times come from the sweep's lifecycle events on every pass;
    // only traced passes attach the phase profiler.
    let hooks = ObsHooks {
        profiler: tracer.is_some().then_some(&*profiler),
        sweep_sink: Some(SharedSink::new(clock.clone())),
        ..ObsHooks::default()
    };
    let started = Instant::now();
    let cache = match tracer {
        Some(_) => TraceCache::new().with_profiler(Arc::clone(&profiler)),
        None => TraceCache::new(),
    };
    let run: SweepRun = grid
        .runner()
        .executor(&executor)
        .cache(&cache)
        .audit(true)
        .obs(&hooks)
        .execute()
        .map_err(|e| format!("sweep failed: {e}"))?;
    let executed = Instant::now();
    ResultStore::create(out, "sweep_audit")
        .and_then(|store| store.write(&run, None))
        .map_err(|e| format!("cannot write sweep artifacts: {e}"))?;
    let stored = Instant::now();
    let wall = stored.duration_since(started).as_secs_f64();

    // Checks run after the clock stops.
    for result in &run.results {
        let clean = result.error().is_none() && result.audit_violations() == 0;
        outcome.tally.record(clean);
        if !clean {
            outcome.problem(format!(
                "cell {}: {}",
                result.key,
                result
                    .error()
                    .map_or_else(|| "audit violations".to_owned(), str::to_owned)
            ));
        }
    }
    let scenarios_path = out.join("sweep_audit").join("scenarios.csv");
    let scenarios = std::fs::read(&scenarios_path)
        .map_err(|e| format!("cannot read {}: {e}", scenarios_path.display()))?;

    let times: Vec<CellTime> = clock.0.lock().expect("cell clock lock").clone();
    let mut cells: Vec<f64> = times
        .iter()
        .map(|c| c.end.duration_since(c.start).as_secs_f64())
        .collect();
    cells.sort_by(f64::total_cmp);
    if cells.len() != run.results.len() {
        outcome.problem("a cell finished without a lifecycle event");
    }
    let mut layers = Layers::default();
    if let Some(tracer) = tracer {
        let root = tracer.interval("pass", None, started, stored);
        let execute = tracer.interval("execute", Some(root), started, executed);
        for cell in &times {
            tracer.interval("cell", Some(execute), cell.start, cell.end);
        }
        tracer.interval("store", Some(root), executed, stored);
        let plan = phase(&profiler, "plan");
        let stats = run.cache_stats;
        layers = Layers {
            checks: run
                .results
                .iter()
                .filter_map(|r| r.audit())
                .map(|a| a.checks_run as f64)
                .sum(),
            trace_gen: phase(&profiler, "trace_gen"),
            plan,
            event_loop_self: phase(&profiler, "event_loop") - plan,
            audit: phase(&profiler, "audit"),
            cells: cells.iter().sum(),
            execute: executed.duration_since(started).as_secs_f64(),
            store: stored.duration_since(executed).as_secs_f64(),
            wall,
            hits: stats.hits as f64,
            misses: stats.misses as f64,
        };
    }
    Ok(Pass {
        wall,
        cells,
        scenarios,
        layers,
    })
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut synthesis = Synthesis::default();
    let inputs = synthesis.sample(args.seed, JOBS);
    // The paper's reserved capacity: the first seed's mean demand.
    let reserved = inputs.workload.mean_demand().round() as u32;
    let warm_started = Instant::now();
    PerfectForecaster::new(&inputs.carbon).warm();
    let warm_s = warm_started.elapsed().as_secs_f64();
    drop(inputs);
    let workers = host::nproc();
    let grid = grid(args.seed, reserved, workers);
    let out = args.work.join(format!("sweep-seed{}", args.seed));
    let mut outcome = Outcome::default();
    let mut reference: Option<Vec<u8>> = None;
    let mut check_bytes = |outcome: &mut Outcome, pass: &Pass| {
        let want = reference.get_or_insert_with(|| pass.scenarios.clone());
        let same = *want == pass.scenarios;
        outcome.tally.record(same);
        if !same {
            outcome.problem("scenarios.csv bytes changed between passes");
        }
    };

    if !args.trace {
        let started = Instant::now();
        let mut passes = Vec::new();
        while passes.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
            let pass = pass(&grid, workers, &out, None, &mut outcome)?;
            check_bytes(&mut outcome, &pass);
            passes.push(pass);
        }
        let across = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let wall = across(|p| p.wall);
        eprintln!(
            "sweep_audit pass walls (s): {:?}",
            passes.iter().map(|p| p.wall).collect::<Vec<_>>()
        );
        // Read before the closing syntheses, which allocate traces.
        outcome.set("peak_rss_mb", host::peak_rss_mb("self")?);
        synthesis.sample(args.seed, JOBS);
        outcome.set("setup_s", synthesis.total_s());
        outcome.set("wall_s", wall);
        // Cell latency; a pass has too few cells for a tail percentile
        // with ten samples beyond it.
        outcome.set("p50_ms", across(|p| stats::percentile(&p.cells, 0.5)) * 1e3);
        outcome.set("lockstep_rps", (grid.len() * JOBS) as f64 / wall);
        return Ok(outcome);
    }

    let mut tracer = Tracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let p = pass(&grid, workers, &out, None, &mut outcome)?;
        check_bytes(&mut outcome, &p);
        plain.push(p.wall);
        let p = pass(&grid, workers, &out, Some(&mut tracer), &mut outcome)?;
        check_bytes(&mut outcome, &p);
        traced.push(p.layers);
    }
    write_spans(&tracer, args)?;
    synthesis.sample(args.seed, JOBS);

    let n = traced.len() as f64;
    let mean = |f: fn(&Layers) -> f64| traced.iter().map(f).sum::<f64>() / n;
    let w = workers as f64;
    outcome.set("carbon.synth_s", synthesis.carbon_s());
    outcome.set("workload.synth_s", synthesis.workload_s());
    outcome.set("carbon.forecast_warm_s", warm_s);
    outcome.set("sweep.cells", grid.len() as f64);
    outcome.set("sweep.trace_gen_s", mean(|l| l.trace_gen));
    outcome.set("sweep.plan_s", mean(|l| l.plan));
    outcome.set("sweep.event_loop_s", mean(|l| l.event_loop_self));
    outcome.set("sweep.audit_s", mean(|l| l.audit));
    outcome.set("sweep.trace_cache_hits", mean(|l| l.hits));
    outcome.set("sweep.trace_cache_misses", mean(|l| l.misses));
    outcome.set("sweep.store_s", mean(|l| l.store));
    outcome.set(
        "sweep.worker_busy_frac",
        mean(|l| l.cells) / (w * mean(|l| l.execute)),
    );
    outcome.set("sim.audit_s", mean(|l| l.audit));
    outcome.set("sim.audit_checks", mean(|l| l.checks));
    outcome.set(
        "trace.overhead_s",
        median(&traced.iter().map(|l| l.wall).collect::<Vec<_>>()) - median(&plain),
    );
    let explained = traced.iter().map(|l| l.explained(w)).sum::<f64>() / n;
    let unattributed = 1.0 - explained / mean(|l| l.wall);
    outcome.set("trace.unattributed_frac", unattributed);
    if unattributed.abs() > RECONCILE_TOLERANCE {
        outcome.problem(format!(
            "layer self times leave {:.1}% of the pass unexplained",
            unattributed * 100.0
        ));
    }
    Ok(outcome)
}
