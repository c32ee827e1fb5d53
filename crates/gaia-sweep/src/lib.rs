//! Deterministic parallel experiment orchestration for GAIA.
//!
//! Every figure and sensitivity study in the paper is, structurally, the
//! same computation: a cartesian grid of (policy, region, workload,
//! seed, cluster, queue) cells, one independent simulation per cell, and
//! an aggregation over the results. This crate factors that shape out of
//! the individual binaries:
//!
//! * [`SweepGrid`] / [`Scenario`] — declarative grid specs with stable
//!   per-cell keys and a stable expansion order ([`grid`]);
//! * [`TraceCache`] — memoizes carbon and workload traces across cells
//!   so each (region, seed) / (family, scale, seed) trace is synthesized
//!   once and shared read-only between workers ([`cache`]);
//! * [`Executor`] — a crossbeam worker pool that fans cells across N
//!   threads and merges results back in grid order, making sweep output
//!   **byte-identical for any worker count** ([`exec`]);
//! * [`ResultStore`] — run manifests plus per-scenario and aggregate
//!   CSV/JSON artifacts under `results/` ([`store`]);
//! * [`across_seed_groups`] — deterministic across-seed aggregation
//!   ([`agg`]);
//! * [`ObsHooks`] — opt-in observability taps: per-cell JSONL event
//!   traces, a [`gaia_obs::MetricsRegistry`], phase profiling, and a
//!   sweep-lifecycle stream, none of which change simulation outcomes;
//! * [`SweepRunner`] — the one entry point for executing a grid
//!   ([`SweepGrid::runner`]), with builder options for auditing, fault
//!   schedules, retry policies, observability, **sharding** (run cell
//!   subset `i` of `n` as an independent OS process, [`shard`]), and a
//!   **content-addressed on-disk result cache** that makes interrupted
//!   or repeated sweeps resumable ([`SweepRunner::resume`]).
//!
//! The determinism contract is load-bearing: per-cell simulation is
//! single-threaded and fully seed-driven, so parallelism only changes
//! wall-clock time, never results. `tests/determinism.rs` verifies this
//! by byte-comparing the artifacts of 1-worker and multi-worker runs of
//! the same grid, and `tests/sharding.rs` extends the same contract to
//! shard counts: `n` sharded processes plus [`shard::merge_shards`]
//! reproduce a single-process run byte-for-byte.
//!
//! # Example
//!
//! ```
//! use gaia_core::catalog::{BasePolicyKind, PolicySpec};
//! use gaia_sweep::{Executor, SweepGrid};
//!
//! let grid = SweepGrid::week(9)
//!     .policies(vec![
//!         PolicySpec::plain(BasePolicyKind::NoWait),
//!         PolicySpec::plain(BasePolicyKind::CarbonTime),
//!     ])
//!     .seeds(vec![1, 2]);
//! let run = grid
//!     .runner()
//!     .executor(&Executor::new(2).with_progress(false))
//!     .execute()
//!     .expect("no cache/trace dirs configured, so no I/O can fail");
//! assert_eq!(run.results.len(), 4);
//! let (nowait, ct) = (run.results[0].expect_summary(), run.results[1].expect_summary());
//! assert!(ct.carbon_g <= nowait.carbon_g * 1.02);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod cache;
mod codec;
mod diskcache;
pub mod exec;
pub mod grid;
pub mod shard;
pub mod store;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

pub use agg::{across_seed_groups, group_key, GroupSummary};
pub use cache::{CacheStats, TraceCache};
pub use diskcache::{DiskCacheStats, RESULT_CACHE_VERSION};
pub use exec::{default_workers, Executor};
pub use grid::{ClusterSpec, QueueSpec, ScaleSpec, Scenario, SweepGrid};
pub use store::{ResultStore, TimingBench};

use diskcache::{CellEntry, DiskCache, EntryNeeds};

// Re-exported so downstream sweep code can name every grid-dimension
// type through one crate.
pub use gaia_carbon::Region;
pub use gaia_core::catalog::PolicySpec;
pub use gaia_workload::synth::TraceFamily;

use gaia_metrics::{observe, Summary};
use gaia_obs::{
    CacheKind, Event, JsonlSink, MetricsRegistry, NullSink, Profiler, SharedSink, Sink,
};
use gaia_sim::{AuditReport, Simulation};

// Re-exported so sweep drivers can load fault plans and name schedule
// types without depending on gaia-fault directly.
pub use gaia_fault::{FaultError, FaultPlan, FaultSchedule, FaultSpec};

/// How one scenario cell ended.
///
/// Sweeps isolate failures: a policy returning an invalid decision (a
/// typed [`gaia_sim::SimError`]) fails its own cell and the rest of the
/// grid still completes. Failed cells are excluded from aggregation and
/// reported through the run manifest and the CLI exit code.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The simulation finished. `audit` carries the invariant-audit
    /// report when auditing was enabled for the sweep.
    Completed {
        /// Metrics of the simulation.
        summary: Summary,
        /// Invariant-audit report (`None` when auditing was off).
        audit: Option<AuditReport>,
    },
    /// The simulation finished, but only after at least one failed
    /// attempt was retried under a [`RetryPolicy`]. The recovery
    /// provenance (attempt count and the last failure) is preserved so
    /// manifests can distinguish first-try cells from recovered ones.
    Retried {
        /// Metrics of the (eventually successful) simulation.
        summary: Summary,
        /// Invariant-audit report (`None` when auditing was off).
        audit: Option<AuditReport>,
        /// Total attempts including the successful one (always ≥ 2).
        attempts: u32,
        /// `true` when at least one failed attempt overran its
        /// [`RetryPolicy::timeout`]. Preserved separately from
        /// `recovered_error` so a cell that timed out early and then
        /// failed differently still carries its timeout provenance.
        timed_out: bool,
        /// The error message of the last failed attempt.
        recovered_error: String,
    },
    /// The simulation was rejected with a typed error.
    Failed {
        /// Display rendering of the [`gaia_sim::SimError`].
        error: String,
    },
}

/// The outcome of one scenario cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// The cell that was simulated.
    pub scenario: Scenario,
    /// The cell's stable key ([`Scenario::key`]).
    pub key: String,
    /// What happened when the cell ran.
    pub outcome: CellOutcome,
}

impl ScenarioResult {
    /// The cell's summary, if it (eventually) completed.
    pub fn summary(&self) -> Option<&Summary> {
        match &self.outcome {
            CellOutcome::Completed { summary, .. } | CellOutcome::Retried { summary, .. } => {
                Some(summary)
            }
            CellOutcome::Failed { .. } => None,
        }
    }

    /// The cell's audit report, if it completed under auditing.
    pub fn audit(&self) -> Option<&AuditReport> {
        match &self.outcome {
            CellOutcome::Completed { audit, .. } | CellOutcome::Retried { audit, .. } => {
                audit.as_ref()
            }
            CellOutcome::Failed { .. } => None,
        }
    }

    /// The cell's error message, if it failed for good. Recovered cells
    /// ([`CellOutcome::Retried`]) report `None` here; their transient
    /// failure is available through [`retry_provenance`].
    ///
    /// [`retry_provenance`]: ScenarioResult::retry_provenance
    pub fn error(&self) -> Option<&str> {
        match &self.outcome {
            CellOutcome::Completed { .. } | CellOutcome::Retried { .. } => None,
            CellOutcome::Failed { error } => Some(error),
        }
    }

    /// `(attempts, timed out, last recovered error)` when the cell
    /// completed only after retries; `None` for first-try completions
    /// and failures. The `timed out` flag is `true` when any failed
    /// attempt overran its per-attempt wall-clock budget — a cell can
    /// therefore carry **both** timeout and retry provenance, and
    /// `scenarios.csv` renders such cells as `timed_out;retried:N`.
    pub fn retry_provenance(&self) -> Option<(u32, bool, &str)> {
        match &self.outcome {
            CellOutcome::Retried {
                attempts,
                timed_out,
                recovered_error,
                ..
            } => Some((*attempts, *timed_out, recovered_error.as_str())),
            _ => None,
        }
    }

    /// The cell's summary; panics (naming the cell) if it failed.
    pub fn expect_summary(&self) -> &Summary {
        match &self.outcome {
            CellOutcome::Completed { summary, .. } | CellOutcome::Retried { summary, .. } => {
                summary
            }
            CellOutcome::Failed { error } => {
                panic!("scenario cell {} failed: {error}", self.key)
            }
        }
    }

    /// Audit violations found in this cell (0 when unaudited or failed).
    pub fn audit_violations(&self) -> usize {
        self.audit().map_or(0, |report| report.violations.len())
    }
}

/// A completed sweep: the grid, its results in grid order, and
/// execution metadata for the run manifest.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The grid that was swept.
    pub grid: SweepGrid,
    /// Worker threads used.
    pub workers: usize,
    /// One result per cell, in grid order.
    pub results: Vec<ScenarioResult>,
    /// Wall-clock duration of the sweep.
    pub wall: Duration,
    /// Trace-cache hit/miss counters accumulated during the sweep.
    pub cache_stats: CacheStats,
    /// Whether the invariant audit ran on each completed cell.
    pub audited: bool,
    /// `Some((i, n))` when this run executed only shard `i` of `n`
    /// ([`SweepRunner::shard`]); `results` then holds only that shard's
    /// cells, still in grid order.
    pub shard: Option<(usize, usize)>,
    /// Result-cache counters when the run used an on-disk result cache
    /// ([`SweepRunner::resume`]); `None` otherwise.
    pub disk_cache: Option<DiskCacheStats>,
}

impl SweepRun {
    /// The summaries in grid order (convenience for figure code that
    /// only needs metrics, not scenario metadata).
    ///
    /// # Panics
    ///
    /// Panics (naming the cell) if any cell failed; figure code that
    /// calls this assumes an all-green sweep. Check [`failed_cells`]
    /// first when failures are possible.
    ///
    /// [`failed_cells`]: SweepRun::failed_cells
    pub fn summaries(&self) -> Vec<Summary> {
        self.results
            .iter()
            .map(|r| r.expect_summary().clone())
            .collect()
    }

    /// Total audit violations across all completed cells.
    pub fn audit_violations(&self) -> usize {
        self.results.iter().map(|r| r.audit_violations()).sum()
    }

    /// The cells that failed with a typed simulation error.
    pub fn failed_cells(&self) -> Vec<&ScenarioResult> {
        self.results
            .iter()
            .filter(|r| r.error().is_some())
            .collect()
    }

    /// The cells that completed only after at least one retry.
    pub fn retried_cells(&self) -> Vec<&ScenarioResult> {
        self.results
            .iter()
            .filter(|r| r.retry_provenance().is_some())
            .collect()
    }

    /// `true` when every cell completed and no audit violation was
    /// found. Cells that recovered through retries count as completed —
    /// their provenance stays visible via [`retried_cells`], but a
    /// recovered sweep is a usable sweep.
    ///
    /// [`retried_cells`]: SweepRun::retried_cells
    pub fn is_clean(&self) -> bool {
        self.failed_cells().is_empty() && self.audit_violations() == 0
    }
}

/// How failed cell attempts are retried.
///
/// Retries exist for *transient* failures — chaos-injected cell faults
/// ([`FaultSpec::ChaosCell`]) and, in real deployments, OOM-killed or
/// preempted workers. A deterministic simulation error (an invalid
/// policy decision) fails identically on every attempt; retrying it
/// just wastes `max_attempts − 1` runs, which is why the default is no
/// retry at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per cell, including the first. `1` disables
    /// retries entirely (the default).
    pub max_attempts: u32,
    /// Sleep before the second attempt; doubles on each further attempt
    /// and is capped at 30 s. Wall-clock only — backoff can never
    /// change a result, because each attempt is deterministic in the
    /// scenario's seed.
    pub backoff: Duration,
    /// Optional wall-clock budget per attempt. When set, each attempt
    /// runs on a **detached thread**; an attempt that overruns is
    /// counted as a failed attempt and its thread is *leaked* (std
    /// threads cannot be cancelled) — it finishes in the background and
    /// its result is discarded.
    ///
    /// This is the one knob that trades determinism for liveness:
    /// whether an attempt beats its deadline depends on machine load,
    /// so timed sweeps are **not** covered by the byte-identity
    /// contract. It stays `None` (off) by default and is excluded from
    /// the determinism test matrix.
    pub timeout: Option<Duration>,
    /// Per-retry multiplier on [`RetryPolicy::timeout`]: attempt `n`
    /// gets a budget of `timeout · timeout_scale^(n−1)`, capped at one
    /// hour. `1` (the default) keeps every attempt's budget equal; a
    /// larger scale lets a cell that timed out under a too-tight budget
    /// actually recover on retry instead of timing out identically
    /// `max_attempts` times.
    pub timeout_scale: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
            timeout: None,
            timeout_scale: 1,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `max_attempts` total attempts (no backoff, no
    /// timeout).
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero — a cell always runs at least
    /// once.
    pub fn attempts(max_attempts: u32) -> RetryPolicy {
        assert!(max_attempts >= 1, "a cell always runs at least once");
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Sets the base backoff slept before the second attempt.
    pub fn with_backoff(mut self, backoff: Duration) -> RetryPolicy {
        self.backoff = backoff;
        self
    }

    /// Sets the per-attempt wall-clock budget (see [`RetryPolicy::timeout`]).
    pub fn with_timeout(mut self, timeout: Duration) -> RetryPolicy {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the per-retry budget multiplier (see
    /// [`RetryPolicy::timeout_scale`]).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is zero — a zero budget would fail every retry
    /// before it starts.
    pub fn with_timeout_scale(mut self, scale: u32) -> RetryPolicy {
        assert!(scale >= 1, "the timeout scale must be at least 1");
        self.timeout_scale = scale;
        self
    }

    /// The wall-clock budget for attempt number `attempt` (1-based):
    /// `timeout · timeout_scale^(attempt−1)`, capped at one hour.
    /// `None` when no timeout is configured.
    pub fn timeout_for(&self, attempt: u32) -> Option<Duration> {
        const CAP: Duration = Duration::from_secs(3600);
        let timeout = self.timeout?;
        let factor = self
            .timeout_scale
            .saturating_pow(attempt.saturating_sub(1).min(16));
        Some(timeout.checked_mul(factor).unwrap_or(CAP).min(CAP))
    }

    /// The exponential-backoff pause after failed attempt number
    /// `attempt` (1-based): `backoff · 2^(attempt−1)`, capped at 30 s.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        const CAP: Duration = Duration::from_secs(30);
        let doubled = self
            .backoff
            .checked_mul(1u32 << attempt.saturating_sub(1).min(16))
            .unwrap_or(CAP);
        doubled.min(CAP)
    }
}

/// Fault-aware execution options for a sweep: a compiled fault schedule
/// applied to every cell's simulation, plus the per-cell retry policy.
///
/// The default (`no schedule, no retries`) makes every faulted entry
/// point behave exactly like its unfaulted counterpart.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultOptions<'f> {
    /// Compiled fault schedule handed to each cell's simulation via
    /// [`Simulation::with_faults`]. Engine-level specs (storms, outages,
    /// spikes, capacity drops, trace gaps) replay inside every cell;
    /// [`FaultSpec::ChaosCell`] specs act at the sweep-harness level by
    /// failing matching cells' first N attempts.
    pub schedule: Option<&'f FaultSchedule>,
    /// How failed attempts are retried.
    pub retry: RetryPolicy,
}

/// Runs one scenario cell: materializes its traces through `cache`,
/// builds the queue set and cluster config, and simulates the policy
/// with an optional compiled fault schedule. Returns typed failure
/// instead of panicking and — when `audit` is set — the invariant-audit
/// report of the run. Fully deterministic in the scenario's seed.
///
/// Lifecycle events go into `sink`, per-job metrics into `metrics`, and
/// phase timings into `profiler`; none of them can change the outcome.
/// `faults: None` and an empty schedule (which
/// [`Simulation::with_faults`] discards) both leave results
/// byte-identical.
///
/// Only the engine-level fault specs act here; [`FaultSpec::ChaosCell`]
/// is a harness-level fault handled by the grid drivers' retry loop.
#[allow(clippy::too_many_arguments)]
pub fn run_cell_faulted<S: Sink>(
    scenario: &Scenario,
    cache: &TraceCache,
    audit: bool,
    faults: Option<&FaultSchedule>,
    sink: &mut S,
    metrics: Option<&MetricsRegistry>,
    profiler: Option<&Profiler>,
) -> CellOutcome {
    let carbon = cache.carbon(scenario.region, scenario.seed);
    let workload = cache.workload(scenario.family, scenario.scale, scenario.seed);
    simulate_cell(
        scenario, &carbon, &workload, faults, audit, sink, metrics, profiler,
    )
}

/// The shared simulation body of the cell runners, operating on already
/// materialized traces (so the timed-attempt harness can move the trace
/// lookups off the billed clock and onto the calling thread).
#[allow(clippy::too_many_arguments)]
fn simulate_cell<S: Sink>(
    scenario: &Scenario,
    carbon: &gaia_carbon::CarbonTrace,
    workload: &gaia_workload::WorkloadTrace,
    faults: Option<&FaultSchedule>,
    audit: bool,
    sink: &mut S,
    metrics: Option<&MetricsRegistry>,
    profiler: Option<&Profiler>,
) -> CellOutcome {
    let queues = scenario.queues.build(workload);
    let config = scenario.cluster.build(scenario.seed);
    let mut scheduler = scenario.policy.build(queues);
    let mut sim = Simulation::new(config, carbon);
    if let Some(schedule) = faults {
        sim = sim.with_faults(schedule);
    }
    if let Some(p) = profiler {
        sim = sim.with_profiler(p);
    }
    match sim
        .runner(workload, &mut scheduler)
        .sink(sink)
        .audit(audit)
        .execute()
    {
        Ok(run) => {
            if let Some(registry) = metrics {
                observe::observe_report(registry, &run.report);
            }
            CellOutcome::Completed {
                summary: Summary::of(scenario.policy.name(), &run.report),
                audit: run.audit,
            }
        }
        Err(error) => CellOutcome::Failed {
            error: error.to_string(),
        },
    }
}

/// Shared shape of the timeout failure message, so the retry loop can
/// classify a recovered attempt's failure as a timeout without keeping
/// two copies of the text in sync.
const TIMEOUT_ERROR_PREFIX: &str = "attempt exceeded the ";
const TIMEOUT_ERROR_SUFFIX: &str = "s cell timeout";

/// `true` when `error` is a per-attempt timeout produced by
/// [`run_attempt_timed`].
fn is_timeout_error(error: &str) -> bool {
    error.starts_with(TIMEOUT_ERROR_PREFIX) && error.ends_with(TIMEOUT_ERROR_SUFFIX)
}

/// Runs one attempt of a cell under a wall-clock budget, on a detached
/// thread.
///
/// The cell's traces are materialized through `cache` *before* the
/// clock starts, so shared trace synthesis is never billed to an
/// individual cell. On timeout the worker thread is leaked (std threads
/// cannot be cancelled); it runs to completion in the background and
/// its result is discarded. Per-job metrics and phase profiling are
/// skipped on this path — the registry and profiler borrows cannot
/// cross into a detached thread — but sweep-level counters still apply.
fn run_attempt_timed(
    scenario: &Scenario,
    cache: &TraceCache,
    audit: bool,
    faults: Option<&FaultSchedule>,
    traced: bool,
    timeout: Duration,
) -> (CellOutcome, Option<Vec<u8>>) {
    let carbon = cache.carbon(scenario.region, scenario.seed);
    let workload = cache.workload(scenario.family, scenario.scale, scenario.seed);
    let scenario = *scenario;
    let faults = faults.cloned();
    // The budget runs from before the spawn, and the worker stamps when
    // it finished: a cell that completes before the wait below begins
    // still has to have beaten its deadline.
    let deadline = Instant::now() + timeout;
    let (tx, rx) = std::sync::mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("gaia-sweep-timed-cell".to_owned())
        .spawn(move || {
            let result = if traced {
                let mut sink = JsonlSink::new(Vec::new());
                let outcome = simulate_cell(
                    &scenario,
                    &carbon,
                    &workload,
                    faults.as_ref(),
                    audit,
                    &mut sink,
                    None,
                    None,
                );
                // Vec<u8> writes are infallible; finish only flushes.
                (outcome, Some(sink.finish().unwrap_or_default()))
            } else {
                let outcome = simulate_cell(
                    &scenario,
                    &carbon,
                    &workload,
                    faults.as_ref(),
                    audit,
                    &mut NullSink,
                    None,
                    None,
                );
                (outcome, None)
            };
            // The receiver is gone if we overran the deadline; the
            // result is intentionally discarded then.
            let _ = tx.send((result, Instant::now()));
        });
    let left = deadline.saturating_duration_since(Instant::now());
    match spawned {
        Ok(_detached) => match rx.recv_timeout(left) {
            Ok((result, done)) if done <= deadline => result,
            _ => (
                CellOutcome::Failed {
                    error: format!(
                        "{TIMEOUT_ERROR_PREFIX}{:.3}{TIMEOUT_ERROR_SUFFIX}",
                        timeout.as_secs_f64()
                    ),
                },
                None,
            ),
        },
        Err(error) => (
            CellOutcome::Failed {
                error: format!("could not spawn timed cell attempt: {error}"),
            },
            None,
        ),
    }
}

/// Builder for executing a [`SweepGrid`] — the single entry point for
/// sweeps, replacing the old `run_grid*` function family.
///
/// Obtained from [`SweepGrid::runner`]. Every option defaults to off,
/// so `grid.runner().execute()` is a plain unaudited sweep on an
/// auto-sized executor; options compose freely instead of multiplying
/// entry points:
///
/// ```
/// use gaia_core::catalog::{BasePolicyKind, PolicySpec};
/// use gaia_sweep::{Executor, SweepGrid};
///
/// let grid = SweepGrid::week(9)
///     .policies(vec![PolicySpec::plain(BasePolicyKind::NoWait)])
///     .seeds(vec![1]);
/// let run = grid
///     .runner()
///     .executor(&Executor::new(1).with_progress(false))
///     .audit(true)
///     .execute()
///     .expect("no I/O configured");
/// assert!(run.is_clean());
/// ```
///
/// Sharding and resumability are builder options, not further entry
/// points: [`shard`](SweepRunner::shard) deterministically restricts
/// execution to cell subset `i` of `n` (see [`shard::shard_of`]), and
/// [`resume`](SweepRunner::resume) attaches a content-addressed on-disk
/// result cache ([`diskcache`](RESULT_CACHE_VERSION)) so already
/// completed cells are replayed from disk instead of recomputed.
///
/// # Determinism
///
/// With [`RetryPolicy::timeout`] unset (the default), the produced
/// [`SweepRun`] and every derived artifact are byte-identical for any
/// worker count, any shard count (after [`shard::merge_shards`]), and
/// any warm/cold cache state. A timed sweep forfeits that guarantee —
/// see [`RetryPolicy::timeout`].
#[must_use = "a runner does nothing until `.execute()` is called"]
pub struct SweepRunner<'r> {
    grid: &'r SweepGrid,
    executor: Option<Executor>,
    cache: Option<&'r TraceCache>,
    audit: bool,
    schedule: Option<&'r FaultSchedule>,
    retry: RetryPolicy,
    hooks: Option<&'r ObsHooks<'r>>,
    shard: Option<(usize, usize)>,
    resume: Option<PathBuf>,
}

impl<'r> SweepRunner<'r> {
    /// A runner over `grid` with every option off (equivalent to
    /// [`SweepGrid::runner`]).
    pub fn new(grid: &'r SweepGrid) -> SweepRunner<'r> {
        SweepRunner {
            grid,
            executor: None,
            cache: None,
            audit: false,
            schedule: None,
            retry: RetryPolicy::default(),
            hooks: None,
            shard: None,
            resume: None,
        }
    }

    /// Runs on a copy of `executor` instead of the default
    /// [`Executor::available`].
    pub fn executor(mut self, executor: &Executor) -> SweepRunner<'r> {
        self.executor = Some(*executor);
        self
    }

    /// Shorthand for [`executor`](SweepRunner::executor) with
    /// `Executor::new(workers)`.
    pub fn workers(mut self, workers: usize) -> SweepRunner<'r> {
        self.executor = Some(Executor::new(workers));
        self
    }

    /// Shares `cache` across runs (useful when several grids over the
    /// same traces run back to back). A fresh [`TraceCache`] is used
    /// when unset.
    pub fn cache(mut self, cache: &'r TraceCache) -> SweepRunner<'r> {
        self.cache = Some(cache);
        self
    }

    /// Enables the invariant audit: every completed cell carries an
    /// [`AuditReport`] and failed cells are isolated instead of
    /// aborting the process. This is what `gaia sweep` runs by default.
    pub fn audit(mut self, audit: bool) -> SweepRunner<'r> {
        self.audit = audit;
        self
    }

    /// Applies a compiled fault schedule to every cell. Engine-level
    /// specs replay deterministically inside each cell's simulation;
    /// [`FaultSpec::ChaosCell`] specs fail matching cells' first N
    /// attempts at the harness level, which is what exercises the
    /// retry loop in CI.
    pub fn faults(mut self, schedule: &'r FaultSchedule) -> SweepRunner<'r> {
        self.schedule = Some(schedule);
        self
    }

    /// Sets how failed cell attempts are retried.
    pub fn retry(mut self, retry: RetryPolicy) -> SweepRunner<'r> {
        self.retry = retry;
        self
    }

    /// Attaches observability taps (none of which change outcomes).
    pub fn obs(mut self, hooks: &'r ObsHooks<'r>) -> SweepRunner<'r> {
        self.hooks = Some(hooks);
        self
    }

    /// Restricts execution to shard `index` of `of`: the deterministic
    /// cell subset with `shard::shard_of(key, of) == index`. The
    /// returned [`SweepRun`] holds only that shard's cells (in grid
    /// order); [`shard::write_shard`] persists it for
    /// [`shard::merge_shards`] to recombine.
    ///
    /// # Panics
    ///
    /// Panics if `of` is zero or `index >= of`.
    pub fn shard(mut self, index: usize, of: usize) -> SweepRunner<'r> {
        assert!(of >= 1, "a sweep has at least one shard");
        assert!(index < of, "shard index {index} out of range (of {of})");
        self.shard = Some((index, of));
        self
    }

    /// Attaches the content-addressed on-disk result cache rooted at
    /// `dir` (created if missing). Cells whose full inputs fingerprint
    /// to an existing usable entry are replayed from disk; freshly
    /// computed cells are persisted atomically. Pointing a re-run of an
    /// interrupted sweep at the same directory is all resumption takes.
    pub fn resume(mut self, dir: impl Into<PathBuf>) -> SweepRunner<'r> {
        self.resume = Some(dir.into());
        self
    }

    /// Executes the sweep. Fails only on observability / cache-dir I/O
    /// errors (trace-dir or cache-dir creation); simulation failures
    /// are isolated per cell and reported in the [`SweepRun`].
    pub fn execute(self) -> std::io::Result<SweepRun> {
        if let Some(dir) = self.hooks.and_then(|h| h.trace_dir) {
            std::fs::create_dir_all(dir)?;
        }
        let disk = match &self.resume {
            Some(dir) => Some(DiskCache::open(dir)?),
            None => None,
        };
        let executor = self.executor.unwrap_or_else(Executor::available);
        let fresh;
        let cache = match self.cache {
            Some(cache) => cache,
            None => {
                fresh = TraceCache::new();
                &fresh
            }
        };
        Ok(run_grid_engine(
            self.grid,
            &executor,
            cache,
            self.audit,
            self.hooks,
            self.schedule,
            self.retry,
            self.shard,
            disk.as_ref(),
        ))
    }
}

/// Observability taps for [`SweepRunner::obs`]. All fields default to
/// off; each can be enabled independently.
#[derive(Default)]
pub struct ObsHooks<'o> {
    /// Per-job counters/histograms recorded per completed cell, plus
    /// sweep-level cache and cell counters. Atomic and commutative, so
    /// snapshots are byte-identical for any worker count.
    pub metrics: Option<&'o MetricsRegistry>,
    /// Phase timers (`trace_gen` via the cache's own profiler, `plan`,
    /// `event_loop`, `audit`). `event_loop` spans the whole engine run:
    /// job admission, the event loop itself (with `plan` nested inside)
    /// and report assembly. Wall-clock; reporting only.
    pub profiler: Option<&'o Profiler>,
    /// Write one `<cell key>.jsonl` event stream per cell into this
    /// directory (created if missing; `/` in keys becomes `_`). Each
    /// file is deterministic in the cell's scenario.
    pub trace_dir: Option<&'o Path>,
    /// Coarse sweep-lifecycle stream (`CellStarted`/`CellFinished`).
    /// Ordering across workers is scheduling-dependent — a progress
    /// feed, not a deterministic artifact.
    pub sweep_sink: Option<SharedSink>,
}

impl ObsHooks<'_> {
    /// The per-cell trace file name for `key` (`/` → `_`, plus `.jsonl`).
    ///
    /// Unambiguous for grid keys: every [`Scenario::key`] component is
    /// `/`-separated and `_`-free.
    pub fn trace_file_name(key: &str) -> String {
        format!("{}.jsonl", key.replace('/', "_"))
    }
}

/// The sweep engine behind [`SweepRunner::execute`]. One code path
/// serves every option combination; sharding and the result cache are
/// parameters here, not variants.
#[allow(clippy::too_many_arguments)]
fn run_grid_engine(
    grid: &SweepGrid,
    executor: &Executor,
    cache: &TraceCache,
    audit: bool,
    hooks: Option<&ObsHooks<'_>>,
    schedule: Option<&FaultSchedule>,
    retry: RetryPolicy,
    shard_spec: Option<(usize, usize)>,
    disk: Option<&DiskCache>,
) -> SweepRun {
    let start_stats = cache.stats();
    let start = Instant::now();
    // Cells carry their original grid index so shard runs emit events
    // and manifests in global grid coordinates, not shard-local ones.
    let cells: Vec<(usize, Scenario)> = grid
        .scenarios()
        .into_iter()
        .enumerate()
        .filter(|(_, scenario)| match shard_spec {
            Some((index, of)) => shard::shard_of(&scenario.key(), of) == index,
            None => true,
        })
        .collect();
    if let (Some((index, of)), Some(sink)) = (shard_spec, hooks.and_then(|h| h.sweep_sink.as_ref()))
    {
        sink.clone().emit(&Event::ShardStarted {
            shard: index as u64,
            of: of as u64,
            cells: cells.len() as u64,
        });
    }
    let results = executor.run("grid", cells, |_, cell| {
        let (index, scenario) = (cell.0, &cell.1);
        let key = scenario.key();
        let (metrics, profiler) = match hooks {
            Some(hooks) => (hooks.metrics, hooks.profiler),
            None => (None, None),
        };
        if let Some(sink) = hooks.and_then(|h| h.sweep_sink.as_ref()) {
            sink.clone().emit(&Event::CellStarted {
                idx: index as u64,
                key: key.clone(),
            });
        }
        let cell_start = Instant::now();
        let trace_dir = hooks.and_then(|h| h.trace_dir);
        let fingerprint =
            disk.map(|_| diskcache::cell_fingerprint(scenario, schedule, retry.max_attempts));
        let cached = match (disk, fingerprint) {
            (Some(disk), Some(fingerprint)) => {
                let needs = EntryNeeds {
                    audit,
                    trace: trace_dir.is_some(),
                    metrics: metrics.is_some(),
                };
                let entry = disk.lookup(scenario, fingerprint, needs);
                if let Some(sink) = hooks.and_then(|h| h.sweep_sink.as_ref()) {
                    sink.clone().emit(&if entry.is_some() {
                        Event::CacheHit {
                            kind: CacheKind::Result,
                            key: key.clone(),
                        }
                    } else {
                        Event::CacheMiss {
                            kind: CacheKind::Result,
                            key: key.clone(),
                        }
                    });
                }
                entry
            }
            _ => None,
        };
        let (outcome, trace_bytes) = if let Some(entry) = cached {
            // Replay the stored cell: metric contributions back into
            // the live registry, audit stripped when this run did not
            // ask for it (so warm and cold artifacts stay identical).
            if let (Some(registry), Some(bytes)) = (metrics, &entry.metrics) {
                let mut reader = codec::Reader::new(bytes);
                if let Err(reason) = codec::read_metrics_into(&mut reader, registry) {
                    gaia_obs::warn!("cached metrics for {key} were undecodable: {reason}");
                }
            }
            let mut outcome = entry.outcome;
            if !audit {
                if let CellOutcome::Completed { audit, .. } | CellOutcome::Retried { audit, .. } =
                    &mut outcome
                {
                    *audit = None;
                }
            }
            (outcome, entry.trace)
        } else {
            // Fresh cells observe into a per-cell scratch registry so
            // their metric contributions can be both merged into the
            // live registry and persisted for replay. The timed path
            // cannot capture per-job metrics (the registry borrow
            // cannot cross a detached thread), so it observes straight
            // into the live registry and caches entries metrics-less.
            let timed = retry.timeout.is_some();
            let scratch =
                (!timed && (metrics.is_some() || disk.is_some())).then(MetricsRegistry::new);
            let cell_metrics = scratch.as_ref();
            // Chaos faults are keyed to the cell, not the attempt seed:
            // a matching cell fails its first `chaos` attempts before
            // the simulation even starts, modelling infrastructure-level
            // losses (preempted workers, OOM kills) rather than
            // simulation errors.
            let chaos = schedule.map_or(0, |s| s.chaos_fail_attempts(&key));
            let mut attempt = 0u32;
            let mut recovered: Option<String> = None;
            let mut timed_out = false;
            let (outcome, trace_bytes) = loop {
                attempt += 1;
                let (result, bytes) = if attempt <= chaos {
                    let error =
                        format!("injected chaos fault ({attempt} of {chaos} attempts fail)");
                    (CellOutcome::Failed { error }, None)
                } else if let Some(timeout) = retry.timeout_for(attempt) {
                    run_attempt_timed(
                        scenario,
                        cache,
                        audit,
                        schedule,
                        trace_dir.is_some(),
                        timeout,
                    )
                } else if trace_dir.is_some() {
                    let mut sink = JsonlSink::new(Vec::new());
                    let outcome = run_cell_faulted(
                        scenario,
                        cache,
                        audit,
                        schedule,
                        &mut sink,
                        cell_metrics,
                        profiler,
                    );
                    // Vec<u8> writes are infallible; finish only flushes.
                    (outcome, Some(sink.finish().unwrap_or_default()))
                } else {
                    let outcome = run_cell_faulted(
                        scenario,
                        cache,
                        audit,
                        schedule,
                        &mut NullSink,
                        cell_metrics,
                        profiler,
                    );
                    (outcome, None)
                };
                match result {
                    CellOutcome::Failed { error } if attempt < retry.max_attempts => {
                        timed_out |= is_timeout_error(&error);
                        gaia_obs::warn!(
                            "cell {key} failed on attempt {attempt}/{}, retrying: {error}",
                            retry.max_attempts
                        );
                        if let Some(sink) = hooks.and_then(|h| h.sweep_sink.as_ref()) {
                            sink.clone().emit(&Event::CellRetried {
                                idx: index as u64,
                                key: key.clone(),
                                attempt: u64::from(attempt),
                                error: error.clone(),
                            });
                        }
                        match (cell_metrics, metrics) {
                            (Some(registry), _) | (None, Some(registry)) => {
                                registry.counter("sweep.cells_retried").inc();
                            }
                            _ => {}
                        }
                        recovered = Some(error);
                        let pause = retry.backoff_before(attempt);
                        if !pause.is_zero() {
                            std::thread::sleep(pause);
                        }
                    }
                    CellOutcome::Completed { summary, audit } if attempt > 1 => {
                        break (
                            CellOutcome::Retried {
                                summary,
                                audit,
                                attempts: attempt,
                                timed_out,
                                recovered_error: recovered.take().unwrap_or_default(),
                            },
                            bytes,
                        );
                    }
                    final_outcome => break (final_outcome, bytes),
                }
            };
            if let (Some(live), Some(cell)) = (metrics, scratch.as_ref()) {
                live.merge_from(cell);
            }
            if let (Some(disk), Some(fingerprint)) = (disk, fingerprint) {
                // Failed cells are never cached (the next run should
                // retry them), and neither is anything that timed out —
                // a timeout is machine load, not a result.
                let cacheable = match &outcome {
                    CellOutcome::Completed { .. } => true,
                    CellOutcome::Retried { timed_out, .. } => !timed_out,
                    CellOutcome::Failed { .. } => false,
                };
                if cacheable {
                    let entry = CellEntry {
                        outcome: outcome.clone(),
                        trace: trace_bytes.clone(),
                        metrics: scratch.as_ref().map(|cell| {
                            let mut w = codec::Writer::new();
                            codec::write_metrics(&mut w, cell);
                            w.into_bytes()
                        }),
                    };
                    match disk.store(scenario, fingerprint, &entry) {
                        Ok(()) => {
                            if let Some(sink) = hooks.and_then(|h| h.sweep_sink.as_ref()) {
                                sink.clone().emit(&Event::CachePersist {
                                    kind: CacheKind::Result,
                                    key: key.clone(),
                                });
                            }
                        }
                        Err(error) => {
                            gaia_obs::warn!("could not cache result for {key}: {error}");
                        }
                    }
                }
            }
            (outcome, trace_bytes)
        };
        if let (Some(dir), Some(bytes)) = (trace_dir, trace_bytes) {
            let path = dir.join(ObsHooks::trace_file_name(&key));
            if let Err(error) = std::fs::write(&path, bytes) {
                gaia_obs::warn!("failed to write trace {}: {error}", path.display());
                if let Some(registry) = metrics {
                    registry.counter("obs.trace_write_errors").inc();
                }
            }
        }
        if let Some(sink) = hooks.and_then(|h| h.sweep_sink.as_ref()) {
            sink.clone().emit(&Event::CellFinished {
                idx: index as u64,
                key: key.clone(),
                status: match &outcome {
                    CellOutcome::Completed { .. } => "completed".to_owned(),
                    CellOutcome::Retried { .. } => "retried".to_owned(),
                    CellOutcome::Failed { .. } => "failed".to_owned(),
                },
                queue_wait_s: cell_start.duration_since(start).as_secs_f64(),
                exec_s: cell_start.elapsed().as_secs_f64(),
            });
        }
        ScenarioResult {
            scenario: *scenario,
            key,
            outcome,
        }
    });
    if let (Some((index, of)), Some(sink)) = (shard_spec, hooks.and_then(|h| h.sweep_sink.as_ref()))
    {
        let failed = results.iter().filter(|r| r.error().is_some()).count();
        sink.clone().emit(&Event::ShardFinished {
            shard: index as u64,
            of: of as u64,
            completed: (results.len() - failed) as u64,
            failed: failed as u64,
        });
    }
    let end_stats = cache.stats();
    let cache_delta = CacheStats {
        hits: end_stats.hits - start_stats.hits,
        misses: end_stats.misses - start_stats.misses,
        entries: end_stats.entries,
    };
    if let Some(registry) = hooks.and_then(|h| h.metrics) {
        registry.counter("sweep.cells").add(results.len() as u64);
        let failed = results.iter().filter(|r| r.error().is_some()).count();
        registry.counter("sweep.cells_failed").add(failed as u64);
        registry.counter("cache.hits").add(cache_delta.hits as u64);
        registry
            .counter("cache.misses")
            .add(cache_delta.misses as u64);
        // Residency at sweep end, not a delta: meaningful when one
        // registry serves one sweep (the CLI arrangement).
        registry
            .counter("cache.entries")
            .add(cache_delta.entries as u64);
        if let Some(disk) = disk {
            let stats = disk.stats();
            registry.counter("cache.result_hits").add(stats.hits);
            registry.counter("cache.result_misses").add(stats.misses);
            registry
                .counter("cache.result_persists")
                .add(stats.persists);
        }
    }
    SweepRun {
        grid: grid.clone(),
        workers: executor.workers(),
        results,
        wall: start.elapsed(),
        cache_stats: cache_delta,
        audited: audit,
        shard: shard_spec,
        disk_cache: disk.map(DiskCache::stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_core::catalog::{BasePolicyKind, PolicySpec};

    #[test]
    fn run_scenario_matches_direct_runner_call() {
        let grid = SweepGrid::week(9);
        let scenario = grid.scenarios()[0];
        let cache = TraceCache::new();
        let outcome = run_cell_faulted(&scenario, &cache, false, None, &mut NullSink, None, None);
        let CellOutcome::Completed { summary: sweep, .. } = outcome else {
            panic!("the cell completes: {outcome:?}");
        };

        let carbon = gaia_carbon::synth::synthesize_region(scenario.region, scenario.seed);
        let workload = scenario.family.week_long_1k(scenario.seed);
        let direct = gaia_metrics::runner::run_spec(
            scenario.policy,
            &workload,
            &carbon,
            scenario.cluster.build(scenario.seed),
        );
        assert_eq!(
            sweep, direct,
            "sweep path reproduces the direct runner path"
        );
    }

    #[test]
    fn run_grid_returns_results_in_grid_order_with_keys() {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![5, 6]);
        let run = grid
            .runner()
            .executor(&Executor::new(2).with_progress(false))
            .execute()
            .unwrap();
        let cells = grid.scenarios();
        assert_eq!(run.results.len(), cells.len());
        for (result, cell) in run.results.iter().zip(&cells) {
            assert_eq!(result.key, cell.key());
            assert_eq!(result.expect_summary().name, cell.policy.name());
        }
        assert!(!run.audited, "a plain runner leaves the audit off");
        assert!(run.shard.is_none() && run.disk_cache.is_none());
        assert!(run.is_clean());
    }

    #[test]
    fn audited_grid_reports_clean_cells() {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![7]);
        let run = grid
            .runner()
            .executor(&Executor::new(2).with_progress(false))
            .audit(true)
            .execute()
            .unwrap();
        assert!(run.audited);
        assert!(run.is_clean(), "reference policies must audit clean");
        for result in &run.results {
            let audit = result.audit().expect("audited cell carries a report");
            assert!(audit.checks_run > 0);
            assert!(audit.is_clean());
        }
    }

    #[test]
    fn bad_plan_cell_fails_alone_without_aborting_the_sweep() {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::BadPlan),
                PolicySpec::plain(BasePolicyKind::NoWait),
            ])
            .seeds(vec![1]);
        let run = grid
            .runner()
            .executor(&Executor::new(2).with_progress(false))
            .audit(true)
            .execute()
            .unwrap();
        assert!(!run.is_clean());
        let failed = run.failed_cells();
        assert_eq!(failed.len(), 1, "only the injected cell fails");
        assert!(failed[0].key.contains("Bad-Plan"));
        assert!(
            failed[0]
                .error()
                .unwrap()
                .contains("invalid policy decision"),
            "typed error surfaces: {:?}",
            failed[0].error()
        );
        assert!(run.results[1].summary().is_some(), "healthy cell completes");
    }

    #[test]
    fn observed_grid_matches_plain_grid_and_writes_traces() {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![3]);
        let dir = std::env::temp_dir().join(format!("gaia-obs-grid-{}", std::process::id()));
        let registry = MetricsRegistry::new();
        let profiler = Profiler::new();
        let sweep_events = std::sync::Arc::new(std::sync::Mutex::new(gaia_obs::VecSink::new()));
        struct Probe(std::sync::Arc<std::sync::Mutex<gaia_obs::VecSink>>);
        impl Sink for Probe {
            fn emit(&mut self, event: &Event) {
                self.0.lock().unwrap().emit(event);
            }
        }
        let hooks = ObsHooks {
            metrics: Some(&registry),
            profiler: Some(&profiler),
            trace_dir: Some(&dir),
            sweep_sink: Some(SharedSink::new(Probe(std::sync::Arc::clone(&sweep_events)))),
        };
        let observed = grid
            .runner()
            .executor(&Executor::new(2).with_progress(false))
            .audit(true)
            .obs(&hooks)
            .execute()
            .expect("trace dir is creatable");
        let plain = grid
            .runner()
            .executor(&Executor::new(1).with_progress(false))
            .audit(true)
            .execute()
            .unwrap();
        assert_eq!(
            observed.results, plain.results,
            "observability must not change outcomes"
        );

        // Per-cell trace files exist, parse, and balance.
        let mut traced_jobs = 0;
        for result in &observed.results {
            let path = dir.join(ObsHooks::trace_file_name(&result.key));
            let text = std::fs::read_to_string(&path).expect("trace file written");
            let summary = gaia_obs::TraceSummary::from_jsonl(text.as_bytes()).expect("valid JSONL");
            assert!(summary.issues.is_empty(), "{:?}", summary.issues);
            assert_eq!(summary.jobs_completed, result.expect_summary().jobs as u64);
            traced_jobs += summary.jobs_completed;
        }
        std::fs::remove_dir_all(&dir).ok();

        // Metrics: per-job counters plus sweep/cache counters.
        assert_eq!(registry.counter("sim.jobs").get(), traced_jobs);
        assert_eq!(registry.counter("sweep.cells").get(), 2);
        assert_eq!(registry.counter("sweep.cells_failed").get(), 0);
        assert_eq!(registry.counter("cache.misses").get(), 2);
        assert_eq!(registry.counter("cache.hits").get(), 2);
        assert_eq!(registry.counter("cache.entries").get(), 2);

        // Profiler saw the engine and audit phases.
        let phases: Vec<&'static str> = profiler
            .snapshot()
            .iter()
            .map(|&(name, _, _)| name)
            .collect();
        assert!(phases.contains(&"event_loop"), "{phases:?}");
        assert!(phases.contains(&"plan"), "{phases:?}");
        assert!(phases.contains(&"audit"), "{phases:?}");

        // Sweep lifecycle stream: one start + one finish per cell.
        let events = sweep_events.lock().unwrap().events().to_vec();
        let starts = events
            .iter()
            .filter(|e| matches!(e, Event::CellStarted { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, Event::CellFinished { .. }))
            .count();
        assert_eq!((starts, finishes), (2, 2));
    }

    #[test]
    fn shared_cache_is_hit_across_cells() {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
                PolicySpec::plain(BasePolicyKind::LowestWindow),
            ])
            .seeds(vec![1]);
        let run = grid
            .runner()
            .executor(&Executor::new(1).with_progress(false))
            .execute()
            .unwrap();
        // One carbon + one workload generation; the other 2×2 lookups hit.
        assert_eq!(run.cache_stats.misses, 2);
        assert_eq!(run.cache_stats.hits, 4);
    }
}
