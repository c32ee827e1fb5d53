//! The trace-driven simulation frontend.
//!
//! [`Simulation`] + [`SimRunner`] replay a workload trace against a
//! scheduling policy by feeding the reusable online event engine
//! ([`crate::OnlineEngine`]): every trace job is submitted up front and
//! the engine is drained to idle. For each arriving job the policy
//! returns a [`Decision`]; the engine then handles everything the
//! paper's resource manager does (§4.1):
//!
//! * starting jobs at their planned times, preferring idle reserved
//!   capacity and falling back to on-demand;
//! * **work conservation** — starting opportunistic waiters early the
//!   moment reserved capacity frees up (RES-First, §4.2.3);
//! * spot execution with stochastic evictions, full progress loss, and
//!   restart on reserved/on-demand capacity (Spot-First, §4.2.4);
//! * suspend-resume segment plans for the interruptible baselines; and
//! * carbon, cost, and waiting-time accounting for every segment.
//!
//! Event ordering is deterministic: at equal timestamps, resource
//! releases are processed before arrivals, and arrivals before planned
//! starts, so freed reserved capacity is always visible to decisions made
//! at the same instant. Ties beyond that are FIFO.

use std::borrow::Cow;

use gaia_carbon::{
    CarbonError, CarbonForecaster, CarbonTrace, ForecastView, PerfectForecaster,
    PersistenceForecaster,
};
use gaia_fault::FaultSchedule;
use gaia_obs::{NullSink, Profiler, Sink};
use gaia_time::SimTime;
use gaia_workload::{Job, WorkloadTrace};

use crate::audit::{audit_report_faulted, AuditReport};
use crate::config::ClusterConfig;
use crate::error::SimError;
use crate::online::OnlineEngine;
use crate::plan::Decision;
use crate::report::SimReport;

/// A scheduling policy, as seen by the engine.
///
/// Implementations live in `gaia-core`; the engine only requires a
/// decision per arriving job.
pub trait Scheduler {
    /// Decides when and where `job` should run. Called exactly once per
    /// job, at its arrival instant.
    fn on_arrival(&mut self, job: &Job, ctx: &SchedulerContext<'_>) -> Decision;
}

/// Everything a policy may consult when deciding (§4.1's CIS and
/// resource-manager state).
#[derive(Debug)]
pub struct SchedulerContext<'a> {
    /// The decision instant (the job's arrival).
    pub now: SimTime,
    /// Carbon-intensity observations and forecasts anchored at `now`.
    pub forecast: ForecastView<'a>,
    /// Idle reserved CPU units right now.
    pub reserved_free: u32,
    /// Total reserved CPU units in the cluster.
    pub reserved_capacity: u32,
    /// `true` while a fault-injected forecast outage is active: `forecast`
    /// is then backed by a persistence fallback rather than the configured
    /// forecaster, and policies may coarsen their planning accordingly.
    pub degraded: bool,
}

/// What a fault plan lets policies see of the carbon trace, for every
/// caller that wires forecasters: its trace gaps bridged by interpolation
/// (the true trace borrowed, not cloned, when it has none) and a
/// persistence fallback for its forecast outages. Accounting always uses
/// the true trace.
#[derive(Debug)]
pub struct PolicyCarbon<'t> {
    trace: Cow<'t, CarbonTrace>,
    outages: bool,
}

impl<'t> PolicyCarbon<'t> {
    /// Fails when a gap of `plan` does not fit `carbon`.
    pub fn new(carbon: &'t CarbonTrace, plan: Option<&FaultSchedule>) -> Result<Self, CarbonError> {
        let trace = match plan {
            Some(f) if f.has_gaps() => Cow::Owned(carbon.with_gaps_bridged(f.gaps())?),
            _ => Cow::Borrowed(carbon),
        };
        let outages = plan.is_some_and(FaultSchedule::has_outages);
        Ok(PolicyCarbon { trace, outages })
    }

    /// The policy-visible trace, which a default forecaster reads.
    pub fn trace(&self) -> &CarbonTrace {
        &self.trace
    }

    /// The forecaster for outage windows, `None` when the plan has none:
    /// yesterday's intensity repeats, which needs no forecast service.
    pub fn fallback(&self) -> Option<PersistenceForecaster<'_>> {
        self.outages
            .then(|| PersistenceForecaster::new(&self.trace))
    }
}

/// A configured simulation, ready to replay workload traces.
///
/// See the [crate-level docs](crate) for a complete example.
pub struct Simulation<'a> {
    config: ClusterConfig,
    carbon: &'a CarbonTrace,
    forecaster: Option<&'a dyn CarbonForecaster>,
    profiler: Option<&'a Profiler>,
    faults: Option<&'a FaultSchedule>,
}

impl std::fmt::Debug for Simulation<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("config", &self.config)
            .field("carbon", &self.carbon)
            .finish_non_exhaustive()
    }
}

impl<'a> Simulation<'a> {
    /// Creates a simulation over the given cluster and carbon trace.
    ///
    /// Policies see a *perfect* forecaster backed by the same trace (the
    /// paper's assumption, §6.1) unless overridden with
    /// [`Simulation::with_forecaster`].
    pub fn new(config: ClusterConfig, carbon: &'a CarbonTrace) -> Self {
        Simulation {
            config,
            carbon,
            forecaster: None,
            profiler: None,
            faults: None,
        }
    }

    /// Replaces the forecaster policies consult (accounting still uses
    /// the true trace).
    pub fn with_forecaster(mut self, forecaster: &'a dyn CarbonForecaster) -> Self {
        self.forecaster = Some(forecaster);
        self
    }

    /// Records per-phase wall-clock timings (plan computation, event
    /// loop) into `profiler` during runs. Profiling output is
    /// non-deterministic; simulation results are unaffected.
    pub fn with_profiler(mut self, profiler: &'a Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Injects a compiled fault schedule ([`gaia_fault::FaultSchedule`])
    /// into every run of this simulation.
    ///
    /// An **empty schedule is byte-identical to no schedule at all**: it
    /// is discarded here, so no fault branch in the engine ever executes
    /// and reports, event streams, and eviction sampling are unchanged
    /// bit for bit. Fault effects never touch base cost/carbon accounting
    /// — their magnitude is reported in [`SimReport::degradation`]
    /// instead.
    ///
    /// [`SimReport::degradation`]: crate::SimReport::degradation
    pub fn with_faults(mut self, faults: &'a FaultSchedule) -> Self {
        self.faults = if faults.is_empty() {
            None
        } else {
            Some(faults)
        };
        self
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Starts building a run of `trace` under `scheduler`.
    ///
    /// This is the single entry point for executing a simulation;
    /// configure the run with [`SimRunner::sink`] / [`SimRunner::audit`]
    /// and launch it with [`SimRunner::execute`]:
    ///
    /// ```
    /// # use gaia_carbon::CarbonTrace;
    /// # use gaia_sim::{ClusterConfig, Decision, Scheduler, SchedulerContext, Simulation};
    /// # use gaia_workload::{Job, JobId, WorkloadTrace};
    /// # use gaia_time::{Minutes, SimTime};
    /// # struct RunNow;
    /// # impl Scheduler for RunNow {
    /// #     fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
    /// #         Decision::run_at(job.arrival)
    /// #     }
    /// # }
    /// # let trace = WorkloadTrace::from_jobs(vec![
    /// #     Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(1), 1),
    /// # ]);
    /// # let carbon = CarbonTrace::constant(100.0, 24).unwrap();
    /// let run = Simulation::new(ClusterConfig::default(), &carbon)
    ///     .runner(&trace, &mut RunNow)
    ///     .audit(true)
    ///     .execute()
    ///     .expect("valid policy decisions");
    /// assert!(run.audit.expect("audit enabled").violations.is_empty());
    /// ```
    pub fn runner<'r>(
        &'r self,
        trace: &'r WorkloadTrace,
        scheduler: &'r mut dyn Scheduler,
    ) -> SimRunner<'a, 'r, NullSink> {
        SimRunner {
            sim: self,
            trace,
            scheduler,
            sink: None,
            audit: false,
        }
    }

    /// The engine entry point behind [`SimRunner::execute`]: builds the
    /// forecaster stack, submits the whole trace into an
    /// [`OnlineEngine`], and drains it to idle.
    ///
    /// The sink is statically dispatched: with [`NullSink`] every
    /// instrumentation site compiles out (`Sink::ACTIVE == false`).
    /// Event timestamps are simulated minutes, so the stream is
    /// deterministic — a given (config, trace, policy) triple serializes
    /// byte-identically on every run.
    // One out-of-line copy per sink type: the engine runs for
    // milliseconds, so caller-side inlining buys nothing, and a single
    // copy keeps the NullSink path byte-identical between the untraced
    // entry points and explicit `.sink(&mut NullSink)` callers.
    #[inline(never)]
    fn run_traced_inner<S: Sink>(
        &self,
        trace: &WorkloadTrace,
        scheduler: &mut dyn Scheduler,
        sink: &mut S,
    ) -> Result<SimReport, SimError> {
        // A caller-supplied forecaster owns its own data and is used as
        // given; the default one reads the policy-visible trace.
        let policy = PolicyCarbon::new(self.carbon, self.faults)
            .map_err(|e| SimError::Fault(e.to_string()))?;
        let perfect = PerfectForecaster::new(policy.trace());
        let forecaster = self.forecaster.unwrap_or(&perfect);
        let persistence = policy.fallback();
        let mut engine = OnlineEngine::new(&self.config, self.carbon, forecaster, sink);
        if let Some(profiler) = self.profiler {
            engine = engine.with_profiler(profiler);
        }
        if let Some(faults) = self.faults {
            engine = engine.with_faults(faults, persistence.as_ref().map(|p| p as _));
        }
        // Admission and report assembly are timed as `event_loop` too, so
        // the phase covers the whole engine run. Each guard sits beside
        // `run_until_idle`'s own, never around it: nested guards of one
        // name would count the inner span twice.
        let admission = self.profiler.map(|p| p.phase("event_loop"));
        engine.reserve_jobs(trace.len());
        for job in trace.jobs() {
            engine.submit(*job)?;
        }
        drop(admission);
        engine.run_until_idle(scheduler)?;
        let _assembly = self.profiler.map(|p| p.phase("event_loop"));
        Ok(engine.into_report())
    }
}

/// A configured run of one workload trace, built by
/// [`Simulation::runner`].
///
/// Collapses the historical `run` / `try_run` / `try_run_traced` entry
/// points into one builder: chain [`SimRunner::sink`] to stream typed
/// lifecycle events and [`SimRunner::audit`] to verify engine invariants
/// after the run, then call [`SimRunner::execute`].
pub struct SimRunner<'a, 'r, S: Sink = NullSink> {
    sim: &'r Simulation<'a>,
    trace: &'r WorkloadTrace,
    scheduler: &'r mut dyn Scheduler,
    sink: Option<&'r mut S>,
    audit: bool,
}

impl std::fmt::Debug for SimRunner<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimRunner")
            .field("audit", &self.audit)
            .finish_non_exhaustive()
    }
}

impl<'a, 'r, S: Sink> SimRunner<'a, 'r, S> {
    /// Enables (or disables) the post-run invariant audit; disabled by
    /// default. When enabled, [`SimRun::audit`] carries the
    /// [`AuditReport`] and the audit time is recorded under the
    /// profiler's `"audit"` phase.
    pub fn audit(mut self, audit: bool) -> Self {
        self.audit = audit;
        self
    }

    /// Streams typed lifecycle events ([`gaia_obs::Event`]) into `sink`
    /// as the simulation progresses.
    ///
    /// The sink is statically dispatched: with [`NullSink`] (the
    /// default) every instrumentation site compiles out
    /// (`Sink::ACTIVE == false`). Event timestamps are simulated
    /// minutes, so the stream is deterministic — a given (config, trace,
    /// policy) triple serializes byte-identically on every run.
    pub fn sink<T: Sink>(self, sink: &'r mut T) -> SimRunner<'a, 'r, T> {
        SimRunner {
            sim: self.sim,
            trace: self.trace,
            scheduler: self.scheduler,
            sink: Some(sink),
            audit: self.audit,
        }
    }

    /// Runs the simulation, surfacing invalid policy decisions (and any
    /// broken engine invariant) as a typed [`SimError`] — so one bad
    /// cell in a sweep fails alone rather than aborting the whole
    /// process.
    pub fn execute(self) -> Result<SimRun, SimError> {
        let report = match self.sink {
            Some(sink) => self
                .sim
                .run_traced_inner(self.trace, self.scheduler, sink)?,
            None => self
                .sim
                .run_traced_inner(self.trace, self.scheduler, &mut NullSink)?,
        };
        let audit = if self.audit {
            let _timer = self.sim.profiler.map(|p| p.phase("audit"));
            Some(audit_report_faulted(
                &report,
                &self.sim.config,
                self.sim.carbon,
                self.sim.faults,
            ))
        } else {
            None
        };
        Ok(SimRun { report, audit })
    }
}

/// The outcome of [`SimRunner::execute`].
#[derive(Debug)]
pub struct SimRun {
    /// The full simulation report.
    pub report: SimReport,
    /// The invariant audit of the finished run, when enabled via
    /// [`SimRunner::audit`].
    pub audit: Option<AuditReport>,
}

impl SimRun {
    /// Discards the audit (if any) and returns the report alone.
    pub fn into_report(self) -> SimReport {
        self.report
    }
}
