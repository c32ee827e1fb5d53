//! The pre-refactor per-event engine, kept verbatim as a behavioural
//! oracle.
//!
//! [`OracleEngine`] is the engine exactly as it stood before the
//! columnar/batched rewrite in `crate::online`: one `BinaryHeap` of
//! events popped one at a time, per-job `JobState`/`JobAccum` structs,
//! and a boxed forecast query per arrival. It exists so that the
//! rewritten engine can be differentially tested against the exact code
//! it replaced: for any submission sequence and scheduler, the two
//! engines must produce bit-identical reports and trace streams
//! (`crates/bench/tests/differential.rs`).
//!
//! This module is a test reference only, not API: no production path or
//! benchmark runs it. It is `#[doc(hidden)]`, carries no snapshot codec,
//! and must not grow features. Any
//! behavioural change belongs in `crate::online` (with a matching
//! oracle update only if the *contract* changes deliberately).

use std::cmp::Ordering;
use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use gaia_carbon::{CarbonForecaster, CarbonTrace, ForecastView};
use gaia_fault::FaultSchedule;
use gaia_obs::{Event as ObsEvent, PlanMode, PoolKind, Profiler, Sink};
use gaia_time::{Minutes, SimTime, MINUTES_PER_DAY};
use gaia_workload::Job;

use crate::account::{segment_carbon, segment_cost, ClusterTotals, JobOutcome, SegmentRecord};
use crate::config::ClusterConfig;
use crate::engine::{Scheduler, SchedulerContext};
use crate::error::{PolicyError, SimError};
use crate::plan::{Decision, PurchaseOption};
use crate::pool::ReservedPool;
use crate::report::{AllocationTimeline, DegradationStats, SimReport};

/// Event priorities at equal timestamps: releases < cap re-evaluations <
/// arrivals < starts, so freed or newly-permitted capacity is always
/// visible to decisions made at the same instant.
const PRIO_RELEASE: u8 = 0;
const PRIO_TICK: u8 = 1;
const PRIO_ARRIVAL: u8 = 2;
const PRIO_START: u8 = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EventKind {
    Arrival,
    PlannedStart,
    SegmentStart(usize),
    FinishOnce,
    FinishSegment(usize),
    Eviction,
    /// Hourly re-evaluation of a carbon-responsive capacity cap.
    CapTick,
}

impl EventKind {
    fn priority(self) -> u8 {
        match self {
            EventKind::FinishOnce | EventKind::FinishSegment(_) | EventKind::Eviction => {
                PRIO_RELEASE
            }
            EventKind::CapTick => PRIO_TICK,
            EventKind::Arrival => PRIO_ARRIVAL,
            EventKind::PlannedStart | EventKind::SegmentStart(_) => PRIO_START,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Event {
    pub(crate) time: SimTime,
    pub(crate) prio: u8,
    pub(crate) seq: u64,
    pub(crate) job: u32,
    pub(crate) kind: EventKind,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest event pops first.
        (other.time, other.prio, other.seq).cmp(&(self.time, self.prio, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum JobState {
    Unarrived,
    /// Waiting for its planned start (uninterruptible decision).
    Waiting {
        decision: Decision,
    },
    /// Running an uninterruptible stretch of the given wall span
    /// (work remaining plus checkpoint overheads, if any).
    RunningOnce {
        option: PurchaseOption,
        start: SimTime,
        span: Minutes,
    },
    /// Waiting between / running segments of a suspend-resume plan. The
    /// running tuple is `(segment index, option, start, execution end)`;
    /// the execution end includes any instance boot time.
    InPlan {
        running: Option<(usize, PurchaseOption, SimTime, SimTime)>,
    },
    Done,
    /// Cancelled through the online API; never reached by batch replay.
    Cancelled,
}

#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct JobAccum {
    pub(crate) first_start: Option<SimTime>,
    pub(crate) finish: SimTime,
    pub(crate) segments: Vec<SegmentRecord>,
    pub(crate) carbon_g: f64,
    pub(crate) cost: f64,
    pub(crate) evictions: u32,
    /// Useful work still to be done; shrinks below the job length only
    /// when checkpointing banks partial progress across evictions.
    pub(crate) remaining: Minutes,
    /// Segment ordinal for trace events: counts every execution start of
    /// this job (plan segments and post-eviction retries alike). Only
    /// maintained when the sink is active.
    pub(crate) starts: u32,
}

/// Maps the accounting purchase option onto its trace-event pool name.
fn pool_kind(option: PurchaseOption) -> PoolKind {
    match option {
        PurchaseOption::Reserved => PoolKind::Reserved,
        PurchaseOption::OnDemand => PoolKind::OnDemand,
        PurchaseOption::Spot => PoolKind::Spot,
    }
}

/// A unit of work blocked by the capacity cap, retried FIFO as capacity
/// frees or the cap relaxes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CapBlocked {
    /// An uninterruptible start (`allow_spot` as at the original attempt).
    Once { idx: usize, allow_spot: bool },
    /// A suspend-resume segment start.
    Segment { idx: usize, seg_idx: usize },
}

pub use crate::online::{CancelOutcome, JobStatus};

/// The online, incrementally planned discrete-event engine.
///
/// Borrows its static inputs (configuration, carbon trace, forecaster,
/// sink, optional faults) and owns all dynamic state, which is what the
/// snapshot codec serializes. See the module-level docs for the
/// batch-equivalence contract.
pub struct OracleEngine<'e, S: Sink> {
    pub(crate) config: &'e ClusterConfig,
    pub(crate) carbon: &'e CarbonTrace,
    pub(crate) forecaster: &'e dyn CarbonForecaster,
    /// Compiled fault schedule; `None` means every fault branch below is
    /// skipped and the run is bit-identical to the pre-fault engine.
    pub(crate) faults: Option<&'e FaultSchedule>,
    /// Persistence forecaster substituted during forecast outages; built
    /// only when the schedule has outage windows.
    pub(crate) fallback: Option<&'e dyn CarbonForecaster>,
    /// Destination for lifecycle trace events; instrumentation sites are
    /// compile-time-dead when `S::ACTIVE` is false.
    pub(crate) sink: &'e mut S,
    /// Optional wall-clock phase timings (non-deterministic).
    pub(crate) profiler: Option<&'e Profiler>,
    pub(crate) jobs: Vec<Job>,
    pub(crate) pool: ReservedPool,
    pub(crate) heap: BinaryHeap<Event>,
    pub(crate) seq: u64,
    /// The engine clock: the latest instant the caller advanced to (or
    /// the latest processed event, whichever is later).
    pub(crate) now: SimTime,
    pub(crate) states: Vec<JobState>,
    pub(crate) accum: Vec<JobAccum>,
    /// Opportunistic waiters ordered by (planned_start, job index):
    /// "the job with this t_start is started on this reserved server".
    pub(crate) waiters: BTreeSet<(SimTime, u32)>,
    /// Per-job segment-plan decisions, consulted at each segment start.
    pub(crate) plan_decisions: Vec<Option<Decision>>,
    /// Elastic (on-demand + spot) CPUs currently busy, for capacity caps.
    pub(crate) elastic_busy: u32,
    /// FIFO of work blocked by the capacity cap.
    pub(crate) cap_queue: VecDeque<CapBlocked>,
    /// Whether a CapTick event is already pending.
    pub(crate) tick_scheduled: bool,
    /// Graceful-degradation accounting, attached to the report.
    pub(crate) degrade: DegradationStats,
    /// Whether the previous decision was taken in degraded mode, for
    /// edge-triggered `DegradedModeEntered` events.
    pub(crate) in_degraded: bool,
    /// Jobs completed (Done), for O(1) queue-depth queries.
    pub(crate) completed: u64,
    /// Jobs cancelled through the online API.
    pub(crate) cancelled: u64,
    /// Max over submitted jobs of `arrival + length`; the batch billing
    /// floor (mirrors `WorkloadTrace::nominal_makespan`).
    pub(crate) nominal_makespan: SimTime,
    /// Completion notifications since the last
    /// [`OracleEngine::take_completions`] drain, in completion order.
    pub(crate) completions: Vec<u32>,
}

impl<S: Sink> std::fmt::Debug for OracleEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleEngine")
            .field("now", &self.now)
            .field("jobs", &self.jobs.len())
            .field("pending_events", &self.heap.len())
            .finish_non_exhaustive()
    }
}

impl<'e, S: Sink> OracleEngine<'e, S> {
    /// Creates an idle engine over the given cluster, carbon trace, and
    /// policy-visible forecaster. Accounting always uses `carbon`; the
    /// forecaster is what [`SchedulerContext::forecast`] views are
    /// anchored on.
    pub fn new(
        config: &'e ClusterConfig,
        carbon: &'e CarbonTrace,
        forecaster: &'e dyn CarbonForecaster,
        sink: &'e mut S,
    ) -> Self {
        OracleEngine {
            pool: ReservedPool::new(config.reserved_cpus),
            config,
            carbon,
            forecaster,
            faults: None,
            fallback: None,
            sink,
            profiler: None,
            jobs: Vec::new(),
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ORIGIN,
            states: Vec::new(),
            accum: Vec::new(),
            waiters: BTreeSet::new(),
            plan_decisions: Vec::new(),
            elastic_busy: 0,
            cap_queue: VecDeque::new(),
            tick_scheduled: false,
            degrade: DegradationStats::default(),
            in_degraded: false,
            completed: 0,
            cancelled: 0,
            nominal_makespan: SimTime::ORIGIN,
            completions: Vec::new(),
        }
    }

    /// Records per-phase wall-clock timings (planning, event loop) into
    /// `profiler`. Profiling output is non-deterministic; simulation
    /// results are unaffected.
    pub fn with_profiler(mut self, profiler: &'e Profiler) -> Self {
        self.profiler = Some(profiler);
        self
    }

    /// Arms a compiled fault schedule on a fresh engine: announces every
    /// fault spec into the sink, schedules capacity-window re-evaluation
    /// ticks, and records the bridged-gap provenance. Must be called
    /// before the first submission so sequence numbers match the batch
    /// path exactly.
    ///
    /// An empty schedule is discarded (byte-identical to no schedule at
    /// all). `fallback` is the forecaster substituted while a
    /// fault-injected forecast outage is active.
    pub fn with_faults(
        mut self,
        faults: &'e FaultSchedule,
        fallback: Option<&'e dyn CarbonForecaster>,
    ) -> Self {
        self = self.attach_faults(faults, fallback);
        if let Some(faults) = self.faults {
            if S::ACTIVE {
                for spec in faults.specs() {
                    let (start, end) = spec.window_minutes();
                    self.sink.emit(&ObsEvent::FaultInjected {
                        t: 0,
                        kind: spec.kind_name().to_string(),
                        start,
                        end,
                        magnitude: spec.magnitude(),
                    });
                }
            }
            if faults.has_capacity_drops() {
                for t in faults.capacity_boundaries() {
                    self.push(t, 0, EventKind::CapTick);
                }
            }
            self.degrade.bridged_gap_hours = faults.total_gap_hours();
        }
        self
    }

    /// Attaches a fault schedule *without* arming it: no announcement
    /// events, no capacity ticks, no provenance. Only correct when the
    /// armed state is about to be restored from a snapshot
    /// (the oracle has no codec; the method is kept for API parity with
    /// [`crate::OnlineEngine`]), which already contains the pending
    /// ticks and degradation counters; use [`OracleEngine::with_faults`]
    /// everywhere else. An empty schedule is discarded.
    pub fn attach_faults(
        mut self,
        faults: &'e FaultSchedule,
        fallback: Option<&'e dyn CarbonForecaster>,
    ) -> Self {
        if !faults.is_empty() {
            self.faults = Some(faults);
            self.fallback = fallback;
        }
        self
    }

    /// Pre-sizes the per-job tables for `additional` more submissions.
    pub fn reserve_jobs(&mut self, additional: usize) {
        self.jobs.reserve(additional);
        self.states.reserve(additional);
        self.accum.reserve(additional);
        self.plan_decisions.reserve(additional);
    }

    /// Submits one job. Its arrival event is queued; the policy decides
    /// when the engine's clock reaches the arrival instant (via
    /// [`OracleEngine::advance_to`] or [`OracleEngine::run_until_idle`]).
    ///
    /// The engine requires dense submission-ordered job ids: the `n`-th
    /// submitted job must carry `JobId(n)`. Returns the job's index on
    /// success. Submissions into the past (arrival before the engine
    /// clock) are rejected — sim-time never rewinds.
    pub fn submit(&mut self, job: Job) -> Result<u32, SimError> {
        let idx = self.jobs.len() as u32;
        if job.id.0 != u64::from(idx) {
            return Err(SimError::internal(format!(
                "submission {idx} carries {}; the engine requires dense submission-ordered ids",
                job.id
            )));
        }
        if job.arrival < self.now {
            return Err(SimError::internal(format!(
                "{} arrives at {} but the engine clock is already at {}",
                job.id, job.arrival, self.now
            )));
        }
        self.states.push(JobState::Unarrived);
        self.accum.push(JobAccum {
            remaining: job.length,
            ..JobAccum::default()
        });
        self.plan_decisions.push(None);
        self.nominal_makespan = self
            .nominal_makespan
            .max(job.end_if_started_at(job.arrival));
        self.push(job.arrival, idx, EventKind::Arrival);
        self.jobs.push(job);
        Ok(idx)
    }

    /// Processes every queued event with timestamp ≤ `t` and advances
    /// the engine clock to `t`. Newly produced events inside the window
    /// are processed in the same pass.
    pub fn advance_to(
        &mut self,
        t: SimTime,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimError> {
        let _event_loop = self.profiler.map(|p| p.phase("event_loop"));
        while let Some(head) = self.heap.peek() {
            if head.time > t {
                break;
            }
            let event = self.heap.pop().expect("peeked event");
            self.now = self.now.max(event.time);
            self.dispatch(event, scheduler)?;
        }
        self.now = self.now.max(t);
        Ok(())
    }

    /// Drains the event queue completely; the clock ends at the last
    /// processed event. This is the batch path: submit everything, then
    /// run to idle.
    pub fn run_until_idle(&mut self, scheduler: &mut dyn Scheduler) -> Result<(), SimError> {
        let _event_loop = self.profiler.map(|p| p.phase("event_loop"));
        while let Some(event) = self.heap.pop() {
            self.now = self.now.max(event.time);
            self.dispatch(event, scheduler)?;
        }
        Ok(())
    }

    /// Cancels a job at the current engine clock. Queued and suspended
    /// jobs simply stop; running jobs release their capacity and keep
    /// the carbon/cost already spent (their partial segment is recorded
    /// as not useful). Cancellation is deterministic engine state, so it
    /// participates in snapshots like any other transition.
    pub fn cancel(&mut self, idx: u32) -> Result<CancelOutcome, SimError> {
        let i = idx as usize;
        if i >= self.jobs.len() {
            return Ok(CancelOutcome::Unknown);
        }
        let now = self.now;
        match self.states[i].clone() {
            JobState::Done | JobState::Cancelled => Ok(CancelOutcome::AlreadyFinished),
            JobState::Unarrived => {
                self.finish_cancel(i, now);
                Ok(CancelOutcome::Cancelled)
            }
            JobState::Waiting { decision } => {
                if decision.is_opportunistic() {
                    self.waiters.remove(&(decision.planned_start(), idx));
                }
                self.finish_cancel(i, now);
                Ok(CancelOutcome::Cancelled)
            }
            JobState::RunningOnce { option, start, .. } => {
                self.record_segment(i, start, now, option, false);
                if S::ACTIVE {
                    self.emit_segment_finished(i, now, option, false);
                }
                self.finish_cancel(i, now);
                self.release_after_stop(i, option, now)?;
                Ok(CancelOutcome::Cancelled)
            }
            JobState::InPlan { running } => {
                if let Some((_, option, start, _)) = running {
                    self.record_segment(i, start, now, option, false);
                    if S::ACTIVE {
                        self.emit_segment_finished(i, now, option, false);
                    }
                    self.finish_cancel(i, now);
                    self.release_after_stop(i, option, now)?;
                } else {
                    self.finish_cancel(i, now);
                }
                Ok(CancelOutcome::Cancelled)
            }
        }
    }

    fn finish_cancel(&mut self, idx: usize, now: SimTime) {
        self.states[idx] = JobState::Cancelled;
        self.accum[idx].finish = now;
        self.cancelled += 1;
    }

    /// Releases the capacity a stopped job held and lets blocked or
    /// opportunistic work claim it.
    fn release_after_stop(
        &mut self,
        idx: usize,
        option: PurchaseOption,
        now: SimTime,
    ) -> Result<(), SimError> {
        if option == PurchaseOption::Reserved {
            self.pool.release(self.jobs[idx].cpus);
            self.wake_waiters(now);
            Ok(())
        } else {
            self.elastic_busy -= self.jobs[idx].cpus;
            self.drain_cap_queue(now)
        }
    }

    /// The engine clock.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Jobs submitted so far.
    pub fn submitted(&self) -> u64 {
        self.jobs.len() as u64
    }

    /// Jobs that finished all their work.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Jobs cancelled through [`OracleEngine::cancel`].
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Jobs submitted but neither finished nor cancelled.
    pub fn queued(&self) -> u64 {
        self.submitted() - self.completed - self.cancelled
    }

    /// Events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.heap.len()
    }

    /// Whether the event queue is empty.
    pub fn is_idle(&self) -> bool {
        self.heap.is_empty()
    }

    /// The externally visible status of job `idx`, or `None` if no such
    /// job was submitted.
    pub fn job_status(&self, idx: u32) -> Option<JobStatus> {
        let i = idx as usize;
        let state = self.states.get(i)?;
        let accum = &self.accum[i];
        Some(match state {
            JobState::Unarrived => JobStatus::Pending,
            JobState::Waiting { decision } => JobStatus::Queued {
                planned_start: decision.planned_start(),
            },
            JobState::RunningOnce { option, start, .. } => JobStatus::Running {
                pool: *option,
                since: *start,
            },
            JobState::InPlan { running } => match running {
                Some((_, option, start, _)) => JobStatus::Running {
                    pool: *option,
                    since: *start,
                },
                None => JobStatus::Suspended,
            },
            JobState::Done => {
                let completion = accum.finish.saturating_since(self.jobs[i].arrival);
                JobStatus::Done {
                    finish: accum.finish,
                    carbon_g: accum.carbon_g,
                    cost: accum.cost,
                    waiting: completion.saturating_sub(self.jobs[i].length),
                    evictions: accum.evictions,
                }
            }
            JobState::Cancelled => JobStatus::Cancelled {
                at: accum.finish,
                carbon_g: accum.carbon_g,
                cost: accum.cost,
            },
        })
    }

    /// Drains the buffer of jobs that completed since the last call, in
    /// completion order. The buffer is part of engine state (snapshots
    /// preserve an undrained buffer); the batch path never drains it.
    pub fn take_completions(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.completions)
    }

    /// Emits a frontend-level event (e.g. the serving layer's
    /// `job_accepted` / `snapshot_written`) into the engine's sink, so
    /// service lifecycle events interleave deterministically with the
    /// engine's own trace. Compile-time-dead when the sink is inactive.
    pub fn emit_frontend(&mut self, event: &ObsEvent) {
        if S::ACTIVE {
            self.sink.emit(event);
        }
    }

    pub(crate) fn push(&mut self, time: SimTime, job: u32, kind: EventKind) {
        self.seq += 1;
        self.heap.push(Event {
            time,
            prio: kind.priority(),
            seq: self.seq,
            job,
            kind,
        });
    }

    fn dispatch(&mut self, event: Event, scheduler: &mut dyn Scheduler) -> Result<(), SimError> {
        let idx = event.job as usize;
        match event.kind {
            EventKind::Arrival => self.on_arrival(idx, event.time, scheduler),
            EventKind::PlannedStart => {
                self.on_planned_start(idx, event.time);
                Ok(())
            }
            EventKind::SegmentStart(seg) => self.on_segment_start(idx, seg, event.time),
            EventKind::FinishOnce => self.on_finish_once(idx, event.time),
            EventKind::FinishSegment(seg) => self.on_finish_segment(idx, seg, event.time),
            EventKind::Eviction => self.on_eviction(idx, event.time),
            EventKind::CapTick => self.on_cap_tick(event.time),
        }
    }

    /// Whether the capacity cap admits `cpus` more elastic CPUs at `now`.
    /// A job wider than the cap is admitted once nothing elastic runs, so
    /// caps cannot deadlock. A fault-injected capacity clamp is checked
    /// after the configured cap (same idle-admission exception); denials
    /// attributable to the clamp alone are counted in the degradation
    /// stats.
    fn cap_allows(&mut self, cpus: u32, now: SimTime) -> bool {
        let fits = |cap: u32, busy: u32| busy + cpus <= cap || busy == 0;
        let config_ok = match self
            .config
            .capacity_cap
            .cap_at(self.carbon.intensity_at(now))
        {
            None => true,
            Some(cap) => fits(cap, self.elastic_busy),
        };
        if !config_ok {
            return false;
        }
        match self.faults.and_then(|f| f.capacity_cap_at(now)) {
            None => true,
            Some(cap) => {
                let ok = fits(cap, self.elastic_busy);
                if !ok {
                    self.degrade.capacity_denials += 1;
                }
                ok
            }
        }
    }

    /// Blocks a unit of work on the capacity cap and arranges for it to
    /// be retried.
    fn block_on_cap(&mut self, blocked: CapBlocked, now: SimTime) {
        self.cap_queue.push_back(blocked);
        self.maybe_schedule_tick(now);
    }

    /// Schedules the next hourly cap re-evaluation if the cap is
    /// carbon-responsive and no tick is pending.
    fn maybe_schedule_tick(&mut self, now: SimTime) {
        if self.tick_scheduled || !self.config.capacity_cap.is_carbon_responsive() {
            return;
        }
        let mut next = now.ceil_hour();
        if next == now {
            next += Minutes::from_hours(1);
        }
        self.tick_scheduled = true;
        self.push(next, 0, EventKind::CapTick);
    }

    fn on_cap_tick(&mut self, now: SimTime) -> Result<(), SimError> {
        self.tick_scheduled = false;
        self.drain_cap_queue(now)?;
        if !self.cap_queue.is_empty() {
            self.maybe_schedule_tick(now);
        }
        Ok(())
    }

    /// Starts blocked work FIFO while the cap admits it.
    fn drain_cap_queue(&mut self, now: SimTime) -> Result<(), SimError> {
        while let Some(&head) = self.cap_queue.front() {
            let cpus = match head {
                CapBlocked::Once { idx, .. } | CapBlocked::Segment { idx, .. } => {
                    self.jobs[idx].cpus
                }
            };
            if !self.cap_allows(cpus, now) {
                break;
            }
            self.cap_queue.pop_front();
            match head {
                CapBlocked::Once { idx, allow_spot } => {
                    if matches!(self.states[idx], JobState::Waiting { .. }) {
                        self.start_once(idx, now, allow_spot);
                    }
                }
                CapBlocked::Segment { idx, seg_idx } => {
                    self.on_segment_start(idx, seg_idx, now)?;
                }
            }
        }
        Ok(())
    }

    fn on_arrival(
        &mut self,
        idx: usize,
        now: SimTime,
        scheduler: &mut dyn Scheduler,
    ) -> Result<(), SimError> {
        // Stale if the job was cancelled before its arrival instant.
        if !matches!(self.states[idx], JobState::Unarrived) {
            return Ok(());
        }
        let job = self.jobs[idx];
        if S::ACTIVE {
            self.sink.emit(&ObsEvent::JobSubmitted {
                t: now.as_minutes(),
                job: idx as u64,
                cpus: u64::from(job.cpus),
                len: job.length.as_minutes(),
            });
        }
        // Forecast-service outage: swap in the persistence fallback for
        // decisions inside the window, flagging the context so policies
        // can coarsen their planning. The transition is traced once per
        // entry into degraded mode.
        let degraded = match (self.faults, self.fallback) {
            (Some(faults), Some(_)) => faults.outage_at(now),
            _ => false,
        };
        if degraded {
            self.degrade.degraded_decisions += 1;
            if !self.in_degraded {
                self.in_degraded = true;
                if S::ACTIVE {
                    let until = self.faults.and_then(|f| f.outage_until(now)).unwrap_or(now);
                    self.sink.emit(&ObsEvent::DegradedModeEntered {
                        t: now.as_minutes(),
                        until: until.as_minutes(),
                    });
                }
            }
        } else {
            self.in_degraded = false;
        }
        let forecaster = match (degraded, self.fallback) {
            (true, Some(fallback)) => fallback,
            _ => self.forecaster,
        };
        let ctx = SchedulerContext {
            now,
            forecast: ForecastView::new(forecaster, now),
            reserved_free: self.pool.free(),
            reserved_capacity: self.pool.capacity(),
            degraded,
        };
        let decision = {
            let _plan = self.profiler.map(|p| p.phase("plan"));
            scheduler.on_arrival(&job, &ctx)
        };
        if decision.planned_start() < job.arrival {
            return Err(PolicyError::StartBeforeArrival {
                job: job.id,
                arrival: job.arrival,
                planned: decision.planned_start(),
            }
            .into());
        }
        if let Some(plan) = decision.segments() {
            if plan.total() != job.length {
                return Err(PolicyError::PlanLengthMismatch {
                    job: job.id,
                    planned: plan.total(),
                    length: job.length,
                }
                .into());
            }
            if S::ACTIVE {
                self.emit_plan_chosen(idx, now, &decision);
            }
            for (seg_idx, (start, _)) in plan.segments.iter().enumerate() {
                self.push(*start, idx as u32, EventKind::SegmentStart(seg_idx));
            }
            self.states[idx] = JobState::InPlan { running: None };
            // Stash the decision for spot lookups during segment starts.
            self.plan_decisions[idx] = Some(decision);
            return Ok(());
        }
        if S::ACTIVE {
            self.emit_plan_chosen(idx, now, &decision);
        }
        let planned = decision.planned_start();
        let opportunistic = decision.is_opportunistic();
        self.states[idx] = JobState::Waiting { decision };
        if planned <= now {
            self.start_once(idx, now, true);
        } else {
            if opportunistic {
                self.waiters.insert((planned, idx as u32));
            }
            self.push(planned, idx as u32, EventKind::PlannedStart);
        }
        Ok(())
    }

    fn on_planned_start(&mut self, idx: usize, now: SimTime) {
        // Stale if the job already started opportunistically.
        if matches!(self.states[idx], JobState::Waiting { .. }) {
            self.waiters.remove(&(now, idx as u32));
            self.start_once(idx, now, true);
        }
    }

    /// Starts an uninterruptible run. `allow_spot` is false on restarts
    /// after eviction (§4.2.4: restart on on-demand / reserved).
    fn start_once(&mut self, idx: usize, now: SimTime, allow_spot: bool) {
        let job = self.jobs[idx];
        let use_spot = allow_spot
            && match &self.states[idx] {
                JobState::Waiting { decision } => decision.uses_spot(),
                _ => false,
            };
        let option = if use_spot {
            PurchaseOption::Spot
        } else if self.pool.try_acquire(job.cpus) {
            PurchaseOption::Reserved
        } else {
            PurchaseOption::OnDemand
        };
        if option != PurchaseOption::Reserved && !self.cap_allows(job.cpus, now) {
            self.block_on_cap(
                CapBlocked::Once {
                    idx,
                    allow_spot: use_spot,
                },
                now,
            );
            return;
        }
        self.begin_run(idx, now, option);
    }

    /// Boot time paid before execution on the given purchase option
    /// (reserved instances are pre-provisioned).
    fn boot_for(&self, option: PurchaseOption) -> Minutes {
        match option {
            PurchaseOption::Reserved => Minutes::ZERO,
            _ => self.config.overheads.startup,
        }
    }

    /// Wind-down time billed after execution on the given purchase option.
    fn teardown_for(&self, option: PurchaseOption) -> Minutes {
        match option {
            PurchaseOption::Reserved => Minutes::ZERO,
            _ => self.config.overheads.teardown,
        }
    }

    fn begin_run(&mut self, idx: usize, now: SimTime, option: PurchaseOption) {
        let job = self.jobs[idx];
        self.accum[idx].first_start.get_or_insert(now);
        let work = self.accum[idx].remaining;
        // Checkpointing stretches a spot run by the checkpoint overheads;
        // elastic instances additionally boot before executing.
        let span = self.boot_for(option)
            + match (option, self.config.checkpoint) {
                (PurchaseOption::Spot, Some(cp)) => cp.span_for(work),
                _ => work,
            };
        self.states[idx] = JobState::RunningOnce {
            option,
            start: now,
            span,
        };
        if S::ACTIVE {
            let seg = self.accum[idx].starts;
            self.accum[idx].starts += 1;
            self.sink.emit(&ObsEvent::SegmentStarted {
                t: now.as_minutes(),
                job: idx as u64,
                seg,
                pool: pool_kind(option),
            });
        }
        if option != PurchaseOption::Reserved {
            self.elastic_busy += job.cpus;
        }
        if option == PurchaseOption::Spot {
            let storm = self.storm_multiplier_at(now);
            if let Some(offset) = self.config.eviction.sample_eviction_scaled(
                span,
                self.config.seed,
                // Distinct stream per attempt so restarts resample.
                job.id
                    .0
                    .wrapping_add((self.accum[idx].evictions as u64) << 40),
                storm,
            ) {
                if storm > 1.0 {
                    self.degrade.storm_evictions += 1;
                }
                self.push(now + offset, idx as u32, EventKind::Eviction);
                return;
            }
        }
        self.push(now + span, idx as u32, EventKind::FinishOnce);
    }

    fn on_finish_once(&mut self, idx: usize, now: SimTime) -> Result<(), SimError> {
        let JobState::RunningOnce {
            option,
            start,
            span,
        } = self.states[idx]
        else {
            // Stale finish after an eviction rescheduled the job.
            return Ok(());
        };
        if now != start + span {
            return Ok(()); // stale event from a pre-eviction schedule
        }
        // Elastic instances bill their wind-down after execution ends.
        self.record_segment(idx, start, now + self.teardown_for(option), option, true);
        if S::ACTIVE {
            self.emit_segment_finished(idx, now, option, true);
        }
        self.states[idx] = JobState::Done;
        self.accum[idx].finish = now;
        self.accum[idx].remaining = Minutes::ZERO;
        self.completed += 1;
        self.completions.push(idx as u32);
        if S::ACTIVE {
            self.emit_job_completed(idx, now);
        }
        if option == PurchaseOption::Reserved {
            self.pool.release(self.jobs[idx].cpus);
            self.wake_waiters(now);
            Ok(())
        } else {
            self.elastic_busy -= self.jobs[idx].cpus;
            self.drain_cap_queue(now)
        }
    }

    fn on_eviction(&mut self, idx: usize, now: SimTime) -> Result<(), SimError> {
        match self.states[idx].clone() {
            JobState::RunningOnce { option, start, .. } => {
                debug_assert_eq!(option, PurchaseOption::Spot, "only spot runs are evicted");
                // With checkpointing, completed checkpoints survive the
                // eviction; without it, all progress is lost (§4.2.4).
                // Time spent booting banks nothing.
                let worked = (now - start).saturating_sub(self.boot_for(option));
                let banked = self
                    .config
                    .checkpoint
                    .map(|cp| cp.banked_work(worked, self.accum[idx].remaining))
                    .unwrap_or(Minutes::ZERO);
                self.record_segment(idx, start, now, option, !banked.is_zero());
                if S::ACTIVE {
                    self.emit_segment_finished(idx, now, option, !banked.is_zero());
                    self.sink.emit(&ObsEvent::SpotEvicted {
                        t: now.as_minutes(),
                        job: idx as u64,
                    });
                }
                self.elastic_busy -= self.jobs[idx].cpus;
                self.accum[idx].remaining -= banked;
                self.accum[idx].evictions += 1;
                // Checkpointed jobs keep retrying spot (losing only the
                // uncheckpointed tail) until the retry budget runs out.
                if let Some(cp) = self.config.checkpoint {
                    if self.accum[idx].evictions < cp.max_retries {
                        if self.cap_allows(self.jobs[idx].cpus, now) {
                            self.begin_run(idx, now, PurchaseOption::Spot);
                        } else {
                            self.states[idx] = JobState::Waiting {
                                decision: Decision::run_at(now).on_spot(),
                            };
                            self.block_on_cap(
                                CapBlocked::Once {
                                    idx,
                                    allow_spot: true,
                                },
                                now,
                            );
                        }
                        return Ok(());
                    }
                }
            }
            JobState::InPlan { running } => {
                // Abandon the plan: all prior progress is lost (§4.2.4;
                // checkpointing is modelled for uninterruptible spot runs
                // only).
                if let Some((_, option, start, _)) = running {
                    self.record_segment(idx, start, now, option, false);
                    if S::ACTIVE {
                        self.emit_segment_finished(idx, now, option, false);
                    }
                    if option == PurchaseOption::Reserved {
                        self.pool.release(self.jobs[idx].cpus);
                    } else {
                        self.elastic_busy -= self.jobs[idx].cpus;
                    }
                }
                // Earlier segments of the abandoned plan were traced with
                // `useful: true` — a stream cannot be rewritten, so
                // `SegmentFinished.useful` reflects knowledge at finish
                // time; the accounting records below stay authoritative.
                for segment in &mut self.accum[idx].segments {
                    segment.useful = false;
                }
                self.accum[idx].evictions += 1;
                if S::ACTIVE {
                    self.sink.emit(&ObsEvent::SpotEvicted {
                        t: now.as_minutes(),
                        job: idx as u64,
                    });
                }
            }
            _ => return Ok(()), // stale
        }
        // Restart/resume off spot: prefer reserved, else on-demand.
        self.states[idx] = JobState::Waiting {
            decision: Decision::run_at(now),
        };
        self.start_once(idx, now, false);
        self.drain_cap_queue(now)
    }

    fn on_segment_start(
        &mut self,
        idx: usize,
        seg_idx: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let JobState::InPlan { running } = &self.states[idx] else {
            return Ok(()); // plan abandoned after an eviction
        };
        // Instance boot times can push the previous segment's execution
        // past this segment's planned start; in that case the segment is
        // deferred until the running one finishes. (Plans themselves are
        // validated non-overlapping, so without overheads this is
        // unreachable.)
        if let Some((_, _, _, exec_end)) = *running {
            self.push(exec_end, idx as u32, EventKind::SegmentStart(seg_idx));
            return Ok(());
        }
        let job = self.jobs[idx];
        let decision = self.plan_decisions[idx]
            .as_ref()
            .ok_or_else(|| SimError::internal(format!("no stored plan decision for {}", job.id)))?;
        let plan = decision.segments().ok_or_else(|| {
            SimError::internal(format!(
                "InPlan state for {} without a segment plan",
                job.id
            ))
        })?;
        let &(_, seg_len) = plan.segments.get(seg_idx).ok_or_else(|| {
            SimError::internal(format!(
                "segment index {seg_idx} out of bounds for {} ({} segments)",
                job.id,
                plan.segments.len()
            ))
        })?;
        let use_spot = decision.uses_spot();
        let option = if use_spot {
            PurchaseOption::Spot
        } else if self.pool.try_acquire(job.cpus) {
            PurchaseOption::Reserved
        } else {
            PurchaseOption::OnDemand
        };
        if option != PurchaseOption::Reserved && !self.cap_allows(job.cpus, now) {
            self.block_on_cap(CapBlocked::Segment { idx, seg_idx }, now);
            return Ok(());
        }
        self.accum[idx].first_start.get_or_insert(now);
        if S::ACTIVE {
            let seg = self.accum[idx].starts;
            self.accum[idx].starts += 1;
            self.sink.emit(&ObsEvent::SegmentStarted {
                t: now.as_minutes(),
                job: idx as u64,
                seg,
                pool: pool_kind(option),
            });
        }
        if option != PurchaseOption::Reserved {
            self.elastic_busy += job.cpus;
        }
        let exec_end = now + self.boot_for(option) + seg_len;
        self.states[idx] = JobState::InPlan {
            running: Some((seg_idx, option, now, exec_end)),
        };
        if option == PurchaseOption::Spot {
            let storm = self.storm_multiplier_at(now);
            if let Some(offset) = self.config.eviction.sample_eviction_scaled(
                exec_end - now,
                self.config.seed,
                job.id
                    .0
                    .wrapping_add((self.accum[idx].evictions as u64) << 40)
                    .wrapping_add((seg_idx as u64) << 52),
                storm,
            ) {
                if storm > 1.0 {
                    self.degrade.storm_evictions += 1;
                }
                self.push(now + offset, idx as u32, EventKind::Eviction);
                return Ok(());
            }
        }
        self.push(exec_end, idx as u32, EventKind::FinishSegment(seg_idx));
        Ok(())
    }

    fn on_finish_segment(
        &mut self,
        idx: usize,
        seg_idx: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        let JobState::InPlan {
            running: Some((running_idx, option, start, exec_end)),
        } = self.states[idx]
        else {
            return Ok(()); // stale
        };
        if running_idx != seg_idx || now != exec_end {
            return Ok(()); // stale
        }
        self.record_segment(idx, start, now + self.teardown_for(option), option, true);
        if S::ACTIVE {
            self.emit_segment_finished(idx, now, option, true);
        }
        if option == PurchaseOption::Reserved {
            self.pool.release(self.jobs[idx].cpus);
        } else {
            self.elastic_busy -= self.jobs[idx].cpus;
        }
        let plan_len = self.plan_decisions[idx]
            .as_ref()
            .and_then(|d| d.segments())
            .map(|p| p.segments.len())
            .ok_or_else(|| {
                SimError::internal(format!(
                    "no stored plan decision for {} at segment finish",
                    self.jobs[idx].id
                ))
            })?;
        if seg_idx + 1 == plan_len {
            self.states[idx] = JobState::Done;
            self.accum[idx].finish = now;
            self.completed += 1;
            self.completions.push(idx as u32);
            if S::ACTIVE {
                self.emit_job_completed(idx, now);
            }
        } else {
            self.states[idx] = JobState::InPlan { running: None };
        }
        if option == PurchaseOption::Reserved {
            self.wake_waiters(now);
            Ok(())
        } else {
            self.drain_cap_queue(now)
        }
    }

    /// Work conservation: on freed reserved capacity, start opportunistic
    /// waiters in planned-start order. Jobs too wide for the remaining
    /// capacity are skipped rather than blocking narrower jobs behind
    /// them.
    fn wake_waiters(&mut self, now: SimTime) {
        if self.pool.free() == 0 {
            return;
        }
        let candidates: Vec<(SimTime, u32)> = self.waiters.iter().copied().collect();
        for (planned, job_idx) in candidates {
            if self.pool.free() == 0 {
                break;
            }
            let idx = job_idx as usize;
            if !matches!(self.states[idx], JobState::Waiting { .. }) {
                self.waiters.remove(&(planned, job_idx));
                continue;
            }
            if self.pool.try_acquire(self.jobs[idx].cpus) {
                self.waiters.remove(&(planned, job_idx));
                self.begin_run(idx, now, PurchaseOption::Reserved);
            }
        }
    }

    /// Emits [`ObsEvent::PlanChosen`] with forecast carbon/cost estimates
    /// for the planned spans. The cost estimate assumes the elastic
    /// option the plan targets (spot if the plan uses spot, on-demand
    /// otherwise); the engine may later place work on reserved capacity
    /// instead, so this is a planning-time estimate, not billing. Only
    /// called when `S::ACTIVE`.
    fn emit_plan_chosen(&mut self, idx: usize, now: SimTime, decision: &Decision) {
        let job = self.jobs[idx];
        let option = if decision.uses_spot() {
            PurchaseOption::Spot
        } else {
            PurchaseOption::OnDemand
        };
        let mut est_carbon_g = 0.0;
        let mut est_cost = 0.0;
        {
            let mut add_span = |start: SimTime, end: SimTime| {
                est_carbon_g +=
                    segment_carbon(self.carbon, &self.config.energy, job.cpus, start, end);
                est_cost += segment_cost(&self.config.pricing, option, job.cpus, start, end);
            };
            match decision.segments() {
                Some(plan) => {
                    for &(start, len) in &plan.segments {
                        add_span(start, start + len);
                    }
                }
                None => {
                    let start = decision.planned_start().max(now);
                    add_span(start, start + job.length);
                }
            }
        }
        let (mode, segs) = match decision.segments() {
            Some(plan) => (PlanMode::Segments, plan.segments.len() as u32),
            None => (PlanMode::Once, 1),
        };
        self.sink.emit(&ObsEvent::PlanChosen {
            t: now.as_minutes(),
            job: idx as u64,
            mode,
            start: decision.planned_start().max(now).as_minutes(),
            segs,
            opportunistic: decision.is_opportunistic(),
            spot: decision.uses_spot(),
            est_carbon_g,
            est_cost,
        });
    }

    /// Emits [`ObsEvent::SegmentFinished`] for the job's most recently
    /// started segment. Only called when `S::ACTIVE`, and only while the
    /// job has an open segment (so `starts >= 1`).
    fn emit_segment_finished(
        &mut self,
        idx: usize,
        now: SimTime,
        option: PurchaseOption,
        useful: bool,
    ) {
        let seg = self.accum[idx].starts.saturating_sub(1);
        self.sink.emit(&ObsEvent::SegmentFinished {
            t: now.as_minutes(),
            job: idx as u64,
            seg,
            pool: pool_kind(option),
            useful,
        });
    }

    /// Emits [`ObsEvent::JobCompleted`] using the same waiting-time
    /// formula as [`OracleEngine::into_report`], so summarized traces
    /// agree with `SimReport` totals exactly. Only called when
    /// `S::ACTIVE`.
    fn emit_job_completed(&mut self, idx: usize, now: SimTime) {
        let job = self.jobs[idx];
        let completion = now.saturating_since(job.arrival);
        let wait = completion.saturating_sub(job.length);
        let len = job.length.as_minutes();
        let stretch = if len == 0 {
            1.0
        } else {
            completion.as_minutes() as f64 / len as f64
        };
        self.sink.emit(&ObsEvent::JobCompleted {
            t: now.as_minutes(),
            job: idx as u64,
            wait: wait.as_minutes(),
            stretch,
        });
    }

    /// The eviction-storm rate multiplier active at `now` (1.0 without a
    /// fault schedule or outside every storm window).
    fn storm_multiplier_at(&self, now: SimTime) -> f64 {
        match self.faults {
            Some(faults) if faults.has_storms() => faults.storm_multiplier_at(now),
            _ => 1.0,
        }
    }

    fn record_segment(
        &mut self,
        idx: usize,
        start: SimTime,
        end: SimTime,
        option: PurchaseOption,
        useful: bool,
    ) {
        if end <= start {
            return;
        }
        let job = self.jobs[idx];
        let carbon = segment_carbon(self.carbon, &self.config.energy, job.cpus, start, end);
        let cost = segment_cost(&self.config.pricing, option, job.cpus, start, end);
        // Price spikes never mutate base accounting (cluster totals are
        // recomputed from CPU-hours at flat prices, and the audit relies
        // on that identity); the extra dollars are tracked separately,
        // keyed by the multiplier at the segment's start.
        if let Some(faults) = self.faults {
            if faults.has_spikes() {
                let multiplier = faults.price_multiplier_at(start);
                if multiplier > 1.0 {
                    self.degrade.price_surcharge += cost * (multiplier - 1.0);
                }
            }
        }
        let accum = &mut self.accum[idx];
        accum.carbon_g += carbon;
        accum.cost += cost;
        accum.segments.push(SegmentRecord {
            start,
            end,
            option,
            useful,
            width: 1,
            work_milli: 0,
        });
    }

    /// Consumes the engine and produces the full accounting report over
    /// every submitted job. The billing horizon is the configured
    /// override or the realized/nominal makespan rounded up to whole
    /// days, exactly as the batch path always computed it.
    pub fn into_report(mut self) -> SimReport {
        let outcomes: Vec<JobOutcome> = self
            .jobs
            .iter()
            .zip(self.accum.drain(..))
            .map(|(job, accum)| {
                let first_start = accum.first_start.unwrap_or(job.arrival);
                let completion = accum.finish.saturating_since(job.arrival);
                JobOutcome {
                    job: *job,
                    first_start,
                    finish: accum.finish,
                    waiting: completion.saturating_sub(job.length),
                    completion,
                    carbon_g: accum.carbon_g,
                    cost: accum.cost,
                    segments: accum.segments,
                    evictions: accum.evictions,
                }
            })
            .collect();
        let makespan = outcomes
            .iter()
            .map(|o| o.finish)
            .max()
            .unwrap_or(SimTime::ORIGIN);
        let billing_horizon = self.config.billing_horizon.unwrap_or_else(|| {
            let span = makespan.max(self.nominal_makespan);
            // Round up to a whole day: contracts do not end mid-afternoon.
            Minutes::new(span.as_minutes().div_ceil(MINUTES_PER_DAY) * MINUTES_PER_DAY)
        });
        let totals = ClusterTotals::aggregate(&outcomes, self.config, billing_horizon);
        let timeline = AllocationTimeline::from_outcomes(&outcomes, billing_horizon);
        SimReport {
            jobs: outcomes,
            totals,
            timeline,
            degradation: self.degrade,
            transfer: Default::default(),
        }
    }
}
