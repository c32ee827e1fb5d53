//! The reusable online event engine.
//!
//! [`OnlineEngine`] is the discrete-event core extracted from the
//! trace-driven batch path: it accepts job submissions at arbitrary
//! sim-times ([`OnlineEngine::submit`]), plans incrementally on arrival
//! (each decision consults the configured forecaster, which serves
//! repeated re-plans from one `ForecastIndex`), and steps by explicit
//! command — [`OnlineEngine::advance_to`] processes every event up to a
//! target instant, [`OnlineEngine::run_until_idle`] drains the queue.
//! Sim-time advances only when the caller says so, never by wall clock,
//! so a service built on top replays deterministically.
//!
//! # Columnar layout
//!
//! Hot per-job state lives in parallel columns indexed by the dense job
//! id — a tag byte ([`Tag`]) plus only the columns each state actually
//! reads (packed decisions, the running stretch, accounting scalars) —
//! instead of one `Vec` of fat state enums. Segment plans are interned
//! into a shared [`PlanArena`]; per-job segment accounting records form
//! intrusive chains through one arena (`seg_nodes`), materialized into
//! per-job `Vec`s only by [`OnlineEngine::into_report`]. Events are
//! queued in a calendar [`EventQueue`] that drains whole same-minute
//! batches (one sort per minute, contiguous walks) rather than one heap
//! pop at a time. None of this changes behaviour: the event total order
//! `(time, prio, seq)` is preserved exactly, so reports, trace streams,
//! and snapshot bytes are bit-identical to the pre-columnar engine
//! (kept as [`crate::oracle::OracleEngine`], a test reference only,
//! pitted against this one by differential tests).
//!
//! The batch frontend ([`crate::SimRunner`]) is one caller of this
//! engine: it submits every trace job up front and drains to idle,
//! which reproduces the historical batch behaviour event for event —
//! the sequence numbers, event order, and therefore reports and trace
//! streams are byte-identical to the pre-extraction engine.
//!
//! Online-only capabilities (cancellation, per-job status queries, the
//! completion buffer, snapshot/restore) are additive: none of them
//! perturbs an engine that is only submitted to and drained.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::ops::Bound;

use gaia_carbon::{CarbonForecaster, CarbonTrace, ForecastView};
use gaia_fault::FaultSchedule;
use gaia_obs::{Event as ObsEvent, PlanMode, PoolKind, Profiler, Sink};
use gaia_time::{Minutes, SimTime, MINUTES_PER_DAY};
use gaia_workload::Job;

use crate::account::{segment_carbon, segment_cost, ClusterTotals, JobOutcome, SegmentRecord};
use crate::config::ClusterConfig;
use crate::engine::{Scheduler, SchedulerContext};
use crate::error::{PolicyError, SimError};
use crate::eventq::EventQueue;
use crate::plan::PurchaseOption;
use crate::plan::{Decision, PackedDecision, PlanArena, DF_SPOT, DK_ELASTIC, DK_ONCE};
use crate::pool::ReservedPool;
use crate::report::{AllocationTimeline, DegradationStats, SimReport};

/// Event priorities at equal timestamps: releases < cap re-evaluations <
/// arrivals < starts, so freed or newly-permitted capacity is always
/// visible to decisions made at the same instant.
const PRIO_RELEASE: u8 = 0;
const PRIO_TICK: u8 = 1;
const PRIO_ARRIVAL: u8 = 2;
const PRIO_START: u8 = 3;

/// Sentinel for "no first start recorded" in the `first_start` column.
pub(crate) const NO_TIME: u64 = u64::MAX;

/// Null link in the segment-record chains.
pub(crate) const SEG_NIL: u32 = u32::MAX;

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
        // Max-heap convention (the differential tests race this queue
        // against a BinaryHeap); invert so earliest event pops first.
        (other.time, other.prio, other.seq).cmp(&(self.time, self.prio, self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-job lifecycle tag: the discriminant column of the old state enum.
/// Which companion columns are meaningful depends on the tag — `wait`
/// for `Waiting`, the `run_*` columns for `RunningOnce`/`PlanRunning`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tag {
    Unarrived,
    /// Waiting for its planned start (uninterruptible decision in
    /// `wait`).
    Waiting,
    /// Running an uninterruptible stretch: option/start in `run_option`/
    /// `run_start`, wall span minutes (work remaining plus checkpoint
    /// overheads) in `run_aux`.
    RunningOnce,
    /// Between segments of a suspend-resume plan.
    PlanIdle,
    /// Running segment `run_seg` of its plan: option/start in the run
    /// columns, execution end (including instance boot) in `run_aux`.
    PlanRunning,
    Done,
    /// Cancelled through the online API; never reached by batch replay.
    Cancelled,
}

/// One segment accounting record in the shared chain arena, linked in
/// recording order per job.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SegNode {
    pub(crate) rec: SegmentRecord,
    pub(crate) next: u32,
}

/// Maps the accounting purchase option onto its trace-event pool name.
fn pool_kind(option: PurchaseOption) -> PoolKind {
    match option {
        PurchaseOption::Reserved => PoolKind::Reserved,
        PurchaseOption::OnDemand => PoolKind::OnDemand,
        PurchaseOption::Spot => PoolKind::Spot,
    }
}

/// Waiting time of a job whose arrival→finish span is `completion`.
///
/// A finished job can never complete in less than its length — anything
/// else means the accounting lost time — so the subtraction is checked
/// in debug builds for finished jobs (the audit layer re-verifies the
/// same identity on every report; see `check_timing`). Unfinished and
/// cancelled jobs legitimately clamp to zero.
pub(crate) fn waiting_minutes(completion: Minutes, length: Minutes, finished: bool) -> Minutes {
    debug_assert!(
        !finished || completion >= length,
        "finished job completed in {} minutes, shorter than its {}-minute length",
        completion.as_minutes(),
        length.as_minutes()
    );
    completion.saturating_sub(length)
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

/// The externally visible state of one submitted job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobStatus {
    /// Submitted, but its arrival instant has not been reached yet.
    Pending,
    /// Arrived and planned; waiting for its planned start.
    Queued {
        /// The start instant the policy committed to.
        planned_start: SimTime,
    },
    /// Currently executing.
    Running {
        /// The capacity pool the current stretch runs in.
        pool: PurchaseOption,
        /// When the current stretch began.
        since: SimTime,
    },
    /// Between segments of a suspend-resume plan.
    Suspended,
    /// All work finished.
    Done {
        /// Completion instant.
        finish: SimTime,
        /// Operational carbon attributed to the job, grams CO2.
        carbon_g: f64,
        /// Monetary cost attributed to the job, dollars.
        cost: f64,
        /// Minutes spent not running.
        waiting: Minutes,
        /// Spot evictions suffered.
        evictions: u32,
    },
    /// Cancelled through [`OnlineEngine::cancel`].
    Cancelled {
        /// When the cancellation took effect.
        at: SimTime,
        /// Carbon already spent before cancellation, grams CO2.
        carbon_g: f64,
        /// Cost already incurred before cancellation, dollars.
        cost: f64,
    },
}

/// The result of an [`OnlineEngine::cancel`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was cancelled; any held capacity was released.
    Cancelled,
    /// The job had already finished (or was already cancelled).
    AlreadyFinished,
    /// No job with that index was ever submitted.
    Unknown,
}

/// The online, incrementally planned discrete-event engine.
///
/// Borrows its static inputs (configuration, carbon trace, forecaster,
/// sink, optional faults) and owns all dynamic state, which is what the
/// snapshot codec serializes. See the module-level docs for the
/// batch-equivalence contract and the columnar layout.
pub struct OnlineEngine<'e, S: Sink> {
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
    pub(crate) queue: EventQueue,
    pub(crate) seq: u64,
    /// The engine clock: the latest instant the caller advanced to (or
    /// the latest processed event, whichever is later).
    pub(crate) now: SimTime,

    // --- per-job columns, all indexed by the dense job id ---
    /// Lifecycle tag; selects which companion columns are meaningful.
    pub(crate) tag: Vec<Tag>,
    /// The waiting decision (valid while `Waiting`).
    pub(crate) wait: Vec<PackedDecision>,
    /// The stored segment-plan decision, consulted at each segment
    /// start. Never cleared once set (`DK_NONE` = no plan).
    pub(crate) plan: Vec<PackedDecision>,
    /// Segment spans behind every packed decision.
    pub(crate) arena: PlanArena,
    /// Purchase option of the current stretch (`RunningOnce` /
    /// `PlanRunning`).
    pub(crate) run_option: Vec<PurchaseOption>,
    /// Start of the current stretch.
    pub(crate) run_start: Vec<SimTime>,
    /// `RunningOnce`: wall-span minutes. `PlanRunning`: execution-end
    /// minutes.
    pub(crate) run_aux: Vec<u64>,
    /// Index of the running plan segment (`PlanRunning`).
    pub(crate) run_seg: Vec<u32>,
    /// First execution start, minutes ([`NO_TIME`] = never started).
    pub(crate) first_start: Vec<u64>,
    /// Finish (or cancellation) instant.
    pub(crate) finish: Vec<SimTime>,
    /// Operational carbon attributed so far, grams CO2.
    pub(crate) carbon_g: Vec<f64>,
    /// Cost attributed so far, dollars.
    pub(crate) cost: Vec<f64>,
    /// Spot evictions suffered.
    pub(crate) evictions: Vec<u32>,
    /// Useful work still to be done; shrinks below the job length only
    /// when checkpointing banks partial progress across evictions.
    pub(crate) remaining: Vec<Minutes>,
    /// Segment ordinal for trace events: counts every execution start
    /// (plan segments and post-eviction retries alike). Only maintained
    /// when the sink is active.
    pub(crate) starts: Vec<u32>,
    /// Segment accounting records, chained per job through `seg_head` /
    /// `seg_tail`.
    pub(crate) seg_nodes: Vec<SegNode>,
    pub(crate) seg_head: Vec<u32>,
    pub(crate) seg_tail: Vec<u32>,
    pub(crate) seg_count: Vec<u32>,

    /// Opportunistic waiters ordered by (planned_start, job index):
    /// "the job with this t_start is started on this reserved server".
    pub(crate) waiters: BTreeSet<(SimTime, u32)>,
    /// Histogram of waiter widths (cpus → count), mirroring `waiters`,
    /// so a release narrower than every waiter skips the scan entirely.
    pub(crate) waiter_widths: BTreeMap<u32, u32>,
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
    /// [`OnlineEngine::take_completions`] drain, in completion order.
    pub(crate) completions: Vec<u32>,
}

impl<S: Sink> std::fmt::Debug for OnlineEngine<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineEngine")
            .field("now", &self.now)
            .field("jobs", &self.jobs.len())
            .field("pending_events", &self.queue.len())
            .finish_non_exhaustive()
    }
}

impl<'e, S: Sink> OnlineEngine<'e, S> {
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
        OnlineEngine {
            pool: ReservedPool::new(config.reserved_cpus),
            config,
            carbon,
            forecaster,
            faults: None,
            fallback: None,
            sink,
            profiler: None,
            jobs: Vec::new(),
            queue: EventQueue::new(),
            seq: 0,
            now: SimTime::ORIGIN,
            tag: Vec::new(),
            wait: Vec::new(),
            plan: Vec::new(),
            arena: PlanArena::default(),
            run_option: Vec::new(),
            run_start: Vec::new(),
            run_aux: Vec::new(),
            run_seg: Vec::new(),
            first_start: Vec::new(),
            finish: Vec::new(),
            carbon_g: Vec::new(),
            cost: Vec::new(),
            evictions: Vec::new(),
            remaining: Vec::new(),
            starts: Vec::new(),
            seg_nodes: Vec::new(),
            seg_head: Vec::new(),
            seg_tail: Vec::new(),
            seg_count: Vec::new(),
            waiters: BTreeSet::new(),
            waiter_widths: BTreeMap::new(),
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
    /// ([`OnlineEngine::restore`]), which already contains the pending
    /// ticks and degradation counters; use [`OnlineEngine::with_faults`]
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
    ///
    /// Capacities are reserved at pairwise-distinct offsets (the same
    /// 64·(17+2k) ladder as `stagger_columns`) so that
    /// submissions *beyond* the reservation never resynchronize the
    /// columns: amortized doubling keeps at most one column
    /// reallocating on any given submit, which is what bounds the
    /// serving path's worst-case `submit` latency.
    pub fn reserve_jobs(&mut self, additional: usize) {
        fn seed<T>(v: &mut Vec<T>, additional: usize, k: usize) {
            v.reserve_exact(additional + 64 * (17 + 2 * k));
        }
        seed(&mut self.jobs, additional, 0);
        seed(&mut self.tag, additional, 1);
        seed(&mut self.wait, additional, 2);
        seed(&mut self.plan, additional, 3);
        seed(&mut self.run_option, additional, 4);
        seed(&mut self.run_start, additional, 5);
        seed(&mut self.run_aux, additional, 6);
        seed(&mut self.run_seg, additional, 7);
        seed(&mut self.first_start, additional, 8);
        seed(&mut self.finish, additional, 9);
        seed(&mut self.carbon_g, additional, 10);
        seed(&mut self.cost, additional, 11);
        seed(&mut self.evictions, additional, 12);
        seed(&mut self.remaining, additional, 13);
        seed(&mut self.starts, additional, 14);
        seed(&mut self.seg_nodes, additional, 15);
        seed(&mut self.seg_head, additional, 16);
        seed(&mut self.seg_tail, additional, 17);
        seed(&mut self.seg_count, additional, 18);
        self.queue.reserve(additional);
    }

    /// Seeds every per-job column with a distinct initial capacity — an
    /// odd multiple of 64, so capacities stay pairwise distinct under
    /// amortized doubling forever and at most one column reallocates on
    /// any given submit. Without this, every column doubles at the same
    /// power-of-two submission and that submit pays one giant copy — the
    /// tail-latency cliff `serve_bench` gates on (max / p99.9 ≤ 50×).
    fn stagger_columns(&mut self) {
        fn seed<T>(v: &mut Vec<T>, k: usize) {
            v.reserve_exact(64 * (17 + 2 * k));
        }
        seed(&mut self.jobs, 0);
        seed(&mut self.tag, 1);
        seed(&mut self.wait, 2);
        seed(&mut self.plan, 3);
        seed(&mut self.run_option, 4);
        seed(&mut self.run_start, 5);
        seed(&mut self.run_aux, 6);
        seed(&mut self.run_seg, 7);
        seed(&mut self.first_start, 8);
        seed(&mut self.finish, 9);
        seed(&mut self.carbon_g, 10);
        seed(&mut self.cost, 11);
        seed(&mut self.evictions, 12);
        seed(&mut self.remaining, 13);
        seed(&mut self.starts, 14);
        seed(&mut self.seg_nodes, 15);
        seed(&mut self.seg_head, 16);
        seed(&mut self.seg_tail, 17);
        seed(&mut self.seg_count, 18);
    }

    /// Submits one job. Its arrival event is queued; the policy decides
    /// when the engine's clock reaches the arrival instant (via
    /// [`OnlineEngine::advance_to`] or [`OnlineEngine::run_until_idle`]).
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
        if idx == 0 {
            self.stagger_columns();
        }
        self.tag.push(Tag::Unarrived);
        self.wait.push(PackedDecision::default());
        self.plan.push(PackedDecision::default());
        self.run_option.push(PurchaseOption::Reserved);
        self.run_start.push(SimTime::ORIGIN);
        self.run_aux.push(0);
        self.run_seg.push(0);
        self.first_start.push(NO_TIME);
        self.finish.push(SimTime::ORIGIN);
        self.carbon_g.push(0.0);
        self.cost.push(0.0);
        self.evictions.push(0);
        self.remaining.push(job.length);
        self.starts.push(0);
        self.seg_head.push(SEG_NIL);
        self.seg_tail.push(SEG_NIL);
        self.seg_count.push(0);
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
        while let Some(head) = self.queue.peek_time() {
            if head > t {
                break;
            }
            let event = self.queue.pop().expect("peeked event");
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
        while let Some(event) = self.queue.pop() {
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
        match self.tag[i] {
            Tag::Done | Tag::Cancelled => Ok(CancelOutcome::AlreadyFinished),
            Tag::Unarrived | Tag::PlanIdle => {
                self.finish_cancel(i, now);
                Ok(CancelOutcome::Cancelled)
            }
            Tag::Waiting => {
                let decision = self.wait[i];
                if decision.is_opportunistic() {
                    self.waiters_remove(decision.planned, idx);
                }
                self.finish_cancel(i, now);
                Ok(CancelOutcome::Cancelled)
            }
            Tag::RunningOnce | Tag::PlanRunning => {
                let option = self.run_option[i];
                let start = self.run_start[i];
                let width = self.running_width(i);
                self.record_segment(i, start, now, option, false, width, 0);
                if S::ACTIVE {
                    self.emit_segment_finished(i, now, option, false);
                }
                self.finish_cancel(i, now);
                let held = self.jobs[i].cpus * width;
                self.release_after_stop(option, now, held)?;
                Ok(CancelOutcome::Cancelled)
            }
        }
    }

    fn finish_cancel(&mut self, idx: usize, now: SimTime) {
        self.tag[idx] = Tag::Cancelled;
        self.finish[idx] = now;
        self.cancelled += 1;
    }

    /// Releases the capacity a stopped job held (`cpus` already includes
    /// any elastic width multiplier) and lets blocked or opportunistic
    /// work claim it.
    fn release_after_stop(
        &mut self,
        option: PurchaseOption,
        now: SimTime,
        cpus: u32,
    ) -> Result<(), SimError> {
        if option == PurchaseOption::Reserved {
            self.pool.release(cpus);
            self.wake_waiters(now);
            Ok(())
        } else {
            self.elastic_busy -= cpus;
            self.drain_cap_queue(now)
        }
    }

    /// The worker width of job `idx`'s currently running plan segment
    /// (1 for uninterruptible runs and plain suspend-resume segments).
    fn running_width(&self, idx: usize) -> u32 {
        if self.tag[idx] == Tag::PlanRunning {
            self.arena
                .width_of(self.plan[idx], self.run_seg[idx] as usize)
        } else {
            1
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

    /// Jobs cancelled through [`OnlineEngine::cancel`].
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Jobs submitted but neither finished nor cancelled.
    pub fn queued(&self) -> u64 {
        self.submitted() - self.completed - self.cancelled
    }

    /// Events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Whether the event queue is empty.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// The externally visible status of job `idx`, or `None` if no such
    /// job was submitted.
    pub fn job_status(&self, idx: u32) -> Option<JobStatus> {
        let i = idx as usize;
        let tag = *self.tag.get(i)?;
        Some(match tag {
            Tag::Unarrived => JobStatus::Pending,
            Tag::Waiting => JobStatus::Queued {
                planned_start: self.wait[i].planned,
            },
            Tag::RunningOnce | Tag::PlanRunning => JobStatus::Running {
                pool: self.run_option[i],
                since: self.run_start[i],
            },
            Tag::PlanIdle => JobStatus::Suspended,
            Tag::Done => {
                let completion = self.finish[i].saturating_since(self.jobs[i].arrival);
                let waiting = if self.plan[i].kind == DK_ELASTIC {
                    self.elastic_waiting(i, completion)
                } else {
                    waiting_minutes(completion, self.jobs[i].length, true)
                };
                JobStatus::Done {
                    finish: self.finish[i],
                    carbon_g: self.carbon_g[i],
                    cost: self.cost[i],
                    waiting,
                    evictions: self.evictions[i],
                }
            }
            Tag::Cancelled => JobStatus::Cancelled {
                at: self.finish[i],
                carbon_g: self.carbon_g[i],
                cost: self.cost[i],
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

    /// Flushes writer-local sink buffers — flight-recorder frames,
    /// traced JSONL lines — at a request boundary (see [`Sink::sync`]).
    /// The serving layer calls this once per applied request; with an
    /// inactive sink the call is compile-time dead.
    pub fn sync_sink(&mut self) {
        if S::ACTIVE {
            self.sink.sync();
        }
    }

    /// Whether the engine is currently in degraded mode: a forecast
    /// outage is active and planning falls back to the persistence
    /// forecaster. Exposed for live telemetry.
    pub fn in_degraded_mode(&self) -> bool {
        self.in_degraded
    }

    /// What a carbon-agnostic baseline would emit and pay for this job:
    /// run immediately at arrival on on-demand capacity, no temporal
    /// shifting. Returns `(carbon_g, cost_dollars)` using the same
    /// accounting kernels as real execution, so the delta against a
    /// job's actual outcome isolates the scheduling policy's effect.
    ///
    /// Telemetry-only: a pure function of the submitted parameters and
    /// the static carbon/pricing inputs, never fed back into planning
    /// or deterministic state.
    pub fn naive_baseline(&self, at: SimTime, len: Minutes, cpus: u32) -> (f64, f64) {
        let end = at + len;
        let carbon_g = segment_carbon(self.carbon, &self.config.energy, cpus, at, end);
        let cost = segment_cost(
            &self.config.pricing,
            PurchaseOption::OnDemand,
            cpus,
            at,
            end,
        );
        (carbon_g, cost)
    }

    pub(crate) fn push(&mut self, time: SimTime, job: u32, kind: EventKind) {
        self.seq += 1;
        self.queue.insert(Event {
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
                CapBlocked::Once { idx, .. } => self.jobs[idx].cpus,
                // Elastic plan segments occupy width × base CPUs; the
                // arena reports width 1 for everything else.
                CapBlocked::Segment { idx, seg_idx } => {
                    self.jobs[idx].cpus * self.arena.width_of(self.plan[idx], seg_idx)
                }
            };
            if !self.cap_allows(cpus, now) {
                break;
            }
            self.cap_queue.pop_front();
            match head {
                CapBlocked::Once { idx, allow_spot } => {
                    if self.tag[idx] == Tag::Waiting {
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
        if self.tag[idx] != Tag::Unarrived {
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
            self.tag[idx] = Tag::PlanIdle;
            // Stash the decision for spot lookups during segment starts.
            self.plan[idx] = self.arena.intern(&decision);
            return Ok(());
        }
        if let Some(plan) = decision.elastic() {
            // Elastic plans are validated by serial-equivalent *work*,
            // not wall time: the summed work must cover the job's
            // length (over-provisioning is legal; the tail is slack).
            let needed_milli = job.length.as_minutes() * 1000;
            if plan.total_work_milli() < needed_milli {
                return Err(PolicyError::ElasticPlanShortfall {
                    job: job.id,
                    work_milli: plan.total_work_milli(),
                    needed_milli,
                }
                .into());
            }
            if S::ACTIVE {
                self.emit_plan_chosen(idx, now, &decision);
            }
            for (seg_idx, seg) in plan.segments().iter().enumerate() {
                self.push(seg.start, idx as u32, EventKind::SegmentStart(seg_idx));
            }
            self.tag[idx] = Tag::PlanIdle;
            self.plan[idx] = self.arena.intern(&decision);
            return Ok(());
        }
        if S::ACTIVE {
            self.emit_plan_chosen(idx, now, &decision);
        }
        let planned = decision.planned_start();
        let opportunistic = decision.is_opportunistic();
        self.wait[idx] = self.arena.intern(&decision);
        self.tag[idx] = Tag::Waiting;
        if planned <= now {
            self.start_once(idx, now, true);
        } else {
            if opportunistic {
                self.waiters_insert(planned, idx as u32);
            }
            self.push(planned, idx as u32, EventKind::PlannedStart);
        }
        Ok(())
    }

    fn on_planned_start(&mut self, idx: usize, now: SimTime) {
        // Stale if the job already started opportunistically.
        if self.tag[idx] == Tag::Waiting {
            self.waiters_remove(now, idx as u32);
            self.start_once(idx, now, true);
        }
    }

    /// Starts an uninterruptible run. `allow_spot` is false on restarts
    /// after eviction (§4.2.4: restart on on-demand / reserved).
    fn start_once(&mut self, idx: usize, now: SimTime, allow_spot: bool) {
        let job = self.jobs[idx];
        let use_spot = allow_spot && self.tag[idx] == Tag::Waiting && self.wait[idx].uses_spot();
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
        if self.first_start[idx] == NO_TIME {
            self.first_start[idx] = now.as_minutes();
        }
        let work = self.remaining[idx];
        // Checkpointing stretches a spot run by the checkpoint overheads;
        // elastic instances additionally boot before executing.
        let span = self.boot_for(option)
            + match (option, self.config.checkpoint) {
                (PurchaseOption::Spot, Some(cp)) => cp.span_for(work),
                _ => work,
            };
        self.tag[idx] = Tag::RunningOnce;
        self.run_option[idx] = option;
        self.run_start[idx] = now;
        self.run_aux[idx] = span.as_minutes();
        if S::ACTIVE {
            let seg = self.starts[idx];
            self.starts[idx] += 1;
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
                job.id.0.wrapping_add((self.evictions[idx] as u64) << 40),
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
        if self.tag[idx] != Tag::RunningOnce {
            // Stale finish after an eviction rescheduled the job.
            return Ok(());
        }
        let option = self.run_option[idx];
        let start = self.run_start[idx];
        let span = Minutes::new(self.run_aux[idx]);
        if now != start + span {
            return Ok(()); // stale event from a pre-eviction schedule
        }
        // Elastic instances bill their wind-down after execution ends.
        self.record_segment(
            idx,
            start,
            now + self.teardown_for(option),
            option,
            true,
            1,
            0,
        );
        if S::ACTIVE {
            self.emit_segment_finished(idx, now, option, true);
        }
        self.tag[idx] = Tag::Done;
        self.finish[idx] = now;
        self.remaining[idx] = Minutes::ZERO;
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
        match self.tag[idx] {
            Tag::RunningOnce => {
                let option = self.run_option[idx];
                let start = self.run_start[idx];
                debug_assert_eq!(option, PurchaseOption::Spot, "only spot runs are evicted");
                // With checkpointing, completed checkpoints survive the
                // eviction; without it, all progress is lost (§4.2.4).
                // Time spent booting banks nothing.
                let worked = (now - start).saturating_sub(self.boot_for(option));
                let banked = self
                    .config
                    .checkpoint
                    .map(|cp| cp.banked_work(worked, self.remaining[idx]))
                    .unwrap_or(Minutes::ZERO);
                self.record_segment(idx, start, now, option, !banked.is_zero(), 1, 0);
                if S::ACTIVE {
                    self.emit_segment_finished(idx, now, option, !banked.is_zero());
                    self.sink.emit(&ObsEvent::SpotEvicted {
                        t: now.as_minutes(),
                        job: idx as u64,
                    });
                }
                self.elastic_busy -= self.jobs[idx].cpus;
                self.remaining[idx] -= banked;
                self.evictions[idx] += 1;
                // Checkpointed jobs keep retrying spot (losing only the
                // uncheckpointed tail) until the retry budget runs out.
                if let Some(cp) = self.config.checkpoint {
                    if self.evictions[idx] < cp.max_retries {
                        if self.cap_allows(self.jobs[idx].cpus, now) {
                            self.begin_run(idx, now, PurchaseOption::Spot);
                        } else {
                            self.wait[idx] = PackedDecision {
                                kind: DK_ONCE,
                                flags: DF_SPOT,
                                planned: now,
                                seg_start: 0,
                                seg_len: 0,
                            };
                            self.tag[idx] = Tag::Waiting;
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
            Tag::PlanIdle | Tag::PlanRunning => {
                // Abandon the plan: all prior progress is lost (§4.2.4;
                // checkpointing is modelled for uninterruptible spot runs
                // only).
                if self.tag[idx] == Tag::PlanRunning {
                    let option = self.run_option[idx];
                    let start = self.run_start[idx];
                    let width = self.running_width(idx);
                    self.record_segment(idx, start, now, option, false, width, 0);
                    if S::ACTIVE {
                        self.emit_segment_finished(idx, now, option, false);
                    }
                    let cpus = self.jobs[idx].cpus * width;
                    if option == PurchaseOption::Reserved {
                        self.pool.release(cpus);
                    } else {
                        self.elastic_busy -= cpus;
                    }
                }
                // Earlier segments of the abandoned plan were traced with
                // `useful: true` — a stream cannot be rewritten, so
                // `SegmentFinished.useful` reflects knowledge at finish
                // time; the accounting records below stay authoritative.
                let mut node = self.seg_head[idx];
                while node != SEG_NIL {
                    let n = &mut self.seg_nodes[node as usize];
                    n.rec.useful = false;
                    node = n.next;
                }
                self.evictions[idx] += 1;
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
        self.wait[idx] = PackedDecision {
            kind: DK_ONCE,
            flags: 0,
            planned: now,
            seg_start: 0,
            seg_len: 0,
        };
        self.tag[idx] = Tag::Waiting;
        self.start_once(idx, now, false);
        self.drain_cap_queue(now)
    }

    fn on_segment_start(
        &mut self,
        idx: usize,
        seg_idx: usize,
        now: SimTime,
    ) -> Result<(), SimError> {
        match self.tag[idx] {
            // Instance boot times can push the previous segment's
            // execution past this segment's planned start; in that case
            // the segment is deferred until the running one finishes.
            // (Plans themselves are validated non-overlapping, so
            // without overheads this is unreachable.)
            Tag::PlanRunning => {
                let exec_end = SimTime::from_minutes(self.run_aux[idx]);
                self.push(exec_end, idx as u32, EventKind::SegmentStart(seg_idx));
                return Ok(());
            }
            Tag::PlanIdle => {}
            _ => return Ok(()), // plan abandoned after an eviction
        }
        let job = self.jobs[idx];
        let packed = self.plan[idx];
        if !packed.is_some() {
            return Err(SimError::internal(format!(
                "no stored plan decision for {}",
                job.id
            )));
        }
        if !packed.is_plan() {
            return Err(SimError::internal(format!(
                "InPlan state for {} without a segment plan",
                job.id
            )));
        }
        let spans = self.arena.spans_of(packed);
        let Some(&(_, seg_len)) = spans.get(seg_idx) else {
            return Err(SimError::internal(format!(
                "segment index {seg_idx} out of bounds for {} ({} segments)",
                job.id,
                spans.len()
            )));
        };
        // Elastic slices occupy width × base CPUs for their whole span.
        let width = self.arena.width_of(packed, seg_idx);
        let cpus = job.cpus * width;
        let use_spot = packed.uses_spot();
        let option = if use_spot {
            PurchaseOption::Spot
        } else if self.pool.try_acquire(cpus) {
            PurchaseOption::Reserved
        } else {
            PurchaseOption::OnDemand
        };
        if option != PurchaseOption::Reserved && !self.cap_allows(cpus, now) {
            self.block_on_cap(CapBlocked::Segment { idx, seg_idx }, now);
            return Ok(());
        }
        if self.first_start[idx] == NO_TIME {
            self.first_start[idx] = now.as_minutes();
        }
        if S::ACTIVE {
            let seg = self.starts[idx];
            self.starts[idx] += 1;
            // Width changes are announced before the slice starts: a
            // `WidthChanged` at time t orders before the `SegmentStarted`
            // it applies to (same t, same seg). The previous width is the
            // preceding slice's (0 when this is the first slice).
            if packed.kind == DK_ELASTIC {
                let prev = if seg_idx == 0 {
                    0
                } else {
                    self.arena.width_of(packed, seg_idx - 1)
                };
                if width != prev {
                    self.sink.emit(&ObsEvent::WidthChanged {
                        t: now.as_minutes(),
                        job: idx as u64,
                        seg,
                        width: u64::from(width),
                        prev: u64::from(prev),
                    });
                }
            }
            self.sink.emit(&ObsEvent::SegmentStarted {
                t: now.as_minutes(),
                job: idx as u64,
                seg,
                pool: pool_kind(option),
            });
        }
        if option != PurchaseOption::Reserved {
            self.elastic_busy += cpus;
        }
        let exec_end = now + self.boot_for(option) + seg_len;
        self.tag[idx] = Tag::PlanRunning;
        self.run_seg[idx] = seg_idx as u32;
        self.run_option[idx] = option;
        self.run_start[idx] = now;
        self.run_aux[idx] = exec_end.as_minutes();
        if option == PurchaseOption::Spot {
            let storm = self.storm_multiplier_at(now);
            if let Some(offset) = self.config.eviction.sample_eviction_scaled(
                exec_end - now,
                self.config.seed,
                job.id
                    .0
                    .wrapping_add((self.evictions[idx] as u64) << 40)
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
        if self.tag[idx] != Tag::PlanRunning {
            return Ok(()); // stale
        }
        let running_idx = self.run_seg[idx] as usize;
        let option = self.run_option[idx];
        let start = self.run_start[idx];
        let exec_end = SimTime::from_minutes(self.run_aux[idx]);
        if running_idx != seg_idx || now != exec_end {
            return Ok(()); // stale
        }
        let width = self.arena.width_of(self.plan[idx], seg_idx);
        let work = self.arena.work_of(self.plan[idx], seg_idx);
        self.record_segment(
            idx,
            start,
            now + self.teardown_for(option),
            option,
            true,
            width,
            work,
        );
        if S::ACTIVE {
            self.emit_segment_finished(idx, now, option, true);
        }
        let cpus = self.jobs[idx].cpus * width;
        if option == PurchaseOption::Reserved {
            self.pool.release(cpus);
        } else {
            self.elastic_busy -= cpus;
        }
        if !self.plan[idx].is_plan() {
            return Err(SimError::internal(format!(
                "no stored plan decision for {} at segment finish",
                self.jobs[idx].id
            )));
        }
        let plan_len = self.plan[idx].seg_len as usize;
        if seg_idx + 1 == plan_len {
            self.tag[idx] = Tag::Done;
            self.finish[idx] = now;
            self.completed += 1;
            self.completions.push(idx as u32);
            if S::ACTIVE {
                self.emit_job_completed(idx, now);
            }
        } else {
            self.tag[idx] = Tag::PlanIdle;
        }
        if option == PurchaseOption::Reserved {
            self.wake_waiters(now);
            Ok(())
        } else {
            self.drain_cap_queue(now)
        }
    }

    /// Inserts an opportunistic waiter, mirroring it in the width
    /// histogram.
    fn waiters_insert(&mut self, planned: SimTime, job_idx: u32) {
        if self.waiters.insert((planned, job_idx)) {
            let width = self.jobs[job_idx as usize].cpus;
            *self.waiter_widths.entry(width).or_insert(0) += 1;
        }
    }

    /// Removes a waiter (if present), keeping the width histogram in
    /// sync.
    fn waiters_remove(&mut self, planned: SimTime, job_idx: u32) {
        if self.waiters.remove(&(planned, job_idx)) {
            let width = self.jobs[job_idx as usize].cpus;
            match self.waiter_widths.get_mut(&width) {
                Some(count) if *count > 1 => *count -= 1,
                _ => {
                    self.waiter_widths.remove(&width);
                }
            }
        }
    }

    /// Work conservation: on freed reserved capacity, start opportunistic
    /// waiters in planned-start order. Jobs too wide for the remaining
    /// capacity are skipped rather than blocking narrower jobs behind
    /// them. A cursor walks the set in order (removals only ever touch
    /// the entry under the cursor, and starting a job never inserts
    /// waiters, so this visits exactly the entries a snapshot of the set
    /// would); the width histogram short-circuits releases narrower than
    /// every waiter.
    fn wake_waiters(&mut self, now: SimTime) {
        let free = self.pool.free();
        if free == 0 {
            return;
        }
        match self.waiter_widths.keys().next() {
            None => return,
            Some(&narrowest) if narrowest > free => return,
            Some(_) => {}
        }
        let mut cursor: Option<(SimTime, u32)> = None;
        loop {
            if self.pool.free() == 0 {
                break;
            }
            let next = match cursor {
                None => self.waiters.iter().next().copied(),
                Some(c) => self
                    .waiters
                    .range((Bound::Excluded(c), Bound::Unbounded))
                    .next()
                    .copied(),
            };
            let Some((planned, job_idx)) = next else {
                break;
            };
            cursor = Some((planned, job_idx));
            let idx = job_idx as usize;
            if self.tag[idx] != Tag::Waiting {
                self.waiters_remove(planned, job_idx);
                continue;
            }
            if self.pool.try_acquire(self.jobs[idx].cpus) {
                self.waiters_remove(planned, job_idx);
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
            let mut add_span = |start: SimTime, end: SimTime, cpus: u32| {
                est_carbon_g += segment_carbon(self.carbon, &self.config.energy, cpus, start, end);
                est_cost += segment_cost(&self.config.pricing, option, cpus, start, end);
            };
            if let Some(plan) = decision.segments() {
                for &(start, len) in &plan.segments {
                    add_span(start, start + len, job.cpus);
                }
            } else if let Some(plan) = decision.elastic() {
                for seg in plan.segments() {
                    add_span(seg.start, seg.end(), job.cpus * seg.width);
                }
            } else {
                let start = decision.planned_start().max(now);
                add_span(start, start + job.length, job.cpus);
            }
        }
        let (mode, segs) = if let Some(plan) = decision.segments() {
            (PlanMode::Segments, plan.segments.len() as u32)
        } else if let Some(plan) = decision.elastic() {
            (PlanMode::Elastic, plan.segments().len() as u32)
        } else {
            (PlanMode::Once, 1)
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
        let seg = self.starts[idx].saturating_sub(1);
        self.sink.emit(&ObsEvent::SegmentFinished {
            t: now.as_minutes(),
            job: idx as u64,
            seg,
            pool: pool_kind(option),
            useful,
        });
    }

    /// Emits [`ObsEvent::JobCompleted`] using the same waiting-time
    /// formula as [`OnlineEngine::into_report`], so summarized traces
    /// agree with `SimReport` totals exactly. Only called when
    /// `S::ACTIVE`.
    fn emit_job_completed(&mut self, idx: usize, now: SimTime) {
        let job = self.jobs[idx];
        let completion = now.saturating_since(job.arrival);
        let wait = if self.plan[idx].kind == DK_ELASTIC {
            self.elastic_waiting(idx, completion)
        } else {
            waiting_minutes(completion, job.length, true)
        };
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

    /// Waiting time for an elastic job: completion minus the wall time
    /// spent usefully executing. Running wide finishes the work in less
    /// wall time, so waiting can be *negative slack relative to the
    /// serial length*; the subtraction saturates at zero. Boot and
    /// teardown overheads count as waiting, exactly as they do for
    /// uninterruptible runs (`waiting = completion - length` charges
    /// them too). After a spot eviction abandons the plan the job
    /// restarts serially, and this formula coincides with the plain one.
    fn elastic_waiting(&self, idx: usize, completion: Minutes) -> Minutes {
        let mut useful_wall = Minutes::ZERO;
        let mut node = self.seg_head[idx];
        while node != SEG_NIL {
            let n = &self.seg_nodes[node as usize];
            if n.rec.useful {
                let span = n.rec.end.saturating_since(n.rec.start);
                let overhead = self.boot_for(n.rec.option) + self.teardown_for(n.rec.option);
                useful_wall += span.saturating_sub(overhead);
            }
            node = n.next;
        }
        completion.saturating_sub(useful_wall)
    }

    /// The eviction-storm rate multiplier active at `now` (1.0 without a
    /// fault schedule or outside every storm window).
    fn storm_multiplier_at(&self, now: SimTime) -> f64 {
        match self.faults {
            Some(faults) if faults.has_storms() => faults.storm_multiplier_at(now),
            _ => 1.0,
        }
    }

    /// Appends one accounting record. `width` is the elastic worker
    /// width the span ran at (1 for non-elastic execution) and scales
    /// the CPUs billed and the carbon emitted; `work_milli` is the
    /// serial-equivalent work a *useful elastic* span completed (0
    /// otherwise — for plain spans the work is the wall length).
    #[allow(clippy::too_many_arguments)]
    fn record_segment(
        &mut self,
        idx: usize,
        start: SimTime,
        end: SimTime,
        option: PurchaseOption,
        useful: bool,
        width: u32,
        work_milli: u64,
    ) {
        if end <= start {
            return;
        }
        let job = self.jobs[idx];
        let cpus = job.cpus * width;
        let carbon = segment_carbon(self.carbon, &self.config.energy, cpus, start, end);
        let cost = segment_cost(&self.config.pricing, option, cpus, start, end);
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
        self.carbon_g[idx] += carbon;
        self.cost[idx] += cost;
        let node = self.seg_nodes.len() as u32;
        self.seg_nodes.push(SegNode {
            rec: SegmentRecord {
                start,
                end,
                option,
                useful,
                width,
                work_milli,
            },
            next: SEG_NIL,
        });
        if self.seg_tail[idx] == SEG_NIL {
            self.seg_head[idx] = node;
        } else {
            self.seg_nodes[self.seg_tail[idx] as usize].next = node;
        }
        self.seg_tail[idx] = node;
        self.seg_count[idx] += 1;
    }

    /// Materializes job `idx`'s segment records by walking its chain in
    /// recording order.
    pub(crate) fn segments_of(&self, idx: usize) -> Vec<SegmentRecord> {
        let mut out = Vec::with_capacity(self.seg_count[idx] as usize);
        let mut node = self.seg_head[idx];
        while node != SEG_NIL {
            let n = &self.seg_nodes[node as usize];
            out.push(n.rec);
            node = n.next;
        }
        out
    }

    /// Consumes the engine and produces the full accounting report over
    /// every submitted job. The billing horizon is the configured
    /// override or the realized/nominal makespan rounded up to whole
    /// days, exactly as the batch path always computed it.
    pub fn into_report(self) -> SimReport {
        let outcomes: Vec<JobOutcome> = (0..self.jobs.len())
            .map(|i| {
                let job = self.jobs[i];
                let first_start = if self.first_start[i] == NO_TIME {
                    job.arrival
                } else {
                    SimTime::from_minutes(self.first_start[i])
                };
                let finish = self.finish[i];
                let completion = finish.saturating_since(job.arrival);
                let waiting = if self.plan[i].kind == DK_ELASTIC && self.tag[i] == Tag::Done {
                    self.elastic_waiting(i, completion)
                } else {
                    waiting_minutes(completion, job.length, self.tag[i] == Tag::Done)
                };
                JobOutcome {
                    job,
                    first_start,
                    finish,
                    waiting,
                    completion,
                    carbon_g: self.carbon_g[i],
                    cost: self.cost[i],
                    segments: self.segments_of(i),
                    evictions: self.evictions[i],
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

#[cfg(test)]
mod tests {
    use super::waiting_minutes;
    use gaia_time::Minutes;

    #[test]
    fn waiting_is_completion_minus_length_for_finished_jobs() {
        assert_eq!(
            waiting_minutes(Minutes::new(90), Minutes::new(60), true),
            Minutes::new(30)
        );
        assert_eq!(
            waiting_minutes(Minutes::new(60), Minutes::new(60), true),
            Minutes::ZERO
        );
    }

    #[test]
    fn unfinished_jobs_legitimately_clamp_waiting_to_zero() {
        assert_eq!(
            waiting_minutes(Minutes::new(10), Minutes::new(60), false),
            Minutes::ZERO
        );
    }

    /// Regression for the silent-saturation bug: a finished job whose
    /// accounting lost time used to report zero wait; now the checked
    /// subtraction trips in debug builds.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "shorter than its")]
    fn finished_job_shorter_than_length_trips_the_checked_subtraction() {
        waiting_minutes(Minutes::new(10), Minutes::new(60), true);
    }
}
