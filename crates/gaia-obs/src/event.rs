//! Typed lifecycle events emitted by the simulator and the sweep pipeline.
//!
//! Every event is a plain-data record. Simulation events carry their
//! timestamp `t` as integer **minutes on the simulated clock** (the raw
//! value of `gaia_time::SimTime`), never wall time, so serialized streams
//! are byte-stable across runs and machines. Sweep-level events
//! ([`Event::CellStarted`], [`Event::CellFinished`]) carry wall-clock
//! timings and are explicitly excluded from the determinism contract.
//!
//! The JSONL encoding ([`Event::to_json_line`]) writes one JSON object
//! per event with a fixed field order, starting with `"ev"` (the event
//! name) and then `"t"` for timestamped events. Floats are rendered with
//! Rust's shortest round-trip formatting, so
//! [`Event::from_json_line`]`(e.to_json_line())` reproduces `e` exactly.

use std::fmt;

use crate::json::{self, field, push_bool, push_f64, push_str, push_u64, req_str, req_u64, Value};

/// Capacity pool a job segment executes in.
///
/// Mirrors the simulator's purchase options; the serialized names match
/// the `Display` of `gaia_sim::PurchaseOption` ("reserved", "on-demand",
/// "spot") so traces and reports agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// Pre-paid reserved capacity.
    Reserved,
    /// On-demand capacity billed per use.
    OnDemand,
    /// Preemptible spot capacity.
    Spot,
}

impl PoolKind {
    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            PoolKind::Reserved => "reserved",
            PoolKind::OnDemand => "on-demand",
            PoolKind::Spot => "spot",
        }
    }

    /// Parse a serialized name produced by [`PoolKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "reserved" => Some(PoolKind::Reserved),
            "on-demand" => Some(PoolKind::OnDemand),
            "spot" => Some(PoolKind::Spot),
            _ => None,
        }
    }
}

impl fmt::Display for PoolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Shape of the execution plan a policy chose for a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlanMode {
    /// The job runs in one contiguous stretch.
    Once,
    /// The job is split into suspend/resume segments.
    Segments,
    /// The job is split into variable-width (elastic) slices.
    Elastic,
}

impl PlanMode {
    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            PlanMode::Once => "once",
            PlanMode::Segments => "segments",
            PlanMode::Elastic => "elastic",
        }
    }

    /// Parse a serialized name produced by [`PlanMode::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "once" => Some(PlanMode::Once),
            "segments" => Some(PlanMode::Segments),
            "elastic" => Some(PlanMode::Elastic),
            _ => None,
        }
    }
}

/// Which memoized artifact a `TraceCache` lookup touched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheKind {
    /// A carbon-intensity trace keyed by region and horizon.
    Carbon,
    /// A synthetic workload keyed by family and seed.
    Workload,
    /// A persisted per-cell sweep result in the content-addressed
    /// on-disk result cache.
    Result,
}

impl CacheKind {
    /// Stable serialized name.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheKind::Carbon => "carbon",
            CacheKind::Workload => "workload",
            CacheKind::Result => "result",
        }
    }

    /// Parse a serialized name produced by [`CacheKind::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "carbon" => Some(CacheKind::Carbon),
            "workload" => Some(CacheKind::Workload),
            "result" => Some(CacheKind::Result),
            _ => None,
        }
    }
}

/// A structured lifecycle event.
///
/// Simulation events (everything except the `Cell*`/`Cache*` variants)
/// are emitted by `gaia-sim`'s engine in nondecreasing `t` order; sweep
/// events are emitted by `gaia-sweep`'s orchestration layer.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job entered the system at its arrival time.
    JobSubmitted {
        /// Sim time, minutes.
        t: u64,
        /// Job index within the workload.
        job: u64,
        /// CPUs the job occupies while running.
        cpus: u64,
        /// Requested run length, minutes.
        len: u64,
    },
    /// The scheduling policy committed to an execution plan for a job.
    PlanChosen {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
        /// Contiguous or segmented execution.
        mode: PlanMode,
        /// Planned start time, minutes.
        start: u64,
        /// Number of planned slots/segments (1 for [`PlanMode::Once`]).
        segs: u32,
        /// Whether the job may start early on leftover capacity.
        opportunistic: bool,
        /// Whether the plan targets the spot pool.
        spot: bool,
        /// Forecast carbon for the planned spans, grams CO2.
        est_carbon_g: f64,
        /// Estimated monetary cost for the planned spans, dollars.
        est_cost: f64,
    },
    /// A job segment began executing.
    SegmentStarted {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
        /// Segment ordinal for this job (0-based, counts every start
        /// including post-eviction retries).
        seg: u32,
        /// Capacity pool the segment runs in.
        pool: PoolKind,
    },
    /// A job segment stopped executing (completed, plan boundary, or
    /// eviction).
    SegmentFinished {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
        /// Segment ordinal matching the corresponding
        /// [`Event::SegmentStarted`].
        seg: u32,
        /// Capacity pool the segment ran in.
        pool: PoolKind,
        /// Whether the work done in this segment counts toward the job
        /// (as known *at finish time*: an eviction that abandons a plan
        /// marks the aborted segment not useful, but cannot retract
        /// already-emitted events for earlier segments).
        useful: bool,
    },
    /// An elastic job's worker width changed at a slice boundary.
    ///
    /// Emitted only for [`PlanMode::Elastic`] plans, immediately before
    /// the [`Event::SegmentStarted`] it applies to (same `t`, same
    /// `seg`), and only when the width actually differs from the
    /// previous slice's (`prev` is 0 before the first slice). Streams
    /// from non-elastic runs never contain this event.
    WidthChanged {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
        /// Segment ordinal matching the upcoming
        /// [`Event::SegmentStarted`].
        seg: u32,
        /// New worker width (multiplier on the job's base CPUs).
        width: u64,
        /// Previous worker width (0 when this is the first slice).
        prev: u64,
    },
    /// A job running on spot capacity was evicted.
    SpotEvicted {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
    },
    /// A job finished all of its work.
    JobCompleted {
        /// Sim time, minutes.
        t: u64,
        /// Job index.
        job: u64,
        /// Minutes spent not running: completion − arrival − length.
        wait: u64,
        /// Slowdown factor: (finish − arrival) / length.
        stretch: f64,
    },
    /// A sweep cell was handed to a worker. **Not deterministic.**
    CellStarted {
        /// Cell index in grid order.
        idx: u64,
        /// Stable scenario key.
        key: String,
    },
    /// A sweep cell finished. **Not deterministic** (wall-clock fields).
    CellFinished {
        /// Cell index in grid order.
        idx: u64,
        /// Stable scenario key.
        key: String,
        /// `"completed"` or `"failed"`.
        status: String,
        /// Seconds the cell waited in the work queue.
        queue_wait_s: f64,
        /// Seconds the cell spent executing.
        exec_s: f64,
    },
    /// A fault-plan entry is armed for this run. Emitted once per entry at
    /// stream start (`t` is always 0) so the declared adversity is part of
    /// the deterministic trace.
    FaultInjected {
        /// Sim time, minutes (always 0: the plan is armed before the run).
        t: u64,
        /// Fault kind name (e.g. `"eviction_storm"`).
        kind: String,
        /// Fault window start, minutes.
        start: u64,
        /// Fault window end, minutes.
        end: u64,
        /// Kind-specific severity (multiplier, cap, gap hours, attempts).
        magnitude: f64,
    },
    /// The engine entered degraded mode: a forecast outage is active and
    /// policy decisions fall back to the persistence forecaster.
    DegradedModeEntered {
        /// Sim time, minutes.
        t: u64,
        /// When the triggering outage window ends, minutes.
        until: u64,
    },
    /// A sweep cell failed and was retried. **Not deterministic** only in
    /// emission order across workers; the attempt count itself is.
    CellRetried {
        /// Cell index in grid order.
        idx: u64,
        /// Stable scenario key.
        key: String,
        /// 1-based attempt number that failed.
        attempt: u64,
        /// The failure that triggered the retry.
        error: String,
    },
    /// A `TraceCache` lookup was served from memory.
    CacheHit {
        /// Which cache.
        kind: CacheKind,
        /// Human-readable cache key.
        key: String,
    },
    /// A `TraceCache` lookup had to generate its artifact.
    CacheMiss {
        /// Which cache.
        kind: CacheKind,
        /// Human-readable cache key.
        key: String,
    },
    /// A freshly computed artifact was persisted to a durable cache
    /// (today: per-cell sweep results, [`CacheKind::Result`]).
    CachePersist {
        /// Which cache.
        kind: CacheKind,
        /// Human-readable cache key.
        key: String,
    },
    /// A sweep shard began executing its slice of the grid.
    /// **Not deterministic** (orchestration-level, wall-clock ordering).
    ShardStarted {
        /// 0-based shard index.
        shard: u64,
        /// Total shard count.
        of: u64,
        /// Cells assigned to this shard.
        cells: u64,
    },
    /// A sweep shard finished its slice of the grid.
    /// **Not deterministic** (orchestration-level, wall-clock ordering).
    ShardFinished {
        /// 0-based shard index.
        shard: u64,
        /// Total shard count.
        of: u64,
        /// Cells that produced a summary (including recovered retries).
        completed: u64,
        /// Cells that exhausted their retry budget.
        failed: u64,
    },
    /// The serving layer accepted a job submission from a tenant.
    JobAccepted {
        /// Sim time, minutes (the submission instant on the service
        /// clock, which is also the job's arrival time).
        t: u64,
        /// Job index assigned by the service (dense, submission order).
        job: u64,
        /// Tenant that submitted the job.
        tenant: String,
    },
    /// The online planner ran incrementally for a newly accepted job.
    Replan {
        /// Sim time, minutes.
        t: u64,
        /// Job index the plan was computed for.
        job: u64,
        /// Jobs queued (accepted but not yet finished) when the planner
        /// ran, including this one.
        queued: u64,
    },
    /// The serving layer persisted a snapshot of the full engine state.
    SnapshotWritten {
        /// Sim time, minutes (the engine clock captured in the snapshot).
        t: u64,
        /// 1-based snapshot ordinal within the service's lifetime.
        seq: u64,
        /// Encoded snapshot size in bytes.
        bytes: u64,
    },
}

impl Event {
    /// Stable event name used as the JSONL `"ev"` discriminant.
    pub fn name(&self) -> &'static str {
        match self {
            Event::JobSubmitted { .. } => "job_submitted",
            Event::PlanChosen { .. } => "plan_chosen",
            Event::SegmentStarted { .. } => "segment_started",
            Event::SegmentFinished { .. } => "segment_finished",
            Event::WidthChanged { .. } => "width_changed",
            Event::SpotEvicted { .. } => "spot_evicted",
            Event::JobCompleted { .. } => "job_completed",
            Event::FaultInjected { .. } => "fault_injected",
            Event::DegradedModeEntered { .. } => "degraded_mode_entered",
            Event::CellStarted { .. } => "cell_started",
            Event::CellFinished { .. } => "cell_finished",
            Event::CellRetried { .. } => "cell_retried",
            Event::CacheHit { .. } => "cache_hit",
            Event::CacheMiss { .. } => "cache_miss",
            Event::CachePersist { .. } => "cache_persist",
            Event::ShardStarted { .. } => "shard_started",
            Event::ShardFinished { .. } => "shard_finished",
            Event::JobAccepted { .. } => "job_accepted",
            Event::Replan { .. } => "replan",
            Event::SnapshotWritten { .. } => "snapshot_written",
        }
    }

    /// Simulation timestamp in minutes, if this is a timestamped
    /// simulation event (sweep/cache events have no sim clock).
    pub fn timestamp(&self) -> Option<u64> {
        match *self {
            Event::JobSubmitted { t, .. }
            | Event::PlanChosen { t, .. }
            | Event::SegmentStarted { t, .. }
            | Event::SegmentFinished { t, .. }
            | Event::WidthChanged { t, .. }
            | Event::SpotEvicted { t, .. }
            | Event::JobCompleted { t, .. }
            | Event::FaultInjected { t, .. }
            | Event::DegradedModeEntered { t, .. }
            | Event::JobAccepted { t, .. }
            | Event::Replan { t, .. }
            | Event::SnapshotWritten { t, .. } => Some(t),
            Event::CellStarted { .. }
            | Event::CellFinished { .. }
            | Event::CellRetried { .. }
            | Event::CacheHit { .. }
            | Event::CacheMiss { .. }
            | Event::CachePersist { .. }
            | Event::ShardStarted { .. }
            | Event::ShardFinished { .. } => None,
        }
    }

    /// Job index, if this is a per-job event.
    pub fn job(&self) -> Option<u64> {
        match *self {
            Event::JobSubmitted { job, .. }
            | Event::PlanChosen { job, .. }
            | Event::SegmentStarted { job, .. }
            | Event::SegmentFinished { job, .. }
            | Event::WidthChanged { job, .. }
            | Event::SpotEvicted { job, .. }
            | Event::JobCompleted { job, .. }
            | Event::JobAccepted { job, .. }
            | Event::Replan { job, .. } => Some(job),
            _ => None,
        }
    }

    /// Serialize to a single JSON object (no trailing newline) with a
    /// fixed field order, e.g.
    /// `{"ev":"segment_started","t":360,"job":0,"seg":0,"pool":"reserved"}`.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        self.write_json_line(&mut s);
        s
    }

    /// Append the [`Event::to_json_line`] object to `s`, so a writer can
    /// reuse one buffer for every event.
    pub fn write_json_line(&self, s: &mut String) {
        s.push_str("{\"ev\":\"");
        s.push_str(self.name());
        s.push('"');
        match self {
            Event::JobSubmitted { t, job, cpus, len } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "cpus", *cpus);
                push_u64(s, "len", *len);
            }
            Event::PlanChosen {
                t,
                job,
                mode,
                start,
                segs,
                opportunistic,
                spot,
                est_carbon_g,
                est_cost,
            } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_str(s, "mode", mode.as_str());
                push_u64(s, "start", *start);
                push_u64(s, "segs", u64::from(*segs));
                push_bool(s, "opportunistic", *opportunistic);
                push_bool(s, "spot", *spot);
                push_f64(s, "est_carbon_g", *est_carbon_g);
                push_f64(s, "est_cost", *est_cost);
            }
            Event::SegmentStarted { t, job, seg, pool } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "seg", u64::from(*seg));
                push_str(s, "pool", pool.as_str());
            }
            Event::SegmentFinished {
                t,
                job,
                seg,
                pool,
                useful,
            } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "seg", u64::from(*seg));
                push_str(s, "pool", pool.as_str());
                push_bool(s, "useful", *useful);
            }
            Event::WidthChanged {
                t,
                job,
                seg,
                width,
                prev,
            } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "seg", u64::from(*seg));
                push_u64(s, "width", *width);
                push_u64(s, "prev", *prev);
            }
            Event::SpotEvicted { t, job } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
            }
            Event::JobCompleted {
                t,
                job,
                wait,
                stretch,
            } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "wait", *wait);
                push_f64(s, "stretch", *stretch);
            }
            Event::CellStarted { idx, key } => {
                push_u64(s, "idx", *idx);
                push_str(s, "key", key);
            }
            Event::CellFinished {
                idx,
                key,
                status,
                queue_wait_s,
                exec_s,
            } => {
                push_u64(s, "idx", *idx);
                push_str(s, "key", key);
                push_str(s, "status", status);
                push_f64(s, "queue_wait_s", *queue_wait_s);
                push_f64(s, "exec_s", *exec_s);
            }
            Event::FaultInjected {
                t,
                kind,
                start,
                end,
                magnitude,
            } => {
                push_u64(s, "t", *t);
                push_str(s, "kind", kind);
                push_u64(s, "start", *start);
                push_u64(s, "end", *end);
                push_f64(s, "magnitude", *magnitude);
            }
            Event::DegradedModeEntered { t, until } => {
                push_u64(s, "t", *t);
                push_u64(s, "until", *until);
            }
            Event::CellRetried {
                idx,
                key,
                attempt,
                error,
            } => {
                push_u64(s, "idx", *idx);
                push_str(s, "key", key);
                push_u64(s, "attempt", *attempt);
                push_str(s, "error", error);
            }
            Event::CacheHit { kind, key } => {
                push_str(s, "kind", kind.as_str());
                push_str(s, "key", key);
            }
            Event::CacheMiss { kind, key } => {
                push_str(s, "kind", kind.as_str());
                push_str(s, "key", key);
            }
            Event::CachePersist { kind, key } => {
                push_str(s, "kind", kind.as_str());
                push_str(s, "key", key);
            }
            Event::ShardStarted { shard, of, cells } => {
                push_u64(s, "shard", *shard);
                push_u64(s, "of", *of);
                push_u64(s, "cells", *cells);
            }
            Event::ShardFinished {
                shard,
                of,
                completed,
                failed,
            } => {
                push_u64(s, "shard", *shard);
                push_u64(s, "of", *of);
                push_u64(s, "completed", *completed);
                push_u64(s, "failed", *failed);
            }
            Event::JobAccepted { t, job, tenant } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_str(s, "tenant", tenant);
            }
            Event::Replan { t, job, queued } => {
                push_u64(s, "t", *t);
                push_u64(s, "job", *job);
                push_u64(s, "queued", *queued);
            }
            Event::SnapshotWritten { t, seq, bytes } => {
                push_u64(s, "t", *t);
                push_u64(s, "seq", *seq);
                push_u64(s, "bytes", *bytes);
            }
        }
        s.push('}');
    }

    /// Parse one JSONL line produced by [`Event::to_json_line`].
    ///
    /// Tolerates unknown field order (any valid JSON object with the
    /// expected fields) but rejects unknown event names and missing or
    /// mistyped fields.
    pub fn from_json_line(line: &str) -> Result<Event, String> {
        let value = json::parse(line)?;
        let ev = req_str(&value, "ev")?;
        match ev.as_str() {
            "job_submitted" => Ok(Event::JobSubmitted {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                cpus: req_u64(&value, "cpus")?,
                len: req_u64(&value, "len")?,
            }),
            "plan_chosen" => Ok(Event::PlanChosen {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                mode: PlanMode::parse(&req_str(&value, "mode")?)
                    .ok_or_else(|| format!("unknown plan mode in: {line}"))?,
                start: req_u64(&value, "start")?,
                segs: req_u32(&value, "segs")?,
                opportunistic: req_bool(&value, "opportunistic")?,
                spot: req_bool(&value, "spot")?,
                est_carbon_g: req_f64(&value, "est_carbon_g")?,
                est_cost: req_f64(&value, "est_cost")?,
            }),
            "segment_started" => Ok(Event::SegmentStarted {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                seg: req_u32(&value, "seg")?,
                pool: PoolKind::parse(&req_str(&value, "pool")?)
                    .ok_or_else(|| format!("unknown pool in: {line}"))?,
            }),
            "segment_finished" => Ok(Event::SegmentFinished {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                seg: req_u32(&value, "seg")?,
                pool: PoolKind::parse(&req_str(&value, "pool")?)
                    .ok_or_else(|| format!("unknown pool in: {line}"))?,
                useful: req_bool(&value, "useful")?,
            }),
            "width_changed" => Ok(Event::WidthChanged {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                seg: req_u32(&value, "seg")?,
                width: req_u64(&value, "width")?,
                prev: req_u64(&value, "prev")?,
            }),
            "spot_evicted" => Ok(Event::SpotEvicted {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
            }),
            "job_completed" => Ok(Event::JobCompleted {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                wait: req_u64(&value, "wait")?,
                stretch: req_f64(&value, "stretch")?,
            }),
            "cell_started" => Ok(Event::CellStarted {
                idx: req_u64(&value, "idx")?,
                key: req_str(&value, "key")?,
            }),
            "cell_finished" => Ok(Event::CellFinished {
                idx: req_u64(&value, "idx")?,
                key: req_str(&value, "key")?,
                status: req_str(&value, "status")?,
                queue_wait_s: req_f64(&value, "queue_wait_s")?,
                exec_s: req_f64(&value, "exec_s")?,
            }),
            "fault_injected" => Ok(Event::FaultInjected {
                t: req_u64(&value, "t")?,
                kind: req_str(&value, "kind")?,
                start: req_u64(&value, "start")?,
                end: req_u64(&value, "end")?,
                magnitude: req_f64(&value, "magnitude")?,
            }),
            "degraded_mode_entered" => Ok(Event::DegradedModeEntered {
                t: req_u64(&value, "t")?,
                until: req_u64(&value, "until")?,
            }),
            "cell_retried" => Ok(Event::CellRetried {
                idx: req_u64(&value, "idx")?,
                key: req_str(&value, "key")?,
                attempt: req_u64(&value, "attempt")?,
                error: req_str(&value, "error")?,
            }),
            "cache_hit" => Ok(Event::CacheHit {
                kind: CacheKind::parse(&req_str(&value, "kind")?)
                    .ok_or_else(|| format!("unknown cache kind in: {line}"))?,
                key: req_str(&value, "key")?,
            }),
            "cache_miss" => Ok(Event::CacheMiss {
                kind: CacheKind::parse(&req_str(&value, "kind")?)
                    .ok_or_else(|| format!("unknown cache kind in: {line}"))?,
                key: req_str(&value, "key")?,
            }),
            "cache_persist" => Ok(Event::CachePersist {
                kind: CacheKind::parse(&req_str(&value, "kind")?)
                    .ok_or_else(|| format!("unknown cache kind in: {line}"))?,
                key: req_str(&value, "key")?,
            }),
            "shard_started" => Ok(Event::ShardStarted {
                shard: req_u64(&value, "shard")?,
                of: req_u64(&value, "of")?,
                cells: req_u64(&value, "cells")?,
            }),
            "shard_finished" => Ok(Event::ShardFinished {
                shard: req_u64(&value, "shard")?,
                of: req_u64(&value, "of")?,
                completed: req_u64(&value, "completed")?,
                failed: req_u64(&value, "failed")?,
            }),
            "job_accepted" => Ok(Event::JobAccepted {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                tenant: req_str(&value, "tenant")?,
            }),
            "replan" => Ok(Event::Replan {
                t: req_u64(&value, "t")?,
                job: req_u64(&value, "job")?,
                queued: req_u64(&value, "queued")?,
            }),
            "snapshot_written" => Ok(Event::SnapshotWritten {
                t: req_u64(&value, "t")?,
                seq: req_u64(&value, "seq")?,
                bytes: req_u64(&value, "bytes")?,
            }),
            other => Err(format!("unknown event name {other:?}")),
        }
    }
}

fn req_u32(value: &Value, key: &str) -> Result<u32, String> {
    u32::try_from(req_u64(value, key)?).map_err(|_| format!("field {key:?} overflows u32"))
}

fn req_f64(value: &Value, key: &str) -> Result<f64, String> {
    let v = field(value, key)?;
    // Non-finite floats serialize as null; map them back to NaN so the
    // round-trip stays total.
    if matches!(v, Value::Null) {
        return Ok(f64::NAN);
    }
    v.as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

fn req_bool(value: &Value, key: &str) -> Result<bool, String> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a bool"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Event> {
        vec![
            Event::JobSubmitted {
                t: 0,
                job: 3,
                cpus: 2,
                len: 180,
            },
            Event::PlanChosen {
                t: 0,
                job: 3,
                mode: PlanMode::Segments,
                start: 120,
                segs: 4,
                opportunistic: true,
                spot: false,
                est_carbon_g: 1234.5678901234,
                est_cost: 0.1,
            },
            Event::SegmentStarted {
                t: 120,
                job: 3,
                seg: 0,
                pool: PoolKind::Reserved,
            },
            Event::SegmentFinished {
                t: 180,
                job: 3,
                seg: 0,
                pool: PoolKind::Reserved,
                useful: true,
            },
            Event::SpotEvicted { t: 200, job: 4 },
            Event::JobCompleted {
                t: 480,
                job: 3,
                wait: 300,
                stretch: 2.6666666666666665,
            },
            Event::CellStarted {
                idx: 7,
                key: "Carbon-Time/SA-AU/Alibaba/week/s42".into(),
            },
            Event::CellFinished {
                idx: 7,
                key: "Carbon-Time/SA-AU/Alibaba/week/s42".into(),
                status: "completed".into(),
                queue_wait_s: 0.25,
                exec_s: 1.5,
            },
            Event::FaultInjected {
                t: 0,
                kind: "eviction_storm".into(),
                start: 1440,
                end: 2880,
                magnitude: 8.0,
            },
            Event::DegradedModeEntered {
                t: 3600,
                until: 4320,
            },
            Event::CellRetried {
                idx: 7,
                key: "Carbon-Time/SA-AU/Alibaba/week/s42".into(),
                attempt: 1,
                error: "injected fault (attempt 1)".into(),
            },
            Event::CacheHit {
                kind: CacheKind::Carbon,
                key: "SA-AU/h10080".into(),
            },
            Event::CacheMiss {
                kind: CacheKind::Workload,
                key: "Alibaba/s42".into(),
            },
            Event::CachePersist {
                kind: CacheKind::Result,
                key: "Carbon-Time/SA-AU/Alibaba/week/s42".into(),
            },
            Event::ShardStarted {
                shard: 1,
                of: 3,
                cells: 8,
            },
            Event::ShardFinished {
                shard: 1,
                of: 3,
                completed: 8,
                failed: 0,
            },
            Event::JobAccepted {
                t: 120,
                job: 9,
                tenant: "acme".into(),
            },
            Event::Replan {
                t: 120,
                job: 9,
                queued: 3,
            },
            Event::SnapshotWritten {
                t: 1440,
                seq: 2,
                bytes: 8192,
            },
        ]
    }

    #[test]
    fn json_round_trip_is_exact() {
        for ev in samples() {
            let line = ev.to_json_line();
            let back = Event::from_json_line(&line).expect(&line);
            assert_eq!(back, ev, "line: {line}");
            // Re-serialization is byte-stable.
            assert_eq!(back.to_json_line(), line);
        }
    }

    #[test]
    fn field_order_is_fixed() {
        let ev = Event::SegmentStarted {
            t: 360,
            job: 0,
            seg: 0,
            pool: PoolKind::Reserved,
        };
        assert_eq!(
            ev.to_json_line(),
            r#"{"ev":"segment_started","t":360,"job":0,"seg":0,"pool":"reserved"}"#
        );
    }

    #[test]
    fn strings_are_escaped() {
        let ev = Event::CacheHit {
            kind: CacheKind::Carbon,
            key: "quote\" slash\\ tab\t".into(),
        };
        let line = ev.to_json_line();
        assert!(line.contains(r#"quote\" slash\\ tab\t"#), "{line}");
        assert_eq!(Event::from_json_line(&line).unwrap(), ev);
    }

    #[test]
    fn non_finite_floats_become_null_then_nan() {
        let ev = Event::JobCompleted {
            t: 10,
            job: 1,
            wait: 0,
            stretch: f64::INFINITY,
        };
        let line = ev.to_json_line();
        assert!(line.contains("\"stretch\":null"), "{line}");
        match Event::from_json_line(&line).unwrap() {
            Event::JobCompleted { stretch, .. } => assert!(stretch.is_nan()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_event_name_is_rejected() {
        let err = Event::from_json_line(r#"{"ev":"mystery"}"#).unwrap_err();
        assert!(err.contains("unknown event name"), "{err}");
    }

    #[test]
    fn missing_field_is_rejected() {
        let err = Event::from_json_line(r#"{"ev":"spot_evicted","t":5}"#).unwrap_err();
        assert!(err.contains("job"), "{err}");
    }

    #[test]
    fn timestamps_and_names_are_consistent() {
        for ev in samples() {
            match &ev {
                Event::CellStarted { .. }
                | Event::CellFinished { .. }
                | Event::CellRetried { .. }
                | Event::CacheHit { .. }
                | Event::CacheMiss { .. }
                | Event::CachePersist { .. }
                | Event::ShardStarted { .. }
                | Event::ShardFinished { .. } => assert_eq!(ev.timestamp(), None),
                _ => assert!(ev.timestamp().is_some(), "{}", ev.name()),
            }
        }
    }
}
