//! Versioned binary snapshot/restore of [`OnlineEngine`] state.
//!
//! A snapshot captures the engine's entire *dynamic* state — clock,
//! event queue, per-job states and accounting, capacity bookkeeping,
//! degradation counters — but none of its *static* inputs (cluster
//! config, carbon trace, forecaster, fault schedule). Restore is handed
//! those inputs again by the caller and validates fingerprints so a
//! snapshot cannot silently resume against a different cluster or
//! carbon trace.
//!
//! # Format
//!
//! Hand-rolled little-endian binary (the vendored `serde` is a no-op
//! stub, and a fixed byte layout is exactly what the determinism
//! contract needs):
//!
//! ```text
//! magic    8 bytes  b"GAIASNAP"
//! version  u32      currently 1
//! config   u64      FNV-1a fingerprint of the ClusterConfig debug repr
//! carbon   u64      FNV-1a fingerprint of the carbon trace values
//! ...               engine state (see the field writers below)
//! ```
//!
//! # Versioning contract
//!
//! The version is bumped on **any** change to the layout of existing
//! state. Readers accept exactly the versions they know and reject
//! everything else with [`SnapshotError::Incompatible`] — an old binary
//! refuses a new snapshot rather than misreading it.
//!
//! One carve-out keeps version 1 readable both ways across the elastic
//! extension: state that only elastic runs produce is encoded through
//! previously-invalid tag values (decision tag `2`, flag bit
//! [`SEG_EXTENDED`] on the segment-record purchase byte). A snapshot of
//! a non-elastic run is **byte-identical** to the pre-elastic encoder's
//! output, and an old reader handed an elastic snapshot fails cleanly
//! with [`SnapshotError::Corrupt`] on the unknown tag instead of
//! misreading it.
//! Fingerprint mismatches (same layout, different world) are also
//! [`SnapshotError::Incompatible`]; truncated or malformed payloads are
//! [`SnapshotError::Corrupt`].
//!
//! The guarantee gated by `serve_props.rs` and `scripts/check_serve.sh`:
//! snapshot, restore, and replay of the same submissions is
//! **byte-identical** — reports and obs event streams — to never having
//! snapshotted at all.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use gaia_carbon::{CarbonForecaster, CarbonTrace};
use gaia_obs::Sink;
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId};

use crate::account::SegmentRecord;
use crate::codec::{DecodeError, Reader, Writer};
use crate::config::ClusterConfig;
use crate::eventq::EventQueue;
use crate::online::{CapBlocked, Event, EventKind, OnlineEngine, SegNode, Tag, NO_TIME, SEG_NIL};
use crate::plan::{
    Decision, DecisionKind, ElasticPlan, ElasticSegment, PackedDecision, PlanArena, PurchaseOption,
    SegmentPlan, DF_OPPORTUNISTIC, DF_SPOT, DK_ELASTIC, DK_ONCE,
};
use crate::pool::ReservedPool;
use crate::report::DegradationStats;

const MAGIC: &[u8; 8] = b"GAIASNAP";
/// Current snapshot layout version. Bump on any layout change.
pub const SNAPSHOT_VERSION: u32 = 1;
/// Flag bit on the segment-record purchase byte marking an extended
/// (elastic) record that carries width and work fields. Plain records
/// never set it, keeping non-elastic snapshots byte-identical to the
/// pre-elastic format.
const SEG_EXTENDED: u8 = 16;

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The payload is truncated or structurally malformed.
    Corrupt(String),
    /// The payload is well-formed but from a different world: unknown
    /// layout version, or a config/carbon fingerprint mismatch.
    Incompatible(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Corrupt(msg) => write!(f, "corrupt snapshot: {msg}"),
            SnapshotError::Incompatible(msg) => write!(f, "incompatible snapshot: {msg}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Malformed bytes are corrupt; an unknown layout version is
/// incompatible.
impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Malformed(msg) => SnapshotError::Corrupt(msg),
            DecodeError::UnknownVersion(msg) => SnapshotError::Incompatible(msg),
        }
    }
}

/// FNV-1a over arbitrary bytes; stable, dependency-free fingerprinting.
///
/// Public because the sweep layer content-addresses its on-disk result
/// cache with the same machinery (`gaia-sweep`'s cell fingerprints),
/// keeping every fingerprint in the workspace on one algorithm.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of the cluster configuration, via its debug repr (every
/// behaviour-relevant field derives `Debug`).
pub(crate) fn config_fingerprint(config: &ClusterConfig) -> u64 {
    fnv1a(format!("{config:?}").as_bytes())
}

/// Fingerprint of the accounting carbon trace: length plus the exact
/// bit pattern of every hourly value.
pub(crate) fn carbon_fingerprint(carbon: &CarbonTrace) -> u64 {
    let values = carbon.hourly_values();
    let mut bytes = Vec::with_capacity(8 + values.len() * 8);
    bytes.extend_from_slice(&(values.len() as u64).to_le_bytes());
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

/// The wire tag for a purchase option (low bits of the segment-record
/// purchase byte; [`SEG_EXTENDED`] may be OR-ed on top).
fn purchase_tag(option: PurchaseOption) -> u8 {
    match option {
        PurchaseOption::Reserved => 0,
        PurchaseOption::OnDemand => 1,
        PurchaseOption::Spot => 2,
    }
}

fn purchase_from_tag(tag: u8) -> Result<PurchaseOption, SnapshotError> {
    match tag {
        0 => Ok(PurchaseOption::Reserved),
        1 => Ok(PurchaseOption::OnDemand),
        2 => Ok(PurchaseOption::Spot),
        other => Err(SnapshotError::Corrupt(format!(
            "invalid purchase option {other}"
        ))),
    }
}

fn read_time(r: &mut Reader<'_>) -> Result<SimTime, DecodeError> {
    Ok(SimTime::from_minutes(r.u64()?))
}

fn read_minutes(r: &mut Reader<'_>) -> Result<Minutes, DecodeError> {
    Ok(Minutes::new(r.u64()?))
}

/// Encodes one segment record. Plain records (`width == 1`,
/// `work_milli == 0`) use the exact pre-elastic byte layout; extended
/// records set [`SEG_EXTENDED`] on the purchase byte and append the
/// width and work fields.
fn write_segment_record(w: &mut Writer, rec: &SegmentRecord) {
    w.u64(rec.start.as_minutes());
    w.u64(rec.end.as_minutes());
    if rec.width == 1 && rec.work_milli == 0 {
        w.u8(purchase_tag(rec.option));
        w.bool(rec.useful);
    } else {
        w.u8(purchase_tag(rec.option) | SEG_EXTENDED);
        w.bool(rec.useful);
        w.u32(rec.width);
        w.u64(rec.work_milli);
    }
}

/// The inverse of [`write_segment_record`].
fn read_segment_record(r: &mut Reader<'_>) -> Result<SegmentRecord, SnapshotError> {
    let start = read_time(r)?;
    let end = read_time(r)?;
    let tag = r.u8()?;
    let option = purchase_from_tag(tag & !SEG_EXTENDED)?;
    let useful = r.bool()?;
    let (width, work_milli) = if tag & SEG_EXTENDED != 0 {
        (r.u32()?, r.u64()?)
    } else {
        (1, 0)
    };
    if width == 0 {
        return Err(SnapshotError::Corrupt(
            "segment record with zero width".to_owned(),
        ));
    }
    Ok(SegmentRecord {
        start,
        end,
        option,
        useful,
        width,
        work_milli,
    })
}

/// Encodes a packed decision, resolving segment spans through the
/// arena. The byte layout matches [`read_decision`] exactly.
fn write_decision(w: &mut Writer, p: PackedDecision, arena: &PlanArena) {
    debug_assert!(p.is_some(), "cannot encode an absent decision");
    if p.kind == DK_ONCE {
        w.u8(0);
        w.u64(p.planned.as_minutes());
        w.bool(p.flags & DF_OPPORTUNISTIC != 0);
        w.bool(p.flags & DF_SPOT != 0);
    } else {
        let elastic = p.kind == DK_ELASTIC;
        w.u8(if elastic { 2 } else { 1 });
        w.bool(p.flags & DF_SPOT != 0);
        let spans = arena.spans_of(p);
        w.u64(spans.len() as u64);
        for (seg_idx, &(start, len)) in spans.iter().enumerate() {
            w.u64(start.as_minutes());
            w.u64(len.as_minutes());
            if elastic {
                w.u32(arena.width_of(p, seg_idx));
                w.u64(arena.work_of(p, seg_idx));
            }
        }
    }
}

fn read_decision(r: &mut Reader<'_>) -> Result<Decision, SnapshotError> {
    let kind = match r.u8()? {
        0 => DecisionKind::Once {
            planned_start: read_time(r)?,
            opportunistic_reserved: r.bool()?,
            use_spot: r.bool()?,
        },
        1 => {
            let use_spot = r.bool()?;
            let n = r.count(16)?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push((read_time(r)?, read_minutes(r)?));
            }
            if segments.is_empty() {
                return Err(SnapshotError::Corrupt("empty segment plan".to_owned()));
            }
            DecisionKind::Segments {
                plan: SegmentPlan { segments },
                use_spot,
            }
        }
        2 => {
            let use_spot = r.bool()?;
            let n = r.count(28)?;
            let mut segments = Vec::with_capacity(n);
            for _ in 0..n {
                segments.push(ElasticSegment {
                    start: read_time(r)?,
                    len: read_minutes(r)?,
                    width: r.u32()?,
                    work_milli: r.u64()?,
                });
            }
            if segments.is_empty() {
                return Err(SnapshotError::Corrupt("empty elastic plan".to_owned()));
            }
            // Validate before `ElasticPlan::new`, whose contract checks
            // panic — a corrupt payload must fail cleanly.
            for seg in &segments {
                if seg.len.is_zero() || seg.width == 0 || seg.work_milli == 0 {
                    return Err(SnapshotError::Corrupt(format!(
                        "degenerate elastic slice at {}",
                        seg.start
                    )));
                }
            }
            for pair in segments.windows(2) {
                if pair[1].start < pair[0].end() {
                    return Err(SnapshotError::Corrupt(format!(
                        "elastic slices overlap at {}",
                        pair[1].start
                    )));
                }
            }
            DecisionKind::Elastic {
                plan: ElasticPlan::new(segments),
                use_spot,
            }
        }
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "invalid decision tag {other}"
            )))
        }
    };
    Ok(Decision { kind })
}

fn write_event_kind(w: &mut Writer, kind: EventKind) {
    match kind {
        EventKind::Arrival => w.u8(0),
        EventKind::PlannedStart => w.u8(1),
        EventKind::SegmentStart(seg) => {
            w.u8(2);
            w.u64(seg as u64);
        }
        EventKind::FinishOnce => w.u8(3),
        EventKind::FinishSegment(seg) => {
            w.u8(4);
            w.u64(seg as u64);
        }
        EventKind::Eviction => w.u8(5),
        EventKind::CapTick => w.u8(6),
    }
}

fn read_event_kind(r: &mut Reader<'_>) -> Result<EventKind, SnapshotError> {
    Ok(match r.u8()? {
        0 => EventKind::Arrival,
        1 => EventKind::PlannedStart,
        2 => EventKind::SegmentStart(r.u64()? as usize),
        3 => EventKind::FinishOnce,
        4 => EventKind::FinishSegment(r.u64()? as usize),
        5 => EventKind::Eviction,
        6 => EventKind::CapTick,
        other => {
            return Err(SnapshotError::Corrupt(format!(
                "invalid event kind {other}"
            )))
        }
    })
}

impl<'e, S: Sink> OnlineEngine<'e, S> {
    /// Serializes the engine's full dynamic state into the versioned
    /// binary snapshot format.
    ///
    /// Deterministic: the same engine state always produces the same
    /// bytes (the event queue is written in its canonical pop order, not
    /// heap-internal layout).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::with_header(MAGIC, SNAPSHOT_VERSION);
        w.u64(config_fingerprint(self.config));
        w.u64(carbon_fingerprint(self.carbon));

        w.u64(self.now.as_minutes());
        w.u64(self.seq);
        w.u32(self.elastic_busy);
        w.bool(self.tick_scheduled);
        w.bool(self.in_degraded);
        w.u64(self.completed);
        w.u64(self.cancelled);
        w.u64(self.nominal_makespan.as_minutes());
        w.u32(self.pool.in_use());

        w.u64(self.degrade.degraded_decisions);
        w.u64(self.degrade.storm_evictions);
        w.u64(self.degrade.capacity_denials);
        w.f64(self.degrade.price_surcharge);
        w.u64(self.degrade.bridged_gap_hours);

        w.u64(self.jobs.len() as u64);
        for job in &self.jobs {
            w.u64(job.id.0);
            w.u64(job.arrival.as_minutes());
            w.u64(job.length.as_minutes());
            w.u32(job.cpus);
        }
        // Per-job state: the wire layout predates the columnar engine
        // (tagged unions, not columns), so each tag selects which
        // companion columns are serialized — the bytes are identical to
        // the enum era.
        for i in 0..self.jobs.len() {
            match self.tag[i] {
                Tag::Unarrived => w.u8(0),
                Tag::Waiting => {
                    w.u8(1);
                    write_decision(&mut w, self.wait[i], &self.arena);
                }
                Tag::RunningOnce => {
                    w.u8(2);
                    w.u8(purchase_tag(self.run_option[i]));
                    w.u64(self.run_start[i].as_minutes());
                    w.u64(self.run_aux[i]); // span minutes
                }
                Tag::PlanIdle => {
                    w.u8(3);
                    w.u8(0);
                }
                Tag::PlanRunning => {
                    w.u8(3);
                    w.u8(1);
                    w.u64(u64::from(self.run_seg[i]));
                    w.u8(purchase_tag(self.run_option[i]));
                    w.u64(self.run_start[i].as_minutes());
                    w.u64(self.run_aux[i]); // execution-end minutes
                }
                Tag::Done => w.u8(4),
                Tag::Cancelled => w.u8(5),
            }
        }
        for i in 0..self.jobs.len() {
            let first_start = self.first_start[i];
            w.opt((first_start != NO_TIME).then_some(&first_start), |w, &m| {
                w.u64(m)
            });
            w.u64(self.finish[i].as_minutes());
            w.f64(self.carbon_g[i]);
            w.f64(self.cost[i]);
            w.u32(self.evictions[i]);
            w.u64(self.remaining[i].as_minutes());
            w.u32(self.starts[i]);
            w.u64(u64::from(self.seg_count[i]));
            let mut node = self.seg_head[i];
            while node != SEG_NIL {
                let n = &self.seg_nodes[node as usize];
                write_segment_record(&mut w, &n.rec);
                node = n.next;
            }
        }
        for p in &self.plan {
            w.opt(p.is_some().then_some(p), |w, &p| {
                write_decision(w, p, &self.arena)
            });
        }

        // Canonical event order = pop order, so identical engine states
        // snapshot to identical bytes regardless of queue history.
        let mut events: Vec<Event> = self.queue.unprocessed().copied().collect();
        events.sort_by_key(|e| (e.time, e.prio, e.seq));
        w.u64(events.len() as u64);
        for event in events {
            w.u64(event.time.as_minutes());
            w.u8(event.prio);
            w.u64(event.seq);
            w.u32(event.job);
            write_event_kind(&mut w, event.kind);
        }

        w.u64(self.waiters.len() as u64);
        for &(t, job) in &self.waiters {
            w.u64(t.as_minutes());
            w.u32(job);
        }
        w.u64(self.cap_queue.len() as u64);
        for blocked in &self.cap_queue {
            match blocked {
                CapBlocked::Once { idx, allow_spot } => {
                    w.u8(0);
                    w.u64(*idx as u64);
                    w.bool(*allow_spot);
                }
                CapBlocked::Segment { idx, seg_idx } => {
                    w.u8(1);
                    w.u64(*idx as u64);
                    w.u64(*seg_idx as u64);
                }
            }
        }
        w.u64(self.completions.len() as u64);
        for &idx in &self.completions {
            w.u32(idx);
        }
        w.into_bytes()
    }

    /// Restores an engine from `bytes`, re-anchoring it on the same
    /// static inputs the snapshotted engine ran with. The config and
    /// carbon trace are fingerprint-checked; a fault schedule (if any)
    /// must be re-attached by the caller via
    /// [`OnlineEngine::attach_faults`] — the snapshot already contains
    /// the armed state (pending ticks, degradation counters), so
    /// [`OnlineEngine::with_faults`] would double-announce.
    pub fn restore(
        config: &'e ClusterConfig,
        carbon: &'e CarbonTrace,
        forecaster: &'e dyn CarbonForecaster,
        sink: &'e mut S,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        let mut r = Reader::new(bytes);
        r.header(MAGIC, SNAPSHOT_VERSION)?;
        let config_fp = r.u64()?;
        if config_fp != config_fingerprint(config) {
            return Err(SnapshotError::Incompatible(
                "cluster config differs from the snapshotted one".to_owned(),
            ));
        }
        let carbon_fp = r.u64()?;
        if carbon_fp != carbon_fingerprint(carbon) {
            return Err(SnapshotError::Incompatible(
                "carbon trace differs from the snapshotted one".to_owned(),
            ));
        }

        let now = read_time(&mut r)?;
        let seq = r.u64()?;
        let elastic_busy = r.u32()?;
        let tick_scheduled = r.bool()?;
        let in_degraded = r.bool()?;
        let completed = r.u64()?;
        let cancelled = r.u64()?;
        let nominal_makespan = read_time(&mut r)?;
        let pool_in_use = r.u32()?;

        let degrade = DegradationStats {
            degraded_decisions: r.u64()?,
            storm_evictions: r.u64()?,
            capacity_denials: r.u64()?,
            price_surcharge: r.f64()?,
            bridged_gap_hours: r.u64()?,
        };

        let n_jobs = r.count(28)?;
        let mut jobs = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            let id = JobId(r.u64()?);
            let arrival = read_time(&mut r)?;
            let length = read_minutes(&mut r)?;
            let cpus = r.u32()?;
            if length.is_zero() || cpus == 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "{id} has zero length or cpus"
                )));
            }
            jobs.push(Job::new(id, arrival, length, cpus));
        }
        // Per-job state, decoded straight into the engine's columns.
        let mut arena = PlanArena::default();
        let mut tag = Vec::with_capacity(n_jobs);
        let mut wait = Vec::with_capacity(n_jobs);
        let mut run_option = Vec::with_capacity(n_jobs);
        let mut run_start = Vec::with_capacity(n_jobs);
        let mut run_aux = Vec::with_capacity(n_jobs);
        let mut run_seg = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            let mut waiting = PackedDecision::default();
            let mut option = PurchaseOption::Reserved;
            let mut start = SimTime::ORIGIN;
            let mut aux = 0u64;
            let mut seg = 0u32;
            let t = match r.u8()? {
                0 => Tag::Unarrived,
                1 => {
                    let decision = read_decision(&mut r)?;
                    waiting = arena.intern(&decision);
                    Tag::Waiting
                }
                2 => {
                    option = purchase_from_tag(r.u8()?)?;
                    start = read_time(&mut r)?;
                    aux = r.u64()?; // span minutes
                    Tag::RunningOnce
                }
                3 => match r.u8()? {
                    0 => Tag::PlanIdle,
                    1 => {
                        seg = r.u64()? as u32;
                        option = purchase_from_tag(r.u8()?)?;
                        start = read_time(&mut r)?;
                        aux = r.u64()?; // execution-end minutes
                        Tag::PlanRunning
                    }
                    other => {
                        return Err(SnapshotError::Corrupt(format!(
                            "invalid running tag {other}"
                        )))
                    }
                },
                4 => Tag::Done,
                5 => Tag::Cancelled,
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "invalid job state tag {other}"
                    )))
                }
            };
            tag.push(t);
            wait.push(waiting);
            run_option.push(option);
            run_start.push(start);
            run_aux.push(aux);
            run_seg.push(seg);
        }
        let mut first_start = Vec::with_capacity(n_jobs);
        let mut finish = Vec::with_capacity(n_jobs);
        let mut carbon_col = Vec::with_capacity(n_jobs);
        let mut cost = Vec::with_capacity(n_jobs);
        let mut evictions = Vec::with_capacity(n_jobs);
        let mut remaining = Vec::with_capacity(n_jobs);
        let mut starts = Vec::with_capacity(n_jobs);
        let mut seg_nodes: Vec<SegNode> = Vec::new();
        let mut seg_head = Vec::with_capacity(n_jobs);
        let mut seg_tail = Vec::with_capacity(n_jobs);
        let mut seg_count = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            first_start.push(r.opt(|r| r.u64())?.unwrap_or(NO_TIME));
            finish.push(read_time(&mut r)?);
            carbon_col.push(r.f64()?);
            cost.push(r.f64()?);
            evictions.push(r.u32()?);
            remaining.push(read_minutes(&mut r)?);
            starts.push(r.u32()?);
            let n_segments = r.count(18)?;
            let mut head = SEG_NIL;
            let mut tail = SEG_NIL;
            for _ in 0..n_segments {
                let rec = read_segment_record(&mut r)?;
                let node = seg_nodes.len() as u32;
                seg_nodes.push(SegNode { rec, next: SEG_NIL });
                if tail == SEG_NIL {
                    head = node;
                } else {
                    seg_nodes[tail as usize].next = node;
                }
                tail = node;
            }
            seg_head.push(head);
            seg_tail.push(tail);
            seg_count.push(n_segments as u32);
        }
        let mut plan = Vec::with_capacity(n_jobs);
        for _ in 0..n_jobs {
            let decision = r.opt(read_decision)?;
            plan.push(decision.map_or_else(PackedDecision::default, |d| arena.intern(&d)));
        }

        let n_events = r.count(22)?;
        let mut events = Vec::with_capacity(n_events);
        for _ in 0..n_events {
            events.push(Event {
                time: read_time(&mut r)?,
                prio: r.u8()?,
                seq: r.u64()?,
                job: r.u32()?,
                kind: read_event_kind(&mut r)?,
            });
        }
        let n_waiters = r.count(12)?;
        let mut waiters = BTreeSet::new();
        for _ in 0..n_waiters {
            let t = read_time(&mut r)?;
            let job = r.u32()?;
            waiters.insert((t, job));
        }
        let n_blocked = r.count(9)?;
        let mut cap_queue = VecDeque::with_capacity(n_blocked);
        for _ in 0..n_blocked {
            cap_queue.push_back(match r.u8()? {
                0 => CapBlocked::Once {
                    idx: r.u64()? as usize,
                    allow_spot: r.bool()?,
                },
                1 => CapBlocked::Segment {
                    idx: r.u64()? as usize,
                    seg_idx: r.u64()? as usize,
                },
                other => {
                    return Err(SnapshotError::Corrupt(format!(
                        "invalid cap-blocked tag {other}"
                    )))
                }
            });
        }
        let n_completions = r.count(4)?;
        let mut completions = Vec::with_capacity(n_completions);
        for _ in 0..n_completions {
            completions.push(r.u32()?);
        }
        r.done()?;

        // Validate cross-references so a corrupt payload cannot panic
        // the engine later.
        for (i, job) in jobs.iter().enumerate() {
            if job.id.0 != i as u64 {
                return Err(SnapshotError::Corrupt(format!(
                    "{} at position {i}: ids must be dense and ordered",
                    job.id
                )));
            }
        }
        let in_range = |idx: usize| idx < n_jobs;
        for event in &events {
            if !in_range(event.job as usize) && !matches!(event.kind, EventKind::CapTick) {
                return Err(SnapshotError::Corrupt(format!(
                    "event references unknown job {}",
                    event.job
                )));
            }
        }
        for &(_, job) in &waiters {
            if !in_range(job as usize) {
                return Err(SnapshotError::Corrupt(format!(
                    "waiter references unknown job {job}"
                )));
            }
        }
        for blocked in &cap_queue {
            let idx = match blocked {
                CapBlocked::Once { idx, .. } | CapBlocked::Segment { idx, .. } => *idx,
            };
            if !in_range(idx) {
                return Err(SnapshotError::Corrupt(format!(
                    "cap queue references unknown job {idx}"
                )));
            }
        }
        for &idx in &completions {
            if !in_range(idx as usize) {
                return Err(SnapshotError::Corrupt(format!(
                    "completion buffer references unknown job {idx}"
                )));
            }
        }

        let mut pool = ReservedPool::new(config.reserved_cpus);
        if pool_in_use > 0 && !pool.try_acquire(pool_in_use) {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot holds {pool_in_use} reserved CPUs but the pool capacity is {}",
                config.reserved_cpus
            )));
        }

        // The snapshot writes its events sorted, so they all take the
        // run lane; a forged out-of-order one still restores, through
        // heap inserts.
        let mut queue = EventQueue::new();
        queue.reserve_run(events.len());
        for event in events {
            queue.insert(event);
        }
        // The width histogram mirrors the waiter set; rebuild it rather
        // than serializing redundant (and possibly inconsistent) state.
        let mut waiter_widths = BTreeMap::new();
        for &(_, job) in &waiters {
            *waiter_widths.entry(jobs[job as usize].cpus).or_insert(0u32) += 1;
        }

        let mut engine = OnlineEngine {
            config,
            carbon,
            forecaster,
            faults: None,
            fallback: None,
            sink,
            profiler: None,
            jobs,
            pool,
            queue,
            seq,
            now,
            tag,
            wait,
            plan,
            arena,
            run_option,
            run_start,
            run_aux,
            run_seg,
            first_start,
            finish,
            carbon_g: carbon_col,
            cost,
            evictions,
            remaining,
            starts,
            seg_nodes,
            seg_head,
            seg_tail,
            seg_count,
            waiters,
            waiter_widths,
            elastic_busy,
            cap_queue,
            tick_scheduled,
            degrade,
            in_degraded,
            completed,
            cancelled,
            nominal_makespan,
            completions,
        };
        // The columns were decoded at exactly the snapshot's job count;
        // stagger them, or the next submit past it reallocates them all.
        engine.reserve_jobs(0);
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_carbon::PerfectForecaster;
    use gaia_obs::NullSink;

    fn carbon() -> CarbonTrace {
        CarbonTrace::constant(100.0, 48).unwrap()
    }

    #[test]
    fn empty_engine_round_trips() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let engine = OnlineEngine::new(&config, &trace, &forecaster, &mut sink);
        let bytes = engine.snapshot();

        let mut sink2 = NullSink;
        let restored =
            OnlineEngine::restore(&config, &trace, &forecaster, &mut sink2, &bytes).unwrap();
        assert_eq!(restored.snapshot(), bytes);
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let err = OnlineEngine::<NullSink>::restore(
            &config,
            &trace,
            &forecaster,
            &mut sink,
            b"NOTASNAP0000",
        )
        .unwrap_err();
        assert!(matches!(err, SnapshotError::Corrupt(_)));
    }

    #[test]
    fn unknown_version_is_incompatible() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let engine = OnlineEngine::new(&config, &trace, &forecaster, &mut sink);
        let mut bytes = engine.snapshot();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let mut sink2 = NullSink;
        let err =
            OnlineEngine::<NullSink>::restore(&config, &trace, &forecaster, &mut sink2, &bytes)
                .unwrap_err();
        assert!(matches!(err, SnapshotError::Incompatible(_)));
    }

    #[test]
    fn config_mismatch_is_incompatible() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let engine = OnlineEngine::new(&config, &trace, &forecaster, &mut sink);
        let bytes = engine.snapshot();

        let other = ClusterConfig::default().with_reserved(config.reserved_cpus + 7);
        let mut sink2 = NullSink;
        let err =
            OnlineEngine::<NullSink>::restore(&other, &trace, &forecaster, &mut sink2, &bytes)
                .unwrap_err();
        assert!(matches!(err, SnapshotError::Incompatible(_)));
    }

    /// An engine with `n` jobs submitted at distinct future arrivals and
    /// none advanced, so every job holds one pending arrival event.
    fn pending_arrivals<'e>(
        config: &'e ClusterConfig,
        trace: &'e CarbonTrace,
        forecaster: &'e PerfectForecaster<'e>,
        sink: &'e mut NullSink,
        n: u64,
    ) -> OnlineEngine<'e, NullSink> {
        let mut engine = OnlineEngine::new(config, trace, forecaster, sink);
        for i in 0..n {
            let job = Job::new(
                JobId(i),
                SimTime::from_minutes(7 * i + 3),
                Minutes::new(30),
                1,
            );
            engine.submit(job).unwrap();
        }
        engine
    }

    struct RunNow;
    impl crate::engine::Scheduler for RunNow {
        fn on_arrival(
            &mut self,
            job: &Job,
            _ctx: &crate::engine::SchedulerContext<'_>,
        ) -> crate::Decision {
            crate::Decision::run_at(job.arrival)
        }
    }

    /// A snapshot's events are sorted, so restoring one leaves the heap
    /// lane at the capacity every engine's lanes are seeded with.
    #[test]
    fn restored_heap_lane_stays_at_its_stagger_seed() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let engine = pending_arrivals(&config, &trace, &forecaster, &mut sink, 5_000);
        let bytes = engine.snapshot();

        let mut sink2 = NullSink;
        let restored =
            OnlineEngine::restore(&config, &trace, &forecaster, &mut sink2, &bytes).unwrap();
        let mut sink3 = NullSink;
        let mut seeded = OnlineEngine::new(&config, &trace, &forecaster, &mut sink3);
        seeded.reserve_jobs(0);
        let (run, heap) = restored.queue.lane_capacities();
        assert_eq!(heap, seeded.queue.lane_capacities().1);
        assert!(run >= 5_000, "the run lane holds every restored event");
        assert_eq!(restored.snapshot(), bytes);
    }

    /// A forged snapshot whose first two events are swapped still
    /// restores: the early event takes the heap lane, and the engine
    /// snapshots and runs exactly like one restored from the real bytes.
    #[test]
    fn out_of_order_snapshot_events_restore_through_the_heap() {
        let config = ClusterConfig::default();
        let trace = carbon();
        let forecaster = PerfectForecaster::new(&trace);
        let mut sink = NullSink;
        let engine = pending_arrivals(&config, &trace, &forecaster, &mut sink, 40);
        let bytes = engine.snapshot();

        let mut events: Vec<Event> = engine.queue.unprocessed().copied().collect();
        events.sort_by_key(|e| (e.time, e.prio, e.seq));
        let record = |e: &Event| {
            let mut w = Writer::new();
            w.u64(e.time.as_minutes());
            w.u8(e.prio);
            w.u64(e.seq);
            w.u32(e.job);
            write_event_kind(&mut w, e.kind);
            w.into_bytes()
        };
        let (first, second) = (record(&events[0]), record(&events[1]));
        let at = bytes
            .windows(first.len())
            .position(|w| w == first.as_slice())
            .expect("the first event is in the snapshot");
        let mid = at + first.len();
        assert_eq!(&bytes[mid..mid + second.len()], second.as_slice());
        let mut forged = bytes[..at].to_vec();
        forged.extend_from_slice(&second);
        forged.extend_from_slice(&first);
        forged.extend_from_slice(&bytes[mid + second.len()..]);

        let (mut sink_a, mut sink_b) = (NullSink, NullSink);
        let mut real =
            OnlineEngine::restore(&config, &trace, &forecaster, &mut sink_a, &bytes).unwrap();
        let mut from_forged =
            OnlineEngine::restore(&config, &trace, &forecaster, &mut sink_b, &forged).unwrap();
        assert!(format!("{:?}", from_forged.queue).contains("heap: 1"));
        assert_eq!(from_forged.snapshot(), bytes);
        real.run_until_idle(&mut RunNow).unwrap();
        from_forged.run_until_idle(&mut RunNow).unwrap();
        assert_eq!(from_forged.snapshot(), real.snapshot());
    }

    /// Pins decoder robustness on the committed mixed-state fixture
    /// (see `tests/snapshot_fixture.rs` for the scenario behind it):
    /// every cut is corrupt, and no single-byte overwrite or `u64::MAX`
    /// count panics or over-allocates — each decodes to a typed error or
    /// a valid engine.
    #[test]
    fn truncation_is_corrupt() {
        let bytes = include_bytes!("../tests/fixtures/snapshot_v1_mixed.bin");
        let config = ClusterConfig::default()
            .with_reserved(3)
            .with_seed(7)
            .with_eviction(crate::EvictionModel::hourly(0.08));
        let hourly = (0..72)
            .map(|h| 120.0 + 80.0 * (((h * 37) % 24) as f64) / 24.0)
            .collect();
        let trace = CarbonTrace::from_hourly(hourly).unwrap();
        let forecaster = PerfectForecaster::new(&trace);
        let restore = |bytes: &[u8]| {
            let mut sink = NullSink;
            OnlineEngine::restore(&config, &trace, &forecaster, &mut sink, bytes).map(|_| ())
        };
        restore(bytes).expect("the fixture restores");
        for cut in 0..bytes.len() {
            let err = restore(&bytes[..cut]).unwrap_err();
            assert!(matches!(err, SnapshotError::Corrupt(_)), "cut at {cut}");
        }
        for corrupt in crate::codec::corruptions(bytes) {
            let _ = restore(&corrupt);
        }
    }
}
