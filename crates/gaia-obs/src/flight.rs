//! Always-on flight recorder: a fixed-capacity ring of the last N
//! events, with wall-clock capture timestamps, dumpable to JSONL.
//!
//! Full tracing ([`crate::sink::JsonlSink`]) costs a write per event and
//! grows without bound; the flight recorder is the post-mortem
//! alternative: it keeps only the most recent [`FlightRecorder::capacity`]
//! events as compact plain-data [`FlightFrame`]s and is cheap enough to
//! leave on in production. The daemon dumps it on demand (the `flight`
//! protocol verb), on SIGTERM, and from a panic hook — so an operator
//! always has the last seconds of engine history, even when the process
//! died without ever enabling tracing.
//!
//! # Hot-path design
//!
//! [`FlightSink`] wraps any inner [`Sink`] and captures each emitted
//! event into a frame: a fixed-size record of the event name (a
//! `&'static str`, so no allocation), the sim timestamp, and two
//! variant-specific integers. Frames accumulate in a writer-local
//! buffer; [`Sink::sync`] — called once per request by the serving
//! layer — flushes the batch into the shared ring under one mutex
//! acquisition. The wall clock is read once per request (on the first
//! emit after a sync), not per event. Per-event cost is therefore a
//! `Vec` push of a 5-word struct; the lock and the clock are amortized
//! across the whole request. Once the buffer has grown to a request's
//! size, recording allocates nothing (`gaia-serve/tests/alloc.rs`).
//!
//! The ring itself is a mutex-guarded `Vec`, not a lock-free structure:
//! frames are multi-word records, `gaia-obs` forbids `unsafe`, and the
//! amortization above already makes contention a non-issue (one
//! uncontended lock per request; the only other acquirers are rare
//! dump/len calls). See DESIGN.md §15 for the full argument.
//!
//! # Determinism contract
//!
//! Frames carry wall-clock timestamps, so the flight recorder is —
//! deliberately — outside the determinism contract. The data only ever
//! flows *out* (dumps, metrics exposition); nothing in the engine,
//! session, snapshot, or wire-response path reads it back.
//! `gaia-serve`'s telemetry proptests pin that down byte-for-byte.

use std::fmt::Write as _;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::event::Event;
use crate::sink::Sink;

/// Microseconds since the Unix epoch; 0 if the system clock is before
/// the epoch (metrics must not panic).
pub fn wall_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// One recorded event: the compact, allocation-free projection of an
/// [`Event`] the flight recorder retains.
///
/// `job` and `aux` are variant-specific (see [`FlightFrame::capture`]);
/// string payloads (tenant names, cache keys) are dropped — the flight
/// recorder answers "what was the engine doing just before it died",
/// not "replay the run".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightFrame {
    /// Wall-clock capture time, microseconds since the Unix epoch.
    /// Shared by every frame of one request batch.
    pub wall_us: u64,
    /// Stable event name ([`Event::name`]).
    pub kind: &'static str,
    /// Sim timestamp in minutes; 0 for events without a sim clock.
    pub t: u64,
    /// Job index, cell index, or snapshot ordinal — the variant's
    /// primary identifier; 0 where there is none.
    pub job: u64,
    /// Secondary payload: segment ordinal, queue depth, wait minutes,
    /// snapshot bytes, outage end — whichever single integer carries
    /// the most post-mortem signal for the variant.
    pub aux: u64,
}

impl FlightFrame {
    /// Project an event into a frame stamped with `wall_us`.
    pub fn capture(wall_us: u64, event: &Event) -> Self {
        let (job, aux) = match event {
            Event::JobSubmitted { job, len, .. } => (*job, *len),
            Event::PlanChosen { job, start, .. } => (*job, *start),
            Event::SegmentStarted { job, seg, .. } => (*job, u64::from(*seg)),
            Event::WidthChanged { job, width, .. } => (*job, *width),
            Event::SegmentFinished { job, seg, .. } => (*job, u64::from(*seg)),
            Event::SpotEvicted { job, .. } => (*job, 0),
            Event::JobCompleted { job, wait, .. } => (*job, *wait),
            Event::CellStarted { idx, .. } => (*idx, 0),
            Event::CellFinished { idx, .. } => (*idx, 0),
            Event::CellRetried { idx, attempt, .. } => (*idx, *attempt),
            Event::CacheHit { .. } | Event::CacheMiss { .. } | Event::CachePersist { .. } => (0, 0),
            Event::ShardStarted { shard, of, .. } => (*shard, *of),
            Event::ShardFinished { shard, of, .. } => (*shard, *of),
            Event::FaultInjected { start, end, .. } => (*start, *end),
            Event::DegradedModeEntered { until, .. } => (0, *until),
            Event::JobAccepted { job, .. } => (*job, 0),
            Event::Replan { job, queued, .. } => (*job, *queued),
            Event::SnapshotWritten { seq, bytes, .. } => (*seq, *bytes),
        };
        FlightFrame {
            wall_us,
            kind: event.name(),
            t: event.timestamp().unwrap_or(0),
            job,
            aux,
        }
    }

    /// Appends one JSON object, fixed field order and no newline — the
    /// dump format `gaia trace flight` validates — to `s`, so a dump can
    /// reuse one buffer for every frame.
    pub fn write_json_line(&self, s: &mut String) {
        // Writing into a `String` cannot fail.
        let _ = write!(
            s,
            "{{\"wall_us\":{},\"ev\":\"{}\",\"t\":{},\"job\":{},\"aux\":{}}}",
            self.wall_us, self.kind, self.t, self.job, self.aux
        );
    }
}

/// Interior of the ring: a wrap-around vector plus the next write slot.
#[derive(Debug)]
struct RingState {
    frames: Vec<FlightFrame>,
    next: usize,
}

/// The shared fixed-capacity event ring.
///
/// Created once per daemon and shared (`Arc`) between the engine
/// thread's [`FlightSink`], the dump paths (protocol verb, SIGTERM,
/// panic hook), and the metrics exposition thread. All methods take
/// `&self`.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    state: Mutex<RingState>,
    total: AtomicU64,
}

impl FlightRecorder {
    /// New empty recorder retaining the last `capacity` frames.
    /// Storage is allocated up front so recording never allocates.
    pub fn new(capacity: usize) -> Arc<Self> {
        Arc::new(FlightRecorder {
            capacity,
            state: Mutex::new(RingState {
                frames: Vec::with_capacity(capacity),
                next: 0,
            }),
            total: AtomicU64::new(0),
        })
    }

    /// Append a batch of frames under one lock acquisition, overwriting
    /// the oldest frames once the ring is full.
    pub fn push_batch(&self, batch: &[FlightFrame]) {
        if self.capacity == 0 || batch.is_empty() {
            return;
        }
        self.total.fetch_add(batch.len() as u64, Ordering::Relaxed);
        // A batch larger than the ring keeps only its newest frames.
        let batch = &batch[batch.len().saturating_sub(self.capacity)..];
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        for frame in batch {
            if state.frames.len() < self.capacity {
                state.frames.push(*frame);
            } else {
                let slot = state.next;
                state.frames[slot] = *frame;
            }
            state.next = (state.next + 1) % self.capacity;
        }
    }

    /// Retained frames, oldest first.
    pub fn snapshot(&self) -> Vec<FlightFrame> {
        let state = self
            .state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if state.frames.len() < self.capacity {
            state.frames.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&state.frames[state.next..]);
            out.extend_from_slice(&state.frames[..state.next]);
            out
        }
    }

    /// Frames currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .frames
            .len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Frames ever recorded, including overwritten ones.
    pub fn total_recorded(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Write the retained frames as JSONL, oldest first; returns the
    /// number of frames written.
    pub fn dump_jsonl<W: Write>(&self, mut writer: W) -> io::Result<u64> {
        let frames = self.snapshot();
        let mut line = String::with_capacity(96);
        for frame in &frames {
            line.clear();
            frame.write_json_line(&mut line);
            line.push('\n');
            writer.write_all(line.as_bytes())?;
        }
        writer.flush()?;
        Ok(frames.len() as u64)
    }

    /// Dump to a file path (created or truncated). Used by the daemon's
    /// SIGTERM and panic-hook paths, so it must not itself panic:
    /// errors are returned, never thrown.
    pub fn dump_to_path(&self, path: &Path) -> io::Result<u64> {
        let file = std::fs::File::create(path)?;
        self.dump_jsonl(io::BufWriter::new(file))
    }
}

/// A [`Sink`] adapter that records every event into a shared
/// [`FlightRecorder`] while forwarding to an inner sink.
///
/// Frames buffer locally and flush to the ring on [`Sink::sync`]; see
/// the module docs for the amortization argument. Events emitted after
/// the last `sync` of the process are lost with the buffer — the
/// serving layer syncs after every request, so at most one request's
/// frames are in flight.
#[derive(Debug)]
pub struct FlightSink<S: Sink> {
    inner: S,
    recorder: Arc<FlightRecorder>,
    buf: Vec<FlightFrame>,
    stamp_us: u64,
}

impl<S: Sink> FlightSink<S> {
    /// Wrap `inner`, recording into `recorder`.
    pub fn new(recorder: Arc<FlightRecorder>, inner: S) -> Self {
        FlightSink {
            inner,
            recorder,
            buf: Vec::with_capacity(64),
            stamp_us: 0,
        }
    }

    /// Flush any buffered frames and return the inner sink (for its own
    /// teardown, e.g. [`crate::sink::JsonlSink::finish`]).
    pub fn into_inner(mut self) -> S {
        self.sync();
        self.inner
    }

    /// The shared ring this sink records into.
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }
}

impl<S: Sink> Sink for FlightSink<S> {
    fn emit(&mut self, event: &Event) {
        if self.buf.is_empty() {
            // One clock read per request batch, not per event.
            self.stamp_us = wall_micros();
        }
        self.buf.push(FlightFrame::capture(self.stamp_us, event));
        self.inner.emit(event);
    }

    fn sync(&mut self) {
        if !self.buf.is_empty() {
            self.recorder.push_batch(&self.buf);
            self.buf.clear();
        }
        self.inner.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PoolKind;
    use crate::sink::{CountingSink, NullSink};

    fn seg_started(t: u64, job: u64) -> Event {
        Event::SegmentStarted {
            t,
            job,
            seg: 0,
            pool: PoolKind::Spot,
        }
    }

    #[test]
    fn ring_keeps_the_newest_frames() {
        let rec = FlightRecorder::new(4);
        let frames: Vec<FlightFrame> = (0..10)
            .map(|i| FlightFrame::capture(1_000 + i, &seg_started(i, i)))
            .collect();
        for chunk in frames.chunks(3) {
            rec.push_batch(chunk);
        }
        assert_eq!(rec.total_recorded(), 10);
        assert_eq!(rec.len(), 4);
        let kept = rec.snapshot();
        let ts: Vec<u64> = kept.iter().map(|f| f.t).collect();
        assert_eq!(ts, vec![6, 7, 8, 9], "oldest first, newest retained");
    }

    #[test]
    fn oversized_batch_keeps_its_tail() {
        let rec = FlightRecorder::new(3);
        let frames: Vec<FlightFrame> = (0..8)
            .map(|i| FlightFrame::capture(0, &seg_started(i, i)))
            .collect();
        rec.push_batch(&frames);
        let ts: Vec<u64> = rec.snapshot().iter().map(|f| f.t).collect();
        assert_eq!(ts, vec![5, 6, 7]);
    }

    #[test]
    fn zero_capacity_records_nothing() {
        let rec = FlightRecorder::new(0);
        rec.push_batch(&[FlightFrame::capture(0, &seg_started(1, 1))]);
        assert!(rec.is_empty());
        assert_eq!(rec.total_recorded(), 0);
    }

    #[test]
    fn flight_sink_buffers_until_sync_and_forwards() {
        let rec = FlightRecorder::new(16);
        let mut sink = FlightSink::new(Arc::clone(&rec), CountingSink::new());
        sink.emit(&seg_started(10, 1));
        sink.emit(&seg_started(11, 1));
        assert_eq!(rec.len(), 0, "frames buffer until sync");
        sink.sync();
        assert_eq!(rec.len(), 2);
        sink.sync(); // idempotent on an empty buffer
        assert_eq!(rec.len(), 2);
        let inner = sink.into_inner();
        assert_eq!(inner.total(), 2, "events still reach the inner sink");
    }

    #[test]
    fn frames_in_one_batch_share_one_wall_stamp() {
        let rec = FlightRecorder::new(16);
        let mut sink = FlightSink::new(Arc::clone(&rec), NullSink);
        sink.emit(&seg_started(1, 1));
        sink.emit(&seg_started(2, 1));
        sink.sync();
        std::thread::sleep(std::time::Duration::from_millis(2));
        sink.emit(&seg_started(3, 1));
        sink.sync();
        let frames = rec.snapshot();
        assert_eq!(frames[0].wall_us, frames[1].wall_us);
        assert!(frames[2].wall_us > frames[1].wall_us);
    }

    #[test]
    fn capture_projects_variant_payloads() {
        let f = FlightFrame::capture(
            7,
            &Event::Replan {
                t: 30,
                job: 5,
                queued: 12,
            },
        );
        assert_eq!(
            f,
            FlightFrame {
                wall_us: 7,
                kind: "replan",
                t: 30,
                job: 5,
                aux: 12
            }
        );
        let f = FlightFrame::capture(
            0,
            &Event::SnapshotWritten {
                t: 60,
                seq: 3,
                bytes: 4096,
            },
        );
        assert_eq!((f.job, f.aux), (3, 4096));
    }

    #[test]
    fn dump_is_valid_jsonl_with_fixed_fields() {
        let rec = FlightRecorder::new(8);
        rec.push_batch(&[
            FlightFrame::capture(1_000_000, &seg_started(10, 2)),
            FlightFrame::capture(
                2_000_000,
                &Event::JobCompleted {
                    t: 90,
                    job: 2,
                    wait: 30,
                    stretch: 1.5,
                },
            ),
        ]);
        let mut out = Vec::new();
        let written = rec.dump_jsonl(&mut out).unwrap();
        assert_eq!(written, 2);
        let text = String::from_utf8(out).unwrap();
        for line in text.lines() {
            let value = crate::json::parse(line).expect(line);
            for key in ["wall_us", "ev", "t", "job", "aux"] {
                assert!(value.get(key).is_some(), "{line} missing {key}");
            }
        }
        assert!(text.contains("\"ev\":\"job_completed\",\"t\":90,\"job\":2,\"aux\":30"));
    }
}
