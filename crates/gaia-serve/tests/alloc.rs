//! Allocation counts on the serving path, under a counting global
//! allocator.
//!
//! A reallocation inside a submit copies a whole per-job column, so it
//! is the serving path's worst-case latency. Counting reallocations
//! states that bound without a wall clock: a reserved session makes
//! none, and an unreserved one makes at most one per submit, because
//! every growable per-job vector starts on its own rung of
//! [`stagger_capacity`]'s ladder. The sinks behind the daemon's event
//! stream make no per-event allocation once warm.
//!
//! The allocator counts only on threads that armed it, so the test
//! harness's other threads stay out of the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::ops::Range;
use std::sync::Arc;

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::{Event, FlightRecorder, FlightSink, JsonlSink, NullSink, Sink};
use gaia_serve::protocol::{Request, Response};
use gaia_serve::{ServeTelemetry, Session};
use gaia_sim::{stagger_capacity, ClusterConfig, OnlineEngine, STAGGER_RUNGS};

/// Counts allocator calls made by armed threads.
struct Counting;

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static REALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn record(counter: &'static std::thread::LocalKey<Cell<u64>>, bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    if ARMED.try_with(Cell::get).unwrap_or(false) {
        let _ = counter.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|b| b.set(b.get() + bytes as u64));
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters are
// const-initialized thread-locals without destructors, so touching them
// never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(&ALLOCS, layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(&ALLOCS, layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(&REALLOCS, new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What the armed thread asked the allocator for.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Counts {
    allocs: u64,
    reallocs: u64,
    bytes: u64,
}

/// Runs `f` with this thread's counting armed and returns what it asked for.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Counts) {
    for counter in [&ALLOCS, &REALLOCS, &BYTES] {
        counter.with(|c| c.set(0));
    }
    ARMED.with(|a| a.set(true));
    let out = f();
    ARMED.with(|a| a.set(false));
    let counts = Counts {
        allocs: ALLOCS.with(Cell::get),
        reallocs: REALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
    };
    (out, counts)
}

/// Submissions per session. Every per-job column doubles at least
/// twice on the way (see `n_outgrows_every_seeded_column_twice`). The
/// backlog ends as `N` pending start events: 18 000 in the event
/// queue's heap lane, which doubles twice past its seed, and 6 000 in
/// its run lane, which doubles once.
const N: u64 = 24_000;

/// The `i`-th submit of a deep-backlog load: four tenants, 2000 arrivals
/// per sim-minute, week-long jobs, so nothing finishes and every job
/// stays queued.
fn submit(i: u64) -> Request {
    const TENANTS: [&str; 4] = ["acme", "blue", "crux", "dawn"];
    Request::Submit {
        tenant: TENANTS[(i % 4) as usize].to_string(),
        at: i / 2000,
        len: 10_080,
        cpus: 1 + i % 4,
    }
}

/// Drives `N` arrival-ordered submits through a fresh Carbon-Time
/// session over `sink` and returns each submit's reallocation count.
/// The session is reserved for `N` jobs if `reserve`, and carries `hub`
/// if given.
fn reallocs_per_submit<S: Sink>(
    sink: &mut S,
    reserve: bool,
    hub: Option<Arc<ServeTelemetry>>,
) -> Vec<u64> {
    let carbon = synthesize_region(Region::SouthAustralia, 7);
    let forecaster = PerfectForecaster::new(&carbon);
    let config = ClusterConfig::default().with_reserved(0).with_seed(42);
    let engine = OnlineEngine::new(&config, &carbon, &forecaster, sink);
    let mut session = Session::new(engine, PolicySpec::plain(BasePolicyKind::CarbonTime));
    if reserve {
        session.reserve_jobs(N as usize);
    }
    if let Some(hub) = hub {
        session.attach_telemetry(hub);
    }
    drive(&mut session, 0..N)
}

/// Applies the submits numbered `range`, syncing the sink after each
/// as the daemon does, and returns each one's reallocation count.
/// Requests are built before counting starts.
fn drive<S: Sink>(session: &mut Session<'_, S>, range: Range<u64>) -> Vec<u64> {
    let requests: Vec<Request> = range.clone().map(submit).collect();
    let mut reallocs = Vec::with_capacity(requests.len());
    for (request, i) in requests.iter().zip(range.clone()) {
        let (response, counts) = counted(|| {
            let response = session.apply(request);
            session.sync_sink();
            response
        });
        assert!(
            matches!(response, Response::Submitted { .. }),
            "submission {i} rejected: {}",
            response.to_json_line()
        );
        reallocs.push(counts.reallocs);
    }
    assert_eq!(session.engine().queued(), range.end, "no job may finish");
    assert_eq!(session.engine().pending_events(), range.end as usize);
    reallocs
}

/// Submits that reallocated more than once, as `(index, count)`.
fn multi_realloc_submits(reallocs: &[u64]) -> Vec<(usize, u64)> {
    reallocs
        .iter()
        .copied()
        .enumerate()
        .filter(|&(_, n)| n > 1)
        .collect()
}

#[test]
fn reserved_session_never_reallocates() {
    let recorder = FlightRecorder::new(4096);
    let hub = Arc::new(ServeTelemetry::new());
    let mut sink = FlightSink::new(Arc::clone(&recorder), NullSink);
    let reallocs = reallocs_per_submit(&mut sink, true, Some(Arc::clone(&hub)));
    let total: u64 = reallocs.iter().sum();
    let first = reallocs.iter().position(|&n| n > 0);
    assert_eq!(total, 0, "first reallocating submit: {first:?}");
    // Non-vacuity: the telemetry and the flight ring were live.
    assert_eq!(hub.submit_latency.count(), N);
    assert!(recorder.total_recorded() > 0, "flight ring must record");
}

#[test]
fn unreserved_engine_reallocates_at_most_once_per_submit() {
    let reallocs = reallocs_per_submit(&mut NullSink, false, None);
    assert_eq!(multi_realloc_submits(&reallocs), []);
}

/// `gaia serve` without `--expect-jobs`: the session's own per-job
/// columns grow beside the engine's.
#[test]
fn unreserved_session_with_telemetry_reallocates_at_most_once_per_submit() {
    let mut sink = FlightSink::new(FlightRecorder::new(4096), NullSink);
    let hub = Arc::new(ServeTelemetry::new());
    let reallocs = reallocs_per_submit(&mut sink, false, Some(hub));
    assert_eq!(multi_realloc_submits(&reallocs), []);
}

/// `gaia serve --restore` without `--expect-jobs`: the restored
/// columns, each decoded at the snapshot's job count, must not all
/// reallocate on the same later submit.
#[test]
fn restored_session_reallocates_at_most_once_per_submit() {
    let carbon = synthesize_region(Region::SouthAustralia, 7);
    let forecaster = PerfectForecaster::new(&carbon);
    let config = ClusterConfig::default().with_reserved(0).with_seed(42);
    let restore_at = 1_000;
    let mut sink = NullSink;
    let bytes = {
        let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
        let mut session = Session::new(engine, PolicySpec::plain(BasePolicyKind::CarbonTime));
        drive(&mut session, 0..restore_at);
        session.snapshot().1
    };
    let mut session =
        gaia_serve::restore(&config, &carbon, &forecaster, &mut sink, None, None, &bytes)
            .expect("the snapshot restores");
    session.attach_telemetry(Arc::new(ServeTelemetry::new()));
    let reallocs = drive(&mut session, restore_at..N);
    assert_eq!(multi_realloc_submits(&reallocs), []);
}

/// One event of each shape the serving path emits most.
fn sample_events() -> Vec<Event> {
    (0..64u64)
        .flat_map(|i| {
            [
                Event::JobAccepted {
                    t: i,
                    job: i,
                    tenant: format!("tenant-{}", i % 4),
                },
                Event::Replan {
                    t: i,
                    job: i,
                    queued: i * 3,
                },
            ]
        })
        .collect()
}

#[test]
fn sinks_make_no_per_event_allocation_once_warm() {
    let events = sample_events();

    let mut jsonl = JsonlSink::new(io::sink());
    events.iter().for_each(|e| jsonl.emit(e));
    let ((), counts) = counted(|| {
        for _ in 0..8 {
            events.iter().for_each(|e| jsonl.emit(e));
            jsonl.sync();
        }
    });
    assert_eq!(counts, Counts::default(), "JsonlSink");
    assert_eq!(jsonl.written(), 9 * events.len() as u64);

    // Batches of one request's size, past the ring's capacity so it wraps.
    let recorder = FlightRecorder::new(256);
    let mut flight = FlightSink::new(Arc::clone(&recorder), NullSink);
    for batch in events.chunks(32) {
        batch.iter().for_each(|e| flight.emit(e));
        flight.sync();
    }
    let ((), counts) = counted(|| {
        for _ in 0..8 {
            for batch in events.chunks(32) {
                batch.iter().for_each(|e| flight.emit(e));
                flight.sync();
            }
        }
    });
    assert_eq!(counts, Counts::default(), "FlightSink");
    assert_eq!(recorder.total_recorded(), 9 * events.len() as u64);
    assert_eq!(recorder.len(), recorder.capacity());
}

#[test]
fn n_outgrows_every_seeded_column_twice() {
    // A per-job column holds one entry per submit; the largest seed is
    // the session's last rung.
    let largest = stagger_capacity(STAGGER_RUNGS + 1);
    assert!(N as usize > 4 * largest, "{N} vs {largest}");
}
