//! The `gaia serve` daemon: a TCP loop around one [`Session`].
//!
//! Concurrency model: any number of connection threads parse nothing —
//! they forward raw request lines over a channel to the single engine
//! thread, which applies requests in arrival order and sends each
//! response line back on a per-request reply channel. One engine thread
//! means the request *sequence* is the only source of ordering, which
//! is what makes a replayed submission log deterministic.
//!
//! Snapshots: `--snapshot-every N` writes the full service state to the
//! snapshot path after every `N`-th accepted submission (atomically,
//! via a rename); an explicit `{"op":"snapshot"}` does the same on
//! demand. `--restore FILE` boots from a snapshot instead of an empty
//! session; replaying the remaining submission log then produces
//! responses and trace events byte-identical to an uninterrupted run.
//!
//! Telemetry: every daemon carries a [`ServeTelemetry`] hub and (unless
//! `--flight-capacity 0`) a [`FlightRecorder`] ring wrapped around the
//! trace sink. The `metrics` verb returns the hub's JSON body, the
//! `flight` verb dumps the ring, `--metrics-addr` serves the Prometheus
//! text exposition over HTTP, and SIGTERM (via
//! [`request_termination`]) or a panic dumps the ring before the
//! process exits. All of it is out-of-band: responses, trace events,
//! and snapshots are byte-identical with telemetry on or off.

use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, Once};
use std::thread;
use std::time::Duration;

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{CarbonForecaster, CarbonTrace, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_fault::{FaultPlan, FaultSchedule};
use gaia_obs::flight::wall_micros;
use gaia_obs::{FlightRecorder, FlightSink, JsonlSink, NullSink, Sink};
use gaia_sim::{durable_write, ClusterConfig, OnlineEngine, PolicyCarbon};

use crate::protocol::{Request, Response};
use crate::session::Session;
use crate::telemetry::ServeTelemetry;

/// Configuration for one daemon run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (see
    /// [`ServeOptions::addr_file`]).
    pub listen: String,
    /// Scheduling policy for every tenant.
    pub policy: PolicySpec,
    /// Region whose synthetic carbon trace backs the service.
    pub region: Region,
    /// Seed for the carbon trace and eviction sampling.
    pub seed: u64,
    /// Reserved CPU instances.
    pub reserved: u32,
    /// Write a snapshot after every `N`-th accepted submission.
    pub snapshot_every: Option<u64>,
    /// Where snapshots are written (also the explicit-op target).
    pub snapshot_path: PathBuf,
    /// Boot from this snapshot instead of an empty session.
    pub restore: Option<PathBuf>,
    /// Stream trace events (JSONL) to this file.
    pub trace_path: Option<PathBuf>,
    /// Write the bound address (`host:port` + newline) here once
    /// listening — how scripts find a port-0 daemon.
    pub addr_file: Option<PathBuf>,
    /// JSON fault plan injected into the live service.
    pub faults: Option<PathBuf>,
    /// Pre-reserve per-job state for this many submissions at boot.
    ///
    /// A provisioned deployment sets this to its expected job volume so
    /// no submission inside the reservation ever pays a column
    /// reallocation; growth beyond it stays amortized-doubling.
    pub expect_jobs: Option<usize>,
    /// Serve the Prometheus text exposition over HTTP here (port 0
    /// picks a free port; see [`ServeOptions::metrics_addr_file`]).
    pub metrics_addr: Option<String>,
    /// Write the bound metrics address (`host:port` + newline) here
    /// once the exposition endpoint is listening.
    pub metrics_addr_file: Option<PathBuf>,
    /// Flight recorder ring capacity, frames; 0 disables recording
    /// (the sink is then not wrapped at all).
    pub flight_capacity: usize,
    /// Where flight dumps land — the `flight` verb, SIGTERM, and the
    /// panic hook all write here.
    pub flight_dump: PathBuf,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            listen: "127.0.0.1:0".into(),
            policy: PolicySpec::plain(BasePolicyKind::CarbonTime),
            region: Region::SouthAustralia,
            seed: 42,
            reserved: 0,
            snapshot_every: None,
            snapshot_path: PathBuf::from("gaia-serve.snap"),
            restore: None,
            trace_path: None,
            addr_file: None,
            faults: None,
            expect_jobs: None,
            metrics_addr: None,
            metrics_addr_file: None,
            flight_capacity: 4096,
            flight_dump: PathBuf::from("gaia-flight.jsonl"),
        }
    }
}

/// Set when the process wants the daemon to stop (e.g. from a SIGTERM
/// handler); polled by the engine loop between requests.
static TERM: AtomicBool = AtomicBool::new(false);

/// Ask the running daemon to shut down gracefully: finish the in-flight
/// request, dump the flight recorder, and stop accepting.
///
/// Only touches one atomic, so it is safe to call from a signal
/// handler. [`run`] clears the flag on entry, so a request left over
/// from an earlier run never kills a new one.
pub fn request_termination() {
    TERM.store(true, Ordering::SeqCst);
}

fn termination_requested() -> bool {
    TERM.load(Ordering::SeqCst)
}

/// What the process-wide panic hook dumps: armed by [`run`], disarmed
/// when it returns, `take`n by the first panic so a cascade of panics
/// dumps once.
#[allow(clippy::type_complexity)]
static PANIC_DUMP: Mutex<Option<(Arc<FlightRecorder>, PathBuf)>> = Mutex::new(None);
static PANIC_HOOK: Once = Once::new();

fn arm_panic_dump(recorder: &Arc<FlightRecorder>, path: &Path) {
    *PANIC_DUMP
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner()) =
        Some((Arc::clone(recorder), path.to_path_buf()));
    // The hook itself is installed once per process and chains the
    // previous hook; which recorder (if any) it dumps is re-armed per
    // `run`.
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let armed = PANIC_DUMP
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .take();
            if let Some((recorder, path)) = armed {
                match recorder.dump_to_path(&path) {
                    Ok(frames) => eprintln!(
                        "flight recorder: dumped {frames} frame(s) to {} on panic",
                        path.display()
                    ),
                    Err(e) => eprintln!("flight recorder: panic dump failed: {e}"),
                }
            }
            previous(info);
        }));
    });
}

fn disarm_panic_dump() {
    PANIC_DUMP
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
        .take();
}

/// Telemetry plumbing threaded through the serve/handle call chain.
#[derive(Clone, Copy)]
struct ServeCtx<'a> {
    options: &'a ServeOptions,
    recorder: &'a Arc<FlightRecorder>,
    telemetry: &'a Arc<ServeTelemetry>,
}

/// One raw request line in flight from a connection to the engine
/// thread.
struct Cmd {
    line: String,
    reply: mpsc::Sender<String>,
}

/// Runs the daemon until a `{"op":"shutdown"}` request arrives or
/// [`request_termination`] is called.
pub fn run(options: &ServeOptions) -> Result<(), String> {
    TERM.store(false, Ordering::SeqCst);
    let carbon = synthesize_region(options.region, options.seed);
    let config = ClusterConfig::default()
        .with_reserved(options.reserved)
        .with_seed(options.seed);
    let faults = load_faults(options)?;
    let faults = faults.as_ref();
    let policy = PolicyCarbon::new(&carbon, faults)
        .map_err(|e| format!("fault plan does not fit the carbon trace: {e}"))?;
    let forecaster = PerfectForecaster::new(policy.trace());
    let persistence = policy.fallback();
    let fallback = persistence.as_ref().map(|p| p as &dyn CarbonForecaster);
    let recorder = FlightRecorder::new(options.flight_capacity);
    let telemetry = Arc::new(ServeTelemetry::new());
    if options.flight_capacity > 0 {
        arm_panic_dump(&recorder, &options.flight_dump);
    }
    let ctx = ServeCtx {
        options,
        recorder: &recorder,
        telemetry: &telemetry,
    };
    let flight = options.flight_capacity > 0;
    let result = if let Some(path) = &options.trace_path {
        let file = fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
        let inner = JsonlSink::new(BufWriter::new(file));
        let flush_err = |e| format!("cannot flush trace file {}: {e}", path.display());
        if flight {
            let mut sink = FlightSink::new(Arc::clone(&recorder), inner);
            let served = serve_with_sink(
                ctx,
                &config,
                &carbon,
                &forecaster,
                faults,
                fallback,
                &mut sink,
            );
            served.and(sink.into_inner().finish().map(|_| ()).map_err(flush_err))
        } else {
            let mut sink = inner;
            let served = serve_with_sink(
                ctx,
                &config,
                &carbon,
                &forecaster,
                faults,
                fallback,
                &mut sink,
            );
            served.and(sink.finish().map(|_| ()).map_err(flush_err))
        }
    } else if flight {
        let mut sink = FlightSink::new(Arc::clone(&recorder), NullSink);
        serve_with_sink(
            ctx,
            &config,
            &carbon,
            &forecaster,
            faults,
            fallback,
            &mut sink,
        )
    } else {
        let mut sink = NullSink;
        serve_with_sink(
            ctx,
            &config,
            &carbon,
            &forecaster,
            faults,
            fallback,
            &mut sink,
        )
    };
    disarm_panic_dump();
    result
}

fn load_faults(options: &ServeOptions) -> Result<Option<FaultSchedule>, String> {
    let Some(path) = &options.faults else {
        return Ok(None);
    };
    let plan = FaultPlan::load(path)
        .map_err(|e| format!("cannot load fault plan {}: {e}", path.display()))?;
    let schedule = plan
        .compile()
        .map_err(|e| format!("invalid fault plan {}: {e}", path.display()))?;
    gaia_obs::info!(
        "fault plan: {} spec(s) loaded from {}",
        plan.specs().len(),
        path.display()
    );
    Ok(Some(schedule))
}

fn serve_with_sink<S: Sink>(
    ctx: ServeCtx<'_>,
    config: &ClusterConfig,
    carbon: &CarbonTrace,
    forecaster: &dyn CarbonForecaster,
    faults: Option<&FaultSchedule>,
    fallback: Option<&dyn CarbonForecaster>,
    sink: &mut S,
) -> Result<(), String> {
    let options = ctx.options;
    let session = match &options.restore {
        Some(path) => {
            let bytes = fs::read(path)
                .map_err(|e| format!("cannot read snapshot {}: {e}", path.display()))?;
            let session = crate::snapshot::restore(
                config, carbon, forecaster, sink, faults, fallback, &bytes,
            )
            .map_err(|e| format!("cannot restore {}: {e}", path.display()))?;
            gaia_obs::info!(
                "restored {} job(s), {} tenant(s) at t={} from {}",
                session.engine().submitted(),
                session.tenants().len(),
                session.engine().now().as_minutes(),
                path.display()
            );
            session
        }
        None => {
            let mut engine = OnlineEngine::new(config, carbon, forecaster, sink);
            if let Some(faults) = faults {
                engine = engine.with_faults(faults, fallback);
            }
            Session::new(engine, options.policy)
        }
    };
    let mut session = session;
    if let Some(expected) = options.expect_jobs {
        session.reserve_jobs(expected.saturating_sub(session.engine().submitted() as usize));
    }
    session.attach_telemetry(Arc::clone(ctx.telemetry));
    publish_gauges(ctx.telemetry, &session);

    let listener = TcpListener::bind(&options.listen)
        .map_err(|e| format!("cannot bind {}: {e}", options.listen))?;
    let addr = listener
        .local_addr()
        .map_err(|e| format!("cannot resolve the bound address: {e}"))?;
    if let Some(path) = &options.addr_file {
        fs::write(path, format!("{addr}\n"))
            .map_err(|e| format!("cannot write addr file {}: {e}", path.display()))?;
    }
    gaia_obs::info!("gaia serve listening on {addr} ({})", options.policy.name());
    let metrics_listener = match &options.metrics_addr {
        Some(spec) => {
            let l = TcpListener::bind(spec)
                .map_err(|e| format!("cannot bind metrics address {spec}: {e}"))?;
            let bound = l
                .local_addr()
                .map_err(|e| format!("cannot resolve the metrics address: {e}"))?;
            if let Some(path) = &options.metrics_addr_file {
                fs::write(path, format!("{bound}\n")).map_err(|e| {
                    format!("cannot write metrics addr file {}: {e}", path.display())
                })?;
            }
            gaia_obs::info!("metrics exposition on http://{bound}/metrics");
            Some(l)
        }
        None => None,
    };

    let (tx, rx) = mpsc::channel::<Cmd>();
    let shutting_down = AtomicBool::new(false);
    // The session borrows the (not necessarily `Sync`) forecaster and
    // sink, so the engine loop stays on this thread; the accept loop,
    // per-connection forwarders, and the metrics exposition — which
    // only touch sockets, channels, and the atomic telemetry hub — run
    // on scoped threads.
    thread::scope(|scope| {
        let shutting_down = &shutting_down;
        let listener = &listener;
        scope.spawn(move || {
            for stream in listener.incoming() {
                if shutting_down.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                scope.spawn(move || connection(stream, tx));
            }
        });
        if let Some(metrics_listener) = metrics_listener {
            let telemetry = ctx.telemetry;
            let recorder = ctx.recorder;
            scope.spawn(move || metrics_http(metrics_listener, telemetry, recorder, shutting_down));
        }
        let stop_listening = || {
            shutting_down.store(true, Ordering::SeqCst);
            // Wake the blocking accept so the listener exits.
            let _ = TcpStream::connect(addr);
        };
        loop {
            // Poll the termination flag between requests: a SIGTERM
            // handler can only set an atomic, and the engine thread is
            // the only one allowed to touch the session.
            if termination_requested() {
                session.sync_sink();
                match ctx.recorder.dump_to_path(&options.flight_dump) {
                    Ok(frames) => gaia_obs::info!(
                        "termination requested: dumped {frames} flight frame(s) to {}",
                        options.flight_dump.display()
                    ),
                    Err(e) => gaia_obs::error!("termination flight dump failed: {e}"),
                }
                stop_listening();
                break;
            }
            let cmd = match rx.recv_timeout(Duration::from_millis(50)) {
                Ok(cmd) => cmd,
                Err(mpsc::RecvTimeoutError::Timeout) => continue,
                Err(mpsc::RecvTimeoutError::Disconnected) => break,
            };
            let (response, stop) = handle(&mut session, &cmd.line, ctx);
            let _ = cmd.reply.send(response.to_json_line());
            publish_gauges(ctx.telemetry, &session);
            // One sync per request flushes the flight-recorder batch
            // (and any traced JSONL) — the amortization the ≤2%
            // overhead budget rests on.
            session.sync_sink();
            if stop {
                stop_listening();
                break;
            }
        }
    });
    Ok(())
}

/// Publish the engine gauges after a request; relaxed stores, readers
/// tolerate tearing between fields.
fn publish_gauges<S: Sink>(telemetry: &ServeTelemetry, session: &Session<'_, S>) {
    let engine = session.engine();
    let g = &telemetry.gauges;
    g.sim_minutes
        .store(engine.now().as_minutes(), Ordering::Relaxed);
    g.submitted.store(engine.submitted(), Ordering::Relaxed);
    g.completed.store(engine.completed(), Ordering::Relaxed);
    g.cancelled.store(engine.cancelled(), Ordering::Relaxed);
    g.queued.store(engine.queued(), Ordering::Relaxed);
    g.pending_events
        .store(engine.pending_events() as u64, Ordering::Relaxed);
    g.degraded
        .store(u64::from(engine.in_degraded_mode()), Ordering::Relaxed);
}

/// The exposition endpoint: a minimal HTTP/1.1 responder that answers
/// every request with the current Prometheus text body. Non-blocking
/// accept so shutdown is noticed within one poll interval.
fn metrics_http(
    listener: TcpListener,
    telemetry: &ServeTelemetry,
    recorder: &FlightRecorder,
    shutting_down: &AtomicBool,
) {
    if listener.set_nonblocking(true).is_err() {
        return;
    }
    while !shutting_down.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = serve_scrape(stream, telemetry, recorder);
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn serve_scrape(
    stream: TcpStream,
    telemetry: &ServeTelemetry,
    recorder: &FlightRecorder,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Drain the request head; the path is irrelevant — every scrape
    // gets the full exposition.
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line.trim().is_empty() {
            break;
        }
    }
    let body = telemetry.render_prometheus(Some(recorder));
    let mut writer = BufWriter::new(stream);
    write!(
        writer,
        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    writer.write_all(body.as_bytes())?;
    writer.flush()
}

/// Applies one raw request line; returns the response and whether the
/// daemon should stop.
fn handle<S: Sink>(
    session: &mut Session<'_, S>,
    line: &str,
    ctx: ServeCtx<'_>,
) -> (Response, bool) {
    let options = ctx.options;
    let request = match Request::from_json_line(line) {
        Ok(request) => request,
        Err(error) => {
            ctx.telemetry.count_error();
            return (Response::Error { error }, false);
        }
    };
    match request {
        Request::Shutdown => {
            ctx.telemetry.count_op("shutdown");
            (Response::ShuttingDown, true)
        }
        Request::Snapshot => {
            ctx.telemetry.count_op("snapshot");
            (write_snapshot(session, options), false)
        }
        Request::Metrics => {
            ctx.telemetry.count_op("metrics");
            // Flush sink-local flight frames first so the body's
            // `flight` section reflects this very request sequence.
            session.sync_sink();
            let data = ctx.telemetry.render_json(Some(ctx.recorder));
            (Response::Metrics { data }, false)
        }
        Request::Flight => {
            ctx.telemetry.count_op("flight");
            session.sync_sink();
            let path = &options.flight_dump;
            match ctx.recorder.dump_to_path(path) {
                Ok(frames) => (
                    Response::FlightDumped {
                        frames,
                        path: path.display().to_string(),
                    },
                    false,
                ),
                Err(e) => {
                    ctx.telemetry.count_error();
                    (
                        Response::Error {
                            error: format!(
                                "cannot dump the flight recorder to {}: {e}",
                                path.display()
                            ),
                        },
                        false,
                    )
                }
            }
        }
        Request::Submit { .. } => {
            let response = session.apply(&request);
            if let Response::Submitted { .. } = &response {
                if let Some(every) = options.snapshot_every {
                    if every > 0 && session.engine().submitted().is_multiple_of(every) {
                        if let Response::Error { error } = write_snapshot(session, options) {
                            gaia_obs::error!("periodic snapshot failed: {error}");
                        }
                    }
                }
            }
            (response, false)
        }
        other => (session.apply(&other), false),
    }
}

fn write_snapshot<S: Sink>(session: &mut Session<'_, S>, options: &ServeOptions) -> Response {
    let (seq, bytes) = session.snapshot();
    let path = &options.snapshot_path;
    match durable_write(path, &bytes) {
        Ok(()) => {
            if let Some(telemetry) = session.telemetry() {
                let g = &telemetry.gauges;
                g.snapshot_seq.store(seq, Ordering::Relaxed);
                g.snapshot_bytes
                    .store(bytes.len() as u64, Ordering::Relaxed);
                g.snapshot_wall_us.store(wall_micros(), Ordering::Relaxed);
            }
            Response::SnapshotDone {
                seq,
                bytes: bytes.len() as u64,
            }
        }
        Err(e) => Response::Error {
            error: format!("cannot write snapshot {}: {e}", path.display()),
        },
    }
}

/// One connection: forward raw lines to the engine thread, write each
/// reply back. Lockstep per connection; ordering across connections is
/// whatever order lines reach the engine channel.
fn connection(stream: TcpStream, tx: mpsc::Sender<Cmd>) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let (reply_tx, reply_rx) = mpsc::channel();
        if tx
            .send(Cmd {
                line,
                reply: reply_tx,
            })
            .is_err()
        {
            break;
        }
        let Ok(response) = reply_rx.recv() else { break };
        if writer
            .write_all(response.as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }
}
