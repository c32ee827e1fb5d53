//! `serve_submit` and `serve_mixed`: a real `gaia serve` daemon
//! (Carbon-Time, reserved pool) driven over its socket by one client
//! connection, in two phases:
//!
//! * lockstep — each request written in one write with `TCP_NODELAY`,
//!   the next sent only after the previous response arrived;
//! * open loop — requests due at one fixed rate, pipelined, each timed
//!   from when it was due, with the generator's lateness reported.
//!
//! `serve_mixed` interleaves `query`, `cancel` and per-tenant `stats`
//! with the submits and runs the daemon with `--snapshot-every`.
//! Every response is checked byte for byte against an in-process
//! `Session` replay of the same requests; the traced run times that
//! replay's parse, apply and encode calls per request.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{CarbonTrace, PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::NullSink;
use gaia_serve::{Request, Response, Session};
use gaia_sim::{ClusterConfig, OnlineEngine};
use gaia_workload::synth::TraceFamily;
use gaia_workload::WorkloadTrace;

use crate::span::Tracer;
use crate::stats::{self, median, Sampled, Schedule};
use crate::{host, write_spans, Args, Outcome, RECONCILE_TOLERANCE};

/// The request mix a workload sends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    SubmitOnly,
    /// Submits with `query`, `cancel` and per-tenant `stats` beside
    /// them, and a periodic snapshot.
    Mixed,
}

const TENANTS: [&str; 4] = ["acme", "globex", "initech", "umbrella"];
/// Open-loop send rate, requests per second: the serving rate the
/// repository contracts for (`serve_bench` gates at least 10k
/// requests/s).
const RATE: f64 = 10_000.0;
/// Open-loop requests per latency window. Percentiles are taken per
/// window and their median reported, so one scheduling hiccup of a
/// shared host moves one window, not the result.
const WINDOW: usize = 1000;
/// Lockstep requests per second of `--seconds` (the phase gets about
/// half of the run at the daemon's present round-trip time).
const LOCKSTEP_PER_S: f64 = 10.0;
/// Fewest open-loop requests: three windows.
const MIN_OPEN_LOOP: usize = 3 * WINDOW;
/// Daemon start-ups timed for `setup_s`, half before the load (the last
/// of them serves it) and half after, so the median spans the run
/// rather than one moment of a shared host.
const SPAWNS: usize = 32;
/// `--snapshot-every` on `serve_mixed`.
const SNAPSHOT_EVERY: u64 = 2500;
/// Longest wait for the daemon to start, or for responses to arrive.
const PATIENCE: Duration = Duration::from_secs(30);
/// How often the open-loop client polls for responses.
const POLL: Duration = Duration::from_micros(50);

/// A tiny deterministic generator (SplitMix64) for the request mix.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The requests of one run and the daemon settings they assume.
struct Load {
    lines: Vec<String>,
    lockstep: usize,
    reserved: u32,
}

/// Request kinds of one block of ten `Mixed` requests: seven submits
/// and one each of query, cancel and stats.
const MIXED_BLOCK: [Op; 10] = [
    Op::Submit,
    Op::Submit,
    Op::Submit,
    Op::Submit,
    Op::Submit,
    Op::Submit,
    Op::Submit,
    Op::Query,
    Op::Cancel,
    Op::Stats,
];

#[derive(Debug, Clone, Copy)]
enum Op {
    Submit,
    Query,
    Cancel,
    Stats,
}

/// Arrival-ordered jobs of the seed's Alibaba trace as submits from a
/// few tenants; `Mixed` puts reads and cancels of earlier jobs beside
/// them, in seeded order within each block of ten requests, so a load
/// of a given length submits the same number of jobs (and the daemon
/// snapshots at the same points) whatever the seed. Every request is
/// valid, so none should fail.
fn load(seed: u64, mix: Mix, lockstep: usize, open_loop: usize) -> Load {
    let total = lockstep + open_loop;
    let trace = TraceFamily::AlibabaPai.year_long(total, seed);
    let jobs = trace.jobs();
    let demand = WorkloadTrace::from_jobs(jobs.to_vec()).mean_demand();
    let mut rng = Rng(seed);
    let mut owner: Vec<usize> = Vec::new();
    let mut lines = Vec::with_capacity(total);
    let mut block = Vec::new();
    while lines.len() < total {
        let submitted = owner.len() as u64;
        let op = match mix {
            Mix::SubmitOnly => Op::Submit,
            Mix::Mixed => {
                if block.is_empty() {
                    // Fisher-Yates, seeded.
                    block = MIXED_BLOCK.to_vec();
                    for i in (1..block.len()).rev() {
                        block.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                }
                block.pop().expect("a refilled block")
            }
        };
        let request = match (submitted == 0, op) {
            (false, Op::Query) => Request::Query {
                job: rng.below(submitted),
            },
            (false, Op::Cancel) => Request::Cancel {
                job: rng.below(submitted),
            },
            (false, Op::Stats) => Request::Stats {
                tenant: Some(TENANTS[owner[rng.below(submitted) as usize]].to_owned()),
            },
            _ => {
                let job = jobs[owner.len()];
                let tenant = rng.below(TENANTS.len() as u64) as usize;
                owner.push(tenant);
                Request::Submit {
                    tenant: TENANTS[tenant].to_owned(),
                    at: job.arrival.as_minutes(),
                    len: job.length.as_minutes(),
                    cpus: u64::from(job.cpus),
                }
            }
        };
        lines.push(request.to_json_line());
    }
    Load {
        lines,
        lockstep,
        reserved: (demand.round() as u32).max(1),
    }
}

/// A spawned daemon, killed and reaped if dropped while still running.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Starts `gaia serve` and waits until it is listening.
    fn spawn(args: &Args, load: &Load, mix: Mix) -> Result<(Daemon, Duration), String> {
        let addr_file = args.work.join(format!("serve-{}.addr", std::process::id()));
        let _ = std::fs::remove_file(&addr_file);
        let mut command = Command::new(&args.gaia);
        command
            .arg("serve")
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--policy", "carbon-time"])
            .args(["--reserved", &load.reserved.to_string()])
            .args(["--seed", &args.seed.to_string()])
            .arg("--snapshot-path")
            .arg(args.work.join("serve.snap"))
            .arg("--flight-dump")
            .arg(args.work.join("serve-flight.jsonl"))
            .env("GAIA_LOG", "warn")
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if mix == Mix::Mixed {
            command.args(["--snapshot-every", &SNAPSHOT_EVERY.to_string()]);
        }
        let started = Instant::now();
        let child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", args.gaia.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    daemon.addr = addr.to_owned();
                    return Ok((daemon, started.elapsed()));
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("gaia serve exited before listening: {status}"));
            }
            if started.elapsed() > PATIENCE {
                return Err("gaia serve did not start listening".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the daemon to stop, closes the connection, and reaps it.
    fn shutdown(mut self, conn: Option<Conn>) -> Result<(), String> {
        let mut conn = match conn {
            Some(conn) => conn,
            None => Conn::open(&self.addr)?,
        };
        conn.send("{\"op\":\"shutdown\"}")
            .map_err(|e| format!("cannot send shutdown: {e}"))?;
        conn.line()
            .map_err(|e| format!("no shutdown response: {e}"))?;
        // The daemon joins its connection threads before exiting.
        drop(conn);
        let deadline = Instant::now() + PATIENCE;
        while self.child.try_wait().map_err(|e| e.to_string())?.is_none() {
            if Instant::now() > deadline {
                return Err("gaia serve did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

/// One client connection reading newline-delimited responses.
struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("cannot connect: {e}"))?;
        stream
            .set_nodelay(true)
            .and_then(|()| stream.set_read_timeout(Some(PATIENCE)))
            .map_err(|e| format!("cannot configure the connection: {e}"))?;
        Ok(Conn {
            stream,
            buf: Vec::new(),
        })
    }

    /// Sends one request line in one write (retried only if the socket
    /// is non-blocking and its buffer is full).
    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let mut sent = 0;
        while sent < bytes.len() {
            match self.stream.write(&bytes[sent..]) {
                Ok(n) => sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads what the socket holds; 0 when a non-blocking read finds
    /// nothing.
    fn fill(&mut self) -> io::Result<usize> {
        let mut chunk = [0u8; 64 * 1024];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(n)
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(0),
            Err(e) => Err(e),
        }
    }

    /// The next complete line already received.
    fn take_line(&mut self) -> Option<io::Result<String>> {
        let end = self.buf.iter().position(|&b| b == b'\n')?;
        let line: Vec<u8> = self.buf.drain(..=end).take(end).collect();
        Some(String::from_utf8(line).map_err(|e| io::Error::new(ErrorKind::InvalidData, e)))
    }

    /// Blocks until the next response line (or [`PATIENCE`] runs out).
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.take_line() {
                return line;
            }
            self.fill()?;
        }
    }
}

/// What the client saw over the socket.
struct Wire {
    responses: Vec<String>,
    /// Lockstep round trips, seconds.
    lockstep_rtt: Vec<f64>,
    lockstep_s: f64,
    /// Open-loop latency from due time, and generator lateness, seconds.
    latency: Vec<f64>,
    late: Vec<f64>,
    daemon_rss_mb: f64,
}

fn drive(daemon: Daemon, load: &Load) -> Result<Wire, String> {
    let mut conn = Conn::open(&daemon.addr)?;
    let io_err = |e: io::Error| format!("socket error: {e}");
    let (lockstep, open) = load.lines.split_at(load.lockstep);
    let mut responses = Vec::with_capacity(load.lines.len());
    let mut lockstep_rtt = Vec::with_capacity(lockstep.len());
    let phase = Instant::now();
    for line in lockstep {
        let sent = Instant::now();
        conn.send(line).map_err(io_err)?;
        responses.push(conn.line().map_err(io_err)?);
        lockstep_rtt.push(sent.elapsed().as_secs_f64());
    }
    let lockstep_s = phase.elapsed().as_secs_f64();

    let schedule = Schedule {
        start: Instant::now() + Duration::from_millis(5),
        period: Duration::from_secs_f64(1.0 / RATE),
    };
    let deadline = schedule.due(open.len()) + PATIENCE;
    let (mut next, mut got) = (0, 0);
    let mut latency = Vec::with_capacity(open.len());
    let mut late = Vec::with_capacity(open.len());
    // One thread both sends and receives: non-blocking reads polled at
    // a short interval, so a send is never stuck behind a read and a
    // response is timestamped within one interval of its arrival.
    conn.stream.set_nonblocking(true).map_err(io_err)?;
    while got < open.len() {
        let now = Instant::now();
        if now > deadline {
            break;
        }
        if next < open.len() && now >= schedule.due(next) {
            conn.send(&open[next]).map_err(io_err)?;
            late.push(now.duration_since(schedule.due(next)).as_secs_f64());
            next += 1;
            continue;
        }
        if conn.fill().map_err(io_err)? > 0 {
            let arrived = Instant::now();
            while let Some(response) = conn.take_line() {
                latency.push(schedule.latency(got, arrived).as_secs_f64());
                responses.push(response.map_err(io_err)?);
                got += 1;
            }
            continue;
        }
        let until = if next < open.len() {
            schedule.due(next)
        } else {
            deadline
        };
        std::thread::sleep(until.saturating_duration_since(now).min(POLL));
    }
    conn.stream.set_nonblocking(false).map_err(io_err)?;
    let daemon_rss_mb = host::peak_rss_mb(&daemon.child.id().to_string())?;
    daemon.shutdown(Some(conn))?;
    Ok(Wire {
        responses,
        lockstep_rtt,
        lockstep_s,
        latency,
        late,
        daemon_rss_mb,
    })
}

/// In-process replays timed against each other for the reconciliation.
const REPLAY_PAIRS: usize = 7;

/// Span names of the timed calls of a replay, indexing [`Timings::calls`].
const CALLS: [&str; 9] = [
    "serve.parse",
    "serve.apply.submit",
    "serve.apply.query",
    "serve.apply.cancel",
    "serve.apply.stats",
    "serve.apply.other",
    "serve.encode",
    "serve.snapshot_encode",
    "serve.persist",
];
const PARSE: usize = 0;
const ENCODE: usize = 6;
const SNAPSHOT_ENCODE: usize = 7;
const PERSIST: usize = 8;

/// The timed calls of an in-process replay by [`CALLS`] index.
#[derive(Default)]
struct Timings {
    calls: [Sampled; CALLS.len()],
    /// Parse + apply + encode over the lockstep requests.
    lockstep: Sampled,
    snapshot_bytes: u64,
}

/// The [`CALLS`] index of `Session::apply` for one request verb.
fn apply_call(op: &str) -> usize {
    match op {
        "submit" => 1,
        "query" => 2,
        "cancel" => 3,
        "stats" => 4,
        _ => 5,
    }
}

/// Requests a replay pair runs on one side before switching to the
/// other: a few milliseconds of work, short enough that both sides of a
/// chunk see the same moment of a shared host.
const CHUNK: usize = 2000;

/// The inputs a replay's session borrows, built as the daemon builds
/// them.
struct World {
    carbon: CarbonTrace,
    config: ClusterConfig,
}

impl World {
    fn new(args: &Args, load: &Load) -> World {
        World {
            carbon: synthesize_region(Region::SouthAustralia, args.seed),
            config: ClusterConfig::default()
                .with_reserved(load.reserved)
                .with_seed(args.seed),
        }
    }
}

/// An in-process `Session` configured as the daemon is, fed the load a
/// range of requests at a time. Snapshots are taken and persisted to
/// `snap` at the daemon's cadence.
///
/// Every parse, apply and encode is timed. Each is a few microseconds,
/// and a clock read costs about 0.05 us on a virtualised host, so an
/// untimed replay reads the same clocks and only leaves out recording
/// them: a timed and an untimed replay then differ by what the
/// recording and the calls' attribution add, which is what the
/// reconciliation checks. Requests are not sampled as batch decisions
/// are: a sampled request, with the clock reads beside it, runs 20-50%
/// slower than the replay's mean request.
struct Replayer<'e> {
    session: Session<'e, NullSink>,
    every: Option<u64>,
    timed: bool,
    snap: PathBuf,
    responses: Vec<String>,
    /// Call times, when the replay is timed.
    timings: Timings,
    /// Request-loop time so far, less `persist_snapshot`'s.
    busy: Duration,
}

/// What one range of requests took on one side of a replay pair.
struct Chunk {
    /// Wall time less `persist_snapshot`'s.
    wall: Duration,
    /// The recorded calls' time less `persist_snapshot`'s (zero when
    /// untimed).
    calls: Duration,
}

impl<'e> Replayer<'e> {
    fn new(
        world: &'e World,
        forecaster: &'e PerfectForecaster<'e>,
        sink: &'e mut NullSink,
        mix: Mix,
        timed: bool,
        snap: PathBuf,
    ) -> Replayer<'e> {
        let engine = OnlineEngine::new(&world.config, &world.carbon, forecaster, sink);
        Replayer {
            session: Session::new(engine, PolicySpec::plain(BasePolicyKind::CarbonTime)),
            every: (mix == Mix::Mixed).then_some(SNAPSHOT_EVERY),
            timed,
            snap,
            responses: Vec::new(),
            timings: Timings::default(),
            busy: Duration::ZERO,
        }
    }

    /// Applies requests `range` of the load.
    fn run(&mut self, load: &Load, range: Range<usize>) -> Result<Chunk, String> {
        let t = &mut self.timings;
        let (mut calls, mut persist) = (Duration::ZERO, Duration::ZERO);
        let started = Instant::now();
        for i in range {
            let line = &load.lines[i];
            let clock = Instant::now();
            let request = Request::from_json_line(line).map_err(|e| format!("{line}: {e}"))?;
            let parsed = Instant::now();
            let response = self.session.apply(&request);
            let applied = Instant::now();
            self.responses.push(response.to_json_line());
            let encoded = Instant::now();
            if self.timed {
                t.calls[PARSE].add(Some(parsed - clock));
                t.calls[apply_call(request.op_name())].add(Some(applied - parsed));
                t.calls[ENCODE].add(Some(encoded - applied));
                calls += encoded - clock;
                if i < load.lockstep {
                    t.lockstep.add(Some(encoded - clock));
                }
            }
            if let (Some(every), Response::Submitted { .. }) = (self.every, &response) {
                if self.session.engine().submitted().is_multiple_of(every) {
                    let clock = Instant::now();
                    let (_, bytes) = self.session.snapshot();
                    let encoded = Instant::now();
                    gaia_serve::persist_snapshot(&self.snap, &bytes)
                        .map_err(|e| format!("cannot persist {}: {e}", self.snap.display()))?;
                    let persisted = encoded.elapsed();
                    persist += persisted;
                    if self.timed {
                        t.calls[SNAPSHOT_ENCODE].add(Some(encoded - clock));
                        t.calls[PERSIST].add(Some(persisted));
                        t.snapshot_bytes = bytes.len() as u64;
                        calls += encoded - clock;
                    }
                }
            }
        }
        let wall = started.elapsed() - persist;
        self.busy += wall;
        Ok(Chunk { wall, calls })
    }
}

/// The responses of an untimed in-process replay of the whole load.
fn replay(args: &Args, load: &Load, mix: Mix, snap: &Path) -> Result<Vec<String>, String> {
    let world = World::new(args, load);
    let forecaster = PerfectForecaster::new(&world.carbon);
    forecaster.warm();
    let mut sink = NullSink;
    let mut replayer = Replayer::new(&world, &forecaster, &mut sink, mix, false, snap.into());
    replayer.run(load, 0..load.lines.len())?;
    Ok(replayer.responses)
}

/// A timed and an untimed replay of the whole load, run side by side a
/// [`CHUNK`] at a time, which side goes first alternating from chunk to
/// chunk so a host that speeds up or slows down favours neither.
struct Pair {
    timed: Timings,
    /// Each replay's request loop, less `persist_snapshot`, seconds.
    timed_s: f64,
    untimed_s: f64,
    /// Per chunk, the timed side's recorded calls and the untimed side's
    /// wall time, both less `persist_snapshot`, seconds.
    chunks: Vec<(f64, f64)>,
}

fn replay_pair(args: &Args, load: &Load, mix: Mix, snap: &Path) -> Result<Pair, String> {
    let world = World::new(args, load);
    let forecaster = PerfectForecaster::new(&world.carbon);
    forecaster.warm();
    let (mut timed_sink, mut untimed_sink) = (NullSink, NullSink);
    let mut timed = Replayer::new(
        &world,
        &forecaster,
        &mut timed_sink,
        mix,
        true,
        snap.with_extension("timed.snap"),
    );
    let mut untimed = Replayer::new(
        &world,
        &forecaster,
        &mut untimed_sink,
        mix,
        false,
        snap.into(),
    );
    let mut chunks = Vec::new();
    for (k, first) in (0..load.lines.len()).step_by(CHUNK).enumerate() {
        let range = first..(first + CHUNK).min(load.lines.len());
        let (t, u) = if k % 2 == 0 {
            let t = timed.run(load, range.clone())?;
            (t, untimed.run(load, range)?)
        } else {
            let u = untimed.run(load, range.clone())?;
            (timed.run(load, range)?, u)
        };
        chunks.push((t.calls.as_secs_f64(), u.wall.as_secs_f64()));
    }
    let _ = std::fs::remove_file(snap.with_extension("timed.snap"));
    Ok(Pair {
        timed_s: timed.busy.as_secs_f64(),
        untimed_s: untimed.busy.as_secs_f64(),
        timed: timed.timings,
        chunks,
    })
}

pub fn run(args: &Args, mix: Mix) -> Result<Outcome, String> {
    let open_loop = ((RATE * args.seconds / 2.0) as usize).max(MIN_OPEN_LOOP);
    let lockstep = ((LOCKSTEP_PER_S * args.seconds / 2.0) as usize).max(10);
    let load = load(args.seed, mix, lockstep, open_loop);

    // Set-up: daemon spawn until listening, several times.
    let mut spawns = Vec::new();
    let mut spawn = || -> Result<Daemon, String> {
        let (daemon, took) = Daemon::spawn(args, &load, mix)?;
        spawns.push(took.as_secs_f64());
        Ok(daemon)
    };
    for _ in 1..SPAWNS / 2 {
        spawn()?.shutdown(None)?;
    }
    let wire = drive(spawn()?, &load)?;
    for _ in 0..SPAWNS / 2 {
        spawn()?.shutdown(None)?;
    }

    let snap = args
        .work
        .join(format!("replay-{}.snap", std::process::id()));
    let mut outcome = Outcome::default();
    let expected = replay(args, &load, mix, &snap)?;
    outcome.tally = stats::compare_responses(&expected, &wire.responses);
    let errors = wire
        .responses
        .iter()
        .filter(|r| r.starts_with("{\"ok\":false"))
        .count() as u64;
    outcome.tally.failed += errors;
    if outcome.tally.failed > 0 {
        outcome.problem(format!(
            "{} of {} responses missing, differing from the in-process replay, or errors",
            outcome.tally.failed, outcome.tally.attempted
        ));
    }
    let rtt_s = median(&wire.lockstep_rtt);
    let windows = stats::windowed(&wire.latency, WINDOW);
    if windows.is_empty() {
        return Err("too few open-loop responses for one latency window".into());
    }
    let late = stats::p99(&wire.late).ok_or("too few open-loop sends for a p99")?;
    let p50s: Vec<f64> = windows.iter().map(|w| w.p50 * 1e3).collect();
    eprintln!(
        "open-loop p50 over {} windows (ms): min {:.3}, median {:.3}, max {:.3}; \
         generator p99 lateness {:.3} ms",
        p50s.len(),
        p50s.iter().copied().fold(f64::INFINITY, f64::min),
        median(&p50s),
        p50s.iter().copied().fold(0.0, f64::max),
        late * 1e3
    );

    if !args.trace {
        outcome.set("setup_s", median(&spawns));
        outcome.set("wall_s", rtt_s);
        outcome.set("peak_rss_mb", wire.daemon_rss_mb);
        outcome.set("p50_ms", median(&p50s));
        outcome.set(
            "lockstep_rps",
            wire.lockstep_rtt.len() as f64 / wire.lockstep_s,
        );
        let _ = std::fs::remove_file(&snap);
        return Ok(outcome);
    }

    // Timed and untimed replays run in pairs, side by side a chunk at a
    // time. Each timed replay's request loop is a root span, as long as
    // its chunks together, holding its calls. The fsync in
    // `persist_snapshot` varies from one call to the next by more than
    // the calls' timing costs, so the comparisons leave it out.
    let mut tracer = Tracer::new();
    let (mut plain, mut traced, mut chunks) = (Vec::new(), Vec::new(), Vec::new());
    let mut t = Timings::default();
    for _ in 0..REPLAY_PAIRS {
        let pair = replay_pair(args, &load, mix, &snap)?;
        plain.push(pair.untimed_s);
        traced.push(pair.timed_s);
        let started = Instant::now();
        let ended = started + Duration::from_secs_f64(pair.timed_s);
        let root = tracer.interval("serve.replay", None, started, ended);
        for (name, calls) in CALLS.iter().zip(&pair.timed.calls) {
            if calls.calls > 0 {
                tracer.aggregate(name, root, calls.total(), calls.calls);
            }
        }
        chunks.extend(pair.chunks);
        t = pair.timed;
    }
    let _ = std::fs::remove_file(&snap);
    let synth = tracer.enter("carbon.synth");
    let carbon = synthesize_region(Region::SouthAustralia, args.seed);
    tracer.exit(synth);
    let warm = tracer.enter("carbon.forecast_warm");
    PerfectForecaster::new(&carbon).warm();
    tracer.exit(warm);
    write_spans(&tracer, args)?;

    let by_name = tracer.self_by_name();
    let mean = |name: &str| by_name.get(name).map_or(0.0, |&(own, n)| own / n as f64);
    // The lockstep phase's in-process cost per request; the rest of
    // its round trip is the wire: socket, threads and channel hops.
    let in_process = t.lockstep.total().as_secs_f64() / wire.lockstep_rtt.len() as f64;
    let wire_us = (rtt_s - in_process) * 1e6;
    if wire_us < 0.0 {
        outcome.problem("in-process request cost exceeds the socket round trip");
    }
    outcome.set("carbon.synth_s", tracer.duration(synth));
    outcome.set("carbon.forecast_warm_s", tracer.duration(warm));
    outcome.set("serve.parse_us", mean("serve.parse") * 1e6);
    for (metric, span) in [
        ("serve.apply_us.submit", "serve.apply.submit"),
        ("serve.apply_us.query", "serve.apply.query"),
        ("serve.apply_us.cancel", "serve.apply.cancel"),
        ("serve.apply_us.stats", "serve.apply.stats"),
    ] {
        outcome.set(metric, mean(span) * 1e6);
    }
    outcome.set("serve.encode_us", mean("serve.encode") * 1e6);
    outcome.set("serve.wire_us", wire_us);
    outcome.set(
        "serve.p99_ms",
        median(&windows.iter().map(|w| w.p99).collect::<Vec<_>>()) * 1e3,
    );
    outcome.set(
        "serve.snapshot_encode_ms",
        mean("serve.snapshot_encode") * 1e3,
    );
    outcome.set("serve.snapshot_bytes", t.snapshot_bytes as f64);
    outcome.set("serve.persist_ms", mean("serve.persist") * 1e3);
    outcome.set("serve.gen_late_ms", late * 1e3);
    outcome.set("trace.overhead_s", median(&traced) - median(&plain));
    // The wire is the round trip less the in-process layers, so the
    // layers reconcile with `wall_s` by construction. What can fail is
    // the in-process part: per chunk, a timed replay's calls must add up
    // to the untimed replay's wall for the same requests.
    let ratios: Vec<f64> = chunks.iter().map(|(calls, wall)| calls / wall).collect();
    eprintln!(
        "replay chunks, timed calls / untimed wall: quartiles {:?}",
        [0.25, 0.5, 0.75].map(|q| {
            let mut sorted = ratios.clone();
            sorted.sort_by(f64::total_cmp);
            stats::percentile(&sorted, q)
        })
    );
    let unattributed = stats::unattributed(&chunks);
    outcome.set("trace.unattributed_frac", unattributed);
    if unattributed.abs() > RECONCILE_TOLERANCE {
        outcome.problem(format!(
            "replay call times leave {:.1}% of the untimed replay unexplained",
            unattributed * 100.0
        ));
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_is_seeded_valid_and_ordered() {
        let a = load(7, Mix::Mixed, 10, 200);
        let b = load(7, Mix::Mixed, 10, 200);
        assert_eq!(a.lines, b.lines);
        assert_ne!(a.lines, load(8, Mix::Mixed, 10, 200).lines);
        let mut last_at = 0;
        let mut ops = std::collections::BTreeSet::new();
        for line in &a.lines {
            let request = Request::from_json_line(line).unwrap();
            ops.insert(request.op_name());
            if let Request::Submit { at, .. } = request {
                assert!(at >= last_at, "submits arrive in order");
                last_at = at;
            }
        }
        assert_eq!(
            ops.into_iter().collect::<Vec<_>>(),
            ["cancel", "query", "stats", "submit"]
        );
        // Seven submits in every block of ten, after the first (whose
        // reads, if drawn before any submit, become submits).
        let submits = |lines: &[String]| lines.iter().filter(|l| l.contains("\"submit\"")).count();
        assert_eq!(submits(&a.lines[10..]), 140);
        assert_eq!(submits(&load(8, Mix::Mixed, 10, 200).lines[10..]), 140);
        let submit_only = load(7, Mix::SubmitOnly, 10, 200);
        assert!(submit_only.lines.iter().all(|l| l.contains("\"submit\"")));
    }
}
