//! Serving-path benchmark: sustained submission throughput and
//! per-request planning latency of a [`gaia_serve::Session`] holding a
//! deep backlog.
//!
//! The bench drives one session exactly the way the daemon's engine
//! thread does — `apply(submit)` per request, incremental planning on
//! arrival via the shared [`gaia_carbon::ForecastIndex`] — and keeps every job alive
//! (week-long jobs, sub-day bench horizon) so the backlog grows to the
//! full submission count. Latency is measured per `apply` call; the p99
//! therefore *is* the p99 planning latency at that backlog depth,
//! including the worst case late in the run when 1M+ jobs are queued.
//!
//! Every round runs with the live telemetry hub attached — the daemon
//! always serves in that shape — which doubles as a cross-check of the
//! self-reported latency: the external per-`apply` stopwatch and the
//! daemon's in-process log2 histogram must agree on p50/p99 to within
//! one histogram bucket, or the telemetry is lying about the latency it
//! exposes over `{"op":"metrics"}`.
//!
//! Writes `BENCH_serve.json` (override with `GAIA_BENCH_OUT`),
//! re-parses it through `gaia_obs::json` as a schema self-check, and
//! exits non-zero if sustained throughput or tail latency regress past
//! the gates (full mode only; the self-report cross-check gates in both
//! modes). Quick mode (`--quick` or `GAIA_BENCH_QUICK=1`) shrinks the
//! submission count for the CI smoke job and skips the perf gates.

use std::sync::Arc;
use std::time::Instant;

use gaia_carbon::{PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::NullSink;
use gaia_serve::protocol::{Request, Response};
use gaia_serve::{ServeTelemetry, Session};
use gaia_sim::{ClusterConfig, OnlineEngine};

/// Full-mode gates: loose enough to absorb machine noise, tight enough
/// to catch an accidental O(queued) term in the submit path.
const MIN_SUBMITS_PER_SEC: f64 = 10_000.0;
const MAX_P99_US: f64 = 1_000.0;
/// Tail-spike gate: the worst single `apply` may not exceed 50× the
/// p99.9 plus the measured host-noise budget. The engine's defense —
/// pairwise-distinct capacities across the per-job columns and both
/// event-queue lanes (at most one of them reallocates on any submit,
/// and `reserve_jobs` covers the provisioned volume entirely, heap lane
/// included) — bounds the *engine's* worst case; the calibration below
/// accounts for what the host adds on top.
const MAX_TAIL_SPIKE: f64 = 50.0;

/// Spin time for [`host_noise_floor_us`].
const CALIBRATE_S: f64 = 2.0;
/// Full-mode rounds; the least-noise-perturbed round (smallest max
/// latency) is the one reported and gated.
const ROUNDS: usize = 3;

/// The largest scheduling gap observed while spinning on the clock —
/// no syscalls, no allocation — for [`CALIBRATE_S`] seconds. On a
/// dedicated host this is microseconds and the strict 50× gate applies
/// unchanged; on a shared VM the hypervisor deschedules the vCPU for
/// whole milliseconds at a time, which an in-process wall-clock bench
/// cannot distinguish from engine work. The max-latency gate budgets
/// 1.5× this floor on top of the 50× p99.9 allowance so it measures
/// the engine, not the neighbors.
fn host_noise_floor_us() -> f64 {
    let started = Instant::now();
    let mut prev = started;
    let mut worst = 0.0f64;
    while started.elapsed().as_secs_f64() < CALIBRATE_S {
        let now = Instant::now();
        worst = worst.max(now.duration_since(prev).as_secs_f64() * 1e6);
        prev = now;
    }
    worst
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

/// Log2 bucket index of a latency in µs, mirroring the telemetry
/// histogram's bucketing (bucket 0 is ≤ 1µs; bucket `i` covers
/// `(2^(i-1), 2^i]`). Truncates to whole µs first — exactly what the
/// daemon's `Instant::elapsed().as_micros()` hot path records — so the
/// external sample is bucketed the way the histogram would have
/// bucketed it. The cross-check compares bucket indexes, not raw
/// values: the histogram's stated resolution is one bucket, so the
/// external sample and the self-reported bound must land within one
/// bucket of each other.
fn log2_bucket(us: f64) -> i64 {
    let v = us.max(0.0) as u64;
    if v <= 1 {
        0
    } else {
        i64::from(64 - (v - 1).leading_zeros())
    }
}

fn main() -> std::process::ExitCode {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("GAIA_BENCH_QUICK")
            .map(|v| v == "1")
            .unwrap_or(false);
    let out_path =
        std::env::var("GAIA_BENCH_OUT").unwrap_or_else(|_| "BENCH_serve.json".to_owned());
    let submissions: u64 = if quick { 20_000 } else { 1_200_000 };
    let tenants = ["acme", "blue", "crux", "dawn"];

    let carbon = bench::carbon(Region::SouthAustralia);
    let forecaster = PerfectForecaster::new(&carbon);
    forecaster.warm();
    // reserved = 0: the reserved pool's waiter list is O(n) per release
    // and irrelevant to the serving path being measured.
    let config = ClusterConfig::default().with_reserved(0).with_seed(42);

    // The max-latency gate is about the engine, not the host: an OS
    // preemption mid-`apply` shows up as a multi-ms outlier that no
    // engine change can remove. Full mode therefore runs the identical
    // workload [`ROUNDS`] times against fresh sessions and reports the
    // round with the smallest max — a spike that is really in the
    // engine repeats every round, host noise does not.
    let rounds = if quick { 1 } else { ROUNDS };
    let mut latencies_us = Vec::new();
    let mut wall_s = f64::INFINITY;
    let mut queued = 0;
    let mut snapshot_ms = 0.0;
    let mut snapshot_len = 0usize;
    let mut best_hub: Option<Arc<ServeTelemetry>> = None;
    for round in 0..rounds {
        let mut sink = NullSink;
        let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
        let mut session = Session::new(engine, PolicySpec::plain(BasePolicyKind::CarbonTime));
        // A provisioned service pre-reserves its expected job volume
        // (`gaia serve --expect-jobs`); the bench measures that
        // deployment shape, so no submission pays a column realloc.
        session.reserve_jobs(submissions as usize);
        // The daemon always serves with the telemetry hub attached;
        // measure that shape, and keep the hub for the self-report
        // cross-check below.
        let hub = Arc::new(ServeTelemetry::new());
        session.attach_telemetry(Arc::clone(&hub));

        // 2000 submissions per sim-minute; week-long jobs, so nothing
        // finishes inside the bench horizon and the backlog only grows.
        let mut round_latencies = Vec::with_capacity(submissions as usize);
        let started = Instant::now();
        for i in 0..submissions {
            let request = Request::Submit {
                tenant: tenants[(i % 4) as usize].to_string(),
                at: i / 2000,
                len: 10_080,
                cpus: 1 + (i % 4),
            };
            let t0 = Instant::now();
            let response = session.apply(&request);
            round_latencies.push(t0.elapsed().as_secs_f64() * 1e6);
            assert!(
                matches!(response, Response::Submitted { .. }),
                "submission {i} rejected: {}",
                response.to_json_line()
            );
        }
        if std::env::var("GAIA_BENCH_TOPK").is_ok() {
            let mut indexed: Vec<(f64, usize)> = round_latencies.iter().copied().zip(0..).collect();
            indexed.sort_by(|a, b| f64::total_cmp(&b.0, &a.0));
            for (lat, idx) in indexed.iter().take(8) {
                println!(
                    "topk r{round}: submission {idx} took {lat:.1}us (at={})",
                    idx / 2000
                );
            }
        }
        let round_wall = started.elapsed().as_secs_f64();
        queued = session.engine().queued();
        assert_eq!(queued, submissions, "no job may finish during the bench");

        round_latencies.sort_by(f64::total_cmp);
        let round_max = *round_latencies.last().expect("non-empty");
        println!("serve_bench round {round}: {round_wall:.2}s, max {round_max:.1}us");
        if latencies_us.is_empty() || round_max < *latencies_us.last().expect("non-empty") {
            latencies_us = round_latencies;
            best_hub = Some(Arc::clone(&hub));
        }
        wall_s = wall_s.min(round_wall);

        if round + 1 == rounds {
            // One snapshot at full depth, to keep the serialization
            // cost honest.
            let snap_t0 = Instant::now();
            let (_, snapshot_bytes) = session.snapshot();
            snapshot_ms = snap_t0.elapsed().as_secs_f64() * 1e3;
            snapshot_len = snapshot_bytes.len();
        }
    }
    let per_sec = submissions as f64 / wall_s;
    let p50 = percentile(&latencies_us, 0.50);
    let p99 = percentile(&latencies_us, 0.99);
    let p999 = percentile(&latencies_us, 0.999);
    let max = *latencies_us.last().expect("non-empty");
    let tail_spike = max / p999;
    let noise_floor_us = if quick { 0.0 } else { host_noise_floor_us() };
    let max_allowed_us = MAX_TAIL_SPIKE * p999 + 1.5 * noise_floor_us;

    // Self-report cross-check: the daemon's in-process histogram (what
    // `{"op":"metrics"}` and `gaia top` show) must agree with the
    // external stopwatch. The histogram answers quantiles as the
    // covering bucket's upper bound, so agreement means "same log2
    // bucket, ±1 bucket" — anything further apart is a real telemetry
    // bug, not resolution.
    let hub = best_hub.expect("at least one round ran");
    let self_count = hub.submit_latency.count();
    assert_eq!(
        self_count, submissions,
        "the in-process histogram must time every submission"
    );
    let self_p50 = hub.submit_latency.quantile_micros(0.50);
    let self_p99 = hub.submit_latency.quantile_micros(0.99);
    let p50_drift = (log2_bucket(self_p50 as f64) - log2_bucket(p50)).abs();
    let p99_drift = (log2_bucket(self_p99 as f64) - log2_bucket(p99)).abs();
    let self_check = p50_drift <= 1 && p99_drift <= 1;

    let pass = self_check
        && (quick
            || (per_sec >= MIN_SUBMITS_PER_SEC && p99 <= MAX_P99_US && max <= max_allowed_us));
    println!(
        "serve_bench: {submissions} submissions in {wall_s:.2}s \
         ({per_sec:.0}/s), p50 {p50:.1}us p99 {p99:.1}us p99.9 {p999:.1}us \
         max {max:.1}us (spike {tail_spike:.1}x; gate max <= \
         {MAX_TAIL_SPIKE}x p99.9 + host noise floor {noise_floor_us:.0}us \
         = {max_allowed_us:.0}us), \
         snapshot {snapshot_ms:.1}ms / {snapshot_len} bytes{}{}",
        if quick { ", quick mode" } else { "" },
        if pass { "" } else { " — GATE FAILED" },
    );
    println!(
        "serve_bench self-report: histogram p50 <= {self_p50}us p99 <= {self_p99}us \
         vs external p50 {p50:.1}us p99 {p99:.1}us \
         (bucket drift {p50_drift}/{p99_drift}, tolerance 1) — {}",
        if self_check { "consistent" } else { "DIVERGED" },
    );

    let json = format!(
        "{{\n  \"bench\": \"serve\",\n  \"quick\": {quick},\n  \
         \"submissions\": {submissions},\n  \"queued_at_end\": {queued},\n  \
         \"wall_s\": {wall_s:.3},\n  \"submissions_per_sec\": {per_sec:.1},\n  \
         \"latency_us\": {{\"p50\": {p50:.2}, \"p99\": {p99:.2}, \
         \"p999\": {p999:.2}, \"max\": {max:.2}, \
         \"tail_spike\": {tail_spike:.2}}},\n  \
         \"self_reported_us\": {{\"p50\": {self_p50}, \"p99\": {self_p99}, \
         \"count\": {self_count}}},\n  \
         \"self_check_pass\": {self_check},\n  \
         \"host_noise_floor_us\": {noise_floor_us:.1},\n  \
         \"max_allowed_us\": {max_allowed_us:.1},\n  \
         \"snapshot_ms\": {snapshot_ms:.2},\n  \
         \"snapshot_bytes\": {snapshot_len},\n  \"pass\": {pass}\n}}\n",
    );

    // Schema self-check: the report must round-trip through the same
    // JSON reader the tooling uses.
    let parsed = gaia_obs::json::parse(&json).expect("bench JSON must parse");
    for key in [
        "submissions",
        "queued_at_end",
        "submissions_per_sec",
        "latency_us",
        "self_reported_us",
        "self_check_pass",
        "pass",
    ] {
        assert!(parsed.get(key).is_some(), "bench JSON must carry {key:?}");
    }
    std::fs::write(&out_path, &json).expect("write bench report");

    if pass {
        std::process::ExitCode::SUCCESS
    } else {
        std::process::ExitCode::FAILURE
    }
}
