//! Structured tracing, metrics, and self-profiling for the GAIA stack.
//!
//! The paper's analysis sections (§6–§7) explain *why* policies win by
//! reasoning about per-job decisions — waiting-time breakdowns, spot
//! evictions, slot choices — which the engine computes and, before this
//! crate existed, threw away. `gaia-obs` is the observability substrate
//! that keeps them:
//!
//! * **Event tracing** ([`event`], [`sink`]) — typed lifecycle events
//!   ([`Event`]) emitted by the simulation engine and the sweep
//!   pipeline into a statically dispatched [`Sink`]. The [`NullSink`]
//!   sets [`Sink::ACTIVE`]` = false`, so every instrumentation site
//!   (guarded by `if S::ACTIVE`) is removed at compile time: disabled
//!   tracing costs nothing. [`JsonlSink`] serializes one JSON object
//!   per line; [`CountingSink`] and [`VecSink`] support tests and
//!   overhead benches.
//! * **Flight recorder** ([`flight`]) — a fixed-capacity ring
//!   ([`FlightRecorder`]) retaining the last N events with wall-clock
//!   capture stamps, fed by wrapping any sink in a [`FlightSink`]
//!   (writer-local buffering, one amortized clock read and one ring
//!   push per request). The serving daemon dumps it to JSONL on
//!   demand, on SIGTERM, and from a panic hook — a post-mortem trace
//!   without paying for full tracing.
//! * **Metrics** ([`metrics`]) — a registry of named monotonic counters
//!   and log2-bucketed, mergeable, quantile-queryable histograms
//!   ([`Histogram`]). Sums are accumulated in fixed-point so totals
//!   are independent of observation order, which makes the
//!   [`MetricsRegistry::snapshot_json`] output byte-identical for any
//!   sweep worker count.
//! * **Self-profiling** ([`profile`]) — scoped [`TimerGuard`] phase
//!   timers aggregated into a per-run phase table. Profiling measures
//!   wall-clock time and is the *only* non-deterministic part of this
//!   crate; its output never feeds the deterministic artifacts.
//! * **Leveled logging** ([`mod@log`]) — an `obs::log!` macro family
//!   honoring the `GAIA_LOG={error,warn,info,debug}` environment
//!   variable, replacing ad-hoc `eprintln!` diagnostics.
//! * **Trace analysis** ([`trace_summary`], [`json`]) — parses a JSONL
//!   event stream back into typed events and reconstructs per-job
//!   wait/eviction statistics (the `gaia trace summarize` subcommand).
//! * **Output writers** ([`text`], [`json`]) — the block-buffered
//!   [`text::RowWriter`] behind every simulator CSV, integer and
//!   `{:.N}` float formatting byte-identical to std's, and the one JSON
//!   field writer shared by events, the serving protocol and the sweep
//!   store.
//!
//! # Determinism contract
//!
//! Every event payload is a pure function of simulation state: sim
//! timestamps are integer minutes on the simulated clock, never wall
//! time. A traced run therefore produces a byte-identical `events.jsonl`
//! on every execution, and sweep per-cell streams are byte-identical for
//! any worker count. The two explicit exceptions, which never enter
//! per-cell streams, are the profiling phase table and the sweep-level
//! `CellStarted`/`CellFinished` wall-clock fields.
//!
//! # Example
//!
//! ```
//! use gaia_obs::{Event, PoolKind, VecSink, Sink};
//!
//! let mut sink = VecSink::new();
//! sink.emit(&Event::JobSubmitted { t: 0, job: 7, cpus: 2, len: 120 });
//! sink.emit(&Event::SegmentStarted { t: 30, job: 7, seg: 0, pool: PoolKind::Spot });
//! let line = sink.events()[0].to_json_line();
//! assert_eq!(Event::from_json_line(&line).unwrap(), sink.events()[0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod log;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod text;
pub mod trace_summary;

pub use event::{CacheKind, Event, PlanMode, PoolKind};
pub use flight::{FlightFrame, FlightRecorder, FlightSink};
pub use metrics::{Counter, Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use profile::{Profiler, TimerGuard};
pub use sink::{CountingSink, EmitSink, JsonlSink, NullSink, SharedSink, Sink, VecSink};
pub use trace_summary::{SummaryStream, TraceSummary};
