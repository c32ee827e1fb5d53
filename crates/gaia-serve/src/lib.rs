//! An online, snapshot-restorable scheduling service over the GAIA
//! event engine.
//!
//! `gaia-sim`'s [`OnlineEngine`](gaia_sim::OnlineEngine) accepts job
//! submissions at arbitrary sim-times and plans them incrementally;
//! this crate turns it into a *service*:
//!
//! * [`protocol`] — the newline-delimited JSON wire format (submit /
//!   query / cancel / stats / drain / snapshot / shutdown), with
//!   byte-stable responses.
//! * [`session`] — the deterministic state machine wrapping one engine:
//!   multi-tenant accounting, request application, trace events
//!   (`job_accepted`, `replan`, `snapshot_written`).
//! * [`snapshot`] — versioned binary snapshots of the full service
//!   state. Restoring a snapshot and replaying the remaining request
//!   log yields responses and trace events byte-identical to a run
//!   that never stopped.
//! * [`daemon`] / [`client`] — the TCP loop (`gaia serve`) and the
//!   lockstep line client (`gaia serve --connect`).
//! * [`telemetry`] — always-on live telemetry: wall-clock latency and
//!   per-tenant SLO histograms, engine gauges, and the Prometheus/JSON
//!   expositions behind the `metrics` verb and `--metrics-addr`.
//!   Strictly out-of-band: responses and snapshots are byte-identical
//!   with telemetry on or off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod protocol;
pub mod session;
pub mod snapshot;
pub mod telemetry;

pub use daemon::{request_termination, run, ServeOptions};
/// The workspace's one durable write, under the name the serving
/// benchmark (`perfbench/`) calls it by.
pub use gaia_sim::durable_write as persist_snapshot;
pub use protocol::{Request, Response, StatsBody, StatusDetail};
pub use session::{Session, TenantStats};
pub use snapshot::{encode, restore, SERVICE_SNAPSHOT_VERSION};
pub use telemetry::{ServeTelemetry, TenantTelemetry};
