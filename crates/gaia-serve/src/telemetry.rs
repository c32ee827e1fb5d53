//! Live serving telemetry: streaming latency/SLO histograms, request
//! counters, engine gauges, and their exposition formats.
//!
//! One [`ServeTelemetry`] lives per daemon, shared (`Arc`) between the
//! engine thread (which writes on every request) and the metrics
//! exposition thread (which renders it on every scrape). All state is
//! atomic — log2 [`Histogram`]s and relaxed counters — so the writer
//! never blocks on a reader; the single mutex (the tenant list) is
//! bypassed on the hot path by the session's per-tenant handle cache.
//!
//! # What is measured
//!
//! * **Latency** — wall-clock time per [`crate::Session::apply`] call,
//!   in seconds-denominated histograms (micro-unit = 1µs). `submit`
//!   latency is the paper-relevant one: it *is* the incremental
//!   planning cost at the current backlog depth.
//! * **Per-tenant SLO** — on each job completion: wait (hours),
//!   stretch (slowdown factor), carbon g/job, and cost per job,
//!   alongside fixed-point totals of the *carbon-agnostic baseline*
//!   (run-immediately-on-on-demand; see
//!   `OnlineEngine::naive_baseline`). The baseline totals turn the
//!   actual totals into the paper's core live signal: % carbon saved
//!   vs. % cost premium, per tenant, while the daemon runs.
//! * **Engine gauges** — queue depth, event-queue occupancy,
//!   degradation state, snapshot age/size — stored after each request.
//!
//! # Determinism contract
//!
//! Everything here derives from wall clocks and is strictly
//! out-of-band: nothing in this module is read by planning, snapshots,
//! or wire responses (the `metrics` verb excepted, which is documented
//! as non-deterministic). Telemetry on vs. off must leave responses and
//! snapshots byte-identical — `tests/telemetry_props.rs` enforces it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use gaia_obs::flight::wall_micros;
use gaia_obs::metrics::{bucket_upper_micro, HISTOGRAM_BUCKETS};
use gaia_obs::{FlightRecorder, Histogram};

/// Fixed-point scale for baseline sums (micro-units per unit).
const MICRO: f64 = 1e6;

/// Request verbs the daemon counts, in exposition order.
pub const OPS: [&str; 9] = [
    "submit", "query", "cancel", "stats", "drain", "snapshot", "metrics", "flight", "shutdown",
];

/// Per-tenant SLO telemetry; one per interned tenant, created on first
/// submit and never removed.
#[derive(Debug)]
pub struct TenantTelemetry {
    name: String,
    /// Per-completed-job wait, hours.
    pub wait_hours: Histogram,
    /// Per-completed-job slowdown factor `(wait + len) / len`.
    pub stretch: Histogram,
    /// Per-completed-job attributed carbon, grams CO₂.
    pub carbon_g: Histogram,
    /// Per-completed-job attributed cost, dollars.
    pub cost_usd: Histogram,
    baseline_carbon_micro: AtomicU64,
    baseline_cost_micro: AtomicU64,
}

impl TenantTelemetry {
    fn new(name: &str) -> Self {
        TenantTelemetry {
            name: name.to_owned(),
            wait_hours: Histogram::new(),
            stretch: Histogram::new(),
            carbon_g: Histogram::new(),
            cost_usd: Histogram::new(),
            baseline_carbon_micro: AtomicU64::new(0),
            baseline_cost_micro: AtomicU64::new(0),
        }
    }

    /// Tenant name as first seen on a submit.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Record one completed job's outcome against its baseline.
    pub fn record_completion(
        &self,
        wait_hours: f64,
        stretch: f64,
        carbon_g: f64,
        cost_usd: f64,
        baseline_carbon_g: f64,
        baseline_cost_usd: f64,
    ) {
        self.wait_hours.observe(wait_hours);
        self.stretch.observe(stretch);
        self.carbon_g.observe(carbon_g);
        self.cost_usd.observe(cost_usd);
        let clamp = |v: f64| {
            if v.is_finite() && v > 0.0 {
                (v * MICRO).round() as u64
            } else {
                0
            }
        };
        self.baseline_carbon_micro
            .fetch_add(clamp(baseline_carbon_g), Ordering::Relaxed);
        self.baseline_cost_micro
            .fetch_add(clamp(baseline_cost_usd), Ordering::Relaxed);
    }

    /// Total baseline carbon for completed jobs, grams.
    pub fn baseline_carbon_g(&self) -> f64 {
        self.baseline_carbon_micro.load(Ordering::Relaxed) as f64 / MICRO
    }

    /// Total baseline cost for completed jobs, dollars.
    pub fn baseline_cost_usd(&self) -> f64 {
        self.baseline_cost_micro.load(Ordering::Relaxed) as f64 / MICRO
    }

    /// Fraction of baseline carbon avoided (`1 − actual/baseline`);
    /// `None` until a baseline accumulates.
    pub fn carbon_saved_frac(&self) -> Option<f64> {
        let baseline = self.baseline_carbon_g();
        (baseline > 0.0).then(|| 1.0 - self.carbon_g.sum() / baseline)
    }

    /// Cost premium over baseline (`actual/baseline − 1`, negative when
    /// the policy is cheaper); `None` until a baseline accumulates.
    pub fn cost_premium_frac(&self) -> Option<f64> {
        let baseline = self.baseline_cost_usd();
        (baseline > 0.0).then(|| self.cost_usd.sum() / baseline - 1.0)
    }
}

/// Engine/daemon gauges published after every request. Plain relaxed
/// atomics; readers accept tearing *between* fields (each field is
/// individually consistent).
#[derive(Debug, Default)]
pub struct Gauges {
    /// Sim clock, minutes.
    pub sim_minutes: AtomicU64,
    /// Jobs submitted.
    pub submitted: AtomicU64,
    /// Jobs completed.
    pub completed: AtomicU64,
    /// Jobs cancelled.
    pub cancelled: AtomicU64,
    /// Jobs accepted but not finished or cancelled.
    pub queued: AtomicU64,
    /// Events waiting in the engine's event queue.
    pub pending_events: AtomicU64,
    /// 1 while a forecast outage forces persistence fallback.
    pub degraded: AtomicU64,
    /// Ordinal of the last persisted snapshot (0 = none yet).
    pub snapshot_seq: AtomicU64,
    /// Encoded size of the last persisted snapshot, bytes.
    pub snapshot_bytes: AtomicU64,
    /// Wall-clock instant the last snapshot was persisted, µs since
    /// epoch (0 = none yet); scrape-side subtraction gives its age.
    pub snapshot_wall_us: AtomicU64,
}

/// The daemon-wide telemetry hub.
#[derive(Debug)]
pub struct ServeTelemetry {
    /// Wall-clock latency of `apply` for accepted+rejected submits,
    /// unit seconds (1 micro-unit = 1µs).
    pub submit_latency: Histogram,
    /// Wall-clock latency of `apply` for every session verb.
    pub request_latency: Histogram,
    /// Requests seen per verb, [`OPS`] order.
    op_counts: [AtomicU64; OPS.len()],
    /// Requests rejected with an error response.
    errors: AtomicU64,
    /// Engine/daemon gauges.
    pub gauges: Gauges,
    /// Wall-clock µs at construction, for uptime.
    started_wall_us: u64,
    tenants: Mutex<Vec<Arc<TenantTelemetry>>>,
}

impl Default for ServeTelemetry {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeTelemetry {
    /// Fresh, zeroed telemetry.
    pub fn new() -> Self {
        ServeTelemetry {
            submit_latency: Histogram::new(),
            request_latency: Histogram::new(),
            op_counts: [const { AtomicU64::new(0) }; OPS.len()],
            errors: AtomicU64::new(0),
            gauges: Gauges::default(),
            started_wall_us: wall_micros(),
            tenants: Mutex::new(Vec::new()),
        }
    }

    /// Count one request of verb `op` (must be one of [`OPS`]; unknown
    /// verbs land on the error counter only).
    pub fn count_op(&self, op: &str) {
        if let Some(i) = OPS.iter().position(|o| *o == op) {
            self.op_counts[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Count one error response.
    pub fn count_error(&self) {
        self.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Requests seen for verb `op`.
    pub fn op_count(&self, op: &str) -> u64 {
        OPS.iter()
            .position(|o| *o == op)
            .map(|i| self.op_counts[i].load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Error responses produced.
    pub fn error_count(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Handle for tenant `idx` (interning order), creating `name`'s
    /// entry — and any gap below it — on first sight. The session
    /// caches the returned `Arc` so completions don't re-lock.
    pub fn tenant(&self, idx: usize, name: &str) -> Arc<TenantTelemetry> {
        let mut tenants = self
            .tenants
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        while tenants.len() <= idx {
            let filler = if tenants.len() == idx { name } else { "" };
            tenants.push(Arc::new(TenantTelemetry::new(filler)));
        }
        Arc::clone(&tenants[idx])
    }

    /// Snapshot of the tenant handles, interning order.
    pub fn tenants(&self) -> Vec<Arc<TenantTelemetry>> {
        self.tenants
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .clone()
    }

    /// Seconds since this telemetry hub was created.
    pub fn uptime_seconds(&self) -> f64 {
        wall_micros().saturating_sub(self.started_wall_us) as f64 / MICRO
    }

    /// Render the Prometheus text exposition format (v0.0.4): `# HELP`/
    /// `# TYPE` headed families, cumulative `le` histogram buckets,
    /// tenant label dimensions. Served by `gaia serve --metrics-addr`.
    pub fn render_prometheus(&self, flight: Option<&FlightRecorder>) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("# HELP gaia_requests_total Requests received per protocol verb.\n");
        out.push_str("# TYPE gaia_requests_total counter\n");
        for (i, op) in OPS.iter().enumerate() {
            let n = self.op_counts[i].load(Ordering::Relaxed);
            out.push_str(&format!("gaia_requests_total{{op=\"{op}\"}} {n}\n"));
        }
        out.push_str("# HELP gaia_request_errors_total Requests rejected with an error.\n");
        out.push_str("# TYPE gaia_request_errors_total counter\n");
        out.push_str(&format!(
            "gaia_request_errors_total {}\n",
            self.error_count()
        ));

        write_prom_histogram(
            &mut out,
            "gaia_submit_latency_seconds",
            "Wall-clock submit (incremental planning) latency.",
            &self.submit_latency,
        );
        write_prom_histogram(
            &mut out,
            "gaia_request_latency_seconds",
            "Wall-clock session request latency, every verb.",
            &self.request_latency,
        );

        let g = &self.gauges;
        for (name, help, kind, value) in [
            (
                "gaia_engine_sim_minutes",
                "Service sim clock, minutes.",
                "gauge",
                g.sim_minutes.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_submitted_total",
                "Jobs submitted.",
                "counter",
                g.submitted.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_completed_total",
                "Jobs completed.",
                "counter",
                g.completed.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_cancelled_total",
                "Jobs cancelled.",
                "counter",
                g.cancelled.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_queued_jobs",
                "Jobs accepted but not yet finished (engine depth).",
                "gauge",
                g.queued.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_pending_events",
                "Events waiting in the engine's event queue.",
                "gauge",
                g.pending_events.load(Ordering::Relaxed),
            ),
            (
                "gaia_engine_degraded",
                "1 while planning runs on the persistence fallback forecaster.",
                "gauge",
                g.degraded.load(Ordering::Relaxed),
            ),
            (
                "gaia_snapshot_seq",
                "Ordinal of the last persisted snapshot (0 = none).",
                "gauge",
                g.snapshot_seq.load(Ordering::Relaxed),
            ),
            (
                "gaia_snapshot_bytes",
                "Encoded size of the last persisted snapshot.",
                "gauge",
                g.snapshot_bytes.load(Ordering::Relaxed),
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} {kind}\n{name} {value}\n"
            ));
        }
        let snap_us = g.snapshot_wall_us.load(Ordering::Relaxed);
        let age_s = if snap_us == 0 {
            -1.0
        } else {
            wall_micros().saturating_sub(snap_us) as f64 / MICRO
        };
        out.push_str(
            "# HELP gaia_snapshot_age_seconds Seconds since the last persisted snapshot (-1 = none).\n",
        );
        out.push_str("# TYPE gaia_snapshot_age_seconds gauge\n");
        out.push_str(&format!("gaia_snapshot_age_seconds {age_s}\n"));

        if let Some(flight) = flight {
            out.push_str("# HELP gaia_flight_frames Frames retained in the flight recorder.\n");
            out.push_str("# TYPE gaia_flight_frames gauge\n");
            out.push_str(&format!("gaia_flight_frames {}\n", flight.len()));
            out.push_str("# HELP gaia_flight_capacity Flight recorder ring capacity.\n");
            out.push_str("# TYPE gaia_flight_capacity gauge\n");
            out.push_str(&format!("gaia_flight_capacity {}\n", flight.capacity()));
            out.push_str(
                "# HELP gaia_flight_recorded_total Frames ever recorded, including overwritten.\n",
            );
            out.push_str("# TYPE gaia_flight_recorded_total counter\n");
            out.push_str(&format!(
                "gaia_flight_recorded_total {}\n",
                flight.total_recorded()
            ));
        }

        let tenants = self.tenants();
        for (name, help, read) in [
            (
                "gaia_tenant_jobs_completed_total",
                "Jobs completed per tenant.",
                &(|t: &TenantTelemetry| t.carbon_g.count() as f64)
                    as &dyn Fn(&TenantTelemetry) -> f64,
            ),
            (
                "gaia_tenant_carbon_g_total",
                "Attributed carbon per tenant, grams CO2.",
                &|t: &TenantTelemetry| t.carbon_g.sum(),
            ),
            (
                "gaia_tenant_baseline_carbon_g_total",
                "Carbon a run-immediately on-demand baseline would emit, grams CO2.",
                &|t: &TenantTelemetry| t.baseline_carbon_g(),
            ),
            (
                "gaia_tenant_cost_usd_total",
                "Attributed cost per tenant, dollars.",
                &|t: &TenantTelemetry| t.cost_usd.sum(),
            ),
            (
                "gaia_tenant_baseline_cost_usd_total",
                "Cost the carbon-agnostic baseline would pay, dollars.",
                &|t: &TenantTelemetry| t.baseline_cost_usd(),
            ),
            (
                "gaia_tenant_wait_hours_total",
                "Waiting hours accumulated by completed jobs.",
                &|t: &TenantTelemetry| t.wait_hours.sum(),
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n"));
            let kind = if name.ends_with("_total") {
                "counter"
            } else {
                "gauge"
            };
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            for tenant in &tenants {
                out.push_str(&format!(
                    "{name}{{tenant=\"{}\"}} {}\n",
                    tenant.name(),
                    read(tenant)
                ));
            }
        }
        out
    }

    /// Render the single-line JSON body of the `metrics` protocol verb
    /// — what `gaia top` polls. Explicitly outside the determinism
    /// contract: it carries wall-clock data.
    pub fn render_json(&self, flight: Option<&FlightRecorder>) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        s.push_str(&format!("\"uptime_s\":{:.3}", self.uptime_seconds()));
        s.push_str(",\"requests\":{");
        for (i, op) in OPS.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{op}\":{}",
                self.op_counts[i].load(Ordering::Relaxed)
            ));
        }
        s.push_str(&format!(",\"errors\":{}", self.error_count()));
        s.push('}');
        s.push_str(",\"latency_us\":{");
        for (i, (name, hist)) in [
            ("submit", &self.submit_latency),
            ("request", &self.request_latency),
        ]
        .iter()
        .enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum_us\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
                hist.count(),
                hist.sum_micros(),
                hist.quantile_micros(0.50),
                hist.quantile_micros(0.90),
                hist.quantile_micros(0.99),
            ));
        }
        s.push('}');
        s.push_str(",\"submit_latency_buckets\":[");
        let counts = self.submit_latency.bucket_counts();
        let mut first = true;
        for (i, n) in counts.iter().enumerate() {
            if *n == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            s.push_str(&format!("[{},{n}]", bucket_upper_micro(i)));
        }
        s.push(']');
        let g = &self.gauges;
        s.push_str(&format!(
            ",\"engine\":{{\"t\":{},\"submitted\":{},\"completed\":{},\"cancelled\":{},\"queued\":{},\"pending_events\":{},\"degraded\":{}}}",
            g.sim_minutes.load(Ordering::Relaxed),
            g.submitted.load(Ordering::Relaxed),
            g.completed.load(Ordering::Relaxed),
            g.cancelled.load(Ordering::Relaxed),
            g.queued.load(Ordering::Relaxed),
            g.pending_events.load(Ordering::Relaxed),
            g.degraded.load(Ordering::Relaxed),
        ));
        s.push_str(&format!(
            ",\"snapshot\":{{\"seq\":{},\"bytes\":{}}}",
            g.snapshot_seq.load(Ordering::Relaxed),
            g.snapshot_bytes.load(Ordering::Relaxed),
        ));
        if let Some(flight) = flight {
            s.push_str(&format!(
                ",\"flight\":{{\"len\":{},\"capacity\":{},\"recorded\":{}}}",
                flight.len(),
                flight.capacity(),
                flight.total_recorded(),
            ));
        }
        s.push_str(",\"tenants\":[");
        for (i, tenant) in self.tenants().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let fmt_opt = |v: Option<f64>| match v {
                Some(v) if v.is_finite() => format!("{v:.4}"),
                _ => "null".to_owned(),
            };
            s.push_str(&format!(
                "{{\"name\":\"{}\",\"completed\":{},\"carbon_g\":{:.3},\"baseline_carbon_g\":{:.3},\"carbon_saved_frac\":{},\"cost_usd\":{:.4},\"baseline_cost_usd\":{:.4},\"cost_premium_frac\":{},\"wait_p50_h\":{:.4},\"stretch_p50\":{:.4}}}",
                tenant.name(),
                tenant.carbon_g.count(),
                tenant.carbon_g.sum(),
                tenant.baseline_carbon_g(),
                fmt_opt(tenant.carbon_saved_frac()),
                tenant.cost_usd.sum(),
                tenant.baseline_cost_usd(),
                fmt_opt(tenant.cost_premium_frac()),
                tenant.wait_hours.quantile(0.5),
                tenant.stretch.quantile(0.5),
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Append one Prometheus histogram family: cumulative `le` buckets in
/// unit terms (seconds for the latency histograms), `+Inf`, `_sum`,
/// `_count`.
fn write_prom_histogram(out: &mut String, name: &str, help: &str, hist: &Histogram) {
    out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} histogram\n"));
    let counts = hist.bucket_counts();
    let mut cumulative = 0u64;
    for (i, n) in counts.iter().enumerate().take(HISTOGRAM_BUCKETS - 1) {
        cumulative += n;
        // Only materialize boundaries around occupied buckets to keep
        // scrapes compact; cumulative counts stay correct because
        // skipped buckets are empty.
        if *n == 0 {
            continue;
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"{}\"}} {cumulative}\n",
            bucket_upper_micro(i) as f64 / MICRO
        ));
    }
    out.push_str(&format!(
        "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
        hist.count(),
        hist.sum(),
        hist.count()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counts_round_trip() {
        let tel = ServeTelemetry::new();
        tel.count_op("submit");
        tel.count_op("submit");
        tel.count_op("metrics");
        tel.count_op("bogus");
        tel.count_error();
        assert_eq!(tel.op_count("submit"), 2);
        assert_eq!(tel.op_count("metrics"), 1);
        assert_eq!(tel.op_count("query"), 0);
        assert_eq!(tel.error_count(), 1);
    }

    #[test]
    fn tenant_handles_are_stable_and_gap_filled() {
        let tel = ServeTelemetry::new();
        let b = tel.tenant(1, "blue");
        let a = tel.tenant(0, "");
        assert_eq!(b.name(), "blue");
        assert_eq!(a.name(), "");
        let b2 = tel.tenant(1, "ignored-after-create");
        assert!(Arc::ptr_eq(&b, &b2));
        assert_eq!(tel.tenants().len(), 2);
    }

    #[test]
    fn baseline_ratios() {
        let tel = ServeTelemetry::new();
        let t = tel.tenant(0, "acme");
        assert_eq!(t.carbon_saved_frac(), None);
        // Policy run: 60g vs 100g baseline, $1.10 vs $1.00 baseline.
        t.record_completion(2.0, 1.5, 60.0, 1.10, 100.0, 1.00);
        assert!((t.carbon_saved_frac().unwrap() - 0.4).abs() < 1e-9);
        assert!((t.cost_premium_frac().unwrap() - 0.10).abs() < 1e-6);
    }

    #[test]
    fn prometheus_exposition_shape() {
        let tel = ServeTelemetry::new();
        tel.count_op("submit");
        tel.submit_latency.observe_micros(5);
        tel.submit_latency.observe_micros(700);
        tel.request_latency.observe_micros(5);
        tel.gauges.queued.store(3, Ordering::Relaxed);
        tel.tenant(0, "acme")
            .record_completion(1.0, 1.2, 50.0, 0.5, 80.0, 0.4);
        let flight = FlightRecorder::new(8);
        let text = tel.render_prometheus(Some(&flight));
        for family in [
            "gaia_requests_total",
            "gaia_request_errors_total",
            "gaia_submit_latency_seconds",
            "gaia_request_latency_seconds",
            "gaia_engine_queued_jobs",
            "gaia_engine_pending_events",
            "gaia_engine_degraded",
            "gaia_snapshot_age_seconds",
            "gaia_flight_frames",
            "gaia_tenant_carbon_g_total",
        ] {
            assert!(
                text.contains(&format!("# TYPE {family} ")),
                "missing family {family}:\n{text}"
            );
        }
        assert!(
            text.contains("gaia_requests_total{op=\"submit\"} 1"),
            "{text}"
        );
        assert!(text.contains("gaia_engine_queued_jobs 3"), "{text}");
        // Histogram buckets are cumulative and end with +Inf/_sum/_count.
        assert!(text.contains("gaia_submit_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("gaia_submit_latency_seconds_count 2"));
        // 5µs lands in (4,8] → le 8µs = 8e-6 s; cumulative 1.
        assert!(
            text.contains("gaia_submit_latency_seconds_bucket{le=\"0.000008\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("gaia_tenant_carbon_g_total{tenant=\"acme\"} 50"),
            "{text}"
        );
    }

    #[test]
    fn json_body_parses_and_carries_sections() {
        let tel = ServeTelemetry::new();
        tel.count_op("submit");
        tel.submit_latency.observe_micros(42);
        tel.tenant(0, "acme")
            .record_completion(1.0, 1.2, 50.0, 0.5, 80.0, 0.4);
        let flight = FlightRecorder::new(8);
        let body = tel.render_json(Some(&flight));
        let value = gaia_obs::json::parse(&body).expect(&body);
        for key in [
            "uptime_s",
            "requests",
            "latency_us",
            "submit_latency_buckets",
            "engine",
            "snapshot",
            "flight",
            "tenants",
        ] {
            assert!(value.get(key).is_some(), "{body} missing {key}");
        }
        assert!(body.contains("\"carbon_saved_frac\":0.375"), "{body}");
    }
}
