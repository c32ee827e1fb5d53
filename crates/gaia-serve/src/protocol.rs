//! The newline-delimited JSON wire protocol `gaia serve` speaks.
//!
//! One request per line, one response line per request, in order. Every
//! response starts with `"ok"` (`true`/`false`); successful responses
//! echo the request's `"op"` and append op-specific fields in a fixed
//! order, so a response stream is byte-stable for a given request
//! stream and engine state. That stability is what the snapshot/restore
//! byte-identity checks diff.
//!
//! Requests are parsed with the same hand-rolled JSON reader the trace
//! tooling uses ([`gaia_obs::json`]); field order in requests does not
//! matter, unknown ops and missing or mistyped fields are rejected with
//! an `{"ok":false,...}` response rather than a dropped connection.

use gaia_obs::json::{self, push_f64, push_str, push_u64, req_str, req_u64};

/// A client request, one per JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one job for `tenant`, arriving at sim-minute `at`.
    Submit {
        /// Tenant the job (and its accounting) belongs to.
        tenant: String,
        /// Arrival instant, sim minutes. Must be ≥ the service clock.
        at: u64,
        /// Run length, minutes (> 0).
        len: u64,
        /// CPUs occupied while running (> 0).
        cpus: u64,
    },
    /// Query the lifecycle state of a submitted job.
    Query {
        /// Job index as returned by the submit response.
        job: u64,
    },
    /// Cancel a submitted job, releasing any held capacity.
    Cancel {
        /// Job index as returned by the submit response.
        job: u64,
    },
    /// Cluster-wide (no tenant) or per-tenant accounting counters.
    Stats {
        /// Tenant scope; `None` asks for cluster totals.
        tenant: Option<String>,
    },
    /// Run the engine until every pending event is processed.
    Drain,
    /// Write a snapshot of the full service state now.
    Snapshot,
    /// Live telemetry as one JSON object. **Not deterministic**: the
    /// body carries wall-clock data and is excluded from the
    /// byte-identity contract every other response honors.
    Metrics,
    /// Dump the flight recorder to the daemon's configured dump path.
    Flight,
    /// Stop the daemon after responding.
    Shutdown,
}

impl Request {
    /// Stable verb name — the `"op"` discriminant, also used as the
    /// telemetry label.
    pub fn op_name(&self) -> &'static str {
        match self {
            Request::Submit { .. } => "submit",
            Request::Query { .. } => "query",
            Request::Cancel { .. } => "cancel",
            Request::Stats { .. } => "stats",
            Request::Drain => "drain",
            Request::Snapshot => "snapshot",
            Request::Metrics => "metrics",
            Request::Flight => "flight",
            Request::Shutdown => "shutdown",
        }
    }

    /// Parse one request line.
    pub fn from_json_line(line: &str) -> Result<Request, String> {
        let value = json::parse(line)?;
        let op = req_str(&value, "op")?;
        match op.as_str() {
            "submit" => Ok(Request::Submit {
                tenant: req_str(&value, "tenant")?,
                at: req_u64(&value, "at")?,
                len: req_u64(&value, "len")?,
                cpus: req_u64(&value, "cpus")?,
            }),
            "query" => Ok(Request::Query {
                job: req_u64(&value, "job")?,
            }),
            "cancel" => Ok(Request::Cancel {
                job: req_u64(&value, "job")?,
            }),
            "stats" => Ok(Request::Stats {
                tenant: match value.get("tenant") {
                    None => None,
                    Some(v) => Some(
                        v.as_str()
                            .map(str::to_owned)
                            .ok_or_else(|| "field \"tenant\" is not a string".to_string())?,
                    ),
                },
            }),
            "drain" => Ok(Request::Drain),
            "snapshot" => Ok(Request::Snapshot),
            "metrics" => Ok(Request::Metrics),
            "flight" => Ok(Request::Flight),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    /// Serialize with the canonical field order (what the scripted
    /// clients and tests write).
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(64);
        s.push_str("{\"op\":\"");
        match self {
            Request::Submit {
                tenant,
                at,
                len,
                cpus,
            } => {
                s.push_str("submit\"");
                push_str(&mut s, "tenant", tenant);
                push_u64(&mut s, "at", *at);
                push_u64(&mut s, "len", *len);
                push_u64(&mut s, "cpus", *cpus);
            }
            Request::Query { job } => {
                s.push_str("query\"");
                push_u64(&mut s, "job", *job);
            }
            Request::Cancel { job } => {
                s.push_str("cancel\"");
                push_u64(&mut s, "job", *job);
            }
            Request::Stats { tenant } => {
                s.push_str("stats\"");
                if let Some(tenant) = tenant {
                    push_str(&mut s, "tenant", tenant);
                }
            }
            Request::Drain => s.push_str("drain\""),
            Request::Snapshot => s.push_str("snapshot\""),
            Request::Metrics => s.push_str("metrics\""),
            Request::Flight => s.push_str("flight\""),
            Request::Shutdown => s.push_str("shutdown\""),
        }
        s.push('}');
        s
    }
}

/// Lifecycle state name reported by query responses.
#[derive(Debug, Clone, PartialEq)]
pub enum StatusDetail {
    /// Submitted; arrival instant not reached yet.
    Pending,
    /// Planned and waiting to start.
    Queued {
        /// Committed start instant, minutes.
        planned_start: u64,
    },
    /// Currently executing.
    Running {
        /// Pool name (`"reserved"` / `"on-demand"` / `"spot"`).
        pool: String,
        /// When the current stretch began, minutes.
        since: u64,
    },
    /// Between segments of a suspend-resume plan.
    Suspended,
    /// Finished all work.
    Done {
        /// Completion instant, minutes.
        finish: u64,
        /// Attributed operational carbon, grams CO2.
        carbon_g: f64,
        /// Attributed cost, dollars.
        cost: f64,
        /// Minutes spent not running.
        wait: u64,
        /// Spot evictions suffered.
        evictions: u64,
    },
    /// Cancelled through the online API.
    Cancelled {
        /// When the cancellation took effect, minutes.
        at: u64,
        /// Carbon already spent, grams CO2.
        carbon_g: f64,
        /// Cost already incurred, dollars.
        cost: f64,
    },
}

impl StatusDetail {
    /// The serialized `"state"` name.
    pub fn state_name(&self) -> &'static str {
        match self {
            StatusDetail::Pending => "pending",
            StatusDetail::Queued { .. } => "queued",
            StatusDetail::Running { .. } => "running",
            StatusDetail::Suspended => "suspended",
            StatusDetail::Done { .. } => "done",
            StatusDetail::Cancelled { .. } => "cancelled",
        }
    }
}

/// Accounting counters for one stats scope (cluster or tenant).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsBody {
    /// Jobs submitted in this scope.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs accepted but not yet finished or cancelled.
    pub queued: u64,
    /// Carbon attributed to finished/cancelled jobs, grams CO2.
    pub carbon_g: f64,
    /// Cost attributed to finished/cancelled jobs, dollars.
    pub cost: f64,
    /// Waiting minutes accumulated by completed jobs.
    pub wait_min: u64,
}

/// A server response, one per JSONL line.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submit was accepted and planned.
    Submitted {
        /// Assigned job index.
        job: u64,
        /// Echoed tenant.
        tenant: String,
        /// Echoed arrival instant, minutes.
        t: u64,
        /// Jobs accepted but not yet finished, including this one.
        queued: u64,
    },
    /// Lifecycle state of one job.
    Status {
        /// Queried job index.
        job: u64,
        /// State plus state-specific fields.
        detail: StatusDetail,
    },
    /// Result of a cancel request.
    CancelResult {
        /// Targeted job index.
        job: u64,
        /// `"cancelled"`, `"already-finished"`, or `"unknown"`.
        outcome: &'static str,
    },
    /// Accounting counters.
    Stats {
        /// Tenant scope, or `None` for cluster totals.
        tenant: Option<String>,
        /// Service clock, minutes.
        t: u64,
        /// The counters.
        body: StatsBody,
    },
    /// The engine ran until idle.
    Drained {
        /// Service clock after the drain, minutes.
        t: u64,
        /// Total jobs completed so far.
        completed: u64,
    },
    /// A snapshot was written.
    SnapshotDone {
        /// 1-based snapshot ordinal.
        seq: u64,
        /// Encoded size, bytes.
        bytes: u64,
    },
    /// Live telemetry body. The `data` string must already be a valid
    /// single-line JSON object ([`crate::telemetry`] renders it); it is
    /// embedded verbatim. **Not deterministic.**
    Metrics {
        /// Pre-rendered JSON object with the telemetry sections.
        data: String,
    },
    /// The flight recorder was dumped.
    FlightDumped {
        /// Frames written to the dump file.
        frames: u64,
        /// Path the JSONL dump was written to.
        path: String,
    },
    /// The daemon acknowledges shutdown.
    ShuttingDown,
    /// The request was rejected.
    Error {
        /// Human-readable reason.
        error: String,
    },
}

impl Response {
    /// Serialize to one JSON line with the canonical field order.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(96);
        match self {
            Response::Error { error } => {
                s.push_str("{\"ok\":false");
                push_str(&mut s, "error", error);
            }
            ok => {
                s.push_str("{\"ok\":true,\"op\":\"");
                match ok {
                    Response::Submitted {
                        job,
                        tenant,
                        t,
                        queued,
                    } => {
                        s.push_str("submit\"");
                        push_u64(&mut s, "job", *job);
                        push_str(&mut s, "tenant", tenant);
                        push_u64(&mut s, "t", *t);
                        push_u64(&mut s, "queued", *queued);
                    }
                    Response::Status { job, detail } => {
                        s.push_str("query\"");
                        push_u64(&mut s, "job", *job);
                        push_str(&mut s, "state", detail.state_name());
                        match detail {
                            StatusDetail::Pending | StatusDetail::Suspended => {}
                            StatusDetail::Queued { planned_start } => {
                                push_u64(&mut s, "planned_start", *planned_start);
                            }
                            StatusDetail::Running { pool, since } => {
                                push_str(&mut s, "pool", pool);
                                push_u64(&mut s, "since", *since);
                            }
                            StatusDetail::Done {
                                finish,
                                carbon_g,
                                cost,
                                wait,
                                evictions,
                            } => {
                                push_u64(&mut s, "finish", *finish);
                                push_f64(&mut s, "carbon_g", *carbon_g);
                                push_f64(&mut s, "cost", *cost);
                                push_u64(&mut s, "wait", *wait);
                                push_u64(&mut s, "evictions", *evictions);
                            }
                            StatusDetail::Cancelled { at, carbon_g, cost } => {
                                push_u64(&mut s, "at", *at);
                                push_f64(&mut s, "carbon_g", *carbon_g);
                                push_f64(&mut s, "cost", *cost);
                            }
                        }
                    }
                    Response::CancelResult { job, outcome } => {
                        s.push_str("cancel\"");
                        push_u64(&mut s, "job", *job);
                        push_str(&mut s, "outcome", outcome);
                    }
                    Response::Stats { tenant, t, body } => {
                        s.push_str("stats\"");
                        match tenant {
                            Some(tenant) => {
                                push_str(&mut s, "scope", "tenant");
                                push_str(&mut s, "tenant", tenant);
                            }
                            None => push_str(&mut s, "scope", "cluster"),
                        }
                        push_u64(&mut s, "t", *t);
                        push_u64(&mut s, "submitted", body.submitted);
                        push_u64(&mut s, "completed", body.completed);
                        push_u64(&mut s, "cancelled", body.cancelled);
                        push_u64(&mut s, "queued", body.queued);
                        push_f64(&mut s, "carbon_g", body.carbon_g);
                        push_f64(&mut s, "cost", body.cost);
                        push_u64(&mut s, "wait_min", body.wait_min);
                    }
                    Response::Drained { t, completed } => {
                        s.push_str("drain\"");
                        push_u64(&mut s, "t", *t);
                        push_u64(&mut s, "completed", *completed);
                    }
                    Response::SnapshotDone { seq, bytes } => {
                        s.push_str("snapshot\"");
                        push_u64(&mut s, "seq", *seq);
                        push_u64(&mut s, "bytes", *bytes);
                    }
                    Response::Metrics { data } => {
                        s.push_str("metrics\",\"data\":");
                        s.push_str(data);
                    }
                    Response::FlightDumped { frames, path } => {
                        s.push_str("flight\"");
                        push_u64(&mut s, "frames", *frames);
                        push_str(&mut s, "path", path);
                    }
                    Response::ShuttingDown => s.push_str("shutdown\""),
                    Response::Error { .. } => unreachable!("handled above"),
                }
            }
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = vec![
            Request::Submit {
                tenant: "acme".into(),
                at: 120,
                len: 60,
                cpus: 2,
            },
            Request::Query { job: 7 },
            Request::Cancel { job: 7 },
            Request::Stats { tenant: None },
            Request::Stats {
                tenant: Some("acme".into()),
            },
            Request::Drain,
            Request::Snapshot,
            Request::Metrics,
            Request::Flight,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.to_json_line();
            assert_eq!(Request::from_json_line(&line).expect(&line), req, "{line}");
        }
    }

    #[test]
    fn request_field_order_is_irrelevant() {
        let req =
            Request::from_json_line(r#"{"len":60,"op":"submit","cpus":1,"at":0,"tenant":"t"}"#)
                .unwrap();
        assert_eq!(
            req,
            Request::Submit {
                tenant: "t".into(),
                at: 0,
                len: 60,
                cpus: 1,
            }
        );
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(Request::from_json_line("not json").is_err());
        assert!(Request::from_json_line(r#"{"op":"warp"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::from_json_line(r#"{"op":"submit","tenant":"t"}"#)
            .unwrap_err()
            .contains("missing field"));
    }

    #[test]
    fn response_encoding_is_fixed_order() {
        let r = Response::Submitted {
            job: 0,
            tenant: "acme".into(),
            t: 30,
            queued: 1,
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"ok":true,"op":"submit","job":0,"tenant":"acme","t":30,"queued":1}"#
        );
        let r = Response::Status {
            job: 0,
            detail: StatusDetail::Queued { planned_start: 60 },
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"ok":true,"op":"query","job":0,"state":"queued","planned_start":60}"#
        );
        let r = Response::Error {
            error: "no such job".into(),
        };
        assert_eq!(r.to_json_line(), r#"{"ok":false,"error":"no such job"}"#);
    }

    #[test]
    fn telemetry_responses_serialize() {
        let r = Response::Metrics {
            data: r#"{"uptime_s":1.5}"#.into(),
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"ok":true,"op":"metrics","data":{"uptime_s":1.5}}"#
        );
        let r = Response::FlightDumped {
            frames: 3,
            path: "flight.jsonl".into(),
        };
        assert_eq!(
            r.to_json_line(),
            r#"{"ok":true,"op":"flight","frames":3,"path":"flight.jsonl"}"#
        );
    }

    #[test]
    fn stats_scopes_serialize_distinctly() {
        let body = StatsBody {
            submitted: 2,
            completed: 1,
            cancelled: 0,
            queued: 1,
            carbon_g: 12.5,
            cost: 0.75,
            wait_min: 30,
        };
        let cluster = Response::Stats {
            tenant: None,
            t: 100,
            body: body.clone(),
        };
        assert!(cluster.to_json_line().contains(r#""scope":"cluster""#));
        let tenant = Response::Stats {
            tenant: Some("acme".into()),
            t: 100,
            body,
        };
        let line = tenant.to_json_line();
        assert!(
            line.contains(r#""scope":"tenant","tenant":"acme""#),
            "{line}"
        );
    }
}
