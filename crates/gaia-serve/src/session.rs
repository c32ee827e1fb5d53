//! The multi-tenant serving session: one [`OnlineEngine`] plus tenant
//! accounting, driven by protocol [`Request`]s.
//!
//! A session is a deterministic state machine: for a given engine state
//! and request sequence, the produced [`Response`] stream and the
//! engine's trace-event stream are byte-identical across runs, machines,
//! and snapshot/restore boundaries. Everything that can influence a
//! response — tenant interning order, per-tenant aggregates, the
//! snapshot ordinal — is therefore part of the snapshot
//! ([`crate::snapshot`]), and nothing in this module reads wall time.
//!
//! Submissions drive the sim clock: a `submit` at sim-minute `t`
//! advances the engine to `t` (planning the new arrival and executing
//! everything scheduled before it), so requests must carry
//! nondecreasing `at` values. The policy plans each arrival
//! incrementally against the perfect forecaster, whose views read the
//! carbon trace directly, so a submission builds nothing over the
//! horizon; its cost is the policy's own search.

use std::sync::Arc;
use std::time::Instant;

use gaia_core::catalog::{DynScheduler, PolicySpec};
use gaia_obs::{Event as ObsEvent, Sink};
use gaia_sim::{
    stagger_capacity, stagger_reserve, CancelOutcome, JobStatus, OnlineEngine, STAGGER_RUNGS,
};
use gaia_time::{Minutes, SimTime};
use gaia_workload::{Job, JobId, QueueSet};

use crate::protocol::{Request, Response, StatsBody, StatusDetail};
use crate::telemetry::{ServeTelemetry, TenantTelemetry};

/// Per-tenant accounting, updated as the tenant's jobs finish.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantStats {
    /// Tenant name as first seen on a submit.
    pub name: String,
    /// Accounting counters for this tenant's jobs.
    pub body: StatsBody,
}

/// Submit-time facts telemetry needs at completion time: the job's
/// length (for stretch) and the carbon-agnostic baseline the policy's
/// actual outcome is compared against. Never serialized — telemetry
/// state stays out of snapshots by construction.
#[derive(Debug, Clone, Copy)]
struct JobBase {
    /// Requested run length, minutes; 0 marks an unknown job (submitted
    /// before telemetry was attached, e.g. restored from a snapshot).
    len_min: u64,
    /// Carbon the run-immediately on-demand baseline would emit, grams.
    carbon_g: f64,
    /// Cost that baseline would pay, dollars.
    cost_usd: f64,
}

impl JobBase {
    const UNKNOWN: JobBase = JobBase {
        len_min: 0,
        carbon_g: 0.0,
        cost_usd: 0.0,
    };
}

/// A serving session over one online engine.
///
/// The engine borrows its static inputs (config, carbon trace,
/// forecaster, sink), so a session lives inside the scope that owns
/// them — see [`crate::daemon`] for the ownership pattern.
pub struct Session<'e, S: Sink> {
    engine: OnlineEngine<'e, S>,
    scheduler: DynScheduler,
    policy: PolicySpec,
    /// Tenants in order of first appearance; interning order is part of
    /// the deterministic state.
    tenants: Vec<TenantStats>,
    /// Job index → tenant index.
    job_tenant: Vec<u32>,
    /// Snapshots written so far (the next snapshot gets ordinal + 1).
    snapshots: u64,
    /// Live telemetry hub, if attached. Everything below this line is
    /// wall-clock-fed, excluded from snapshots, and must never
    /// influence a response — see [`crate::telemetry`].
    telemetry: Option<Arc<ServeTelemetry>>,
    /// Cached per-tenant telemetry handles, parallel to `tenants`, so
    /// completions don't take the hub's tenant-list lock.
    tenant_tel: Vec<Arc<TenantTelemetry>>,
    /// Job index → submit-time baseline (telemetry only).
    job_base: Vec<JobBase>,
}

impl<'e, S: Sink> Session<'e, S> {
    /// Wraps a fresh engine with the scheduler built from `policy`.
    ///
    /// The caller configures the engine first (faults, profiler); the
    /// session takes over submissions from here. The policy must be
    /// decision-stateless (every catalog policy is): the scheduler is
    /// rebuilt, not serialized, on restore.
    pub fn new(engine: OnlineEngine<'e, S>, policy: PolicySpec) -> Self {
        Session::from_parts(engine, policy, Vec::new(), Vec::new(), 0)
    }

    /// Attach the live telemetry hub. Latency is recorded per
    /// [`Session::apply`] call and per-tenant SLO metrics per
    /// completion from here on. Jobs submitted before attachment
    /// (e.g. restored from a snapshot) have no recorded baseline and
    /// are skipped by the SLO accounting.
    pub fn attach_telemetry(&mut self, telemetry: Arc<ServeTelemetry>) {
        self.tenant_tel = self
            .tenants
            .iter()
            .enumerate()
            .map(|(i, t)| telemetry.tenant(i, &t.name))
            .collect();
        // Resized in place, so a reservation made by `reserve_jobs`
        // before attachment survives it.
        self.job_base.clear();
        self.job_base
            .resize(self.engine.submitted() as usize, JobBase::UNKNOWN);
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry hub, if any.
    pub fn telemetry(&self) -> Option<&Arc<ServeTelemetry>> {
        self.telemetry.as_ref()
    }

    /// Flushes writer-local sink buffers (flight-recorder frames,
    /// traced JSONL lines); the daemon calls this once per request.
    pub fn sync_sink(&mut self) {
        self.engine.sync_sink();
    }

    /// The policy the session's scheduler was built from.
    pub fn policy(&self) -> PolicySpec {
        self.policy
    }

    /// Pre-sizes the per-job state for `additional` more submissions.
    ///
    /// A provisioned service calls this once at boot with its expected
    /// job volume: nothing inside the reservation ever pays a
    /// reallocation inside a submit (`tests/alloc.rs` counts them), and
    /// growth past it stays amortized-doubling on the staggered ladder.
    pub fn reserve_jobs(&mut self, additional: usize) {
        self.engine.reserve_jobs(additional);
        // Sized for every submission so far plus `additional`, so the
        // room survives `attach_telemetry` filling in the earlier jobs.
        let jobs = self.engine.submitted() as usize + additional;
        stagger_reserve(&mut self.job_tenant, STAGGER_RUNGS, jobs);
        stagger_reserve(&mut self.job_base, STAGGER_RUNGS + 1, jobs);
    }

    /// Borrow the underlying engine.
    pub fn engine(&self) -> &OnlineEngine<'e, S> {
        &self.engine
    }

    /// Tenants in interning order.
    pub fn tenants(&self) -> &[TenantStats] {
        &self.tenants
    }

    /// Snapshots written so far.
    pub fn snapshots_written(&self) -> u64 {
        self.snapshots
    }

    /// Applies one request and returns its response. Never panics on
    /// malformed input — rejected requests produce [`Response::Error`]
    /// and leave the session state untouched.
    ///
    /// With telemetry attached, the call is wall-clock timed into the
    /// latency histograms; the timing never influences the response.
    pub fn apply(&mut self, request: &Request) -> Response {
        let Some(telemetry) = self.telemetry.clone() else {
            return self.dispatch(request);
        };
        telemetry.count_op(request.op_name());
        let started = Instant::now();
        let response = self.dispatch(request);
        let micros = started.elapsed().as_micros() as u64;
        telemetry.request_latency.observe_micros(micros);
        if matches!(request, Request::Submit { .. }) {
            telemetry.submit_latency.observe_micros(micros);
        }
        if matches!(response, Response::Error { .. }) {
            telemetry.count_error();
        }
        response
    }

    fn dispatch(&mut self, request: &Request) -> Response {
        match request {
            Request::Submit {
                tenant,
                at,
                len,
                cpus,
            } => self.submit(tenant, *at, *len, *cpus),
            Request::Query { job } => self.query(*job),
            Request::Cancel { job } => self.cancel(*job),
            Request::Stats { tenant } => self.stats(tenant.as_deref()),
            Request::Drain => self.drain(),
            // Snapshot/shutdown/metrics/flight need the enclosing
            // service (file paths, telemetry hub, connection teardown);
            // [`Session::apply`] only validates.
            Request::Snapshot | Request::Shutdown | Request::Metrics | Request::Flight => {
                Response::Error {
                    error: "snapshot/shutdown/metrics/flight are handled by the daemon".into(),
                }
            }
        }
    }

    fn submit(&mut self, tenant: &str, at: u64, len: u64, cpus: u64) -> Response {
        if tenant.is_empty() {
            return Response::Error {
                error: "tenant name cannot be empty".into(),
            };
        }
        let Ok(cpus) = u32::try_from(cpus) else {
            return Response::Error {
                error: format!("cpus {cpus} overflows the cluster's u32 capacity"),
            };
        };
        if len == 0 || cpus == 0 {
            return Response::Error {
                error: "job length and cpus must both be positive".into(),
            };
        }
        let arrival = SimTime::from_minutes(at);
        if arrival < self.engine.now() {
            return Response::Error {
                error: format!(
                    "arrival {at} is in the past; the service clock is at {}",
                    self.engine.now().as_minutes()
                ),
            };
        }
        let job = Job::new(
            JobId(self.engine.submitted()),
            arrival,
            Minutes::new(len),
            cpus,
        );
        let idx = match self.engine.submit(job) {
            Ok(idx) => idx,
            Err(error) => {
                return Response::Error {
                    error: error.to_string(),
                }
            }
        };
        if self.telemetry.is_some() {
            let (carbon_g, cost_usd) = self.engine.naive_baseline(arrival, Minutes::new(len), cpus);
            self.job_base.push(JobBase {
                len_min: len,
                carbon_g,
                cost_usd,
            });
        }
        let tid = self.intern(tenant);
        self.job_tenant.push(tid);
        self.tenants[tid as usize].body.submitted += 1;
        self.engine.emit_frontend(&ObsEvent::JobAccepted {
            t: at,
            job: u64::from(idx),
            tenant: tenant.to_string(),
        });
        // Advance to the arrival: the policy plans this job now, and
        // everything scheduled before `at` executes first.
        if let Err(error) = self.engine.advance_to(arrival, &mut self.scheduler) {
            return Response::Error {
                error: error.to_string(),
            };
        }
        let queued = self.engine.queued();
        self.engine.emit_frontend(&ObsEvent::Replan {
            t: at,
            job: u64::from(idx),
            queued,
        });
        self.settle();
        Response::Submitted {
            job: u64::from(idx),
            tenant: tenant.to_string(),
            t: at,
            queued,
        }
    }

    fn query(&self, job: u64) -> Response {
        let Some(status) = u32::try_from(job)
            .ok()
            .and_then(|i| self.engine.job_status(i))
        else {
            return Response::Error {
                error: format!("no job {job} was ever submitted"),
            };
        };
        let detail = match status {
            JobStatus::Pending => StatusDetail::Pending,
            JobStatus::Queued { planned_start } => StatusDetail::Queued {
                planned_start: planned_start.as_minutes(),
            },
            JobStatus::Running { pool, since } => StatusDetail::Running {
                pool: pool.to_string(),
                since: since.as_minutes(),
            },
            JobStatus::Suspended => StatusDetail::Suspended,
            JobStatus::Done {
                finish,
                carbon_g,
                cost,
                waiting,
                evictions,
            } => StatusDetail::Done {
                finish: finish.as_minutes(),
                carbon_g,
                cost,
                wait: waiting.as_minutes(),
                evictions: u64::from(evictions),
            },
            JobStatus::Cancelled { at, carbon_g, cost } => StatusDetail::Cancelled {
                at: at.as_minutes(),
                carbon_g,
                cost,
            },
        };
        Response::Status { job, detail }
    }

    fn cancel(&mut self, job: u64) -> Response {
        let Ok(idx) = u32::try_from(job) else {
            return Response::CancelResult {
                job,
                outcome: "unknown",
            };
        };
        match self.engine.cancel(idx) {
            Ok(CancelOutcome::Cancelled) => {
                if let Some(JobStatus::Cancelled { carbon_g, cost, .. }) =
                    self.engine.job_status(idx)
                {
                    let body = &mut self.tenants[self.job_tenant[idx as usize] as usize].body;
                    body.cancelled += 1;
                    body.carbon_g += carbon_g;
                    body.cost += cost;
                }
                self.settle();
                Response::CancelResult {
                    job,
                    outcome: "cancelled",
                }
            }
            Ok(CancelOutcome::AlreadyFinished) => Response::CancelResult {
                job,
                outcome: "already-finished",
            },
            Ok(CancelOutcome::Unknown) => Response::CancelResult {
                job,
                outcome: "unknown",
            },
            Err(error) => Response::Error {
                error: error.to_string(),
            },
        }
    }

    fn stats(&self, tenant: Option<&str>) -> Response {
        let t = self.engine.now().as_minutes();
        match tenant {
            Some(name) => match self.tenants.iter().find(|s| s.name == name) {
                Some(stats) => {
                    let mut body = stats.body.clone();
                    body.queued = body.submitted - body.completed - body.cancelled;
                    Response::Stats {
                        tenant: Some(name.to_string()),
                        t,
                        body,
                    }
                }
                None => Response::Error {
                    error: format!("tenant {name:?} has never submitted"),
                },
            },
            None => {
                let mut body = StatsBody {
                    submitted: self.engine.submitted(),
                    completed: self.engine.completed(),
                    cancelled: self.engine.cancelled(),
                    queued: self.engine.queued(),
                    ..StatsBody::default()
                };
                for tenant in &self.tenants {
                    body.carbon_g += tenant.body.carbon_g;
                    body.cost += tenant.body.cost;
                    body.wait_min += tenant.body.wait_min;
                }
                Response::Stats {
                    tenant: None,
                    t,
                    body,
                }
            }
        }
    }

    fn drain(&mut self) -> Response {
        if let Err(error) = self.engine.run_until_idle(&mut self.scheduler) {
            return Response::Error {
                error: error.to_string(),
            };
        }
        self.settle();
        Response::Drained {
            t: self.engine.now().as_minutes(),
            completed: self.engine.completed(),
        }
    }

    /// Encodes a snapshot of the full service state, bumps the snapshot
    /// ordinal, and emits the `snapshot_written` trace event. The caller
    /// persists the bytes; a restore that replays the remaining request
    /// log is byte-identical to never having stopped.
    pub fn snapshot(&mut self) -> (u64, Vec<u8>) {
        self.snapshots += 1;
        let bytes = crate::snapshot::encode(self);
        self.engine.emit_frontend(&ObsEvent::SnapshotWritten {
            t: self.engine.now().as_minutes(),
            seq: self.snapshots,
            bytes: bytes.len() as u64,
        });
        (self.snapshots, bytes)
    }

    fn intern(&mut self, tenant: &str) -> u32 {
        if let Some(tid) = self.tenants.iter().position(|s| s.name == tenant) {
            return tid as u32;
        }
        self.tenants.push(TenantStats {
            name: tenant.to_string(),
            body: StatsBody::default(),
        });
        if let Some(telemetry) = &self.telemetry {
            self.tenant_tel
                .push(telemetry.tenant(self.tenants.len() - 1, tenant));
        }
        (self.tenants.len() - 1) as u32
    }

    /// Attributes newly completed jobs to their tenants.
    fn settle(&mut self) {
        for idx in self.engine.take_completions() {
            let Some(JobStatus::Done {
                carbon_g,
                cost,
                waiting,
                ..
            }) = self.engine.job_status(idx)
            else {
                continue;
            };
            let tid = self.job_tenant[idx as usize] as usize;
            let body = &mut self.tenants[tid].body;
            body.completed += 1;
            body.carbon_g += carbon_g;
            body.cost += cost;
            body.wait_min += waiting.as_minutes();
            if self.telemetry.is_some() {
                // Jobs from before telemetry attachment carry the
                // UNKNOWN sentinel (len 0) and are skipped.
                let base = self
                    .job_base
                    .get(idx as usize)
                    .copied()
                    .unwrap_or(JobBase::UNKNOWN);
                if base.len_min > 0 {
                    let wait_min = waiting.as_minutes();
                    self.tenant_tel[tid].record_completion(
                        wait_min as f64 / 60.0,
                        (wait_min + base.len_min) as f64 / base.len_min as f64,
                        carbon_g,
                        cost,
                        base.carbon_g,
                        base.cost_usd,
                    );
                }
            }
        }
    }

    pub(crate) fn parts(&self) -> (&OnlineEngine<'e, S>, &[TenantStats], &[u32], u64) {
        (
            &self.engine,
            &self.tenants,
            &self.job_tenant,
            self.snapshots,
        )
    }

    /// A session over restored or fresh parts. Its two per-job columns
    /// take the two rungs of the engine's [`stagger_capacity`] ladder
    /// after the engine's own, so with or without telemetry at most one
    /// per-job vector reallocates on any submit.
    pub(crate) fn from_parts(
        engine: OnlineEngine<'e, S>,
        policy: PolicySpec,
        tenants: Vec<TenantStats>,
        mut job_tenant: Vec<u32>,
        snapshots: u64,
    ) -> Self {
        let jobs = job_tenant.len();
        stagger_reserve(&mut job_tenant, STAGGER_RUNGS, jobs);
        Session {
            engine,
            scheduler: policy.build(QueueSet::paper_defaults()),
            policy,
            tenants,
            job_tenant,
            snapshots,
            telemetry: None,
            tenant_tel: Vec::new(),
            job_base: Vec::with_capacity(jobs + stagger_capacity(STAGGER_RUNGS + 1)),
        }
    }
}

// The session's rungs must stay in the ladder's octave.
const _: () = assert!(stagger_capacity(STAGGER_RUNGS + 1) < 2 * stagger_capacity(0));

impl<S: Sink> std::fmt::Debug for Session<'_, S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("engine", &self.engine)
            .field("tenants", &self.tenants.len())
            .field("snapshots", &self.snapshots)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaia_carbon::synth::synthesize_region;
    use gaia_carbon::{PerfectForecaster, Region};
    use gaia_core::catalog::BasePolicyKind;
    use gaia_obs::NullSink;
    use gaia_sim::ClusterConfig;

    fn submit(i: u64) -> Request {
        Request::Submit {
            tenant: "acme".to_owned(),
            at: i,
            len: 60,
            cpus: 1,
        }
    }

    /// `reserve_jobs` then `attach_telemetry`, as the daemon boots, also
    /// after jobs were submitted untracked: the reserved submissions
    /// never grow the telemetry baselines.
    #[test]
    fn reservation_covers_the_telemetry_baselines() {
        let config = ClusterConfig::default().with_reserved(0).with_seed(3);
        let carbon = synthesize_region(Region::SouthAustralia, 3);
        let forecaster = PerfectForecaster::new(&carbon);
        for earlier in [0u64, 37] {
            let mut sink = NullSink;
            let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
            let mut session = Session::new(engine, PolicySpec::plain(BasePolicyKind::NoWait));
            for i in 0..earlier {
                session.apply(&submit(i));
            }
            session.reserve_jobs(5000);
            session.attach_telemetry(Arc::new(ServeTelemetry::new()));
            let capacity = session.job_base.capacity();
            for i in earlier..earlier + 5000 {
                session.apply(&submit(i));
            }
            assert_eq!(session.job_base.len(), (earlier + 5000) as usize);
            assert_eq!(session.job_base.capacity(), capacity, "earlier {earlier}");
        }
    }
}
