//! Discrete-event cloud cluster simulator for GAIA.
//!
//! This crate is the Rust equivalent of the paper's **GAIA-Simulator**
//! (§5): a trace-driven cloud cluster that emulates the cost model and
//! behaviour of AWS purchase options — prepaid **reserved** instances,
//! pay-as-you-go **on-demand** instances, and discounted but evictable
//! **spot** instances — together with carbon, cost, and waiting-time
//! accounting.
//!
//! The simulator knows nothing about scheduling policies. Policies live
//! in `gaia-core` and communicate through the [`Scheduler`] trait: at
//! each job arrival the policy returns a [`Decision`] (a planned start
//! time and purchase preferences, or a suspend-resume segment plan), and
//! the engine executes it, handling reserved-capacity bookkeeping,
//! work-conserving early starts, spot evictions and restarts, and the
//! final accounting.
//!
//! # Examples
//!
//! ```
//! use gaia_carbon::CarbonTrace;
//! use gaia_sim::{ClusterConfig, Decision, SchedulerContext, Scheduler, Simulation};
//! use gaia_workload::{Job, JobId, WorkloadTrace};
//! use gaia_time::{Minutes, SimTime};
//!
//! /// Runs everything immediately: the paper's NoWait baseline.
//! struct RunNow;
//! impl Scheduler for RunNow {
//!     fn on_arrival(&mut self, job: &Job, _ctx: &SchedulerContext<'_>) -> Decision {
//!         Decision::run_at(job.arrival)
//!     }
//! }
//!
//! let trace = WorkloadTrace::from_jobs(vec![
//!     Job::new(JobId(0), SimTime::ORIGIN, Minutes::from_hours(2), 1),
//! ]);
//! let carbon = CarbonTrace::constant(100.0, 24)?;
//! let run = Simulation::new(ClusterConfig::default(), &carbon)
//!     .runner(&trace, &mut RunNow)
//!     .execute()
//!     .expect("valid policy decisions");
//! assert_eq!(run.report.jobs[0].waiting, Minutes::ZERO);
//! # Ok::<(), gaia_carbon::CarbonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod account;
mod audit;
pub mod codec;
mod config;
mod engine;
mod error;
mod eventq;
mod eviction;
mod online;
pub mod output;
mod plan;
mod pool;
mod report;
mod snapshot;

pub use account::{ClusterTotals, JobOutcome, SegmentRecord};
pub use audit::{audit_report, audit_report_faulted, AuditInvariant, AuditReport, AuditViolation};
pub use codec::durable_write;
pub use config::{
    CapacityCap, CheckpointConfig, ClusterConfig, EnergyModel, InstanceOverheads, Pricing,
};
pub use engine::{PolicyCarbon, Scheduler, SchedulerContext, SimRun, SimRunner, Simulation};
pub use error::{PolicyError, SimError};
// Observability: re-exported so engine callers can trace and profile
// runs ([`SimRunner::sink`], [`Simulation::with_profiler`]) without
// naming gaia-obs directly.
pub use eviction::EvictionModel;
// Fault injection: re-exported so engine callers can build and compile
// fault plans ([`Simulation::with_faults`]) without naming gaia-fault
// directly.
pub use gaia_fault::{FaultError, FaultPlan, FaultSchedule, FaultSpec};
pub use gaia_obs::{
    Event as TraceEvent, JsonlSink, NullSink, Profiler, Sink, TraceSummary, VecSink,
};
pub use online::{
    stagger_capacity, stagger_reserve, CancelOutcome, JobStatus, OnlineEngine, STAGGER_RUNGS,
};
pub use plan::{Decision, ElasticPlan, ElasticSegment, PurchaseOption, SegmentPlan};
pub use pool::ReservedPool;
pub use report::{AllocationTimeline, DegradationStats, SimReport, TransferStats};
pub use snapshot::{fnv1a, SnapshotError, SNAPSHOT_VERSION};
