//! Versioned binary snapshots of a full [`Session`].
//!
//! A service snapshot wraps the engine snapshot
//! ([`OnlineEngine::snapshot`]) with the serving layer's own state: the
//! policy the scheduler is built from, the tenant table in interning
//! order, the job→tenant map, and the snapshot ordinal. It is encoded
//! with the workspace codec ([`gaia_sim::codec`]) under the same
//! contract as the engine format: little-endian, length-prefixed, no
//! padding; identical sessions encode to identical bytes; **any** layout
//! change bumps [`SERVICE_SNAPSHOT_VERSION`] and readers accept exactly
//! the versions they know.
//!
//! Layout (version 1), after the 8-byte magic `b"GAIASRVS"` and the
//! `u32` version:
//!
//! 1. policy: base-kind name (string), `res_first` byte, optional spot
//!    `j_max` minutes,
//! 2. snapshot ordinal (`u64`),
//! 3. tenant table: count, then per tenant name + 6 counter fields,
//! 4. job→tenant map: count, then one `u32` per job,
//! 5. engine snapshot: byte length, then the engine bytes verbatim
//!    (validated by [`OnlineEngine::restore`]).

use gaia_carbon::{CarbonForecaster, CarbonTrace};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::SpotConfig;
use gaia_fault::FaultSchedule;
use gaia_obs::Sink;
use gaia_sim::codec::{Reader, Writer};
use gaia_sim::{ClusterConfig, OnlineEngine, SnapshotError};
use gaia_time::Minutes;

use crate::protocol::StatsBody;
use crate::session::{Session, TenantStats};

/// Current service snapshot format version.
pub const SERVICE_SNAPSHOT_VERSION: u32 = 1;

const MAGIC: &[u8; 8] = b"GAIASRVS";

/// Encodes the full service state. Byte-deterministic: equal sessions
/// produce equal bytes.
pub fn encode<S: Sink>(session: &Session<'_, S>) -> Vec<u8> {
    let (engine, tenants, job_tenant, snapshots) = session.parts();
    let policy = session.policy();
    let mut w = Writer::with_header(MAGIC, SERVICE_SNAPSHOT_VERSION);
    w.str(policy.base.name());
    w.bool(policy.res_first);
    w.opt(policy.spot.as_ref(), |w, spot: &SpotConfig| {
        w.u64(spot.j_max.as_minutes())
    });
    w.u64(snapshots);
    w.u64(tenants.len() as u64);
    for tenant in tenants {
        w.str(&tenant.name);
        w.u64(tenant.body.submitted);
        w.u64(tenant.body.completed);
        w.u64(tenant.body.cancelled);
        w.f64(tenant.body.carbon_g);
        w.f64(tenant.body.cost);
        w.u64(tenant.body.wait_min);
    }
    w.u64(job_tenant.len() as u64);
    for tid in job_tenant {
        w.u32(*tid);
    }
    w.bytes(&engine.snapshot());
    w.into_bytes()
}

/// Restores a session from `bytes` over the given static inputs.
///
/// The policy is read from the snapshot (not passed in), so a restored
/// session cannot silently run a different scheduler than the one that
/// produced the snapshot. The engine half is validated by
/// [`OnlineEngine::restore`] — config/carbon fingerprints, dense ids,
/// cross-references — and the service half cross-checks the job→tenant
/// map against the engine's job count.
///
/// `faults`/`fallback` re-attach the same compiled fault schedule the
/// snapshotting service ran with (non-arming: the armed state — pending
/// ticks, announcements, provenance — is already inside the snapshot).
pub fn restore<'e, S: Sink>(
    config: &'e ClusterConfig,
    carbon: &'e CarbonTrace,
    forecaster: &'e dyn CarbonForecaster,
    sink: &'e mut S,
    faults: Option<&'e FaultSchedule>,
    fallback: Option<&'e dyn CarbonForecaster>,
    bytes: &[u8],
) -> Result<Session<'e, S>, SnapshotError> {
    let mut r = Reader::new(bytes);
    r.header(MAGIC, SERVICE_SNAPSHOT_VERSION)?;
    let base_name = r.str()?;
    let base = BasePolicyKind::parse(&base_name)
        .ok_or_else(|| SnapshotError::Incompatible(format!("unknown base policy {base_name:?}")))?;
    let policy = PolicySpec {
        base,
        res_first: r.bool()?,
        spot: r.opt(|r| {
            r.u64().map(|m| SpotConfig {
                j_max: Minutes::new(m),
            })
        })?,
    };
    let snapshots = r.u64()?;
    let tenant_count = r.count(8)?;
    let mut tenants = Vec::with_capacity(tenant_count);
    for _ in 0..tenant_count {
        let name = r.str()?;
        if name.is_empty() {
            return Err(SnapshotError::Corrupt("empty tenant name".into()));
        }
        tenants.push(TenantStats {
            name,
            body: StatsBody {
                submitted: r.u64()?,
                completed: r.u64()?,
                cancelled: r.u64()?,
                queued: 0,
                carbon_g: r.f64()?,
                cost: r.f64()?,
                wait_min: r.u64()?,
            },
        });
    }
    let job_count = r.count(4)?;
    let mut job_tenant = Vec::with_capacity(job_count);
    for _ in 0..job_count {
        let tid = r.u32()?;
        if tid as usize >= tenants.len() {
            return Err(SnapshotError::Corrupt(format!(
                "job→tenant map references tenant {tid} of {}",
                tenants.len()
            )));
        }
        job_tenant.push(tid);
    }
    let engine_bytes = r.bytes()?;
    r.done()?;
    let mut engine = OnlineEngine::restore(config, carbon, forecaster, sink, engine_bytes)?;
    if let Some(faults) = faults {
        engine = engine.attach_faults(faults, fallback);
    }
    if engine.submitted() != job_tenant.len() as u64 {
        return Err(SnapshotError::Corrupt(format!(
            "engine holds {} jobs but the job→tenant map covers {}",
            engine.submitted(),
            job_tenant.len()
        )));
    }
    Ok(Session::from_parts(
        engine, policy, tenants, job_tenant, snapshots,
    ))
}
