//! End-to-end session behaviour: multi-tenant accounting, the full
//! request vocabulary, and snapshot/restore byte-identity.

use gaia_carbon::synth::synthesize_region;
use gaia_carbon::{PerfectForecaster, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::{Event, VecSink};
use gaia_serve::protocol::{Request, Response};
use gaia_serve::Session;
use gaia_sim::codec::corruptions;
use gaia_sim::{ClusterConfig, OnlineEngine, SnapshotError};

fn statics() -> (ClusterConfig, gaia_carbon::CarbonTrace) {
    let config = ClusterConfig::default().with_reserved(2).with_seed(7);
    let carbon = synthesize_region(Region::SouthAustralia, 7);
    (config, carbon)
}

fn policy() -> PolicySpec {
    PolicySpec::res_first(BasePolicyKind::CarbonTime)
}

/// A deterministic two-tenant request log exercising every op.
fn request_log() -> Vec<Request> {
    let tenants = ["acme", "blue"];
    let mut log = Vec::new();
    for i in 0..30u64 {
        log.push(Request::Submit {
            tenant: tenants[(i % 2) as usize].to_string(),
            at: i * 13,
            len: 30 + (i * 17) % 240,
            cpus: 1 + i % 3,
        });
        if i % 5 == 4 {
            log.push(Request::Query { job: i / 2 });
        }
        if i % 7 == 6 {
            log.push(Request::Stats {
                tenant: Some(tenants[(i % 2) as usize].to_string()),
            });
        }
        if i == 20 {
            // Cancel the job just submitted, before it can finish.
            log.push(Request::Cancel { job: 20 });
        }
    }
    log.push(Request::Drain);
    log.push(Request::Stats { tenant: None });
    log.push(Request::Stats {
        tenant: Some("acme".to_string()),
    });
    log.push(Request::Stats {
        tenant: Some("blue".to_string()),
    });
    log
}

/// Applies `log[..stop]`, snapshotting after `snap_at` requests if
/// given. Returns (response lines, events, snapshot bytes, final state
/// bytes).
fn run_prefix(
    log: &[Request],
    snap_at: Option<usize>,
) -> (Vec<String>, Vec<Event>, Option<Vec<u8>>, Vec<u8>) {
    let (config, carbon) = statics();
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = VecSink::new();
    let mut responses = Vec::new();
    let mut snapshot = None;
    let final_state;
    {
        let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
        let mut session = Session::new(engine, policy());
        for (i, request) in log.iter().enumerate() {
            responses.push(session.apply(request).to_json_line());
            if snap_at == Some(i + 1) {
                snapshot = Some(session.snapshot().1);
            }
        }
        final_state = gaia_serve::encode(&session);
    }
    (responses, sink.into_events(), snapshot, final_state)
}

#[test]
fn two_tenants_are_accounted_separately() {
    let log = request_log();
    let (responses, events, _, _) = run_prefix(&log, None);
    assert_eq!(responses.len(), log.len());
    // No request in the log is malformed.
    for line in &responses {
        assert!(line.starts_with("{\"ok\":true"), "{line}");
    }
    // The final three stats lines: cluster, acme, blue.
    let cluster = &responses[responses.len() - 3];
    let acme = &responses[responses.len() - 2];
    let blue = &responses[responses.len() - 1];
    assert!(
        cluster.contains("\"scope\":\"cluster\",\"t\":"),
        "{cluster}"
    );
    assert!(cluster.contains("\"submitted\":30,"), "{cluster}");
    assert!(cluster.contains("\"cancelled\":1,"), "{cluster}");
    assert!(cluster.contains("\"completed\":29,"), "{cluster}");
    assert!(
        acme.contains("\"scope\":\"tenant\",\"tenant\":\"acme\""),
        "{acme}"
    );
    assert!(acme.contains("\"submitted\":15,"), "{acme}");
    assert!(blue.contains("\"submitted\":15,"), "{blue}");
    // Job 20 belongs to acme (even index) and was cancelled.
    assert!(acme.contains("\"cancelled\":1,"), "{acme}");
    assert!(blue.contains("\"cancelled\":0,"), "{blue}");
    // Serving events interleave with engine events.
    let accepted = events
        .iter()
        .filter(|e| matches!(e, Event::JobAccepted { .. }))
        .count();
    let replans = events
        .iter()
        .filter(|e| matches!(e, Event::Replan { .. }))
        .count();
    assert_eq!(accepted, 30);
    assert_eq!(replans, 30);
}

#[test]
fn cancelled_jobs_report_partial_accounting() {
    let (config, carbon) = statics();
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = VecSink::new();
    let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    let mut session = Session::new(engine, policy());
    let accepted = session.apply(&Request::Submit {
        tenant: "acme".into(),
        at: 0,
        len: 600,
        cpus: 1,
    });
    assert!(matches!(accepted, Response::Submitted { job: 0, .. }));
    let cancelled = session.apply(&Request::Cancel { job: 0 });
    assert_eq!(
        cancelled.to_json_line(),
        r#"{"ok":true,"op":"cancel","job":0,"outcome":"cancelled"}"#
    );
    let again = session.apply(&Request::Cancel { job: 0 });
    assert!(
        again.to_json_line().contains("already-finished"),
        "{again:?}"
    );
    let status = session.apply(&Request::Query { job: 0 }).to_json_line();
    assert!(status.contains("\"state\":\"cancelled\""), "{status}");
    let missing = session.apply(&Request::Query { job: 5 }).to_json_line();
    assert!(missing.starts_with("{\"ok\":false"), "{missing}");
}

#[test]
fn rejected_submissions_leave_state_untouched() {
    let (config, carbon) = statics();
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = VecSink::new();
    let engine = OnlineEngine::new(&config, &carbon, &forecaster, &mut sink);
    let mut session = Session::new(engine, policy());
    for (request, needle) in [
        (
            Request::Submit {
                tenant: "".into(),
                at: 0,
                len: 10,
                cpus: 1,
            },
            "tenant name",
        ),
        (
            Request::Submit {
                tenant: "acme".into(),
                at: 0,
                len: 0,
                cpus: 1,
            },
            "positive",
        ),
        (
            Request::Submit {
                tenant: "acme".into(),
                at: 0,
                len: 10,
                cpus: 0,
            },
            "positive",
        ),
    ] {
        let line = session.apply(&request).to_json_line();
        assert!(line.contains(needle), "{line}");
    }
    // Time moved forward; submitting into the past is rejected too.
    let ok = session.apply(&Request::Submit {
        tenant: "acme".into(),
        at: 100,
        len: 10,
        cpus: 1,
    });
    assert!(matches!(ok, Response::Submitted { .. }));
    let stale = session
        .apply(&Request::Submit {
            tenant: "acme".into(),
            at: 50,
            len: 10,
            cpus: 1,
        })
        .to_json_line();
    assert!(stale.contains("in the past"), "{stale}");
    assert_eq!(session.engine().submitted(), 1);
}

#[test]
fn restore_replays_byte_identically() {
    let log = request_log();
    let snap_at = 17;
    // Full uninterrupted run, snapshotting mid-stream without stopping.
    let (full_responses, full_events, snapshot, full_final) = run_prefix(&log, Some(snap_at));
    let snapshot = snapshot.expect("snapshot was taken");
    // Prefix-only run to learn how many events precede the snapshot
    // (its event stream is a prefix of the full run's, plus the same
    // snapshot_written event).
    let (_, prefix_events, _, _) = run_prefix(&log[..snap_at], Some(snap_at));
    let n0 = prefix_events.len();
    assert_eq!(&full_events[..n0], &prefix_events[..]);

    // Restored run: boot from the snapshot, replay the tail.
    let (config, carbon) = statics();
    let forecaster = PerfectForecaster::new(&carbon);
    let mut sink = VecSink::new();
    let restored_final;
    let mut tail_responses = Vec::new();
    {
        let mut session = gaia_serve::restore(
            &config,
            &carbon,
            &forecaster,
            &mut sink,
            None,
            None,
            &snapshot,
        )
        .expect("snapshot restores");
        assert_eq!(session.snapshots_written(), 1);
        for request in &log[snap_at..] {
            tail_responses.push(session.apply(request).to_json_line());
        }
        restored_final = gaia_serve::encode(&session);
    }
    assert_eq!(tail_responses, full_responses[snap_at..].to_vec());
    assert_eq!(sink.events(), &full_events[n0..]);
    assert_eq!(restored_final, full_final);
}

#[test]
fn corrupt_service_snapshots_are_rejected() {
    let log = request_log();
    let (_, _, snapshot, _) = run_prefix(&log[..5], Some(5));
    let good = snapshot.expect("snapshot was taken");
    let (config, carbon) = statics();
    let forecaster = PerfectForecaster::new(&carbon);

    let mut bad_magic = good.clone();
    bad_magic[0] ^= 0xff;
    let mut sink = VecSink::new();
    let err = gaia_serve::restore(
        &config,
        &carbon,
        &forecaster,
        &mut sink,
        None,
        None,
        &bad_magic,
    )
    .expect_err("bad magic");
    assert!(err.to_string().contains("magic"), "{err}");

    let mut bad_version = good.clone();
    bad_version[8..12].copy_from_slice(&99u32.to_le_bytes());
    let mut sink = VecSink::new();
    let err = gaia_serve::restore(
        &config,
        &carbon,
        &forecaster,
        &mut sink,
        None,
        None,
        &bad_version,
    )
    .expect_err("unknown version");
    assert!(err.to_string().contains("version"), "{err}");

    let restore = |bytes: &[u8]| {
        let mut sink = VecSink::new();
        gaia_serve::restore(&config, &carbon, &forecaster, &mut sink, None, None, bytes).map(|_| ())
    };
    for cut in 0..good.len() {
        let err = restore(&good[..cut]).expect_err("truncation");
        assert!(
            matches!(err, SnapshotError::Corrupt(_)),
            "cut at {cut}: {err}"
        );
    }
    // Single-byte overwrites and `u64::MAX` counts decode to a typed
    // error or a valid session; none may panic or over-allocate.
    for corrupt in corruptions(&good) {
        let _ = restore(&corrupt);
    }

    // A different cluster is refused by the engine-level fingerprints.
    let other_config = ClusterConfig::default().with_reserved(9).with_seed(7);
    let mut sink = VecSink::new();
    let err = gaia_serve::restore(
        &other_config,
        &carbon,
        &forecaster,
        &mut sink,
        None,
        None,
        &good,
    )
    .expect_err("config mismatch");
    assert!(err.to_string().contains("config"), "{err}");
}
