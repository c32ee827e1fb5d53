//! TCP smoke tests: a real daemon on a loopback socket, driven through
//! [`gaia_serve::client::replay`], including snapshot + restore across
//! two daemon lifetimes.

use std::fs;
use std::io::Cursor;
use std::path::PathBuf;
use std::thread;
use std::time::Duration;

use gaia_serve::{run, ServeOptions};
use gaia_sim::{durable_write, FaultPlan, FaultSpec};

fn temp_path(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("gaia-serve-test-{}-{name}", std::process::id()));
    path
}

/// Waits for the daemon to publish its bound address.
fn wait_for_addr(path: &PathBuf) -> String {
    for _ in 0..500 {
        if let Ok(text) = fs::read_to_string(path) {
            let addr = text.trim().to_string();
            if !addr.is_empty() {
                return addr;
            }
        }
        thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never wrote {}", path.display());
}

fn replay_str(addr: &str, input: &str) -> (u64, String) {
    let mut out = Vec::new();
    let sent = gaia_serve::client::replay(addr, Cursor::new(input.as_bytes()), &mut out)
        .expect("replay succeeds");
    (sent, String::from_utf8(out).expect("responses are UTF-8"))
}

#[test]
fn daemon_serves_submissions_and_restores_from_snapshot() {
    let addr_file = temp_path("addr");
    let snapshot_path = temp_path("snap");
    let _ = fs::remove_file(&addr_file);
    let _ = fs::remove_file(&snapshot_path);

    // A 20-submission log from two tenants, split in half: the first
    // daemon takes the first half and snapshots at submission 10; a
    // second daemon restores and takes the second half. The combined
    // response stream must equal one uninterrupted daemon's.
    let mut all = Vec::new();
    for i in 0..20u64 {
        let tenant = if i % 2 == 0 { "acme" } else { "blue" };
        all.push(format!(
            r#"{{"op":"submit","tenant":"{tenant}","at":{},"len":{},"cpus":1}}"#,
            i * 9,
            20 + i * 7,
        ));
    }
    let tail_probe = [
        r#"{"op":"stats"}"#.to_string(),
        r#"{"op":"stats","tenant":"acme"}"#.to_string(),
        r#"{"op":"query","job":3}"#.to_string(),
    ];
    let first_half = all[..10].join("\n");
    let second_half = format!("{}\n{}", all[10..].join("\n"), tail_probe.join("\n"));
    let full_log = format!("{}\n{}", all.join("\n"), tail_probe.join("\n"));

    let options = ServeOptions {
        addr_file: Some(addr_file.clone()),
        snapshot_path: snapshot_path.clone(),
        snapshot_every: Some(10),
        ..ServeOptions::default()
    };

    // Uninterrupted reference daemon.
    let reference = {
        let options = options.clone();
        let handle = thread::spawn(move || run(&options));
        let addr = wait_for_addr(&addr_file);
        let (_, responses) = replay_str(&addr, &full_log);
        let (_, bye) = replay_str(&addr, r#"{"op":"shutdown"}"#);
        assert_eq!(bye.trim(), r#"{"ok":true,"op":"shutdown"}"#);
        handle.join().expect("daemon thread").expect("daemon run");
        responses
    };
    let _ = fs::remove_file(&addr_file);
    let _ = fs::remove_file(&snapshot_path);

    // Interrupted pair: first half (snapshot lands at submission 10)…
    let first_responses = {
        let options = options.clone();
        let handle = thread::spawn(move || run(&options));
        let addr = wait_for_addr(&addr_file);
        let (sent, responses) = replay_str(&addr, &first_half);
        assert_eq!(sent, 10);
        let (_, _) = replay_str(&addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("daemon thread").expect("daemon run");
        responses
    };
    assert!(snapshot_path.exists(), "periodic snapshot was written");
    let _ = fs::remove_file(&addr_file);

    // …then a fresh daemon restored from that snapshot.
    let second_responses = {
        let options = ServeOptions {
            restore: Some(snapshot_path.clone()),
            ..options.clone()
        };
        let handle = thread::spawn(move || run(&options));
        let addr = wait_for_addr(&addr_file);
        let (_, responses) = replay_str(&addr, &second_half);
        let (_, _) = replay_str(&addr, r#"{"op":"shutdown"}"#);
        handle.join().expect("daemon thread").expect("daemon run");
        responses
    };

    let stitched = format!("{first_responses}{second_responses}");
    assert_eq!(stitched, reference);

    let _ = fs::remove_file(&addr_file);
    let _ = fs::remove_file(&snapshot_path);
}

#[test]
fn daemon_handles_concurrent_tenants_and_bad_input() {
    let addr_file = temp_path("addr2");
    let _ = fs::remove_file(&addr_file);
    let options = ServeOptions {
        addr_file: Some(addr_file.clone()),
        snapshot_path: temp_path("snap2"),
        ..ServeOptions::default()
    };
    let handle = thread::spawn(move || run(&options));
    let addr = wait_for_addr(&addr_file);

    // Two tenants on two concurrent connections.
    let addr_a = addr.clone();
    let t_a = thread::spawn(move || {
        replay_str(
            &addr_a,
            r#"{"op":"submit","tenant":"acme","at":0,"len":30,"cpus":1}"#,
        )
    });
    let addr_b = addr.clone();
    let t_b = thread::spawn(move || {
        replay_str(
            &addr_b,
            r#"{"op":"submit","tenant":"blue","at":0,"len":30,"cpus":1}"#,
        )
    });
    let (_, a) = t_a.join().expect("tenant a");
    let (_, b) = t_b.join().expect("tenant b");
    assert!(a.contains("\"ok\":true"), "{a}");
    assert!(b.contains("\"ok\":true"), "{b}");

    // Malformed input gets an error response, not a dropped connection.
    let (_, bad) = replay_str(&addr, "{\"op\":\"frobnicate\"}\nnot json at all");
    let lines: Vec<&str> = bad.lines().collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].starts_with("{\"ok\":false"), "{bad}");
    assert!(lines[1].starts_with("{\"ok\":false"), "{bad}");

    // Cluster stats saw both tenants' submissions.
    let (_, stats) = replay_str(&addr, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"submitted\":2,"), "{stats}");

    let (_, _) = replay_str(&addr, r#"{"op":"shutdown"}"#);
    handle.join().expect("daemon thread").expect("daemon run");
    let _ = fs::remove_file(&addr_file);
}

/// `--faults` with a trace gap past the end of the carbon trace is
/// refused before the daemon binds: `run` returns an error about the
/// plan, and no address file is written.
#[test]
fn daemon_refuses_a_fault_plan_past_the_carbon_trace() {
    let addr_file = temp_path("addr-faults");
    let plan_path = temp_path("faults.json");
    let _ = fs::remove_file(&addr_file);
    let mut plan = FaultPlan::new();
    plan.push(FaultSpec::TraceGap {
        start_hour: 24 * 400,
        hours: 24,
    });
    fs::write(&plan_path, plan.to_json()).expect("write fault plan");
    let options = ServeOptions {
        addr_file: Some(addr_file.clone()),
        faults: Some(plan_path.clone()),
        ..ServeOptions::default()
    };
    let err = run(&options).expect_err("the plan does not fit the trace");
    assert!(
        err.starts_with("fault plan does not fit the carbon trace") && err.contains("reaches past"),
        "{err}"
    );
    assert!(
        !addr_file.exists(),
        "the daemon bound before refusing the plan"
    );
    let _ = fs::remove_file(&plan_path);
}

/// A reader racing [`durable_write`] of a snapshot must only ever see
/// a complete old or complete new snapshot at the final path — rename
/// atomicity plus the pre-rename fsync mean partial bytes are never
/// observable under the snapshot name.
#[test]
fn persist_snapshot_never_exposes_partial_bytes() {
    let path = temp_path("atomic.snap");
    let _ = fs::remove_file(&path);
    let payload_a = vec![0xAAu8; 64 * 1024];
    let payload_b = vec![0xBBu8; 256 * 1024];
    durable_write(&path, &payload_a).expect("initial persist");

    let reader_path = path.clone();
    let reader = thread::spawn(move || {
        for _ in 0..400 {
            let bytes = fs::read(&reader_path).expect("snapshot path always readable");
            let complete = bytes.iter().all(|&b| b == 0xAA) && bytes.len() == 64 * 1024
                || bytes.iter().all(|&b| b == 0xBB) && bytes.len() == 256 * 1024;
            assert!(
                complete,
                "observed partial snapshot: {} byte(s), first {:?}",
                bytes.len(),
                bytes.first()
            );
        }
    });
    for round in 0..40 {
        let payload = if round % 2 == 0 {
            &payload_b
        } else {
            &payload_a
        };
        durable_write(&path, payload).expect("persist");
    }
    reader.join().expect("reader thread");

    // A successful persist leaves no staging file behind.
    assert!(!path.with_extension("tmp").exists(), "tmp must not linger");
    let _ = fs::remove_file(&path);
}

/// A persist that fails partway keeps the previous snapshot intact and
/// never leaves a readable staging file under the final name.
#[test]
fn persist_snapshot_failure_keeps_previous_snapshot() {
    let path = temp_path("wedged.snap");
    let tmp = path.with_extension("tmp");
    let _ = fs::remove_file(&path);
    durable_write(&path, b"good snapshot").expect("initial persist");

    // Wedge the staging path: a directory where the `.tmp` file goes
    // makes the write fail before anything touches the final name.
    let _ = fs::remove_file(&tmp);
    fs::create_dir(&tmp).expect("wedge staging path");
    let err = durable_write(&path, b"half-written").expect_err("persist must fail");
    assert_eq!(err.kind(), std::io::ErrorKind::IsADirectory);
    assert_eq!(
        fs::read(&path).expect("previous snapshot survives"),
        b"good snapshot"
    );
    fs::remove_dir(&tmp).expect("unwedge");

    // Recovery: the next persist succeeds and replaces the bytes whole.
    durable_write(&path, b"fresh snapshot").expect("recovered persist");
    assert_eq!(fs::read(&path).expect("snapshot"), b"fresh snapshot");
    assert!(!tmp.exists(), "tmp must not linger after recovery");
    let _ = fs::remove_file(&path);
}
