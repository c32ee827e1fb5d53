//! Facts about the host recorded with every result.

use std::time::{Duration, Instant};

/// How long the noise-floor probe spins.
const NOISE_PROBE: Duration = Duration::from_millis(300);

/// Worker threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The largest gap between consecutive clock reads while spinning on
/// the clock for [`NOISE_PROBE`]: no syscalls, no allocation, so a gap
/// is time the thread was not running. On a shared host this floor
/// bounds how far any single timed operation can be inflated by
/// neighbours, independently of the code under test.
pub fn noise_floor_us() -> f64 {
    let started = Instant::now();
    let mut prev = started;
    let mut worst = Duration::ZERO;
    while prev.duration_since(started) < NOISE_PROBE {
        let now = Instant::now();
        worst = worst.max(now.duration_since(prev));
        prev = now;
    }
    worst.as_secs_f64() * 1e6
}

/// Peak resident set of process `pid` (`"self"` for this process), MB,
/// from the kernel's high-water mark.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM line in {path}"))?;
    Ok(kib / 1024.0)
}
