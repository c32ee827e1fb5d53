//! Result store: run manifests and CSV/JSON artifacts under `results/`.
//!
//! Each sweep run lands in its own directory:
//!
//! ```text
//! results/<run-name>/
//!   manifest.json    run metadata: grid spec, seeds, git describe,
//!                    wall-clock, worker count, cache stats, timing
//!                    bench (NOT byte-stable: contains timings)
//!   scenarios.csv    one row per scenario cell, in grid order
//!   aggregate.csv    across-seed mean ± std per scenario group
//!   aggregate.json   the same aggregation as JSON
//!   metrics.json     gaia-obs registry snapshot (observed runs only)
//! ```
//!
//! `scenarios.csv`, `aggregate.csv`, `aggregate.json`, and
//! `metrics.json` are pure functions of the grid and the seeds —
//! byte-identical for any worker count (verified by the determinism
//! property tests). `manifest.json` records wall-clock facts about one
//! particular execution (including the optional `"profile"` phase
//! table) and is the only artifact allowed to differ between reruns.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use gaia_obs::json::{Number, Quoted};
use gaia_obs::{MetricsRegistry, Profiler};
use gaia_sim::durable_write;

use crate::agg::GroupSummary;
use crate::SweepRun;

/// Serial-vs-parallel wall-clock comparison on the same grid, recorded
/// in the run manifest by `gaia sweep --bench`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingBench {
    /// Wall-clock of the 1-worker run, seconds.
    pub serial_secs: f64,
    /// Wall-clock of the N-worker run, seconds.
    pub parallel_secs: f64,
    /// Worker count of the parallel run.
    pub workers: usize,
    /// `serial_secs / parallel_secs`.
    pub speedup: f64,
}

/// Writes sweep runs to a per-run directory under a results root.
#[derive(Debug, Clone)]
pub struct ResultStore {
    dir: PathBuf,
}

impl ResultStore {
    /// Creates (or reuses) `<root>/<run_name>/`.
    pub fn create(root: impl AsRef<Path>, run_name: &str) -> io::Result<ResultStore> {
        let dir = root.as_ref().join(run_name);
        fs::create_dir_all(&dir)?;
        Ok(ResultStore { dir })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes all artifacts for `run`; `timing` lands in the manifest
    /// when present.
    pub fn write(&self, run: &SweepRun, timing: Option<TimingBench>) -> io::Result<()> {
        self.write_observed(run, timing, None, None)
    }

    /// [`ResultStore::write`] plus observability artifacts: a
    /// `metrics.json` registry snapshot (when `metrics` is given) and a
    /// `"profile"` phase-timing block in the manifest (when `profile`
    /// is given).
    ///
    /// `metrics.json` is deterministic — counters and histograms are
    /// commutative, so it is byte-identical for any worker count. The
    /// manifest (wall-clock, profile timings) is not.
    pub fn write_observed(
        &self,
        run: &SweepRun,
        timing: Option<TimingBench>,
        metrics: Option<&MetricsRegistry>,
        profile: Option<&Profiler>,
    ) -> io::Result<()> {
        durable_write(
            &self.dir.join("scenarios.csv"),
            scenarios_csv(run).as_bytes(),
        )?;
        let groups = crate::agg::across_seed_groups(run);
        durable_write(
            &self.dir.join("aggregate.csv"),
            aggregate_csv(&groups).as_bytes(),
        )?;
        durable_write(
            &self.dir.join("aggregate.json"),
            aggregate_json(&groups).as_bytes(),
        )?;
        durable_write(
            &self.dir.join("manifest.json"),
            manifest_json_observed(run, timing, profile).as_bytes(),
        )?;
        if let Some(registry) = metrics {
            self.write_metrics(registry)?;
        }
        Ok(())
    }

    /// Writes `metrics.json`: the registry snapshot, trailing newline.
    pub fn write_metrics(&self, registry: &MetricsRegistry) -> io::Result<()> {
        let mut json = registry.snapshot_json();
        json.push('\n');
        durable_write(&self.dir.join("metrics.json"), json.as_bytes())
    }
}

/// Quotes one CSV field per RFC 4180: fields containing a comma, a
/// double quote, or a line break are wrapped in double quotes with
/// embedded quotes doubled; everything else passes through unchanged
/// (keeping the existing artifacts byte-stable).
pub fn csv_field(field: &str) -> String {
    if field.contains([',', '"', '\n', '\r']) {
        let mut out = String::with_capacity(field.len() + 2);
        out.push('"');
        for c in field.chars() {
            if c == '"' {
                out.push('"');
            }
            out.push(c);
        }
        out.push('"');
        out
    } else {
        field.to_owned()
    }
}

/// One row per scenario, in grid order. Deterministic.
///
/// Failed cells keep their identity columns, leave the metric columns
/// empty, and carry the error in the `status` column; completed cells
/// have `status` = `ok` (or `retried:<attempts>` when the cell
/// recovered through the retry policy) and, when the sweep was audited,
/// their violation count in `audit_violations`.
pub fn scenarios_csv(run: &SweepRun) -> String {
    let mut out = String::from(
        "key,policy,region,family,scale,seed,reserved,eviction,billing_days,\
         wait_short_h,wait_long_h,carbon_g,total_cost,mean_wait_hours,\
         mean_completion_hours,reserved_utilization,evictions,jobs,\
         status,audit_violations\n",
    );
    for result in &run.results {
        let s = &result.scenario;
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},",
            csv_field(&result.key),
            csv_field(&s.policy.name()),
            csv_field(s.region.code()),
            csv_field(s.family.name()),
            csv_field(&s.scale.token()),
            s.seed,
            s.cluster.reserved,
            s.cluster.eviction,
            s.cluster.billing_days,
            s.queues.short_hours,
            s.queues.long_hours,
        );
        match result.summary() {
            Some(m) => {
                let audit = match result.audit() {
                    Some(report) => report.violations.len().to_string(),
                    None => String::new(),
                };
                let status = match result.retry_provenance() {
                    Some((attempts, true, _)) => format!("timed_out;retried:{attempts}"),
                    Some((attempts, false, _)) => format!("retried:{attempts}"),
                    None => "ok".to_owned(),
                };
                let _ = writeln!(
                    out,
                    "{},{},{},{},{},{},{},{},{}",
                    m.carbon_g,
                    m.total_cost,
                    m.mean_wait_hours,
                    m.mean_completion_hours,
                    m.reserved_utilization,
                    m.evictions,
                    m.jobs,
                    status,
                    audit,
                );
            }
            None => {
                let error = result.error().unwrap_or("failed");
                let _ = writeln!(out, ",,,,,,,{},", csv_field(&format!("failed: {error}")));
            }
        }
    }
    out
}

/// Across-seed aggregation, one row per scenario group. Deterministic.
pub fn aggregate_csv(groups: &[GroupSummary]) -> String {
    let mut out = String::from(
        "group,policy,region,family,scale,reserved,eviction,billing_days,seeds,\
         carbon_g_mean,carbon_g_std,carbon_g_cov,total_cost_mean,total_cost_std,\
         mean_wait_hours_mean,mean_wait_hours_std\n",
    );
    for group in groups {
        let s = &group.exemplar;
        let a = &group.stats;
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            csv_field(&group.key),
            csv_field(&a.name),
            csv_field(s.region.code()),
            csv_field(s.family.name()),
            csv_field(&s.scale.token()),
            s.cluster.reserved,
            s.cluster.eviction,
            s.cluster.billing_days,
            a.carbon_g.n,
            a.carbon_g.mean,
            a.carbon_g.std_dev,
            a.carbon_g.cov(),
            a.total_cost.mean,
            a.total_cost.std_dev,
            a.mean_wait_hours.mean,
            a.mean_wait_hours.std_dev,
        );
    }
    out
}

/// Across-seed aggregation as JSON. Deterministic.
pub fn aggregate_json(groups: &[GroupSummary]) -> String {
    let mut out = String::from("{\n  \"groups\": [\n");
    for (i, group) in groups.iter().enumerate() {
        let a = &group.stats;
        let _ = write!(
            out,
            "    {{\"group\": {}, \"policy\": {}, \"seeds\": {}, \
             \"carbon_g\": {}, \"total_cost\": {}, \"mean_wait_hours\": {}}}",
            Quoted(&group.key),
            Quoted(&a.name),
            a.carbon_g.n,
            stats_json(&a.carbon_g),
            stats_json(&a.total_cost),
            stats_json(&a.mean_wait_hours),
        );
        out.push_str(if i + 1 < groups.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    out
}

fn stats_json(stats: &gaia_metrics::SeedStats) -> String {
    format!(
        "{{\"mean\": {}, \"std\": {}, \"min\": {}, \"max\": {}}}",
        Number(stats.mean),
        Number(stats.std_dev),
        Number(stats.min),
        Number(stats.max),
    )
}

/// Run metadata. NOT byte-stable across reruns (contains wall-clock).
pub fn manifest_json(run: &SweepRun, timing: Option<TimingBench>) -> String {
    manifest_json_observed(run, timing, None)
}

/// [`manifest_json`] with an optional `"profile"` phase-timing block
/// (from a [`Profiler`] that observed the run).
pub fn manifest_json_observed(
    run: &SweepRun,
    timing: Option<TimingBench>,
    profile: Option<&Profiler>,
) -> String {
    let grid = &run.grid;
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"grid\": {},", Quoted(&grid.describe()));
    let _ = writeln!(
        out,
        "  \"policies\": [{}],",
        grid.policies
            .iter()
            .map(|p| Quoted(&p.name()).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  \"regions\": [{}],",
        grid.regions
            .iter()
            .map(|r| Quoted(r.code()).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "  \"families\": [{}],",
        grid.families
            .iter()
            .map(|f| Quoted(f.name()).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"scale\": {},", Quoted(&grid.scale.token()));
    let _ = writeln!(
        out,
        "  \"seeds\": [{}],",
        grid.seeds
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  \"scenario_count\": {},", run.results.len());
    let _ = writeln!(out, "  \"workers\": {},", run.workers);
    let _ = writeln!(
        out,
        "  \"wall_clock_secs\": {},",
        Number(run.wall.as_secs_f64())
    );
    let _ = writeln!(
        out,
        "  \"trace_cache\": {{\"hits\": {}, \"misses\": {}, \"entries\": {}}},",
        run.cache_stats.hits, run.cache_stats.misses, run.cache_stats.entries
    );
    let failures = run.failed_cells();
    let _ = writeln!(
        out,
        "  \"audit\": {{\"enabled\": {}, \"violations\": {}, \"failed_cells\": {}, \
         \"failures\": [{}]}},",
        run.audited,
        run.audit_violations(),
        failures.len(),
        failures
            .iter()
            .map(|cell| {
                format!(
                    "{{\"key\": {}, \"error\": {}}}",
                    Quoted(&cell.key),
                    Quoted(cell.error().unwrap_or("failed")),
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    // Failed cells are excluded from aggregate.csv/aggregate.json; the
    // manifest records how many replicates the aggregation lost so an
    // unaudited sweep can't silently publish thinner statistics.
    let dropped = run
        .results
        .iter()
        .filter(|cell| cell.summary().is_none())
        .count();
    let _ = writeln!(out, "  \"aggregation\": {{\"dropped_cells\": {dropped}}},");
    let retried = run.retried_cells();
    let _ = writeln!(
        out,
        "  \"retries\": {{\"retried_cells\": {}, \"cells\": [{}]}},",
        retried.len(),
        retried
            .iter()
            .map(|cell| {
                let (attempts, timed_out, error) = cell
                    .retry_provenance()
                    .expect("retried_cells only returns retried cells");
                format!(
                    "{{\"key\": {}, \"attempts\": {attempts}, \
                     \"timed_out\": {timed_out}, \"recovered_error\": {}}}",
                    Quoted(&cell.key),
                    Quoted(error),
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    );
    match timing {
        Some(bench) => {
            let _ = writeln!(
                out,
                "  \"timing_bench\": {{\"serial_secs\": {}, \"parallel_secs\": {}, \
                 \"workers\": {}, \"speedup\": {}}},",
                Number(bench.serial_secs),
                Number(bench.parallel_secs),
                bench.workers,
                Number(bench.speedup),
            );
        }
        None => {
            let _ = writeln!(out, "  \"timing_bench\": null,");
        }
    }
    match profile {
        Some(profiler) => {
            let _ = writeln!(out, "  \"profile\": {},", profiler.to_json());
        }
        None => {
            let _ = writeln!(out, "  \"profile\": null,");
        }
    }
    let _ = writeln!(out, "  \"git_describe\": {}", Quoted(&git_describe()));
    out.push_str("}\n");
    out
}

/// `git describe --always --dirty`, or `"unknown"` outside a checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|output| output.status.success())
        .and_then(|output| String::from_utf8(output.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal RFC-4180 line parser for the round-trip test: splits one
    /// CSV record into fields, honoring quoting and doubled quotes.
    fn parse_csv_record(line: &str) -> Vec<String> {
        let mut fields = Vec::new();
        let mut field = String::new();
        let mut chars = line.chars().peekable();
        let mut quoted = false;
        while let Some(c) = chars.next() {
            match c {
                '"' if quoted => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        quoted = false;
                    }
                }
                '"' if field.is_empty() => quoted = true,
                ',' if !quoted => fields.push(std::mem::take(&mut field)),
                c => field.push(c),
            }
        }
        fields.push(field);
        fields
    }

    #[test]
    fn csv_field_round_trips_through_rfc4180_parsing() {
        let tricky = [
            "plain",
            "with,comma",
            "with \"quotes\"",
            "both, \"at\" once",
            "trailing\nnewline",
            "",
        ];
        let line = tricky
            .iter()
            .map(|f| csv_field(f))
            .collect::<Vec<_>>()
            .join(",");
        assert_eq!(parse_csv_record(&line), tricky.to_vec());
    }

    #[test]
    fn csv_field_leaves_plain_fields_untouched() {
        assert_eq!(csv_field("NoWait/US-CA/Alibaba"), "NoWait/US-CA/Alibaba");
        assert_eq!(csv_field("123.5"), "123.5");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn git_describe_returns_something() {
        assert!(!git_describe().is_empty());
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gaia-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atomic_write_failure_preserves_old_contents_and_removes_tmp() {
        let dir = tempdir("atomic-fail");
        let target = dir.join("manifest.json");
        durable_write(&target, b"old complete bytes").unwrap();

        // Failure before the tmp file exists: the target's `.tmp`
        // sibling path is occupied by a directory, so `File::create`
        // fails and the old contents survive.
        fs::create_dir(dir.join("manifest.tmp")).unwrap();
        assert!(durable_write(&target, b"new bytes").is_err());
        assert_eq!(fs::read(&target).unwrap(), b"old complete bytes");
        fs::remove_dir(dir.join("manifest.tmp")).unwrap();

        // Failure at rename time: the target path is a non-empty
        // directory, so the rename fails — and the tmp file must have
        // been cleaned up.
        let dir_target = dir.join("occupied");
        fs::create_dir(&dir_target).unwrap();
        fs::write(dir_target.join("x"), b"x").unwrap();
        assert!(durable_write(&dir_target, b"bytes").is_err());
        assert!(!dir.join("occupied.tmp").exists(), "tmp not removed");

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn readers_never_observe_partial_bytes() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let dir = tempdir("atomic-race");
        let target = dir.join("scenarios.csv");
        // Two full payloads with distinct lengths and bytes; any mix or
        // truncation is detectable.
        let a: Vec<u8> = std::iter::repeat_n(b'a', 64 * 1024).collect();
        let b: Vec<u8> = std::iter::repeat_n(b'b', 96 * 1024).collect();
        durable_write(&target, &a).unwrap();

        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            let target = target.clone();
            let (a, b) = (a.clone(), b.clone());
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let bytes = fs::read(&target).expect("target always present");
                    assert!(
                        bytes == a || bytes == b,
                        "reader observed partial write: {} bytes",
                        bytes.len()
                    );
                    reads += 1;
                }
                reads
            })
        };
        for i in 0..200 {
            durable_write(&target, if i % 2 == 0 { &b } else { &a }).unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().expect("reader thread");
        assert!(reads > 0, "reader never ran");
        fs::remove_dir_all(&dir).unwrap();
    }
}
