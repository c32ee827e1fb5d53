//! Deterministic sweep sharding: split a grid into `n` independent
//! processes and merge their outputs back into single-process bytes.
//!
//! A cell belongs to shard `i` of `n` iff [`shard_of`]`(key, n) == i` —
//! a pure function of the cell's stable key, so every process
//! partitions the grid identically with no coordination. Each shard run
//! ([`crate::SweepRunner::shard`]) persists its slice with
//! [`write_shard`]; [`merge_shards`] validates that the shards agree on
//! the grid, cover every cell exactly once, and reassembles a
//! [`SweepRun`] in grid order.
//!
//! The merged run's deterministic artifacts (`scenarios.csv`,
//! `aggregate.csv`, `aggregate.json`, `metrics.json`, per-cell traces)
//! are byte-identical to a single-process run of the same grid
//! (`tests/sharding.rs` and `scripts/check_sweep_shard.sh` enforce
//! this). Trace-cache counters are the one place where shard-local
//! execution genuinely differs — each process pays its own synthesis
//! misses — so the merge *recomputes* the counters a single process
//! would have seen instead of summing shard-local ones: per-trace-key
//! synthesis happens once, every further lookup hits.
//!
//! Shard directory layout (all files written atomically):
//!
//! ```text
//! <dir>/
//!   cells.bin      magic+versioned binary: grid, shard coordinates,
//!                  per-cell outcomes with their grid indices
//!   metrics.bin    shard-local registry minus `cache.*` counters
//!                  (present iff the producing run collected metrics)
//!   manifest.json  small human-readable shard summary
//! ```
//!
//! `cells.bin` is written last: it is the commit point, so a shard
//! directory SIGKILLed mid-write either has a complete, loadable slice
//! or fails [`merge_shards`] loudly — never a silent partial merge.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use gaia_obs::MetricsRegistry;
use gaia_sim::{durable_write, fnv1a};

use crate::cache::CacheStats;
use crate::codec::{self, Reader, Writer};
use crate::{ScenarioResult, SweepGrid, SweepRun};

/// Bump when the `cells.bin` layout changes; old shard files then fail
/// to merge instead of decoding garbage.
pub const SHARD_FORMAT_VERSION: u32 = 1;

const SHARD_MAGIC: &[u8; 8] = b"GAIASHRD";

/// The shard owning `key` in an `of`-way split: FNV-1a of the key,
/// modulo `of`. Stable across runs, platforms, and worker counts, so
/// every process partitions a grid identically without coordination.
///
/// # Panics
///
/// Panics if `of` is zero.
pub fn shard_of(key: &str, of: usize) -> usize {
    assert!(of >= 1, "a sweep has at least one shard");
    (fnv1a(key.as_bytes()) % of as u64) as usize
}

/// One decoded shard directory, as read back by [`read_shard`].
#[derive(Debug)]
pub struct ShardSlice {
    /// The full grid the shard was cut from.
    pub grid: SweepGrid,
    /// This shard's index.
    pub index: usize,
    /// Total shard count of the split.
    pub of: usize,
    /// Worker threads the shard process used.
    pub workers: usize,
    /// Wall-clock of the shard process.
    pub wall: Duration,
    /// Whether the shard ran the invariant audit.
    pub audited: bool,
    /// Whether `metrics.bin` accompanies this slice.
    pub has_metrics: bool,
    /// The shard's own trace-cache counters (each process pays its own
    /// synthesis misses; [`merge_shards`] recomputes global counters).
    pub cache_stats: CacheStats,
    /// `(grid index, result)` for every cell the shard owns, in grid
    /// order.
    pub cells: Vec<(usize, ScenarioResult)>,
}

/// Why a set of shard directories could not be merged.
#[derive(Debug)]
pub enum MergeError {
    /// A shard file could not be read or written.
    Io(PathBuf, io::Error),
    /// A shard file decoded to something structurally invalid
    /// (bad magic, wrong version, truncated, unknown tags).
    Format(PathBuf, String),
    /// The shards are individually valid but mutually inconsistent
    /// (different grids, duplicate or missing cells, mixed audit or
    /// metrics settings).
    Inconsistent(String),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Io(path, error) => write!(f, "{}: {error}", path.display()),
            MergeError::Format(path, reason) => write!(f, "{}: {reason}", path.display()),
            MergeError::Inconsistent(reason) => write!(f, "inconsistent shards: {reason}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// A successful [`merge_shards`]: the reassembled run plus, when every
/// shard collected metrics, the merged registry (shard registries
/// summed, `cache.*` counters recomputed to single-process values).
pub struct MergedSweep {
    /// The reassembled single-process-equivalent run.
    pub run: SweepRun,
    /// Merged metrics, present iff every shard wrote `metrics.bin`.
    pub metrics: Option<MetricsRegistry>,
}

/// Persists a shard run into `dir` (created if missing): `metrics.bin`
/// (when `metrics` is given), `manifest.json`, then `cells.bin` as the
/// commit point. All writes are atomic, so an interrupted persist
/// leaves either a mergeable directory or an obviously incomplete one.
///
/// The run's cells are mapped back to their grid indices by key; a run
/// whose results are not a subset of its own grid (impossible through
/// [`crate::SweepRunner`]) returns `InvalidInput`.
pub fn write_shard(
    dir: &Path,
    run: &SweepRun,
    metrics: Option<&MetricsRegistry>,
) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let (index, of) = run.shard.unwrap_or((0, 1));
    let expansion = run.grid.scenarios();
    let mut key_to_index = std::collections::HashMap::with_capacity(expansion.len());
    for (i, scenario) in expansion.iter().enumerate() {
        key_to_index.insert(scenario.key(), i);
    }
    let mut cells: Vec<(usize, &ScenarioResult)> = Vec::with_capacity(run.results.len());
    for result in &run.results {
        let grid_index = *key_to_index.get(&result.key).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cell {} is not in the run's own grid", result.key),
            )
        })?;
        cells.push((grid_index, result));
    }

    if let Some(registry) = metrics {
        durable_write(&dir.join("metrics.bin"), &metrics_without_cache(registry))?;
    }
    let failed = run.failed_cells().len();
    let manifest = format!(
        "{{\n  \"shard\": {index},\n  \"of\": {of},\n  \"cells\": {},\n  \
         \"completed\": {},\n  \"failed\": {failed},\n  \"workers\": {},\n  \
         \"wall_clock_secs\": {},\n  \"audited\": {},\n  \"has_metrics\": {}\n}}\n",
        run.results.len(),
        run.results.len() - failed,
        run.workers,
        run.wall.as_secs_f64(),
        run.audited,
        metrics.is_some(),
    );
    durable_write(&dir.join("manifest.json"), manifest.as_bytes())?;

    let mut w = Writer::with_header(SHARD_MAGIC, SHARD_FORMAT_VERSION);
    codec::write_grid(&mut w, &run.grid);
    w.u64(index as u64);
    w.u64(of as u64);
    w.u64(run.workers as u64);
    w.f64(run.wall.as_secs_f64());
    w.bool(run.audited);
    w.bool(metrics.is_some());
    w.u64(run.cache_stats.hits as u64);
    w.u64(run.cache_stats.misses as u64);
    w.u64(run.cache_stats.entries as u64);
    w.u64(cells.len() as u64);
    for (grid_index, result) in cells {
        w.u64(grid_index as u64);
        codec::write_scenario(&mut w, &result.scenario);
        codec::write_outcome(&mut w, &result.outcome);
    }
    durable_write(&dir.join("cells.bin"), &w.into_bytes())
}

/// Reads one shard directory back. Fails on I/O errors and on any
/// structural invalidity of `cells.bin` (the per-shard consistency
/// checks; cross-shard checks live in [`merge_shards`]).
pub fn read_shard(dir: &Path) -> Result<ShardSlice, MergeError> {
    let path = dir.join("cells.bin");
    let bytes = std::fs::read(&path).map_err(|e| MergeError::Io(path.clone(), e))?;
    decode_slice(&bytes).map_err(|reason| MergeError::Format(path, reason))
}

fn decode_slice(bytes: &[u8]) -> Result<ShardSlice, String> {
    let mut r = Reader::new(bytes);
    r.header(SHARD_MAGIC, SHARD_FORMAT_VERSION)?;
    let grid = codec::read_grid(&mut r)?;
    let index = r.u64()? as usize;
    let of = r.u64()? as usize;
    if of == 0 || index >= of {
        return Err(format!("shard index {index} out of range (of {of})"));
    }
    let workers = r.u64()? as usize;
    let wall = r.f64()?;
    if wall.is_nan() {
        // `clamp` passes NaN through and `Duration` panics on it.
        return Err("shard wall-clock is NaN".to_owned());
    }
    let wall = Duration::from_secs_f64(wall.clamp(0.0, 1e9));
    let audited = r.bool()?;
    let has_metrics = r.bool()?;
    let cache_stats = CacheStats {
        hits: r.u64()? as usize,
        misses: r.u64()? as usize,
        entries: r.u64()? as usize,
    };
    let count = r.count(16)?;
    let mut cells = Vec::with_capacity(count);
    for _ in 0..count {
        let grid_index = r.u64()? as usize;
        let scenario = codec::read_scenario(&mut r)?;
        let outcome = codec::read_outcome(&mut r)?;
        let key = scenario.key();
        cells.push((
            grid_index,
            ScenarioResult {
                scenario,
                key,
                outcome,
            },
        ));
    }
    r.done()?;
    Ok(ShardSlice {
        grid,
        index,
        of,
        workers,
        wall,
        audited,
        has_metrics,
        cache_stats,
        cells,
    })
}

/// Merges a complete set of shard directories back into one
/// [`SweepRun`] (plus merged metrics when every shard collected them).
///
/// Validation is strict: all shards must agree on the grid, the shard
/// count, and the audit setting; shard indices must be distinct and the
/// set complete; every grid cell must appear exactly once, in the shard
/// [`shard_of`] assigns it to, with a scenario matching the grid
/// expansion. Anything else is a [`MergeError`], never a quiet
/// partial result.
///
/// The merged run reports `workers` as the sum over shards and `wall`
/// as the slowest shard (the critical path of a parallel shard fleet).
/// Trace-cache counters are recomputed to single-process values: misses
/// = distinct trace keys in the grid (each synthesized exactly once in
/// one process), hits = total lookups − misses. Total lookups are
/// summed from the shards, which is exact because a cell performs the
/// same lookups wherever it runs.
pub fn merge_shards(dirs: &[PathBuf]) -> Result<MergedSweep, MergeError> {
    if dirs.is_empty() {
        return Err(MergeError::Inconsistent("no shard directories".to_owned()));
    }
    let mut slices = Vec::with_capacity(dirs.len());
    for dir in dirs {
        slices.push((dir, read_shard(dir)?));
    }
    let first = &slices[0].1;
    let (grid, of, audited, has_metrics) = (
        first.grid.clone(),
        first.of,
        first.audited,
        first.has_metrics,
    );
    if dirs.len() != of {
        return Err(MergeError::Inconsistent(format!(
            "{} directories given for an {of}-way split",
            dirs.len()
        )));
    }
    let mut seen_shard = vec![false; of];
    for (dir, slice) in &slices {
        if slice.grid != grid {
            return Err(MergeError::Inconsistent(format!(
                "{} was cut from a different grid",
                dir.display()
            )));
        }
        if slice.of != of || slice.audited != audited || slice.has_metrics != has_metrics {
            return Err(MergeError::Inconsistent(format!(
                "{} disagrees on split/audit/metrics settings",
                dir.display()
            )));
        }
        if std::mem::replace(&mut seen_shard[slice.index], true) {
            return Err(MergeError::Inconsistent(format!(
                "shard {} appears more than once",
                slice.index
            )));
        }
    }

    let expansion = grid.scenarios();
    let mut results: Vec<Option<ScenarioResult>> = vec![None; expansion.len()];
    let mut workers = 0usize;
    let mut wall = Duration::ZERO;
    let mut lookups = 0usize;
    for (dir, slice) in &slices {
        workers += slice.workers;
        wall = wall.max(slice.wall);
        lookups += slice.cache_stats.hits + slice.cache_stats.misses;
        for (grid_index, result) in &slice.cells {
            let expected = expansion.get(*grid_index).ok_or_else(|| {
                MergeError::Inconsistent(format!(
                    "{}: cell index {grid_index} exceeds the grid",
                    dir.display()
                ))
            })?;
            if *expected != result.scenario {
                return Err(MergeError::Inconsistent(format!(
                    "{}: cell {grid_index} does not match the grid expansion",
                    dir.display()
                )));
            }
            if shard_of(&result.key, of) != slice.index {
                return Err(MergeError::Inconsistent(format!(
                    "cell {} does not belong to shard {}",
                    result.key, slice.index
                )));
            }
            if results[*grid_index].replace(result.clone()).is_some() {
                return Err(MergeError::Inconsistent(format!(
                    "cell {} appears in more than one shard",
                    result.key
                )));
            }
        }
    }
    let mut merged = Vec::with_capacity(expansion.len());
    for (i, slot) in results.into_iter().enumerate() {
        merged.push(slot.ok_or_else(|| {
            MergeError::Inconsistent(format!(
                "cell {} is missing from every shard (interrupted run? \
                 re-run the owning shard to completion first)",
                expansion[i].key()
            ))
        })?);
    }

    let cache_stats = single_process_cache_stats(&grid, lookups);
    let metrics = if has_metrics {
        let registry = MetricsRegistry::new();
        for (dir, _) in &slices {
            let path = dir.join("metrics.bin");
            let bytes = std::fs::read(&path).map_err(|e| MergeError::Io(path.clone(), e))?;
            codec::read_metrics_into(&mut Reader::new(&bytes), &registry)
                .map_err(|reason| MergeError::Format(path, reason))?;
        }
        // Shard files exclude `cache.*`; restore the recomputed
        // single-process values the engine would have recorded.
        registry.counter("cache.hits").add(cache_stats.hits as u64);
        registry
            .counter("cache.misses")
            .add(cache_stats.misses as u64);
        registry
            .counter("cache.entries")
            .add(cache_stats.entries as u64);
        Some(registry)
    } else {
        None
    };

    Ok(MergedSweep {
        run: SweepRun {
            grid,
            workers,
            results: merged,
            wall,
            cache_stats,
            audited,
            shard: None,
            disk_cache: None,
        },
        metrics,
    })
}

/// The trace-cache counters a single process sweeping `grid` would
/// report: every distinct (region, seed) carbon trace and (family,
/// scale, seed) workload trace is synthesized exactly once (a miss and
/// an entry); all further lookups hit.
///
/// Exact for every unfaulted sweep and for chaos-faulted sweeps whose
/// cells eventually run (the recovery attempt performs the cell's
/// lookups). The one approximation: a cell chaos-failed on *every*
/// attempt never looks its traces up, so a trace key referenced only by
/// such cells would be counted as a miss here but never synthesized in
/// a real single-process run.
fn single_process_cache_stats(grid: &SweepGrid, lookups: usize) -> CacheStats {
    let mut carbon = std::collections::HashSet::new();
    let mut workload = std::collections::HashSet::new();
    for scenario in grid.scenarios() {
        carbon.insert((scenario.region.code().to_owned(), scenario.seed));
        workload.insert((
            scenario.family.name().to_owned(),
            scenario.scale.token(),
            scenario.seed,
        ));
    }
    let misses = carbon.len() + workload.len();
    CacheStats {
        hits: lookups.saturating_sub(misses),
        misses,
        entries: misses,
    }
}

/// Serializes `registry` minus its `cache.*` counters (shard-local
/// trace/result-cache counters are recomputed at merge time, not
/// summed).
fn metrics_without_cache(registry: &MetricsRegistry) -> Vec<u8> {
    let filtered = MetricsRegistry::new();
    for (name, value) in registry.counter_values() {
        if name.starts_with("cache.") {
            continue;
        }
        let counter = filtered.counter(&name);
        counter.add(value);
    }
    for (name, histogram) in registry.histogram_values() {
        filtered.histogram(&name).merge_raw(
            &histogram.bucket_counts(),
            histogram.count(),
            histogram.sum_micros(),
        );
    }
    let mut w = Writer::new();
    codec::write_metrics(&mut w, &filtered);
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Executor;
    use gaia_core::catalog::{BasePolicyKind, PolicySpec};

    fn grid() -> SweepGrid {
        SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![1, 2, 3])
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gaia-shard-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn shard_of_partitions_all_cells() {
        let grid = grid();
        for of in [1usize, 2, 3, 5] {
            let mut counts = vec![0usize; of];
            for scenario in grid.scenarios() {
                counts[shard_of(&scenario.key(), of)] += 1;
            }
            assert_eq!(counts.iter().sum::<usize>(), grid.len());
        }
        // Stability: the assignment is a pure function of the key.
        assert_eq!(shard_of("a/b/c", 4), shard_of("a/b/c", 4));
    }

    #[test]
    fn shards_merge_back_to_the_single_process_run() {
        let grid = grid();
        let executor = Executor::new(1).with_progress(false);
        let single = grid
            .runner()
            .executor(&executor)
            .audit(true)
            .execute()
            .unwrap();

        let dir = tempdir("merge");
        let of = 3;
        let mut dirs = Vec::new();
        for index in 0..of {
            let run = grid
                .runner()
                .executor(&executor)
                .audit(true)
                .shard(index, of)
                .execute()
                .unwrap();
            let shard_dir = dir.join(format!("shard-{index}"));
            write_shard(&shard_dir, &run, None).unwrap();
            dirs.push(shard_dir);
        }
        let merged = merge_shards(&dirs).unwrap();
        assert_eq!(merged.run.results, single.results);
        assert_eq!(merged.run.audited, single.audited);
        assert_eq!(merged.run.cache_stats.misses, single.cache_stats.misses);
        assert_eq!(merged.run.cache_stats.hits, single.cache_stats.hits);
        assert_eq!(merged.run.cache_stats.entries, single.cache_stats.entries);
        assert!(merged.metrics.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn merge_rejects_incomplete_and_duplicated_shards() {
        let grid = grid();
        let executor = Executor::new(1).with_progress(false);
        let dir = tempdir("reject");
        let mut dirs = Vec::new();
        for index in 0..2 {
            let run = grid
                .runner()
                .executor(&executor)
                .shard(index, 2)
                .execute()
                .unwrap();
            let shard_dir = dir.join(format!("shard-{index}"));
            write_shard(&shard_dir, &run, None).unwrap();
            dirs.push(shard_dir);
        }
        // Missing shard: wrong directory count.
        assert!(matches!(
            merge_shards(&dirs[..1]),
            Err(MergeError::Inconsistent(_))
        ));
        // Duplicate shard.
        let doubled = vec![dirs[0].clone(), dirs[0].clone()];
        assert!(matches!(
            merge_shards(&doubled),
            Err(MergeError::Inconsistent(_))
        ));
        // Corrupt commit file.
        std::fs::write(dirs[1].join("cells.bin"), b"GAIASHRDgarbage").unwrap();
        assert!(matches!(merge_shards(&dirs), Err(MergeError::Format(..))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_slice_round_trips_metrics_and_stats() {
        let grid = grid();
        let registry = MetricsRegistry::new();
        let hooks = crate::ObsHooks {
            metrics: Some(&registry),
            ..Default::default()
        };
        let run = grid
            .runner()
            .executor(&Executor::new(1).with_progress(false))
            .obs(&hooks)
            .shard(0, 2)
            .execute()
            .unwrap();
        let dir = tempdir("slice");
        write_shard(&dir, &run, Some(&registry)).unwrap();
        let slice = read_shard(&dir).unwrap();
        assert_eq!(slice.index, 0);
        assert_eq!(slice.of, 2);
        assert!(slice.has_metrics);
        assert_eq!(slice.cells.len(), run.results.len());
        assert_eq!(slice.cache_stats, run.cache_stats);

        // The persisted registry drops `cache.*` but keeps the rest.
        let replay = MetricsRegistry::new();
        let bytes = std::fs::read(dir.join("metrics.bin")).unwrap();
        codec::read_metrics_into(&mut Reader::new(&bytes), &replay).unwrap();
        assert_eq!(
            replay.counter("sweep.cells").get(),
            run.results.len() as u64
        );
        assert_eq!(replay.counter("cache.hits").get(), 0);
        assert_eq!(
            replay.counter("sim.jobs").get(),
            registry.counter("sim.jobs").get()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A `cells.bin` prefix up to the shard count, then the given split
    /// and wall-clock, with no cells.
    fn slice_bytes(index: u64, of: u64, wall: f64) -> Vec<u8> {
        let mut w = Writer::with_header(SHARD_MAGIC, SHARD_FORMAT_VERSION);
        codec::write_grid(&mut w, &grid());
        w.u64(index);
        w.u64(of);
        w.u64(1);
        w.f64(wall);
        w.bool(false);
        w.bool(false);
        for _ in 0..4 {
            w.u64(0);
        }
        w.into_bytes()
    }

    #[test]
    fn decode_checks_the_split_and_the_wall_clock() {
        let empty = decode_slice(&slice_bytes(1, 2, 3.5)).unwrap();
        assert_eq!((empty.index, empty.of, empty.workers), (1, 2, 1));
        assert_eq!(empty.wall, Duration::from_secs_f64(3.5));
        assert!(empty.cells.is_empty());

        let err = decode_slice(&slice_bytes(2, 2, 1.0)).unwrap_err();
        assert_eq!(err, "shard index 2 out of range (of 2)");
        let err = decode_slice(&slice_bytes(0, 0, 1.0)).unwrap_err();
        assert_eq!(err, "shard index 0 out of range (of 0)");
        let err = decode_slice(&slice_bytes(0, 1, f64::NAN)).unwrap_err();
        assert_eq!(err, "shard wall-clock is NaN");
        // Out-of-range clocks clamp instead of panicking in `Duration`.
        let negative = decode_slice(&slice_bytes(0, 1, -5.0)).unwrap();
        assert_eq!(negative.wall, Duration::ZERO);
        let huge = decode_slice(&slice_bytes(0, 1, f64::INFINITY)).unwrap();
        assert_eq!(huge.wall, Duration::from_secs_f64(1e9));
    }

    #[test]
    fn missing_and_empty_inputs_are_typed_errors() {
        let dir = tempdir("missing");
        let err = read_shard(&dir.join("absent")).unwrap_err();
        assert!(matches!(err, MergeError::Io(..)), "{err}");
        assert!(err.to_string().contains("cells.bin"), "{err}");
        assert!(matches!(
            merge_shards(&[]),
            Err(MergeError::Inconsistent(reason)) if reason == "no shard directories"
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_shard_records_the_split_and_refuses_foreign_cells() {
        let grid = grid();
        let executor = Executor::new(1).with_progress(false);
        let mut run = grid
            .runner()
            .executor(&executor)
            .shard(1, 3)
            .execute()
            .unwrap();
        let dir = tempdir("manifest");
        write_shard(&dir, &run, None).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains("\"shard\": 1,"), "{manifest}");
        assert!(manifest.contains("\"of\": 3,"), "{manifest}");
        assert!(
            manifest.contains(&format!("\"cells\": {},", run.results.len())),
            "{manifest}"
        );
        assert!(!dir.join("metrics.bin").exists());

        run.results[0].key.push_str("/foreign");
        let err = write_shard(&dir.join("foreign"), &run, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(!dir.join("foreign").join("cells.bin").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
