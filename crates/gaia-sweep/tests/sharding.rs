//! The shard-count and resume contracts: splitting a sweep across
//! processes, or interrupting and resuming it over the on-disk result
//! cache, changes wall-clock time — never bytes.
//!
//! Three layers of evidence:
//!
//! * an acceptance-style test on the reference grid (4 policies × 3
//!   regions × 2 seeds = 24 cells) merging {1, 2, 4, 7}-way sharded
//!   runs and byte-comparing every deterministic artifact — CSVs,
//!   aggregate JSON, metrics snapshot, per-cell traces — against a
//!   single-process run;
//! * property tests over random grids × shard counts, and over random
//!   surviving-cache-entry subsets (a model of arbitrary kill points);
//! * corruption recovery: a truncated or garbage cache entry is a
//!   miss, never an error or a wrong result, and a corrupt shard slice
//!   is a format error, never a panic.

use std::fs;
use std::path::{Path, PathBuf};

use gaia_carbon::Region;
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_obs::MetricsRegistry;
use gaia_sim::codec::corruptions;
use gaia_sweep::{shard, store, Executor, ObsHooks, SweepGrid};
use proptest::prelude::*;

/// A unique scratch directory under the temp dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gaia-shard-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn quiet(workers: usize) -> Executor {
    Executor::new(workers).with_progress(false)
}

/// The acceptance-criteria grid: 4 policies × 3 regions × 2 seeds.
fn reference_grid() -> SweepGrid {
    SweepGrid::week(9)
        .policies(vec![
            PolicySpec::plain(BasePolicyKind::NoWait),
            PolicySpec::plain(BasePolicyKind::LowestSlot),
            PolicySpec::plain(BasePolicyKind::LowestWindow),
            PolicySpec::plain(BasePolicyKind::CarbonTime),
        ])
        .regions(vec![
            Region::SouthAustralia,
            Region::California,
            Region::Ontario,
        ])
        .seeds(vec![42, 43])
}

#[test]
fn merged_shards_match_the_single_process_run_for_any_shard_count() {
    let grid = reference_grid();
    let scratch = Scratch::new("shardcount");

    // The single-process observed reference run.
    let single_registry = MetricsRegistry::new();
    let single_traces = scratch.0.join("traces-single");
    let hooks = ObsHooks {
        metrics: Some(&single_registry),
        trace_dir: Some(&single_traces),
        ..Default::default()
    };
    let single = grid
        .runner()
        .executor(&quiet(2))
        .audit(true)
        .obs(&hooks)
        .execute()
        .expect("single-process sweep");
    assert!(single.is_clean());
    let single_groups = gaia_sweep::across_seed_groups(&single);

    for of in [1usize, 2, 4, 7] {
        // Every shard is an independent run with its own registry —
        // exactly what independent OS processes would produce.
        let trace_dir = scratch.0.join(format!("traces-{of}"));
        let mut dirs = Vec::new();
        let mut sharded_cells = 0;
        for index in 0..of {
            let registry = MetricsRegistry::new();
            let hooks = ObsHooks {
                metrics: Some(&registry),
                trace_dir: Some(&trace_dir),
                ..Default::default()
            };
            let run = grid
                .runner()
                .executor(&quiet(2))
                .audit(true)
                .obs(&hooks)
                .shard(index, of)
                .execute()
                .expect("shard sweep");
            assert_eq!(run.shard, Some((index, of)));
            sharded_cells += run.results.len();
            let dir = scratch
                .0
                .join(format!("shards-{of}"))
                .join(index.to_string());
            shard::write_shard(&dir, &run, Some(&registry)).expect("write shard slice");
            dirs.push(dir);
        }
        assert_eq!(sharded_cells, 24, "shards partition the grid, of={of}");

        let merged = shard::merge_shards(&dirs).expect("merge shards");
        assert_eq!(merged.run.results, single.results, "of={of}");
        assert_eq!(merged.run.cache_stats, single.cache_stats, "of={of}");
        assert_eq!(merged.run.audited, single.audited);
        assert_eq!(
            store::scenarios_csv(&merged.run),
            store::scenarios_csv(&single),
            "scenarios.csv byte-identical, of={of}"
        );
        let merged_groups = gaia_sweep::across_seed_groups(&merged.run);
        assert_eq!(
            store::aggregate_csv(&merged_groups),
            store::aggregate_csv(&single_groups),
            "aggregate.csv byte-identical, of={of}"
        );
        assert_eq!(
            store::aggregate_json(&merged_groups),
            store::aggregate_json(&single_groups),
            "aggregate.json byte-identical, of={of}"
        );
        let merged_metrics = merged.metrics.expect("every shard recorded metrics");
        assert_eq!(
            merged_metrics.snapshot_json(),
            single_registry.snapshot_json(),
            "metrics.json byte-identical, of={of}"
        );
        for cell in grid.scenarios() {
            let name = ObsHooks::trace_file_name(&cell.key());
            let a = fs::read(single_traces.join(&name))
                .unwrap_or_else(|e| panic!("read single trace {name}: {e}"));
            let b = fs::read(trace_dir.join(&name))
                .unwrap_or_else(|e| panic!("read sharded trace {name}: {e}"));
            assert_eq!(a, b, "{name} byte-identical, of={of}");
            assert!(!a.is_empty());
        }
    }
}

#[test]
fn warm_result_cache_replays_every_cell_to_identical_bytes() {
    let grid = SweepGrid::week(9)
        .policies(vec![
            PolicySpec::plain(BasePolicyKind::NoWait),
            PolicySpec::plain(BasePolicyKind::CarbonTime),
        ])
        .seeds(vec![1, 2]);
    let scratch = Scratch::new("warm");
    let cache_dir = scratch.0.join("cache");

    let cold = grid
        .runner()
        .executor(&quiet(2))
        .audit(true)
        .resume(&cache_dir)
        .execute()
        .expect("cold sweep");
    let cold_stats = cold.disk_cache.expect("disk cache attached");
    assert_eq!(cold_stats.misses, 4, "cold cache misses every cell");
    assert_eq!(cold_stats.persists, 4, "every completed cell persisted");
    assert_eq!(cold_stats.hits, 0);

    let warm = grid
        .runner()
        .executor(&quiet(2))
        .audit(true)
        .resume(&cache_dir)
        .execute()
        .expect("warm sweep");
    let warm_stats = warm.disk_cache.expect("disk cache attached");
    assert_eq!(warm_stats.hits, 4, "warm cache skips every completed cell");
    assert_eq!(warm_stats.misses, 0);
    assert_eq!(warm_stats.persists, 0);

    assert_eq!(cold.results, warm.results);
    assert_eq!(
        store::scenarios_csv(&cold),
        store::scenarios_csv(&warm),
        "replayed cells serialize to the same bytes"
    );
}

#[test]
fn corrupt_cache_entries_are_recomputed_not_trusted() {
    let grid = SweepGrid::week(9)
        .policies(vec![PolicySpec::plain(BasePolicyKind::NoWait)])
        .seeds(vec![1, 2]);
    let scratch = Scratch::new("corrupt");
    let cache_dir = scratch.0.join("cache");

    let cold = grid
        .runner()
        .executor(&quiet(1))
        .resume(&cache_dir)
        .execute()
        .expect("cold sweep");
    assert_eq!(cold.disk_cache.expect("stats").persists, 2);

    let entries = cache_entry_files(&cache_dir);
    assert_eq!(entries.len(), 2, "one entry file per cell");
    // Garbage in one entry, a truncated header in the other: both decode
    // failures must degrade to misses.
    fs::write(&entries[0], b"not a cell entry").expect("corrupt entry");
    fs::write(&entries[1], &b"GAI"[..]).expect("truncate entry");

    let recovered = grid
        .runner()
        .executor(&quiet(1))
        .resume(&cache_dir)
        .execute()
        .expect("recovery sweep");
    let stats = recovered.disk_cache.expect("stats");
    assert_eq!(stats.hits, 0, "corrupt entries never hit");
    assert_eq!(stats.misses, 2);
    assert_eq!(stats.persists, 2, "good entries rewritten in place");
    assert_eq!(recovered.results, cold.results);

    // And the rewritten entries hit again.
    let warm = grid
        .runner()
        .executor(&quiet(1))
        .resume(&cache_dir)
        .execute()
        .expect("warm sweep");
    assert_eq!(warm.disk_cache.expect("stats").hits, 2);

    // The shard slice format under the same single-fault corruptions:
    // every cut is a format error, and no overwrite or `u64::MAX` count
    // panics or over-allocates. (Cache entries get the same sweep in
    // the crate's own `diskcache` tests, where their decoder is
    // reachable without a simulation per corruption.)
    let shard_dir = scratch.0.join("shard");
    shard::write_shard(&shard_dir, &warm, None).expect("write shard slice");
    let cells = shard_dir.join("cells.bin");
    let good = fs::read(&cells).expect("read cells.bin");
    shard::read_shard(&shard_dir).expect("the written slice reads back");
    let read_corrupt = |bytes: &[u8]| {
        fs::write(&cells, bytes).expect("write corrupt cells.bin");
        shard::read_shard(&shard_dir)
    };
    for cut in 0..good.len() {
        let err = read_corrupt(&good[..cut]).expect_err("truncated slice");
        assert!(
            matches!(err, shard::MergeError::Format(..)),
            "cut at {cut}: {err}"
        );
    }
    for corrupt in corruptions(&good) {
        let _ = read_corrupt(&corrupt);
    }
}

/// Every `*.cell` entry file under the cache root, in sorted order.
fn cache_entry_files(root: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(fanout) = fs::read_dir(root) else {
        return files;
    };
    for dir in fanout.filter_map(Result::ok) {
        if let Ok(entries) = fs::read_dir(dir.path()) {
            for entry in entries.filter_map(Result::ok) {
                if entry.path().extension().is_some_and(|e| e == "cell") {
                    files.push(entry.path());
                }
            }
        }
    }
    files.sort();
    files
}

fn policy_pool() -> Vec<PolicySpec> {
    vec![
        PolicySpec::plain(BasePolicyKind::NoWait),
        PolicySpec::plain(BasePolicyKind::LowestSlot),
        PolicySpec::plain(BasePolicyKind::LowestWindow),
        PolicySpec::plain(BasePolicyKind::CarbonTime),
        PolicySpec::plain(BasePolicyKind::WaitAwhile),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Any random grid, split any way, merges back to the
    /// single-process bytes.
    #[test]
    fn any_grid_merges_to_the_single_process_bytes(
        policy_lo in 0usize..4,
        policy_n in 1usize..3,
        seed_base in 0u64..1000,
        seed_n in 1usize..3,
        of in 1usize..8,
    ) {
        let policies: Vec<PolicySpec> =
            policy_pool()[policy_lo..policy_lo + policy_n].to_vec();
        let seeds: Vec<u64> = (seed_base..seed_base + seed_n as u64).collect();
        let grid = SweepGrid::week(9).policies(policies).seeds(seeds);
        let scratch = Scratch::new(&format!("prop-{policy_lo}{policy_n}-{seed_base}-{of}"));

        let single = grid
            .runner()
            .executor(&quiet(2))
            .audit(true)
            .execute()
            .expect("single-process sweep");

        let mut dirs = Vec::new();
        for index in 0..of {
            let run = grid
                .runner()
                .executor(&quiet(2))
                .audit(true)
                .shard(index, of)
                .execute()
                .expect("shard sweep");
            let dir = scratch.0.join(index.to_string());
            shard::write_shard(&dir, &run, None).expect("write shard slice");
            dirs.push(dir);
        }
        let merged = shard::merge_shards(&dirs).expect("merge shards");

        prop_assert_eq!(&merged.run.results, &single.results);
        prop_assert_eq!(merged.run.cache_stats, single.cache_stats);
        prop_assert_eq!(store::scenarios_csv(&merged.run), store::scenarios_csv(&single));
        let merged_groups = gaia_sweep::across_seed_groups(&merged.run);
        let single_groups = gaia_sweep::across_seed_groups(&single);
        prop_assert_eq!(
            store::aggregate_csv(&merged_groups),
            store::aggregate_csv(&single_groups)
        );
        prop_assert_eq!(
            store::aggregate_json(&merged_groups),
            store::aggregate_json(&single_groups)
        );
    }

    /// Any surviving subset of cache entries — the state an arbitrary
    /// kill point leaves behind — resumes to the same results, hitting
    /// exactly the survivors and recomputing exactly the rest.
    #[test]
    fn partial_cache_resumes_with_bounded_recomputation(
        seed_base in 0u64..300,
        keep_mask in 0usize..64,
    ) {
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![seed_base, seed_base + 1, seed_base + 2]);
        let scratch = Scratch::new(&format!("resume-{seed_base}-{keep_mask}"));
        let cache_dir = scratch.0.join("cache");

        let cold = grid
            .runner()
            .executor(&quiet(2))
            .audit(true)
            .resume(&cache_dir)
            .execute()
            .expect("cold sweep");
        let entries = cache_entry_files(&cache_dir);
        prop_assert_eq!(entries.len(), 6);

        // Drop every entry outside the mask: the cells a killed run
        // never got to persist.
        let mut kept = 0u64;
        for (bit, file) in entries.iter().enumerate() {
            if keep_mask & (1 << bit) == 0 {
                fs::remove_file(file).expect("drop entry");
            } else {
                kept += 1;
            }
        }

        let resumed = grid
            .runner()
            .executor(&quiet(2))
            .audit(true)
            .resume(&cache_dir)
            .execute()
            .expect("resumed sweep");
        let stats = resumed.disk_cache.expect("stats");
        prop_assert_eq!(stats.hits, kept, "hits exactly the survivors");
        prop_assert_eq!(stats.misses, 6 - kept, "recomputes exactly the rest");
        prop_assert_eq!(stats.persists, 6 - kept);
        prop_assert_eq!(&resumed.results, &cold.results);
        prop_assert_eq!(store::scenarios_csv(&resumed), store::scenarios_csv(&cold));
    }
}
