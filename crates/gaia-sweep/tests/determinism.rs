//! The sweep-determinism contract: parallelism changes wall-clock time,
//! never results.
//!
//! Two layers of evidence:
//!
//! * an acceptance-style integration test on the ISSUE's reference grid
//!   (4 policies × 3 regions × 2 seeds = 24 scenarios) byte-comparing
//!   the result-store artifacts of a 1-worker and a 4-worker run;
//! * a property test over randomly drawn grids comparing merged
//!   summaries and serialized artifacts between 1 worker and 4+ workers.

use std::fs;
use std::path::PathBuf;

use gaia_carbon::Region;
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_sweep::{store, Executor, ResultStore, SweepGrid, TraceCache};
use proptest::prelude::*;

/// A unique scratch directory under the target dir; removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("gaia-sweep-{}-{tag}", std::process::id()));
        fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

fn read(dir: &std::path::Path, run: &str, file: &str) -> Vec<u8> {
    fs::read(dir.join(run).join(file)).unwrap_or_else(|e| panic!("read {run}/{file}: {e}"))
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
fn reference_grid_artifacts_are_byte_identical_across_worker_counts() {
    let grid = reference_grid();
    assert_eq!(grid.len(), 24, "4 policies x 3 regions x 2 seeds");

    let serial = grid
        .runner()
        .executor(&Executor::new(1).with_progress(false))
        .execute()
        .expect("in-memory sweep");
    let parallel = grid
        .runner()
        .executor(&Executor::new(4).with_progress(false))
        .execute()
        .expect("in-memory sweep");
    assert_eq!(serial.results, parallel.results, "merged results identical");

    let scratch = Scratch::new("reference");
    ResultStore::create(&scratch.0, "w1")
        .and_then(|s| s.write(&serial, None))
        .expect("write serial artifacts");
    ResultStore::create(&scratch.0, "w4")
        .and_then(|s| s.write(&parallel, None))
        .expect("write parallel artifacts");

    for file in ["scenarios.csv", "aggregate.csv", "aggregate.json"] {
        let a = read(&scratch.0, "w1", file);
        let b = read(&scratch.0, "w4", file);
        assert_eq!(a, b, "{file} must be byte-identical for 1 vs 4 workers");
        assert!(!a.is_empty(), "{file} has content");
    }
    // The manifest is exempt (wall-clock, worker count) but must exist
    // and record the right worker counts.
    let manifest = String::from_utf8(read(&scratch.0, "w4", "manifest.json")).unwrap();
    assert!(
        manifest.contains("\"workers\": 4"),
        "manifest records workers: {manifest}"
    );
    assert!(manifest.contains("\"scenario_count\": 24"));
}

#[test]
fn observed_reference_grid_is_worker_count_invariant() {
    let grid = reference_grid();
    let scratch = Scratch::new("observed");

    // One observed run per worker count, each with its own registry,
    // trace dir, and store.
    let mut metrics_files = Vec::new();
    for workers in [1usize, 4] {
        let run_name = format!("w{workers}");
        let registry = gaia_obs::MetricsRegistry::new();
        let trace_dir = scratch.0.join(format!("traces-{workers}"));
        let hooks = gaia_sweep::ObsHooks {
            metrics: Some(&registry),
            trace_dir: Some(&trace_dir),
            ..Default::default()
        };
        let run = grid
            .runner()
            .executor(&Executor::new(workers).with_progress(false))
            .audit(true)
            .obs(&hooks)
            .execute()
            .expect("observed sweep runs");
        assert!(run.is_clean());

        // The ISSUE's expected cache behaviour: 6 carbon (3 regions ×
        // 2 seeds) + 2 workload (2 seeds) generations, the other 40 of
        // the 48 lookups hit — for ANY worker count.
        assert_eq!(run.cache_stats.misses, 8, "workers={workers}");
        assert_eq!(run.cache_stats.hits, 40, "workers={workers}");
        assert_eq!(run.cache_stats.entries, 8, "workers={workers}");
        assert_eq!(registry.counter("cache.misses").get(), 8);
        assert_eq!(registry.counter("cache.hits").get(), 40);
        assert_eq!(registry.counter("sweep.cells").get(), 24);

        let store = ResultStore::create(&scratch.0, &run_name).expect("store");
        store
            .write_observed(&run, None, Some(&registry), None)
            .expect("write artifacts");
        metrics_files.push(read(&scratch.0, &run_name, "metrics.json"));
    }

    // metrics.json is a deterministic artifact: byte-identical across
    // worker counts.
    assert_eq!(
        metrics_files[0], metrics_files[1],
        "metrics.json must be byte-identical for 1 vs 4 workers"
    );
    assert!(!metrics_files[0].is_empty());

    // Every per-cell trace file is byte-identical across worker counts.
    for cell in grid.scenarios() {
        let name = gaia_sweep::ObsHooks::trace_file_name(&cell.key());
        let a = fs::read(scratch.0.join("traces-1").join(&name))
            .unwrap_or_else(|e| panic!("read traces-1/{name}: {e}"));
        let b = fs::read(scratch.0.join("traces-4").join(&name))
            .unwrap_or_else(|e| panic!("read traces-4/{name}: {e}"));
        assert_eq!(a, b, "{name} must be byte-identical for 1 vs 4 workers");
        assert!(!a.is_empty(), "{name} has events");
    }
}

#[test]
fn reference_grid_audits_with_zero_violations() {
    let grid = reference_grid();
    let run = grid
        .runner()
        .executor(&Executor::new(4).with_progress(false))
        .audit(true)
        .execute()
        .expect("in-memory sweep");
    assert!(run.audited);
    assert!(run.failed_cells().is_empty(), "every cell completes");
    assert_eq!(
        run.audit_violations(),
        0,
        "the reference grid must audit clean: {:?}",
        run.results
            .iter()
            .filter(|r| r.audit_violations() > 0)
            .map(|r| &r.key)
            .collect::<Vec<_>>()
    );
    for result in &run.results {
        let audit = result.audit().expect("audit report per cell");
        assert!(
            audit.checks_run > 0,
            "checks actually ran for {}",
            result.key
        );
    }
}

#[test]
fn scenarios_csv_has_one_row_per_cell_in_grid_order() {
    let grid = reference_grid();
    let run = grid
        .runner()
        .executor(&Executor::new(2).with_progress(false))
        .execute()
        .expect("in-memory sweep");
    let csv = store::scenarios_csv(&run);
    let lines: Vec<&str> = csv.lines().collect();
    assert_eq!(lines.len(), 1 + 24, "header + 24 rows");
    for (line, cell) in lines[1..].iter().zip(grid.scenarios()) {
        assert!(
            line.starts_with(&format!("{},", cell.key())),
            "row order follows grid order: {line}"
        );
    }
}

/// Strategy pieces for the property test: small random grids that stay
/// cheap enough to simulate dozens of times.
fn policy_pool() -> Vec<PolicySpec> {
    vec![
        PolicySpec::plain(BasePolicyKind::NoWait),
        PolicySpec::plain(BasePolicyKind::LowestSlot),
        PolicySpec::plain(BasePolicyKind::LowestWindow),
        PolicySpec::plain(BasePolicyKind::CarbonTime),
        PolicySpec::plain(BasePolicyKind::WaitAwhile),
    ]
}

fn region_pool() -> Vec<Region> {
    vec![Region::SouthAustralia, Region::California, Region::Ontario]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn any_grid_is_worker_count_invariant(
        policy_lo in 0usize..4,
        policy_n in 1usize..3,
        region_idx in 0usize..3,
        seed_base in 0u64..1000,
        seed_n in 1usize..3,
        extra_workers in 4usize..9,
    ) {
        let policies: Vec<PolicySpec> =
            policy_pool()[policy_lo..policy_lo + policy_n].to_vec();
        let seeds: Vec<u64> = (seed_base..seed_base + seed_n as u64).collect();
        let grid = SweepGrid::week(9)
            .policies(policies)
            .regions(vec![region_pool()[region_idx]])
            .seeds(seeds);

        let serial = grid
            .runner()
            .executor(&Executor::new(1).with_progress(false))
            .execute()
            .expect("in-memory sweep");
        let parallel = grid
            .runner()
            .executor(&Executor::new(extra_workers).with_progress(false))
            .execute()
            .expect("in-memory sweep");

        // Merged summaries identical cell by cell...
        prop_assert_eq!(&serial.results, &parallel.results);
        // ...and every deterministic artifact serializes identically.
        prop_assert_eq!(
            store::scenarios_csv(&serial),
            store::scenarios_csv(&parallel)
        );
        let groups_serial = gaia_sweep::across_seed_groups(&serial);
        let groups_parallel = gaia_sweep::across_seed_groups(&parallel);
        prop_assert_eq!(
            store::aggregate_csv(&groups_serial),
            store::aggregate_csv(&groups_parallel)
        );
        prop_assert_eq!(
            store::aggregate_json(&groups_serial),
            store::aggregate_json(&groups_parallel)
        );
    }

    #[test]
    fn trace_cache_sharing_does_not_change_results(
        seed in 0u64..500,
        workers in 2usize..6,
    ) {
        // A fresh cache per run vs one cache shared across both runs:
        // the memoization must be observationally transparent.
        let grid = SweepGrid::week(9)
            .policies(vec![
                PolicySpec::plain(BasePolicyKind::NoWait),
                PolicySpec::plain(BasePolicyKind::CarbonTime),
            ])
            .seeds(vec![seed]);
        let fresh = grid
            .runner()
            .executor(&Executor::new(workers).with_progress(false))
            .execute()
            .expect("in-memory sweep");
        let shared_cache = TraceCache::new();
        let first = grid
            .runner()
            .executor(&Executor::new(workers).with_progress(false))
            .cache(&shared_cache)
            .execute()
            .expect("in-memory sweep");
        let second = grid
            .runner()
            .executor(&Executor::new(1).with_progress(false))
            .cache(&shared_cache)
            .execute()
            .expect("in-memory sweep");
        prop_assert_eq!(&fresh.results, &first.results);
        prop_assert_eq!(&first.results, &second.results);
        // The second pass over a warm cache generates nothing.
        prop_assert_eq!(second.cache_stats.misses, 0);
    }
}
