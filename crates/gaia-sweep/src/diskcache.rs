//! Content-addressed on-disk cache of per-cell sweep results.
//!
//! Every completed cell can be persisted under a directory (by default
//! `results/cache/`) keyed by a fingerprint of the **full cell inputs**:
//! the scenario's binary encoding (policy spec, region, family, scale,
//! seed, cluster, queues), the fault schedule's fingerprint, the retry
//! budget, and a cache-format version salt. Two runs that agree on
//! those inputs produce byte-identical results (the repo's determinism
//! contract), so a fingerprint match lets a re-run, an overlapping
//! grid, or a resumed shard skip the simulation entirely and replay the
//! stored outcome — summary, audit report, retry provenance, optional
//! per-cell trace, and the cell's metric contributions.
//!
//! Entries are written with [`gaia_sim::durable_write`], the one
//! durable write the serving layer's snapshots also use, so a SIGKILL
//! mid-write never leaves a corrupt entry: readers either see the
//! complete file or nothing, and anything that fails to decode is
//! treated as a miss and overwritten.
//!
//! Resumability falls out of the design: an interrupted run re-executed
//! with the same cache directory finds every finished cell by content
//! address and recomputes only the missing ones.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::{fs, io};

use gaia_fault::FaultSchedule;
use gaia_sim::{durable_write, fnv1a};

use crate::codec::{self, Reader, Writer};
use crate::grid::Scenario;
use crate::CellOutcome;

/// Bump when the entry format or anything upstream of a cell's result
/// changes in a way fingerprints cannot see (engine behaviour, codec
/// layout): old entries then miss instead of replaying stale results.
pub const RESULT_CACHE_VERSION: u32 = 1;

const ENTRY_MAGIC: &[u8; 8] = b"GAIACELL";

/// Counters from one run's use of the result cache. Process-local and
/// wall-clock-free, but still excluded from merged artifacts because
/// they depend on what happened to be cached, not on the grid.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Cells served from the cache without simulating.
    pub hits: u64,
    /// Cells that had to be simulated (no entry, ineligible entry, or
    /// corrupt entry).
    pub misses: u64,
    /// Freshly simulated cells persisted for future runs.
    pub persists: u64,
}

/// What the requesting run needs from an entry for a hit to be usable.
/// An entry lacking a required part is a miss (and gets overwritten by
/// the freshly computed, richer entry); extra parts are fine — the
/// engine strips what the run did not ask for.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EntryNeeds {
    pub(crate) audit: bool,
    pub(crate) trace: bool,
    pub(crate) metrics: bool,
}

/// A decoded cache entry: everything needed to replay a cell.
pub(crate) struct CellEntry {
    pub(crate) outcome: CellOutcome,
    /// Serialized JSONL trace, present iff the producing run traced.
    pub(crate) trace: Option<Vec<u8>>,
    /// [`codec::write_metrics`] payload of the cell's scratch registry.
    pub(crate) metrics: Option<Vec<u8>>,
}

/// Handle on a cache directory plus per-run counters.
pub(crate) struct DiskCache {
    root: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    persists: AtomicU64,
}

/// Fingerprint of the full inputs of one cell. The scenario is hashed
/// via its canonical binary encoding (not its display key, which elides
/// f64 bit patterns); the fault schedule contributes the FNV-1a of its
/// `Debug` rendering (covers every compiled window and chaos target);
/// `max_attempts` matters because a chaos-faulted cell's outcome
/// depends on the retry budget. Backoff and timeout are excluded: they
/// affect wall-clock pacing, never results.
pub(crate) fn cell_fingerprint(
    scenario: &Scenario,
    schedule: Option<&FaultSchedule>,
    max_attempts: u32,
) -> u64 {
    let mut w = Writer::new();
    w.u32(RESULT_CACHE_VERSION);
    codec::write_scenario(&mut w, scenario);
    w.u64(schedule.map_or(0, |s| fnv1a(format!("{s:?}").as_bytes())));
    w.u32(max_attempts);
    fnv1a(&w.into_bytes())
}

impl DiskCache {
    /// Open (creating if needed) a cache rooted at `dir`.
    pub(crate) fn open(dir: &Path) -> io::Result<DiskCache> {
        fs::create_dir_all(dir)?;
        Ok(DiskCache {
            root: dir.to_path_buf(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            persists: AtomicU64::new(0),
        })
    }

    /// Entry path: two-hex-char fanout directory, 16-hex-char file name.
    fn entry_path(&self, fingerprint: u64) -> PathBuf {
        let hex = format!("{fingerprint:016x}");
        self.root.join(&hex[..2]).join(format!("{hex}.cell"))
    }

    /// Look up a cell. Returns the decoded entry on a usable hit;
    /// counts and returns `None` on absence, ineligibility (missing a
    /// needed part), fingerprint/scenario mismatch, or corruption.
    pub(crate) fn lookup(
        &self,
        scenario: &Scenario,
        fingerprint: u64,
        needs: EntryNeeds,
    ) -> Option<CellEntry> {
        let path = self.entry_path(fingerprint);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            Err(e) => {
                gaia_obs::warn!("result cache read failed for {}: {e}", path.display());
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_entry(&bytes, scenario, fingerprint) {
            Ok(entry) => {
                let usable = (!needs.audit || outcome_has_audit(&entry.outcome))
                    && (!needs.trace || entry.trace.is_some())
                    && (!needs.metrics || entry.metrics.is_some());
                if usable {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(entry)
                } else {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
            Err(reason) => {
                gaia_obs::warn!(
                    "result cache entry {} unusable ({reason}); recomputing",
                    path.display()
                );
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Persist a freshly computed cell atomically (tmp + rename +
    /// fsync). The caller decides *whether* an outcome is cacheable;
    /// this only encodes and writes.
    pub(crate) fn store(
        &self,
        scenario: &Scenario,
        fingerprint: u64,
        entry: &CellEntry,
    ) -> io::Result<()> {
        let path = self.entry_path(fingerprint);
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent)?;
        }
        durable_write(&path, &encode_entry(scenario, fingerprint, entry))?;
        self.persists.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Counters accumulated by this handle.
    pub(crate) fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            persists: self.persists.load(Ordering::Relaxed),
        }
    }
}

pub(crate) fn outcome_has_audit(outcome: &CellOutcome) -> bool {
    match outcome {
        CellOutcome::Completed { audit, .. } | CellOutcome::Retried { audit, .. } => {
            audit.is_some()
        }
        CellOutcome::Failed { .. } => false,
    }
}

fn encode_entry(scenario: &Scenario, fingerprint: u64, entry: &CellEntry) -> Vec<u8> {
    let mut w = Writer::with_header(ENTRY_MAGIC, RESULT_CACHE_VERSION);
    w.u64(fingerprint);
    codec::write_scenario(&mut w, scenario);
    codec::write_outcome(&mut w, &entry.outcome);
    w.opt(entry.trace.as_deref(), Writer::bytes);
    w.opt(entry.metrics.as_deref(), Writer::bytes);
    w.into_bytes()
}

fn decode_entry(bytes: &[u8], scenario: &Scenario, fingerprint: u64) -> Result<CellEntry, String> {
    let mut r = Reader::new(bytes);
    r.header(ENTRY_MAGIC, RESULT_CACHE_VERSION)?;
    if r.u64()? != fingerprint {
        return Err("fingerprint mismatch".to_owned());
    }
    let stored = codec::read_scenario(&mut r)?;
    if stored.key() != scenario.key() {
        // FNV-1a collision or a mis-filed entry: never replay a
        // different cell's result.
        return Err(format!("scenario mismatch (stored {})", stored.key()));
    }
    let outcome = codec::read_outcome(&mut r)?;
    let trace = r.opt(|r| r.bytes().map(<[u8]>::to_vec))?;
    let metrics = r.opt(|r| r.bytes().map(<[u8]>::to_vec))?;
    r.done()?;
    Ok(CellEntry {
        outcome,
        trace,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::SweepGrid;
    use gaia_metrics::Summary;

    fn scenario() -> Scenario {
        SweepGrid::week(9).scenarios().remove(0)
    }

    fn completed() -> CellOutcome {
        CellOutcome::Completed {
            summary: Summary {
                name: "Carbon-Time".to_owned(),
                carbon_g: 10.0,
                total_cost: 2.0,
                mean_wait_hours: 0.1,
                mean_completion_hours: 1.0,
                reserved_utilization: 0.8,
                evictions: 0,
                jobs: 100,
            },
            audit: None,
        }
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gaia-diskcache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn store_then_lookup_round_trips() {
        let dir = tempdir("roundtrip");
        let cache = DiskCache::open(&dir).unwrap();
        let sc = scenario();
        let fp = cell_fingerprint(&sc, None, 1);
        assert!(cache.lookup(&sc, fp, EntryNeeds::default()).is_none());
        let entry = CellEntry {
            outcome: completed(),
            trace: Some(b"{\"ev\":\"x\"}\n".to_vec()),
            metrics: None,
        };
        cache.store(&sc, fp, &entry).unwrap();
        let back = cache
            .lookup(
                &sc,
                fp,
                EntryNeeds {
                    trace: true,
                    ..EntryNeeds::default()
                },
            )
            .expect("hit");
        assert_eq!(back.outcome, entry.outcome);
        assert_eq!(back.trace, entry.trace);
        assert_eq!(
            cache.stats(),
            DiskCacheStats {
                hits: 1,
                misses: 1,
                persists: 1
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn needs_gate_hits() {
        let dir = tempdir("needs");
        let cache = DiskCache::open(&dir).unwrap();
        let sc = scenario();
        let fp = cell_fingerprint(&sc, None, 3);
        let entry = CellEntry {
            outcome: completed(), // no audit
            trace: None,
            metrics: None,
        };
        cache.store(&sc, fp, &entry).unwrap();
        for needs in [
            EntryNeeds {
                audit: true,
                ..EntryNeeds::default()
            },
            EntryNeeds {
                trace: true,
                ..EntryNeeds::default()
            },
            EntryNeeds {
                metrics: true,
                ..EntryNeeds::default()
            },
        ] {
            assert!(cache.lookup(&sc, fp, needs).is_none());
        }
        assert!(cache.lookup(&sc, fp, EntryNeeds::default()).is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_entry_is_a_miss() {
        let dir = tempdir("corrupt");
        let cache = DiskCache::open(&dir).unwrap();
        let sc = scenario();
        let fp = cell_fingerprint(&sc, None, 1);
        let entry = CellEntry {
            outcome: completed(),
            trace: None,
            metrics: None,
        };
        cache.store(&sc, fp, &entry).unwrap();
        let path = cache.entry_path(fp);
        let mut bytes = fs::read(&path).unwrap();
        bytes.truncate(bytes.len() / 2);
        fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(&sc, fp, EntryNeeds::default()).is_none());
        fs::remove_dir_all(&dir).unwrap();

        // Every cut of an entry carrying every optional part fails to
        // decode; overwrites and `u64::MAX` counts decode to an error or
        // a valid entry, never a panic or an unbounded allocation.
        let full = CellEntry {
            outcome: completed(),
            trace: Some(b"{\"ev\":\"x\"}\n".to_vec()),
            metrics: Some(vec![7; 24]),
        };
        let good = encode_entry(&sc, fp, &full);
        decode_entry(&good, &sc, fp).expect("a valid entry decodes");
        for cut in 0..good.len() {
            assert!(decode_entry(&good[..cut], &sc, fp).is_err(), "cut at {cut}");
        }
        for corrupt in gaia_sim::codec::corruptions(&good) {
            let _ = decode_entry(&corrupt, &sc, fp);
        }
    }

    #[test]
    fn fingerprint_separates_inputs() {
        let sc = scenario();
        let mut other = sc;
        other.seed += 1;
        let base = cell_fingerprint(&sc, None, 1);
        assert_ne!(base, cell_fingerprint(&other, None, 1));
        assert_ne!(base, cell_fingerprint(&sc, None, 2));
    }
}
