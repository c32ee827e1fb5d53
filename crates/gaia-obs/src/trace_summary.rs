//! Reconstructs per-job statistics from a serialized event stream.
//!
//! This is the analysis half of the tracing layer: `gaia trace
//! summarize events.jsonl` parses the stream back into typed
//! [`Event`]s, validates it (monotone timestamps, every
//! `SegmentStarted` matched by a `SegmentFinished`), and aggregates
//! wait/eviction/pool breakdowns. For a deterministic input the
//! rendered summary is byte-stable, which CI exploits by diffing the
//! summary of a traced reference run against a committed golden file.

use std::collections::BTreeMap;
use std::io::BufRead;

use crate::event::{Event, PoolKind};

/// Upper bounds (hours) of the wait-time breakdown in [`TraceSummary`].
pub const WAIT_BOUNDS_HOURS: [f64; 5] = [1.0, 4.0, 12.0, 24.0, 48.0];

#[derive(Debug, Default, Clone)]
struct JobState {
    submitted: bool,
    open_segments: Vec<u32>,
    completed: bool,
}

/// Aggregated statistics reconstructed from an event stream.
#[derive(Debug, Default, Clone)]
pub struct TraceSummary {
    /// Total events read.
    pub events: u64,
    /// Timestamp of the first/last simulation event, minutes.
    pub first_t: Option<u64>,
    /// See [`TraceSummary::first_t`].
    pub last_t: Option<u64>,
    /// `JobSubmitted` count.
    pub jobs_submitted: u64,
    /// `JobCompleted` count.
    pub jobs_completed: u64,
    /// `PlanChosen` count.
    pub plans_chosen: u64,
    /// `SpotEvicted` count.
    pub evictions: u64,
    /// `SegmentStarted` count.
    pub segments_started: u64,
    /// `SegmentFinished` count.
    pub segments_finished: u64,
    /// Segments finished with `useful == false`.
    pub segments_wasted: u64,
    /// `WidthChanged` count (elastic plans only; 0 for every
    /// non-elastic stream, which keeps their rendering byte-stable).
    pub width_changes: u64,
    /// `SegmentStarted` counts by pool.
    pub segments_by_pool: BTreeMap<&'static str, u64>,
    /// Sum of `JobCompleted.wait`, minutes.
    pub total_wait_min: u64,
    /// Sum of `JobCompleted.stretch`.
    pub total_stretch: f64,
    /// Wait-time histogram: one bucket per [`WAIT_BOUNDS_HOURS`] entry
    /// plus an overflow bucket.
    pub wait_buckets: Vec<u64>,
    /// Jobs with at least one eviction.
    pub jobs_evicted: u64,
    /// `FaultInjected` count (armed fault-plan entries).
    pub faults_injected: u64,
    /// `DegradedModeEntered` count (forecast-outage fallbacks).
    pub degraded_entries: u64,
    /// Sweep cells finished with status `"completed"` / `"retried"` /
    /// `"failed"` — retried cells recovered and count as completed, with
    /// their retry provenance tallied in
    /// [`TraceSummary::cells_retried`].
    pub cells_completed: u64,
    /// See [`TraceSummary::cells_completed`].
    pub cells_failed: u64,
    /// Cells that finished with status `"retried"`, plus `CellRetried`
    /// attempt events.
    pub cells_retried: u64,
    /// `CacheHit` / `CacheMiss` counts.
    pub cache_hits: u64,
    /// See [`TraceSummary::cache_hits`].
    pub cache_misses: u64,
    /// `CachePersist` count (durable result-cache writes).
    pub cache_persists: u64,
    /// `ShardFinished` count (sweep shards observed in the stream).
    pub shards_finished: u64,
    /// `JobAccepted` count (serving-layer submissions).
    pub jobs_accepted: u64,
    /// `Replan` count (incremental planner runs in the serving layer).
    pub replans: u64,
    /// `SnapshotWritten` count.
    pub snapshots_written: u64,
    /// Stream validation failures (non-monotone timestamps, unbalanced
    /// segments, duplicate lifecycle events). Empty for a well-formed
    /// trace.
    pub issues: Vec<String>,
}

impl TraceSummary {
    /// Summarize an in-memory event sequence.
    pub fn from_events<'a, I>(events: I) -> TraceSummary
    where
        I: IntoIterator<Item = &'a Event>,
    {
        let mut builder = Builder::default();
        for event in events {
            builder.push(event);
        }
        builder.finish()
    }

    /// Parse and summarize a JSONL stream; blank lines are skipped.
    /// Returns an error only on I/O or parse failure — semantic stream
    /// problems are collected into [`TraceSummary::issues`].
    pub fn from_jsonl<R: BufRead>(reader: R) -> Result<TraceSummary, String> {
        let mut builder = Builder::default();
        for (idx, line) in reader.lines().enumerate() {
            let line = line.map_err(|e| format!("read error on line {}: {e}", idx + 1))?;
            if line.trim().is_empty() {
                continue;
            }
            let event =
                Event::from_json_line(&line).map_err(|e| format!("line {}: {e}", idx + 1))?;
            builder.push(&event);
        }
        Ok(builder.finish())
    }

    /// Render the deterministic plain-text summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("trace summary\n");
        out.push_str(&format!("  events            {}\n", self.events));
        if let (Some(first), Some(last)) = (self.first_t, self.last_t) {
            out.push_str(&format!(
                "  sim time span     {first}..{last} min ({:.1} h)\n",
                (last - first) as f64 / 60.0
            ));
        }
        out.push_str("\njobs\n");
        out.push_str(&format!("  submitted         {}\n", self.jobs_submitted));
        out.push_str(&format!("  plans chosen      {}\n", self.plans_chosen));
        out.push_str(&format!("  completed         {}\n", self.jobs_completed));
        out.push_str(&format!(
            "  total wait        {} min ({:.1} h)\n",
            self.total_wait_min,
            self.total_wait_min as f64 / 60.0
        ));
        if self.jobs_completed > 0 {
            out.push_str(&format!(
                "  mean wait         {:.1} min\n",
                self.total_wait_min as f64 / self.jobs_completed as f64
            ));
            out.push_str(&format!(
                "  mean stretch      {:.3}\n",
                self.total_stretch / self.jobs_completed as f64
            ));
        }
        out.push_str("\nwait breakdown (completed jobs)\n");
        let mut lower = 0.0;
        for (i, count) in self.wait_buckets.iter().enumerate() {
            let label = match WAIT_BOUNDS_HOURS.get(i) {
                Some(upper) => format!("{lower:>5.0}h - {upper:>3.0}h"),
                None => format!("  over {lower:>3.0}h"),
            };
            out.push_str(&format!("  {label}      {count}\n"));
            if let Some(upper) = WAIT_BOUNDS_HOURS.get(i) {
                lower = *upper;
            }
        }
        out.push_str("\nsegments\n");
        out.push_str(&format!("  started           {}\n", self.segments_started));
        out.push_str(&format!("  finished          {}\n", self.segments_finished));
        out.push_str(&format!("  wasted            {}\n", self.segments_wasted));
        if self.width_changes > 0 {
            out.push_str(&format!("  width changes     {}\n", self.width_changes));
        }
        for pool in [PoolKind::Reserved, PoolKind::OnDemand, PoolKind::Spot] {
            let count = self
                .segments_by_pool
                .get(pool.as_str())
                .copied()
                .unwrap_or(0);
            out.push_str(&format!("  on {:<10}     {count}\n", pool.as_str()));
        }
        out.push_str("\nevictions\n");
        out.push_str(&format!("  spot evictions    {}\n", self.evictions));
        out.push_str(&format!("  jobs evicted      {}\n", self.jobs_evicted));
        if self.faults_injected + self.degraded_entries > 0 {
            out.push_str("\nfaults\n");
            out.push_str(&format!("  injected          {}\n", self.faults_injected));
            out.push_str(&format!("  degraded entries  {}\n", self.degraded_entries));
        }
        if self.jobs_accepted + self.replans + self.snapshots_written > 0 {
            out.push_str("\nserving\n");
            out.push_str(&format!("  jobs accepted     {}\n", self.jobs_accepted));
            out.push_str(&format!("  replans           {}\n", self.replans));
            out.push_str(&format!("  snapshots written {}\n", self.snapshots_written));
        }
        if self.cells_completed + self.cells_failed + self.cache_hits + self.cache_misses > 0 {
            out.push_str("\nsweep\n");
            out.push_str(&format!("  cells completed   {}\n", self.cells_completed));
            out.push_str(&format!("  cells failed      {}\n", self.cells_failed));
            if self.cells_retried > 0 {
                out.push_str(&format!("  retry attempts    {}\n", self.cells_retried));
            }
            out.push_str(&format!("  cache hits        {}\n", self.cache_hits));
            out.push_str(&format!("  cache misses      {}\n", self.cache_misses));
            if self.cache_persists > 0 {
                out.push_str(&format!("  cache persists    {}\n", self.cache_persists));
            }
            if self.shards_finished > 0 {
                out.push_str(&format!("  shards finished   {}\n", self.shards_finished));
            }
        }
        if self.issues.is_empty() {
            out.push_str("\nstream checks: ok\n");
        } else {
            out.push_str(&format!(
                "\nstream checks: {} issue(s)\n",
                self.issues.len()
            ));
            for issue in &self.issues {
                out.push_str(&format!("  - {issue}\n"));
            }
        }
        out
    }
}

/// Incremental summarizer for live tailing (`gaia trace summarize
/// --follow`): feed lines (or events) as they are appended and render
/// an up-to-date [`TraceSummary`] at any point, without re-reading the
/// stream from the start.
///
/// [`SummaryStream::summary`] finalizes a *copy* of the running state,
/// so end-of-stream checks (unmatched segment starts, completions
/// without submissions) reflect "if the stream ended here" — on a live
/// trace an open segment is expected mid-run and disappears from the
/// next render once its finish event arrives.
#[derive(Debug, Default, Clone)]
pub struct SummaryStream {
    builder: Builder,
    lines: u64,
}

impl SummaryStream {
    /// Empty stream; equivalent to `SummaryStream::default()`.
    pub fn new() -> Self {
        SummaryStream::default()
    }

    /// Parse and absorb one JSONL line. Blank lines are skipped (and
    /// not counted); a malformed line is an error and absorbs nothing.
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let event = Event::from_json_line(line)?;
        self.lines += 1;
        self.builder.push(&event);
        Ok(())
    }

    /// Absorb one already-parsed event.
    pub fn push_event(&mut self, event: &Event) {
        self.lines += 1;
        self.builder.push(event);
    }

    /// Non-blank lines (or events) absorbed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Summary of everything absorbed so far, with end-of-stream checks
    /// applied as if the stream ended here.
    pub fn summary(&self) -> TraceSummary {
        self.builder.clone().finish()
    }
}

#[derive(Debug, Default, Clone)]
struct Builder {
    summary: TraceSummary,
    jobs: BTreeMap<u64, JobState>,
    evicted_jobs: BTreeMap<u64, u64>,
}

impl Builder {
    fn push(&mut self, event: &Event) {
        let s = &mut self.summary;
        s.events += 1;
        if let Some(t) = event.timestamp() {
            if s.first_t.is_none() {
                s.first_t = Some(t);
            }
            if let Some(last) = s.last_t {
                if t < last {
                    s.issues.push(format!(
                        "non-monotone timestamp: {} at t={t} after t={last}",
                        event.name()
                    ));
                }
            }
            s.last_t = Some(s.last_t.map_or(t, |last| last.max(t)));
        }
        match event {
            Event::JobSubmitted { job, .. } => {
                s.jobs_submitted += 1;
                let state = self.jobs.entry(*job).or_default();
                if state.submitted {
                    s.issues.push(format!("job {job} submitted twice"));
                }
                state.submitted = true;
            }
            Event::PlanChosen { .. } => s.plans_chosen += 1,
            Event::SegmentStarted { job, seg, pool, .. } => {
                s.segments_started += 1;
                *s.segments_by_pool.entry(pool.as_str()).or_insert(0) += 1;
                let state = self.jobs.entry(*job).or_default();
                if state.open_segments.contains(seg) {
                    s.issues
                        .push(format!("job {job} segment {seg} started twice"));
                }
                state.open_segments.push(*seg);
            }
            Event::SegmentFinished {
                job, seg, useful, ..
            } => {
                s.segments_finished += 1;
                if !*useful {
                    s.segments_wasted += 1;
                }
                let state = self.jobs.entry(*job).or_default();
                match state.open_segments.iter().position(|o| o == seg) {
                    Some(pos) => {
                        state.open_segments.remove(pos);
                    }
                    None => s
                        .issues
                        .push(format!("job {job} segment {seg} finished without a start")),
                }
            }
            Event::WidthChanged { .. } => s.width_changes += 1,
            Event::SpotEvicted { job, .. } => {
                s.evictions += 1;
                *self.evicted_jobs.entry(*job).or_insert(0) += 1;
            }
            Event::JobCompleted {
                job, wait, stretch, ..
            } => {
                s.jobs_completed += 1;
                s.total_wait_min += wait;
                if stretch.is_finite() {
                    s.total_stretch += stretch;
                }
                let wait_hours = *wait as f64 / 60.0;
                let idx = WAIT_BOUNDS_HOURS.partition_point(|b| wait_hours > *b);
                if s.wait_buckets.is_empty() {
                    s.wait_buckets = vec![0; WAIT_BOUNDS_HOURS.len() + 1];
                }
                s.wait_buckets[idx] += 1;
                let state = self.jobs.entry(*job).or_default();
                if state.completed {
                    s.issues.push(format!("job {job} completed twice"));
                }
                state.completed = true;
            }
            Event::FaultInjected { .. } => s.faults_injected += 1,
            Event::DegradedModeEntered { .. } => s.degraded_entries += 1,
            Event::CellFinished { status, .. } => {
                // A retried cell recovered on a later attempt: it completed.
                if status == "completed" || status == "retried" {
                    s.cells_completed += 1;
                } else {
                    s.cells_failed += 1;
                }
            }
            Event::CellRetried { .. } => s.cells_retried += 1,
            Event::CellStarted { .. } | Event::ShardStarted { .. } => {}
            Event::ShardFinished { .. } => s.shards_finished += 1,
            Event::CacheHit { .. } => s.cache_hits += 1,
            Event::CacheMiss { .. } => s.cache_misses += 1,
            Event::CachePersist { .. } => s.cache_persists += 1,
            Event::JobAccepted { .. } => s.jobs_accepted += 1,
            Event::Replan { .. } => s.replans += 1,
            Event::SnapshotWritten { .. } => s.snapshots_written += 1,
        }
    }

    fn finish(mut self) -> TraceSummary {
        if self.summary.wait_buckets.is_empty() {
            self.summary.wait_buckets = vec![0; WAIT_BOUNDS_HOURS.len() + 1];
        }
        for (job, state) in &self.jobs {
            if !state.open_segments.is_empty() {
                self.summary.issues.push(format!(
                    "job {job} has {} unmatched segment start(s)",
                    state.open_segments.len()
                ));
            }
            if state.completed && !state.submitted {
                self.summary
                    .issues
                    .push(format!("job {job} completed without a submission"));
            }
        }
        self.summary.jobs_evicted = self.evicted_jobs.len() as u64;
        self.summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{PlanMode, PoolKind};

    fn well_formed() -> Vec<Event> {
        vec![
            Event::JobSubmitted {
                t: 0,
                job: 0,
                cpus: 1,
                len: 60,
            },
            Event::PlanChosen {
                t: 0,
                job: 0,
                mode: PlanMode::Once,
                start: 30,
                segs: 1,
                opportunistic: false,
                spot: true,
                est_carbon_g: 10.0,
                est_cost: 0.5,
            },
            Event::SegmentStarted {
                t: 30,
                job: 0,
                seg: 0,
                pool: PoolKind::Spot,
            },
            Event::SpotEvicted { t: 45, job: 0 },
            Event::SegmentFinished {
                t: 45,
                job: 0,
                seg: 0,
                pool: PoolKind::Spot,
                useful: false,
            },
            Event::SegmentStarted {
                t: 50,
                job: 0,
                seg: 1,
                pool: PoolKind::OnDemand,
            },
            Event::SegmentFinished {
                t: 110,
                job: 0,
                seg: 1,
                pool: PoolKind::OnDemand,
                useful: true,
            },
            Event::JobCompleted {
                t: 110,
                job: 0,
                wait: 50,
                stretch: 110.0 / 60.0,
            },
        ]
    }

    #[test]
    fn aggregates_well_formed_stream() {
        let summary = TraceSummary::from_events(&well_formed());
        assert!(summary.issues.is_empty(), "{:?}", summary.issues);
        assert_eq!(summary.events, 8);
        assert_eq!(summary.jobs_submitted, 1);
        assert_eq!(summary.jobs_completed, 1);
        assert_eq!(summary.plans_chosen, 1);
        assert_eq!(summary.evictions, 1);
        assert_eq!(summary.jobs_evicted, 1);
        assert_eq!(summary.segments_started, 2);
        assert_eq!(summary.segments_finished, 2);
        assert_eq!(summary.segments_wasted, 1);
        assert_eq!(summary.total_wait_min, 50);
        assert_eq!(summary.segments_by_pool.get("spot"), Some(&1));
        assert_eq!(summary.segments_by_pool.get("on-demand"), Some(&1));
        assert_eq!(summary.wait_buckets, vec![1, 0, 0, 0, 0, 0]);
        assert_eq!(summary.first_t, Some(0));
        assert_eq!(summary.last_t, Some(110));
    }

    #[test]
    fn summary_stream_matches_batch_and_is_resumable() {
        let events = well_formed();
        let mut stream = SummaryStream::new();
        // Mid-stream render: the open segment shows up as an issue now…
        for ev in &events[..3] {
            stream.push_event(ev);
        }
        let midway = stream.summary();
        assert!(
            midway
                .issues
                .iter()
                .any(|i| i.contains("unmatched segment")),
            "{:?}",
            midway.issues
        );
        // …and is gone once the rest of the stream arrives.
        for ev in &events[3..] {
            stream.push_event(ev);
        }
        assert_eq!(stream.lines(), events.len() as u64);
        let done = stream.summary();
        assert!(done.issues.is_empty(), "{:?}", done.issues);
        assert_eq!(done.render(), TraceSummary::from_events(&events).render());
    }

    #[test]
    fn summary_stream_accepts_lines_and_skips_blanks() {
        let mut stream = SummaryStream::new();
        stream
            .push_line(&Event::SpotEvicted { t: 5, job: 1 }.to_json_line())
            .unwrap();
        stream.push_line("   ").unwrap();
        assert!(stream.push_line("{not json").is_err());
        assert_eq!(stream.lines(), 1);
        assert_eq!(stream.summary().evictions, 1);
    }

    #[test]
    fn jsonl_round_trip_matches_in_memory() {
        let events = well_formed();
        let mut text = String::new();
        for ev in &events {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        let from_jsonl = TraceSummary::from_jsonl(text.as_bytes()).unwrap();
        let from_events = TraceSummary::from_events(&events);
        assert_eq!(from_jsonl.render(), from_events.render());
    }

    #[test]
    fn detects_non_monotone_timestamps() {
        let events = vec![
            Event::SpotEvicted { t: 100, job: 0 },
            Event::SpotEvicted { t: 50, job: 0 },
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.issues.len(), 1);
        assert!(
            summary.issues[0].contains("non-monotone"),
            "{:?}",
            summary.issues
        );
    }

    #[test]
    fn detects_unbalanced_segments() {
        let events = vec![Event::SegmentStarted {
            t: 0,
            job: 3,
            seg: 0,
            pool: PoolKind::Reserved,
        }];
        let summary = TraceSummary::from_events(&events);
        assert!(
            summary
                .issues
                .iter()
                .any(|i| i.contains("unmatched segment")),
            "{:?}",
            summary.issues
        );
    }

    #[test]
    fn detects_finish_without_start() {
        let events = vec![Event::SegmentFinished {
            t: 0,
            job: 3,
            seg: 2,
            pool: PoolKind::Reserved,
            useful: true,
        }];
        let summary = TraceSummary::from_events(&events);
        assert!(
            summary
                .issues
                .iter()
                .any(|i| i.contains("finished without a start")),
            "{:?}",
            summary.issues
        );
    }

    #[test]
    fn render_is_deterministic_and_mentions_sections() {
        let summary = TraceSummary::from_events(&well_formed());
        let a = summary.render();
        let b = summary.render();
        assert_eq!(a, b);
        assert!(a.contains("trace summary"), "{a}");
        assert!(a.contains("stream checks: ok"), "{a}");
        // No sweep events -> no sweep section.
        assert!(!a.contains("sweep\n"), "{a}");
    }

    #[test]
    fn sweep_events_populate_sweep_section() {
        let events = vec![
            Event::CellStarted {
                idx: 0,
                key: "k".into(),
            },
            Event::CellFinished {
                idx: 0,
                key: "k".into(),
                status: "completed".into(),
                queue_wait_s: 0.0,
                exec_s: 0.1,
            },
            Event::CacheHit {
                kind: crate::event::CacheKind::Carbon,
                key: "c".into(),
            },
            Event::CacheMiss {
                kind: crate::event::CacheKind::Workload,
                key: "w".into(),
            },
        ];
        let summary = TraceSummary::from_events(&events);
        assert_eq!(summary.cells_completed, 1);
        assert_eq!(summary.cache_hits, 1);
        assert_eq!(summary.cache_misses, 1);
        let text = summary.render();
        assert!(text.contains("cells completed   1"), "{text}");
        // No fault or retry events -> neither section nor line appears.
        assert!(!text.contains("faults\n"), "{text}");
        assert!(!text.contains("retry attempts"), "{text}");
    }

    #[test]
    fn fault_events_populate_fault_section_and_retries_count_completed() {
        let events = vec![
            Event::FaultInjected {
                t: 0,
                kind: "eviction_storm".into(),
                start: 0,
                end: 1440,
                magnitude: 8.0,
            },
            Event::DegradedModeEntered { t: 60, until: 120 },
            Event::CellRetried {
                idx: 0,
                key: "k".into(),
                attempt: 1,
                error: "injected fault (attempt 1)".into(),
            },
            Event::CellFinished {
                idx: 0,
                key: "k".into(),
                status: "retried".into(),
                queue_wait_s: 0.0,
                exec_s: 0.1,
            },
        ];
        let summary = TraceSummary::from_events(&events);
        assert!(summary.issues.is_empty(), "{:?}", summary.issues);
        assert_eq!(summary.faults_injected, 1);
        assert_eq!(summary.degraded_entries, 1);
        assert_eq!(summary.cells_retried, 1);
        assert_eq!(summary.cells_completed, 1, "retried cells recovered");
        assert_eq!(summary.cells_failed, 0);
        let text = summary.render();
        assert!(text.contains("injected          1"), "{text}");
        assert!(text.contains("retry attempts    1"), "{text}");
    }

    #[test]
    fn jsonl_parse_errors_name_the_line() {
        let good = Event::SpotEvicted { t: 5, job: 1 }.to_json_line();
        let text = format!("{good}\n\n{{broken\n{good}\n");
        let err = TraceSummary::from_jsonl(text.as_bytes()).unwrap_err();
        assert!(err.starts_with("line 3: "), "{err}");
    }

    #[test]
    fn an_empty_stream_summarizes_clean() {
        let batch = TraceSummary::from_events(&[]);
        assert!(batch.issues.is_empty(), "{:?}", batch.issues);
        assert_eq!(batch.last_t, None);
        assert_eq!(batch.evictions, 0);
        let parsed = TraceSummary::from_jsonl("\n  \n".as_bytes()).unwrap();
        assert_eq!(parsed.render(), batch.render());
        let stream = SummaryStream::new();
        assert_eq!(stream.lines(), 0);
        assert_eq!(stream.summary().render(), batch.render());
    }
}
