//! The short/long job-queue model (§4.2).
//!
//! GAIA follows standard batch-scheduler practice: users submit jobs to a
//! queue that bounds the job's maximum length (`J_max`), and the cluster
//! administrator configures a maximum waiting time (`W`) per queue — the
//! scheduler guarantees a job begins executing no later than `W` after
//! arrival. Jobs do not carry individual deadlines.

use std::fmt;

use gaia_time::Minutes;
use serde::{Deserialize, Serialize};

use crate::Job;

/// Which administrative queue a job belongs to.
///
/// The paper describes its policies with two queues for ease of
/// exposition and notes they extend to arbitrarily many; we keep the
/// two-queue model and parameterize everything else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum QueueKind {
    /// Jobs bounded by the short-queue length limit (default ≤ 2 h).
    Short,
    /// All other jobs.
    Long,
}

impl fmt::Display for QueueKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueueKind::Short => f.write_str("short"),
            QueueKind::Long => f.write_str("long"),
        }
    }
}

/// Configuration of a single queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueConfig {
    /// Maximum job length admitted to this queue (`J_max`).
    pub max_length: Minutes,
    /// Maximum waiting time before a queued job must start (`W`).
    pub max_wait: Minutes,
}

/// The pair of queue configurations plus historical length averages.
///
/// The `avg_length` fields carry the *historical queue-wide average* job
/// length that length-oblivious policies (Lowest-Window, Carbon-Time) use
/// as their coarse estimate `J_avg` (§4.2.1). They are computed from the
/// trace being replayed, mimicking a scheduler consulting its accounting
/// database.
///
/// # Examples
///
/// ```
/// use gaia_workload::{QueueKind, QueueSet};
/// use gaia_time::Minutes;
///
/// let queues = QueueSet::paper_defaults();
/// assert_eq!(queues.config(QueueKind::Short).max_wait, Minutes::from_hours(6));
/// assert_eq!(queues.classify_length(Minutes::from_hours(3)), QueueKind::Long);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueueSet {
    short: QueueConfig,
    long: QueueConfig,
    avg_short: Minutes,
    avg_long: Minutes,
}

impl QueueSet {
    /// The paper's defaults (§6.1): `J_short ≤ 2 h`, `W_short = 6 h`,
    /// `W_long = 24 h`, and a 3-day long-queue cap matching the sampling
    /// pipeline's upper filter.
    pub fn paper_defaults() -> Self {
        QueueSet::new(
            QueueConfig {
                max_length: Minutes::from_hours(2),
                max_wait: Minutes::from_hours(6),
            },
            QueueConfig {
                max_length: Minutes::from_days(3),
                max_wait: Minutes::from_hours(24),
            },
        )
    }

    /// Creates a queue set with the given configurations. Queue-average
    /// lengths default to half the queue cap until
    /// [`QueueSet::with_averages_from`] refines them.
    ///
    /// # Panics
    ///
    /// Panics if the short queue's length cap is not strictly below the
    /// long queue's, or any bound is zero.
    pub fn new(short: QueueConfig, long: QueueConfig) -> Self {
        assert!(
            short.max_length < long.max_length,
            "short queue cap must be below long queue cap"
        );
        assert!(!short.max_length.is_zero() && !short.max_wait.is_zero());
        assert!(!long.max_wait.is_zero());
        QueueSet {
            short,
            long,
            avg_short: short.max_length / 2,
            avg_long: long.max_length / 2,
        }
    }

    /// Returns a copy with per-queue maximum waits replaced — the knob the
    /// waiting-time sweeps of Figure 14 turn.
    pub fn with_waits(mut self, short_wait: Minutes, long_wait: Minutes) -> Self {
        assert!(
            !short_wait.is_zero() && !long_wait.is_zero(),
            "waits must be positive"
        );
        self.short.max_wait = short_wait;
        self.long.max_wait = long_wait;
        self
    }

    /// Returns a copy whose queue-average lengths are the historical
    /// per-queue means of `jobs` (jobs are classified by actual length).
    ///
    /// Queues with no matching jobs keep their previous averages.
    pub fn with_averages_from<'a>(mut self, jobs: impl IntoIterator<Item = &'a Job>) -> Self {
        let mut sums = [0u64; 2];
        let mut counts = [0u64; 2];
        for job in jobs {
            let idx = match self.classify_length(job.length) {
                QueueKind::Short => 0,
                QueueKind::Long => 1,
            };
            sums[idx] += job.length.as_minutes();
            counts[idx] += 1;
        }
        if let Some(avg) = sums[0].checked_div(counts[0]) {
            self.avg_short = Minutes::new(avg);
        }
        if let Some(avg) = sums[1].checked_div(counts[1]) {
            self.avg_long = Minutes::new(avg);
        }
        self
    }

    /// The configuration of one queue.
    pub fn config(&self, kind: QueueKind) -> QueueConfig {
        match kind {
            QueueKind::Short => self.short,
            QueueKind::Long => self.long,
        }
    }

    /// The queue a job of the given length is submitted to. The paper
    /// assumes users classify their jobs correctly (§6.1), so
    /// classification is by actual length.
    pub fn classify_length(&self, length: Minutes) -> QueueKind {
        if length <= self.short.max_length {
            QueueKind::Short
        } else {
            QueueKind::Long
        }
    }

    /// The queue a job belongs to.
    pub fn classify(&self, job: &Job) -> QueueKind {
        self.classify_length(job.length)
    }

    /// The historical queue-wide average length `J_avg` (§4.2.1), used by
    /// policies that do not know exact job lengths.
    pub fn avg_length(&self, kind: QueueKind) -> Minutes {
        match kind {
            QueueKind::Short => self.avg_short,
            QueueKind::Long => self.avg_long,
        }
    }

    /// Maximum wait `W` of the job's queue.
    pub fn max_wait_for(&self, job: &Job) -> Minutes {
        self.config(self.classify(job)).max_wait
    }

    /// Length cap `J_max` of the job's queue.
    pub fn max_length_for(&self, job: &Job) -> Minutes {
        self.config(self.classify(job)).max_length
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::JobId;
    use gaia_time::SimTime;

    fn job(len_minutes: u64) -> Job {
        Job::new(JobId(0), SimTime::ORIGIN, Minutes::new(len_minutes), 1)
    }

    #[test]
    fn paper_defaults_match_section_6_1() {
        let q = QueueSet::paper_defaults();
        assert_eq!(
            q.config(QueueKind::Short).max_length,
            Minutes::from_hours(2)
        );
        assert_eq!(q.config(QueueKind::Short).max_wait, Minutes::from_hours(6));
        assert_eq!(q.config(QueueKind::Long).max_wait, Minutes::from_hours(24));
        assert_eq!(q.config(QueueKind::Long).max_length, Minutes::from_days(3));
    }

    #[test]
    fn classification_boundary() {
        let q = QueueSet::paper_defaults();
        assert_eq!(q.classify_length(Minutes::from_hours(2)), QueueKind::Short);
        assert_eq!(q.classify_length(Minutes::new(121)), QueueKind::Long);
        assert_eq!(q.classify(&job(30)), QueueKind::Short);
    }

    #[test]
    fn averages_from_jobs() {
        let jobs = vec![job(60), job(120), job(600), job(1200)];
        let q = QueueSet::paper_defaults().with_averages_from(&jobs);
        assert_eq!(q.avg_length(QueueKind::Short), Minutes::new(90));
        assert_eq!(q.avg_length(QueueKind::Long), Minutes::new(900));
    }

    #[test]
    fn averages_keep_default_when_queue_empty() {
        let jobs = vec![job(60)];
        let q = QueueSet::paper_defaults().with_averages_from(&jobs);
        assert_eq!(q.avg_length(QueueKind::Short), Minutes::new(60));
        // Long queue untouched: default of cap/2.
        assert_eq!(q.avg_length(QueueKind::Long), Minutes::from_days(3) / 2);
    }

    #[test]
    fn with_waits_overrides() {
        let q =
            QueueSet::paper_defaults().with_waits(Minutes::from_hours(3), Minutes::from_hours(12));
        assert_eq!(q.max_wait_for(&job(30)), Minutes::from_hours(3));
        assert_eq!(q.max_wait_for(&job(300)), Minutes::from_hours(12));
    }

    #[test]
    #[should_panic(expected = "below long queue cap")]
    fn rejects_inverted_caps() {
        let _ = QueueSet::new(
            QueueConfig {
                max_length: Minutes::from_hours(5),
                max_wait: Minutes::from_hours(1),
            },
            QueueConfig {
                max_length: Minutes::from_hours(2),
                max_wait: Minutes::from_hours(1),
            },
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(QueueKind::Short.to_string(), "short");
        assert_eq!(QueueKind::Long.to_string(), "long");
    }

    #[test]
    #[should_panic(expected = "waits must be positive")]
    fn rejects_a_zero_wait() {
        let _ = QueueSet::paper_defaults().with_waits(Minutes::ZERO, Minutes::from_hours(1));
    }

    #[test]
    fn waits_do_not_move_the_length_caps_or_averages() {
        let jobs = vec![job(30), job(500)];
        let learned = QueueSet::paper_defaults().with_averages_from(&jobs);
        let q = learned.with_waits(Minutes::new(7), Minutes::new(11));
        for kind in [QueueKind::Short, QueueKind::Long] {
            assert_eq!(q.config(kind).max_length, learned.config(kind).max_length);
            assert_eq!(q.avg_length(kind), learned.avg_length(kind));
        }
        assert_eq!(q.max_length_for(&job(30)), Minutes::from_hours(2));
        assert_eq!(q.max_length_for(&job(500)), Minutes::from_days(3));
    }

    #[test]
    fn averages_are_floored_to_whole_minutes() {
        let jobs = vec![job(10), job(11)];
        let q = QueueSet::paper_defaults().with_averages_from(&jobs);
        assert_eq!(q.avg_length(QueueKind::Short), Minutes::new(10));
        // Averages come from the jobs given, not accumulated across calls.
        let again = q.with_averages_from(&[job(40)]);
        assert_eq!(again.avg_length(QueueKind::Short), Minutes::new(40));
    }
}
