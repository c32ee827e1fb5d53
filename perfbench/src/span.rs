//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is an interval with a name and a parent. A span may also be
//! an *aggregate*: many calls too short and too numerous to record one
//! by one (a policy decision per job) folded into one record holding
//! their summed time and count, placed inside the span that made them.
//! A span's self time is its duration minus the part of it covered by
//! its interval children (their union, so overlapping children are not
//! counted twice) minus the summed time of its aggregate children.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// One recorded span; times are seconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    /// Summed time of an aggregate span; `None` for an interval.
    pub busy: Option<f64>,
    /// Calls folded into this span (1 for an interval).
    pub count: u64,
}

impl Span {
    /// Time the span accounts for: its interval, or its summed calls.
    pub fn total(&self) -> f64 {
        self.busy.unwrap_or(self.end - self.start)
    }
}

/// Records spans on one thread, in memory, until written out.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn secs(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.secs(Instant::now());
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
            busy: None,
            count: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = self.secs(Instant::now());
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an interval measured elsewhere (another thread, or
    /// timed by the caller) under `parent`; returns its id.
    pub fn interval(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (start, end) = (self.secs(start), self.secs(end));
        self.spans.push(Span {
            name,
            parent,
            start,
            end,
            busy: None,
            count: 1,
        });
        self.spans.len() - 1
    }

    /// Records `count` calls summing to `busy` inside `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, busy: Duration, count: u64) {
        let at = self.spans[parent].start;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start: at,
            end: at,
            busy: Some(busy.as_secs_f64()),
            count,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`, seconds.
    pub fn duration(&self, id: usize) -> f64 {
        self.spans[id].total()
    }

    /// Self time of every span, indexed like [`Tracer::spans`].
    pub fn self_times(&self) -> Vec<f64> {
        self_times(&self.spans)
    }

    /// Summed self time and call count per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += own;
            entry.1 += span.count;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, mut out: impl Write) -> io::Result<()> {
        for ((id, span), own) in self.spans.iter().enumerate().zip(self.self_times()) {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_s\":{},\"end_s\":{},\"total_s\":{},\"self_s\":{own},\"count\":{}}}",
                span.name,
                span.start,
                span.end,
                span.total(),
                span.count
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its total minus the union of its interval
/// children (clipped to it) minus its aggregate children's summed time.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut intervals: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    let mut folded = vec![0.0; spans.len()];
    for span in spans {
        let Some(parent) = span.parent else { continue };
        match span.busy {
            Some(busy) => folded[parent] += busy,
            None => {
                let p = &spans[parent];
                let (start, end) = (span.start.max(p.start), span.end.min(p.end));
                if end > start {
                    intervals[parent].push((start, end));
                }
            }
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(id, span)| span.total() - union_length(&mut intervals[id]) - folded[id])
        .collect()
}

/// Length covered by the union of `intervals`.
fn union_length(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for &(start, end) in intervals.iter() {
        let from = start.max(reach);
        if end > from {
            covered += end - from;
        }
        reach = reach.max(end);
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
            busy: None,
            count: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // pass [0,10] holds run [1,7] and write [7,9]; run folds 4 s of
        // policy calls. Self: pass 2, run 2, write 2, policy 4.
        let mut policy = interval("policy", Some(1), 1.0, 1.0);
        policy.busy = Some(4.0);
        policy.count = 1000;
        let spans = vec![
            interval("pass", None, 0.0, 10.0),
            interval("run", Some(0), 1.0, 7.0),
            interval("write", Some(0), 7.0, 9.0),
            policy,
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![2.0, 2.0, 2.0, 4.0]);
        // Self times telescope: they sum to the root's duration.
        assert_eq!(own.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two workers' cells overlap inside execute [0,10]: [0,6] and
        // [2,9] cover 9 s together, leaving 1 s of execute self time.
        let spans = vec![
            interval("execute", None, 0.0, 10.0),
            interval("cell", Some(0), 0.0, 6.0),
            interval("cell", Some(0), 2.0, 9.0),
        ];
        assert_eq!(self_times(&spans)[0], 1.0);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            interval("parent", None, 2.0, 6.0),
            interval("child", Some(0), 0.0, 3.0),
            interval("child", Some(0), 5.0, 8.0),
        ];
        assert_eq!(self_times(&spans)[0], 2.0);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("pass");
        tracer.span("run", || std::thread::sleep(Duration::from_millis(2)));
        tracer.aggregate("policy", root, Duration::from_micros(500), 3);
        tracer.exit(root);
        let by_name = tracer.self_by_name();
        assert_eq!(by_name["policy"], (0.0005, 3));
        let total: f64 = tracer.self_times().iter().sum();
        assert!((total - tracer.duration(root)).abs() < 1e-12);
        let mut out = Vec::new();
        tracer.write_jsonl(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 3);
    }
}
