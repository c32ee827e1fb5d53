//! Iteration over hourly slots overlapping a time interval.
//!
//! Carbon intensity is piecewise-constant over hourly slots, so computing a
//! job's carbon footprint requires walking the hourly slots its execution
//! interval overlaps, weighted by the overlap length. [`HourlySlots`] does
//! this walk once, correctly handling partial first and last hours.

use crate::{Minutes, SimTime, MINUTES_PER_HOUR};

/// The portion of one hourly slot covered by a query interval.
///
/// Produced by [`HourlySlots`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotSpan {
    /// Index of the hourly slot (hours since the trace origin).
    pub hour: u64,
    /// Start of the covered portion.
    pub start: SimTime,
    /// Length of the covered portion (1..=60 minutes).
    pub overlap: Minutes,
}

impl SlotSpan {
    /// Fraction of the full hour covered, in `(0, 1]`.
    pub fn fraction(&self) -> f64 {
        self.overlap.as_minutes() as f64 / MINUTES_PER_HOUR as f64
    }
}

/// Iterator over the hourly [`SlotSpan`]s overlapping `[start, end)`.
///
/// # Examples
///
/// ```
/// use gaia_time::{HourlySlots, Minutes, SimTime};
///
/// // 90 minutes starting at 00:30 covers half of hour 0 and all of hour 1.
/// let spans: Vec<_> = HourlySlots::new(
///     SimTime::from_minutes(30),
///     SimTime::from_minutes(120),
/// ).collect();
/// assert_eq!(spans.len(), 2);
/// assert_eq!(spans[0].hour, 0);
/// assert_eq!(spans[0].overlap, Minutes::new(30));
/// assert_eq!(spans[1].hour, 1);
/// assert_eq!(spans[1].overlap, Minutes::new(60));
/// ```
#[derive(Debug, Clone)]
pub struct HourlySlots {
    cursor: SimTime,
    end: SimTime,
}

impl HourlySlots {
    /// Creates an iterator over hourly spans of `[start, end)`.
    ///
    /// An empty or inverted interval yields no spans.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        HourlySlots {
            cursor: start,
            end: end.max(start),
        }
    }

    /// Creates an iterator over the hourly spans of `[start, start + len)`.
    pub fn spanning(start: SimTime, len: Minutes) -> Self {
        Self::new(start, start + len)
    }
}

impl Iterator for HourlySlots {
    type Item = SlotSpan;

    fn next(&mut self) -> Option<SlotSpan> {
        if self.cursor >= self.end {
            return None;
        }
        let hour = self.cursor.as_hours_floor();
        let slot_end = SimTime::from_hours(hour + 1).min(self.end);
        let span = SlotSpan {
            hour,
            start: self.cursor,
            overlap: slot_end - self.cursor,
        };
        self.cursor = slot_end;
        Some(span)
    }

    /// Exact: one span per hour that `[cursor, end)` touches, so
    /// collecting the spans allocates once.
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = if self.cursor >= self.end {
            0
        } else {
            (self.end.as_minutes().div_ceil(MINUTES_PER_HOUR) - self.cursor.as_hours_floor())
                as usize
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for HourlySlots {}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(spans: &[SlotSpan]) -> Minutes {
        spans.iter().map(|s| s.overlap).sum()
    }

    #[test]
    fn empty_interval_yields_nothing() {
        let t = SimTime::from_minutes(100);
        assert_eq!(HourlySlots::new(t, t).count(), 0);
        // Inverted intervals are treated as empty, not a panic.
        assert_eq!(HourlySlots::new(t, SimTime::from_minutes(50)).count(), 0);
    }

    #[test]
    fn aligned_interval() {
        let spans: Vec<_> =
            HourlySlots::new(SimTime::from_hours(3), SimTime::from_hours(6)).collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            spans.iter().map(|s| s.hour).collect::<Vec<_>>(),
            vec![3, 4, 5]
        );
        assert!(spans.iter().all(|s| s.overlap == Minutes::from_hours(1)));
        assert_eq!(total(&spans), Minutes::from_hours(3));
    }

    #[test]
    fn size_hint_is_exact_at_every_step() {
        for start in [0u64, 1, 30, 59, 60, 61, 119, 1_000] {
            for len in [0u64, 1, 29, 59, 60, 61, 90, 120, 121, 1_441] {
                let mut slots =
                    HourlySlots::spanning(SimTime::from_minutes(start), Minutes::new(len));
                loop {
                    let left = slots.clone().count();
                    assert_eq!(
                        slots.size_hint(),
                        (left, Some(left)),
                        "start={start} len={len}"
                    );
                    if slots.next().is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn sub_hour_interval() {
        let spans: Vec<_> =
            HourlySlots::spanning(SimTime::from_minutes(70), Minutes::new(20)).collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].hour, 1);
        assert_eq!(spans[0].start, SimTime::from_minutes(70));
        assert_eq!(spans[0].overlap, Minutes::new(20));
        assert!((spans[0].fraction() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_edges() {
        // 00:45 .. 02:15 -> 15m of hour 0, 60m of hour 1, 15m of hour 2.
        let spans: Vec<_> =
            HourlySlots::new(SimTime::from_minutes(45), SimTime::from_minutes(135)).collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].overlap, Minutes::new(15));
        assert_eq!(spans[1].overlap, Minutes::new(60));
        assert_eq!(spans[2].overlap, Minutes::new(15));
        assert_eq!(total(&spans), Minutes::new(90));
    }

    #[test]
    fn overlaps_cover_interval_exactly() {
        for (start, len) in [(0u64, 1u64), (59, 2), (61, 600), (123, 456), (3600, 60)] {
            let start = SimTime::from_minutes(start);
            let len = Minutes::new(len);
            let spans: Vec<_> = HourlySlots::spanning(start, len).collect();
            assert_eq!(total(&spans), len);
            // Spans must be contiguous and ordered.
            let mut cursor = start;
            for s in &spans {
                assert_eq!(s.start, cursor);
                cursor += s.overlap;
            }
            assert_eq!(cursor, start + len);
        }
    }
}
