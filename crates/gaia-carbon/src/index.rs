//! Precomputed query kernels over a [`CarbonTrace`]: the [`ForecastIndex`].
//!
//! Every scheduling decision evaluates carbon integrals, averages,
//! quantiles, and greenest-slot selections over the forecast horizon
//! (paper §4.2). The naive implementations rescan the horizon per call —
//! `quantile` allocates and sorts a fresh `Vec`, `greenest_slots` sorts
//! the whole window per job. The index turns those queries into cheap
//! kernels over two structures:
//!
//! * **Prefix integrals** — already maintained by [`CarbonTrace`]; the
//!   index delegates to [`CarbonTrace::window_integral`] so integrals and
//!   averages are O(1) *and bit-identical* to the values the engine has
//!   always produced (a prefix-sum difference would round differently
//!   than the engine's historical summation, so we reuse the existing
//!   path rather than re-deriving it).
//! * **A wavelet matrix** over the rank-compressed hourly values —
//!   O(log n) order statistics over any wrapping window, used for
//!   quantiles. Ranks are assigned by [`f64::total_cmp`], under which two
//!   values compare equal iff they share a bit pattern, so the selected
//!   order statistic is bit-identical to sorting the window.
//!
//! Greenest-slot selection ([`select_greenest`]) replaces the
//! sort-everything greedy with `select_nth_unstable` + a small sort of
//! only the slots the greedy can actually touch: within an hourly-slot
//! window at most the first and last slots are partial, so covering
//! `need` minutes never consumes more than `ceil((need + 118) / 60)`
//! slots. The selected plan is provably identical to the full sort
//! (the greedy never looks past the k cheapest slots, and `(ci, start)`
//! keys are unique), at O(h + m log m) instead of O(h log h).
//!
//! `tests/index_oracle.rs` holds the one sort-based oracle per kernel
//! that these paths are checked against bit for bit.

use std::cmp::Ordering;

use gaia_time::{HourlySlots, Minutes, SimTime, MINUTES_PER_HOUR};

use crate::{CarbonTrace, GramsPerKwh};

/// Precomputed query structures over one period of a [`CarbonTrace`].
///
/// Construction is O(n log n) in the trace length; afterwards integrals
/// are O(1), quantiles O(log n), and greenest-slot selection
/// O(horizon + plan·log plan). All query results are
/// bit-identical to the naive rescanning implementations (see the module
/// docs for why that holds per structure).
///
/// # Examples
///
/// ```
/// use gaia_carbon::{CarbonTrace, ForecastIndex};
/// use gaia_time::{Minutes, SimTime};
///
/// let trace = CarbonTrace::from_hourly(vec![100.0, 50.0, 200.0, 75.0])?;
/// let index = ForecastIndex::new(&trace);
/// let q = index.window_quantile(SimTime::ORIGIN, Minutes::from_hours(4), 0.0);
/// assert_eq!(q, 50.0);
/// # Ok::<(), gaia_carbon::CarbonError>(())
/// ```
#[derive(Clone)]
pub struct ForecastIndex<'t> {
    trace: &'t CarbonTrace,
    quantiles: WaveletMatrix,
}

impl std::fmt::Debug for ForecastIndex<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForecastIndex")
            .field("hours", &self.trace.len_hours())
            .field("distinct_values", &self.quantiles.sorted.len())
            .finish_non_exhaustive()
    }
}

impl<'t> ForecastIndex<'t> {
    /// Builds the index over one period of `trace`.
    pub fn new(trace: &'t CarbonTrace) -> Self {
        ForecastIndex {
            trace,
            quantiles: WaveletMatrix::new(trace.hourly_values()),
        }
    }

    /// The backing trace.
    pub fn trace(&self) -> &'t CarbonTrace {
        self.trace
    }

    /// Integral of CI over `[start, start + len)` in (g/kWh)·hours; O(1).
    ///
    /// Delegates to [`CarbonTrace::window_integral`], so the result is
    /// bit-identical to what the engine has always computed.
    pub fn window_integral(&self, start: SimTime, len: Minutes) -> f64 {
        self.trace.window_integral(start, len)
    }

    /// Time-average CI over `[start, start + len)`; O(1).
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn window_avg(&self, start: SimTime, len: Minutes) -> GramsPerKwh {
        self.trace.window_avg(start, len)
    }

    /// The `q`-quantile (nearest-rank, `q` clamped to `[0, 1]`) of the
    /// hourly CI samples over `[start, start + horizon)`; O(log n).
    ///
    /// Matches `ForecastView::quantile` sample-for-sample: one sample per
    /// hourly slot the window overlaps, partial first/last slots counting
    /// like full ones, windows wrapping past the trace end (with
    /// multiplicity when the horizon exceeds one period).
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn window_quantile(&self, start: SimTime, horizon: Minutes, q: f64) -> GramsPerKwh {
        let (first_hour, count) = window_hours(start, horizon);
        let idx = quantile_rank(count, q);
        self.quantiles.select_in_window(
            (first_hour % self.trace.len_hours() as u64) as usize,
            count,
            idx,
        )
    }

    /// The greenest-slot suspend-resume plan over `[start, start +
    /// horizon)` covering `need` minutes, identical to the
    /// sort-everything greedy but O(horizon + plan·log plan) — and with
    /// only O(plan) slots materialized.
    ///
    /// The greedy touches at most `cap = ceil((need + 118) / 60)` slots
    /// (see the internal `select_greenest` helper), all of them among the `cap` cheapest of
    /// the window, so every touched slot's CI is at or below the window's
    /// rank-`cap − 1` CI value. That threshold comes from the wavelet
    /// matrix in O(log n); the window scan then keeps only at-or-below-
    /// threshold candidates — a `total_cmp`-prefix of the full `(ci,
    /// start)` order, so the greedy over it is step-for-step the greedy
    /// over all slots.
    ///
    /// # Panics
    ///
    /// Panics if `need` is zero or exceeds `horizon`.
    pub fn greenest_slots(
        &self,
        start: SimTime,
        horizon: Minutes,
        need: Minutes,
    ) -> Vec<(SimTime, Minutes)> {
        assert!(!need.is_zero(), "need must be positive");
        assert!(need <= horizon, "cannot fit {need} of work into {horizon}");
        let cap = (need.as_minutes() + 118).div_ceil(MINUTES_PER_HOUR);
        let (first_hour, count) = window_hours(start, horizon);
        let slots: Vec<SlotCand> = if cap < count {
            let threshold = self.quantiles.select_in_window(
                (first_hour % self.trace.len_hours() as u64) as usize,
                count,
                cap - 1,
            );
            HourlySlots::spanning(start, horizon)
                .filter_map(|s| {
                    let ci = self.trace.intensity_at_hour(s.hour);
                    (ci.total_cmp(&threshold) != Ordering::Greater).then_some(SlotCand {
                        start: s.start,
                        avail: s.overlap,
                        ci,
                    })
                })
                .collect()
        } else {
            HourlySlots::spanning(start, horizon)
                .map(|s| SlotCand {
                    start: s.start,
                    avail: s.overlap,
                    ci: self.trace.intensity_at_hour(s.hour),
                })
                .collect()
        };
        select_greenest(slots, need)
    }
}

/// The hourly-slot window of `[start, start + horizon)`: the first slot
/// hour and the number of slots, matching [`HourlySlots::spanning`].
///
/// # Panics
///
/// Panics if `horizon` is zero.
fn window_hours(start: SimTime, horizon: Minutes) -> (u64, u64) {
    assert!(!horizon.is_zero(), "quantile over an empty horizon");
    let first = start.as_hours_floor();
    let end = start + horizon;
    (first, end.as_minutes().div_ceil(MINUTES_PER_HOUR) - first)
}

/// Nearest-rank index for the `q`-quantile of `count` samples, with `q`
/// clamped to `[0, 1]` — the `ForecastView::quantile` convention.
pub(crate) fn quantile_rank(count: u64, q: f64) -> u64 {
    ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64
}

/// One candidate hourly slot for greenest-slot selection.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SlotCand {
    /// Start of the usable portion of the slot.
    pub start: SimTime,
    /// Usable minutes within the slot (1..=60; only the first and last
    /// slots of a window can be partial).
    pub avail: Minutes,
    /// Carbon intensity during the slot.
    pub ci: f64,
}

/// Selects the cheapest slots summing to `need` minutes and returns the
/// merged, start-sorted plan — the one greedy behind every
/// forecast-query path.
///
/// Identical output to sorting all slots by `(ci, start)` and taking
/// greedily: the greedy touches at most `ceil((need + 118) / 60)` slots
/// (any k slots cover at least `60k - 118` minutes, since at most the
/// two window edges are partial), so partitioning the k cheapest to the
/// front with `select_nth_unstable_by` and sorting only those k is
/// enough. `(ci, start)` keys are unique per slot, so the selected set
/// and its order are fully determined. NaN CIs (a perturbed forecaster)
/// sort last under [`f64::total_cmp`], which for the finite values a
/// [`CarbonTrace`] guarantees coincides with the old `partial_cmp` order.
pub(crate) fn select_greenest(mut slots: Vec<SlotCand>, need: Minutes) -> Vec<(SimTime, Minutes)> {
    if need.is_zero() {
        return Vec::new();
    }
    let key = |a: &SlotCand, b: &SlotCand| a.ci.total_cmp(&b.ci).then(a.start.cmp(&b.start));
    let cap = (need.as_minutes() + 118).div_ceil(MINUTES_PER_HOUR) as usize;
    let cheap = if cap < slots.len() {
        slots.select_nth_unstable_by(cap - 1, key);
        &mut slots[..cap]
    } else {
        &mut slots[..]
    };
    cheap.sort_by(key);

    let mut remaining = need;
    let mut chosen: Vec<(SimTime, Minutes)> = Vec::new();
    for slot in cheap.iter() {
        if remaining.is_zero() {
            break;
        }
        let take = slot.avail.min(remaining);
        chosen.push((slot.start, take));
        remaining -= take;
    }
    assert!(remaining.is_zero(), "horizon >= need guarantees coverage");
    chosen.sort_by_key(|(s, _)| *s);
    // Merge adjacent segments for a tidy plan.
    let mut merged: Vec<(SimTime, Minutes)> = Vec::with_capacity(chosen.len());
    for (s, l) in chosen {
        match merged.last_mut() {
            Some((ms, ml)) if *ms + *ml == s => *ml += l,
            _ => merged.push((s, l)),
        }
    }
    merged
}

/// A wavelet matrix over rank-compressed `f64` samples: O(log n) order
/// statistics over any union of index ranges.
///
/// Values are rank-compressed under [`f64::total_cmp`]; two samples get
/// the same rank iff their bit patterns are identical, so selecting by
/// rank returns exactly the bits a sort of the window would have placed
/// at that position.
#[derive(Debug, Clone)]
struct WaveletMatrix {
    /// Number of samples in one period.
    n: usize,
    /// Distinct sample values, ascending under `total_cmp`; `sorted[r]`
    /// is the value with rank `r`.
    sorted: Vec<f64>,
    /// Bit planes, most-significant rank bit first.
    levels: Vec<Level>,
}

#[derive(Debug, Clone)]
struct Level {
    /// `zeros[i]` = number of zero bits among the first `i` positions.
    zeros: Vec<u32>,
    /// Total zero bits on this level.
    total_zeros: u32,
}

impl WaveletMatrix {
    fn new(values: &[f64]) -> Self {
        let mut sorted: Vec<f64> = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted.dedup_by(|a, b| a.total_cmp(b) == std::cmp::Ordering::Equal);
        let ranks: Vec<u32> = values
            .iter()
            .map(|v| {
                sorted
                    .binary_search_by(|probe| probe.total_cmp(v))
                    .expect("every sample has a rank") as u32
            })
            .collect();
        let bits = usize::BITS - (sorted.len().max(1) - 1).leading_zeros();

        let mut levels = Vec::with_capacity(bits as usize);
        let mut current = ranks;
        for bit in (0..bits).rev() {
            let mut zeros = Vec::with_capacity(current.len() + 1);
            zeros.push(0u32);
            let mut zero_part = Vec::new();
            let mut one_part = Vec::new();
            for &r in &current {
                if (r >> bit) & 1 == 0 {
                    zero_part.push(r);
                } else {
                    one_part.push(r);
                }
                zeros.push(zero_part.len() as u32);
            }
            let total_zeros = zero_part.len() as u32;
            zero_part.extend_from_slice(&one_part);
            current = zero_part;
            levels.push(Level { zeros, total_zeros });
        }
        WaveletMatrix {
            n: values.len(),
            sorted,
            levels,
        }
    }

    /// The `idx`-th smallest (0-based, `total_cmp` order) of the `count`
    /// samples at positions `start, start + 1, ... (mod n)`.
    fn select_in_window(&self, start: usize, count: u64, idx: u64) -> f64 {
        debug_assert!(idx < count);
        let n = self.n;
        // Decompose the wrapping window into whole-period multiplicity
        // plus at most two in-period ranges.
        let whole = count / n as u64;
        let rem = (count % n as u64) as usize;
        let mut ranges: Vec<(u32, u32, u64)> = Vec::with_capacity(3);
        if whole > 0 {
            ranges.push((0, n as u32, whole));
        }
        if rem > 0 {
            let end = start + rem;
            if end <= n {
                ranges.push((start as u32, end as u32, 1));
            } else {
                ranges.push((start as u32, n as u32, 1));
                ranges.push((0, (end - n) as u32, 1));
            }
        }

        let mut idx = idx;
        let mut rank: u32 = 0;
        for level in &self.levels {
            let zeros_in_ranges: u64 = ranges
                .iter()
                .map(|&(l, r, m)| u64::from(level.zeros[r as usize] - level.zeros[l as usize]) * m)
                .sum();
            if idx < zeros_in_ranges {
                // Descend into the zero half: positions map through the
                // stable partition's zero side.
                rank <<= 1;
                for (l, r, _) in ranges.iter_mut() {
                    *l = level.zeros[*l as usize];
                    *r = level.zeros[*r as usize];
                }
            } else {
                idx -= zeros_in_ranges;
                rank = (rank << 1) | 1;
                for (l, r, _) in ranges.iter_mut() {
                    *l = level.total_zeros + (*l - level.zeros[*l as usize]);
                    *r = level.total_zeros + (*r - level.zeros[*r as usize]);
                }
            }
        }
        self.sorted[rank as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::synthesize_region;
    use crate::Region;

    #[test]
    fn quantile_on_constant_trace() {
        let trace = CarbonTrace::constant(123.25, 48).expect("valid");
        let index = ForecastIndex::new(&trace);
        assert_eq!(
            index.window_quantile(SimTime::ORIGIN, Minutes::from_hours(5), 0.5),
            123.25
        );
    }

    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        let trace = synthesize_region(Region::SouthAustralia, 42);
        let index = ForecastIndex::new(&trace);
        let start = SimTime::from_minutes(8000 * 60 + 7);
        for horizon_h in [1u64, 7, 24, 9000] {
            let horizon = Minutes::from_hours(horizon_h);
            let lo = index.window_quantile(start, horizon, 0.0);
            let hi = index.window_quantile(start, horizon, 1.0);
            for q in [-0.5, f64::NEG_INFINITY] {
                let got = index.window_quantile(start, horizon, q);
                assert_eq!(got.to_bits(), lo.to_bits(), "q={q} h={horizon_h}");
            }
            for q in [1.5, f64::INFINITY] {
                let got = index.window_quantile(start, horizon, q);
                assert_eq!(got.to_bits(), hi.to_bits(), "q={q} h={horizon_h}");
            }
        }
    }

    #[test]
    fn select_greenest_zero_need_is_empty() {
        assert_eq!(select_greenest(Vec::new(), Minutes::ZERO), Vec::new());
    }

    #[test]
    fn select_greenest_handles_nan_ci() {
        // A perturbed forecaster can hand the selector NaN intensities;
        // they must sort last, never panic.
        let slots = vec![
            SlotCand {
                start: SimTime::ORIGIN,
                avail: Minutes::new(60),
                ci: f64::NAN,
            },
            SlotCand {
                start: SimTime::from_hours(1),
                avail: Minutes::new(60),
                ci: 10.0,
            },
        ];
        let plan = select_greenest(slots, Minutes::new(60));
        assert_eq!(plan, vec![(SimTime::from_hours(1), Minutes::new(60))]);
    }

    #[test]
    fn integral_is_the_trace_integral() {
        let trace = synthesize_region(Region::SouthAustralia, 42);
        let index = ForecastIndex::new(&trace);
        let start = SimTime::from_minutes(12345);
        let len = Minutes::new(789);
        assert_eq!(
            index.window_integral(start, len).to_bits(),
            trace.window_integral(start, len).to_bits()
        );
        assert_eq!(
            index.window_avg(start, len).to_bits(),
            trace.window_avg(start, len).to_bits()
        );
    }

    #[test]
    fn debug_is_compact() {
        let trace = CarbonTrace::constant(1.0, 3).expect("valid");
        let index = ForecastIndex::new(&trace);
        let dbg = format!("{index:?}");
        assert!(dbg.contains("hours"));
    }
}
