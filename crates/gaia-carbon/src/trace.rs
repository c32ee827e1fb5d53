//! The [`CarbonTrace`] hourly carbon-intensity time series.

use std::fmt;

use gaia_time::{Minutes, SimTime, MINUTES_PER_HOUR};
use serde::{Deserialize, Serialize};

use crate::error::CarbonError;

/// Carbon intensity of grid energy, in grams of CO₂-equivalent per kWh.
pub type GramsPerKwh = f64;

/// An absolute mass of CO₂-equivalent emissions, in grams.
pub type GramsCo2 = f64;

/// An hourly carbon-intensity time series.
///
/// The trace is piecewise-constant: `values[h]` is the carbon intensity
/// (g·CO₂eq/kWh) throughout hour `h` after the trace origin. A prefix-sum
/// array makes arbitrary window integrals O(1), which the scheduling
/// policies rely on when scanning thousands of candidate start times.
///
/// Queries past the end of the trace wrap around to the beginning, which
/// matches the paper's practice of replaying year-long traces; wrapping is
/// deliberate so that a week-long simulation near the trace end does not
/// fall off a cliff. Use [`CarbonTrace::len_hours`] to size simulations
/// within one period when wrapping is undesirable.
///
/// # Examples
///
/// ```
/// use gaia_carbon::CarbonTrace;
/// use gaia_time::{Minutes, SimTime};
///
/// let trace = CarbonTrace::from_hourly(vec![100.0, 300.0, 200.0])?;
/// assert_eq!(trace.intensity_at(SimTime::from_minutes(61)), 300.0);
/// // 90 minutes starting at 00:30: half an hour at 100, one hour at 300.
/// let avg = trace.window_avg(SimTime::from_minutes(30), Minutes::new(90));
/// assert!((avg - (0.5 * 100.0 + 1.0 * 300.0) / 1.5).abs() < 1e-9);
/// # Ok::<(), gaia_carbon::CarbonError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CarbonTrace {
    values: Vec<GramsPerKwh>,
    /// prefix[h] = sum of values[0..h]; prefix.len() == values.len() + 1.
    prefix: Vec<f64>,
}

impl CarbonTrace {
    /// Creates a trace from hourly carbon-intensity values.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::EmptyTrace`] if `values` is empty and
    /// [`CarbonError::InvalidIntensity`] if any value is negative or
    /// non-finite.
    pub fn from_hourly(values: Vec<GramsPerKwh>) -> Result<Self, CarbonError> {
        if values.is_empty() {
            return Err(CarbonError::EmptyTrace);
        }
        if let Some((hour, &value)) = values
            .iter()
            .enumerate()
            .find(|(_, v)| !v.is_finite() || **v < 0.0)
        {
            return Err(CarbonError::InvalidIntensity { hour, value });
        }
        let mut prefix = Vec::with_capacity(values.len() + 1);
        let mut acc = 0.0;
        prefix.push(0.0);
        for &v in &values {
            acc += v;
            prefix.push(acc);
        }
        Ok(CarbonTrace { values, prefix })
    }

    /// Creates a trace that holds `value` constant for `hours` hours.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CarbonTrace::from_hourly`].
    pub fn constant(value: GramsPerKwh, hours: usize) -> Result<Self, CarbonError> {
        Self::from_hourly(vec![value; hours])
    }

    /// Number of hourly samples in one period of the trace.
    pub fn len_hours(&self) -> usize {
        self.values.len()
    }

    /// Returns a copy of the trace rotated left by `hours`, so that the
    /// sample at `hours` becomes the new origin. This implements the
    /// paper artifact's "carbon index" knob (§A.7), used to start an
    /// experiment in a particular season — e.g. February for the
    /// Section 3 example.
    pub fn rotate(&self, hours: u64) -> CarbonTrace {
        let n = self.values.len();
        let offset = (hours % n as u64) as usize;
        let mut values = Vec::with_capacity(n);
        values.extend_from_slice(&self.values[offset..]);
        values.extend_from_slice(&self.values[..offset]);
        CarbonTrace::from_hourly(values).expect("rotation preserves validity")
    }

    /// Returns a copy of the trace with the hourly samples in `gaps`
    /// treated as missing and bridged by linear interpolation.
    ///
    /// Each gap is a `(start_hour, hours)` range of missing samples; ranges
    /// may overlap. Every maximal missing run is replaced by a straight line
    /// between the last surviving sample before it and the first surviving
    /// sample after it; runs touching the trace start (end) hold the nearest
    /// surviving sample flat instead. This is the explicit gap semantics the
    /// fault-injection layer relies on: the *policy-visible* forecast runs
    /// on the bridged trace while accounting keeps the true one.
    ///
    /// With an empty `gaps` slice the returned trace is identical to `self`
    /// (same values, same prefix sums), preserving the forecast index's
    /// bit-identity contract on gap-free traces.
    ///
    /// # Errors
    ///
    /// Returns [`CarbonError::InvalidGap`] if a range reaches past the end
    /// of the trace or if the union of ranges covers every sample (there is
    /// nothing left to interpolate from).
    pub fn with_gaps_bridged(&self, gaps: &[(u64, u64)]) -> Result<CarbonTrace, CarbonError> {
        let n = self.values.len();
        let mut missing = vec![false; n];
        for &(start_hour, hours) in gaps {
            let end = start_hour
                .checked_add(hours)
                .ok_or(CarbonError::InvalidGap {
                    reason: format!("gap at hour {start_hour} overflows"),
                })?;
            if end > n as u64 {
                return Err(CarbonError::InvalidGap {
                    reason: format!("gap [{start_hour}, {end}) reaches past the trace's {n} hours"),
                });
            }
            for flag in &mut missing[start_hour as usize..end as usize] {
                *flag = true;
            }
        }
        if missing.iter().all(|&m| m) && !missing.is_empty() {
            return Err(CarbonError::InvalidGap {
                reason: "gaps cover the entire trace".into(),
            });
        }
        let mut values = self.values.clone();
        let mut h = 0;
        while h < n {
            if !missing[h] {
                h += 1;
                continue;
            }
            let run_start = h;
            while h < n && missing[h] {
                h += 1;
            }
            let run_end = h; // maximal missing run is [run_start, run_end)
            let left = run_start.checked_sub(1).map(|i| values[i]);
            let right = if run_end < n {
                Some(values[run_end])
            } else {
                None
            };
            match (left, right) {
                (Some(a), Some(b)) => {
                    let steps = (run_end - run_start + 1) as f64;
                    for (k, value) in values[run_start..run_end].iter_mut().enumerate() {
                        *value = a + (b - a) * ((k + 1) as f64 / steps);
                    }
                }
                (Some(a), None) => values[run_start..run_end].fill(a),
                (None, Some(b)) => values[run_start..run_end].fill(b),
                (None, None) => unreachable!("fully-missing traces are rejected above"),
            }
        }
        CarbonTrace::from_hourly(values)
    }

    /// Total simulated span of one period of the trace.
    pub fn span(&self) -> Minutes {
        Minutes::from_hours(self.values.len() as u64)
    }

    /// The hourly values of one period.
    pub fn hourly_values(&self) -> &[GramsPerKwh] {
        &self.values
    }

    /// Carbon intensity during hour `hour` (wrapping past the end).
    pub fn intensity_at_hour(&self, hour: u64) -> GramsPerKwh {
        self.values[reduce(hour, self.values.len() as u64) as usize]
    }

    /// Carbon intensity at instant `t` (piecewise-constant per hour).
    pub fn intensity_at(&self, t: SimTime) -> GramsPerKwh {
        self.intensity_at_hour(t.as_hours_floor())
    }

    /// Integral of carbon intensity over `[start, start + len)`, in
    /// (g·CO₂eq/kWh)·hours. Multiplying by a power draw in kW gives grams
    /// of CO₂eq.
    ///
    /// Partial hours are prorated; the window may wrap past the trace end.
    pub fn window_integral(&self, start: SimTime, len: Minutes) -> f64 {
        let n = self.values.len() as u64;
        self.integral_at(
            reduce(start.as_hours_floor(), n),
            u64::from(start.minute_of_hour()),
            &WindowLen::new(len, n),
        )
    }

    /// The batched form of [`CarbonTrace::window_integral`]: yields
    /// `window_integral(start + k·step, len)` for `k in 0..count`, bit for
    /// bit.
    ///
    /// Both share one per-candidate body, so the summation order is
    /// written once. The scan only replaces the per-call setup: it walks
    /// the candidate's hour index and minute-of-hour forward by adding
    /// and wrapping, instead of dividing by 60 and by the trace length
    /// for every candidate. No table sized by the trace is built.
    ///
    /// # Examples
    ///
    /// ```
    /// use gaia_carbon::CarbonTrace;
    /// use gaia_time::{Minutes, SimTime};
    ///
    /// let trace = CarbonTrace::from_hourly(vec![100.0, 300.0, 200.0])?;
    /// let (start, step, len) = (SimTime::from_minutes(20), Minutes::new(50), Minutes::new(90));
    /// for (k, integral) in trace.window_integrals(start, step, len, 7).enumerate() {
    ///     let one = trace.window_integral(start + step * k as u64, len);
    ///     assert_eq!(integral.to_bits(), one.to_bits());
    /// }
    /// # Ok::<(), gaia_carbon::CarbonError>(())
    /// ```
    pub fn window_integrals(
        &self,
        start: SimTime,
        step: Minutes,
        len: Minutes,
        count: u64,
    ) -> impl Iterator<Item = f64> + '_ {
        let n = self.values.len() as u64;
        WindowIntegrals {
            trace: self,
            len: WindowLen::new(len, n),
            hour: reduce(start.as_hours_floor(), n),
            minute: u64::from(start.minute_of_hour()),
            step_hours: reduce(step.as_hours_floor(), n),
            step_minutes: step.as_minutes() % MINUTES_PER_HOUR,
            remaining: count,
        }
    }

    /// The one integral body behind [`CarbonTrace::window_integral`] and
    /// [`CarbonTrace::window_integrals`]: the window of `len` that starts
    /// `minute` minutes into hour `hour` (already reduced modulo the trace
    /// length).
    ///
    /// A window inside one hour is a single prorated sample. Otherwise
    /// the sum is built as leading partial hour, then trailing partial
    /// hour, then the whole hours between them from the prefix sums —
    /// the order the engine has always summed in.
    #[inline(always)]
    fn integral_at(&self, hour: u64, minute: u64, len: &WindowLen) -> f64 {
        if len.minutes == 0 {
            return 0.0;
        }
        let n = self.values.len() as u64;
        let hourly = MINUTES_PER_HOUR as f64;
        let (carry, end_minute) = if minute + len.rem < MINUTES_PER_HOUR {
            (0, minute + len.rem)
        } else {
            (1, minute + len.rem - MINUTES_PER_HOUR)
        };
        // Hours from the start's hour to the end's hour.
        let spanned = len.hours + carry;
        if spanned == 0 {
            return self.values[hour as usize] * minutes_f64(len.minutes) / hourly;
        }

        let mut total = 0.0;
        let lead = minute > 0;
        if lead {
            total += self.values[hour as usize] * minutes_f64(MINUTES_PER_HOUR - minute) / hourly;
        }
        if end_minute > 0 {
            let end_hour = wrap(hour + len.hours_mod + carry, n);
            total += self.values[end_hour as usize] * minutes_f64(end_minute) / hourly;
        }
        let full = spanned - u64::from(lead);
        if full > 0 {
            let first_full = if lead { wrap(hour + 1, n) } else { hour };
            total += self.full_hours_sum(first_full, full);
        }
        total
    }

    /// Sum of `count` consecutive hourly values starting at `start_hour`
    /// (which must already be reduced modulo the trace length), wrapping.
    #[inline(always)]
    fn full_hours_sum(&self, start_hour: u64, count: u64) -> f64 {
        let n = self.values.len() as u64;
        let total_period = self.prefix[self.values.len()];
        let (whole_periods, rem) = if count < n {
            (0, count)
        } else {
            (count / n, count % n)
        };
        let mut sum = whole_periods as f64 * total_period;
        let s = start_hour as usize;
        let e = start_hour + rem;
        if e <= n {
            sum += self.prefix[e as usize] - self.prefix[s];
        } else {
            sum +=
                (self.prefix[self.values.len()] - self.prefix[s]) + self.prefix[(e - n) as usize];
        }
        sum
    }

    /// Time-average carbon intensity over `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn window_avg(&self, start: SimTime, len: Minutes) -> GramsPerKwh {
        assert!(!len.is_zero(), "window_avg over an empty window");
        self.window_integral(start, len) / len.as_hours_f64()
    }

    /// Mean carbon intensity over one full period of the trace.
    pub fn mean(&self) -> GramsPerKwh {
        self.prefix[self.values.len()] / self.values.len() as f64
    }

    /// Minimum hourly carbon intensity over one full period.
    pub fn min(&self) -> GramsPerKwh {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Maximum hourly carbon intensity over one full period.
    pub fn max(&self) -> GramsPerKwh {
        self.values.iter().copied().fold(0.0, f64::max)
    }
}

/// A window length split into the parts [`CarbonTrace::integral_at`]
/// consumes, computed once per query or scan.
#[derive(Debug, Clone, Copy)]
struct WindowLen {
    /// The whole length, in minutes.
    minutes: u64,
    /// Whole hours in the length.
    hours: u64,
    /// `hours` reduced modulo the trace length.
    hours_mod: u64,
    /// Minutes past the whole hours.
    rem: u64,
}

impl WindowLen {
    fn new(len: Minutes, n: u64) -> Self {
        let hours = len.as_hours_floor();
        WindowLen {
            minutes: len.as_minutes(),
            hours,
            hours_mod: reduce(hours, n),
            rem: len.as_minutes() % MINUTES_PER_HOUR,
        }
    }
}

/// `m as f64` for a minute count below an hour, through the one-instruction
/// `u32` conversion; exact, so the bits match the `u64` conversion.
#[inline]
fn minutes_f64(m: u64) -> f64 {
    debug_assert!(m < MINUTES_PER_HOUR);
    f64::from(m as u32)
}

/// `x mod n`, skipping the division in the common case `x < n`.
fn reduce(x: u64, n: u64) -> u64 {
    if x < n {
        x
    } else {
        x % n
    }
}

/// `x mod n` for `x < 2n`: one compare-and-subtract.
fn wrap(x: u64, n: u64) -> u64 {
    if x >= n {
        x - n
    } else {
        x
    }
}

/// The window-integral scan of [`CarbonTrace::window_integrals`].
struct WindowIntegrals<'t> {
    trace: &'t CarbonTrace,
    len: WindowLen,
    /// Hour index of the next candidate, reduced modulo the trace length.
    hour: u64,
    /// Minute-of-hour of the next candidate.
    minute: u64,
    /// Whole hours per step, reduced modulo the trace length.
    step_hours: u64,
    /// Minutes per step past the whole hours.
    step_minutes: u64,
    remaining: u64,
}

impl Iterator for WindowIntegrals<'_> {
    type Item = f64;

    #[inline(always)]
    fn next(&mut self) -> Option<f64> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let integral = self.trace.integral_at(self.hour, self.minute, &self.len);
        let n = self.trace.values.len() as u64;
        self.minute += self.step_minutes;
        let carry = if self.minute >= MINUTES_PER_HOUR {
            self.minute -= MINUTES_PER_HOUR;
            1
        } else {
            0
        };
        self.hour = wrap(self.hour + self.step_hours + carry, n);
        Some(integral)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.remaining as usize;
        (left, Some(left))
    }
}

impl fmt::Display for CarbonTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CarbonTrace({} h, mean {:.1} g/kWh, range {:.1}..{:.1})",
            self.len_hours(),
            self.mean(),
            self.min(),
            self.max()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(values: &[f64]) -> CarbonTrace {
        CarbonTrace::from_hourly(values.to_vec()).expect("valid test trace")
    }

    #[test]
    fn rejects_bad_input() {
        assert!(matches!(
            CarbonTrace::from_hourly(vec![]),
            Err(CarbonError::EmptyTrace)
        ));
        assert!(matches!(
            CarbonTrace::from_hourly(vec![1.0, -2.0]),
            Err(CarbonError::InvalidIntensity { hour: 1, .. })
        ));
        assert!(matches!(
            CarbonTrace::from_hourly(vec![f64::NAN]),
            Err(CarbonError::InvalidIntensity { hour: 0, .. })
        ));
    }

    #[test]
    fn point_lookups_wrap() {
        let t = trace(&[100.0, 200.0, 300.0]);
        assert_eq!(t.intensity_at(SimTime::from_hours(0)), 100.0);
        assert_eq!(t.intensity_at(SimTime::from_minutes(119)), 200.0);
        assert_eq!(t.intensity_at(SimTime::from_hours(3)), 100.0); // wrapped
        assert_eq!(t.intensity_at_hour(7), 200.0);
    }

    #[test]
    fn window_integral_matches_naive() {
        let t = trace(&[100.0, 200.0, 50.0, 400.0, 10.0]);
        for start_min in [0u64, 7, 59, 60, 61, 200, 299] {
            for len_min in [1u64, 30, 60, 61, 120, 299, 600, 1000] {
                let start = SimTime::from_minutes(start_min);
                let len = Minutes::new(len_min);
                let fast = t.window_integral(start, len);
                // Naive: minute-by-minute accumulation.
                let mut naive = 0.0;
                for m in start_min..start_min + len_min {
                    naive += t.intensity_at(SimTime::from_minutes(m)) / 60.0;
                }
                assert!(
                    (fast - naive).abs() < 1e-6,
                    "start={start_min} len={len_min}: fast={fast} naive={naive}"
                );
            }
        }
    }

    #[test]
    fn zero_window_integral_is_zero() {
        let t = trace(&[100.0, 200.0]);
        assert_eq!(
            t.window_integral(SimTime::from_minutes(30), Minutes::ZERO),
            0.0
        );
    }

    #[test]
    fn summary_statistics() {
        let t = trace(&[100.0, 200.0, 300.0]);
        assert!((t.mean() - 200.0).abs() < 1e-12);
        assert_eq!(t.min(), 100.0);
        assert_eq!(t.max(), 300.0);
        assert_eq!(t.span(), Minutes::from_hours(3));
    }

    #[test]
    fn rotation_shifts_origin_and_wraps() {
        let t = trace(&[1.0, 2.0, 3.0, 4.0]);
        let r = t.rotate(1);
        assert_eq!(r.hourly_values(), &[2.0, 3.0, 4.0, 1.0]);
        assert_eq!(t.rotate(0), t);
        assert_eq!(t.rotate(4), t);
        assert_eq!(t.rotate(5), t.rotate(1));
        assert!((r.mean() - t.mean()).abs() < 1e-12);
    }

    #[test]
    fn display_is_informative() {
        let t = trace(&[100.0, 300.0]);
        let s = t.to_string();
        assert!(s.contains("2 h"));
        assert!(s.contains("200.0"));
    }

    #[test]
    fn bridging_no_gaps_is_identical() {
        let t = trace(&[100.0, 300.0, 200.0, 50.0]);
        let bridged = t.with_gaps_bridged(&[]).expect("empty gap list");
        assert_eq!(bridged, t);
        assert_eq!(
            bridged
                .hourly_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            t.hourly_values()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn bridging_interpolates_interior_gaps() {
        let t = trace(&[100.0, 1.0, 2.0, 3.0, 500.0]);
        let bridged = t.with_gaps_bridged(&[(1, 3)]).expect("interior gap");
        // Straight line from 100 (hour 0) to 500 (hour 4).
        assert_eq!(
            bridged.hourly_values(),
            &[100.0, 200.0, 300.0, 400.0, 500.0]
        );
    }

    #[test]
    fn bridging_holds_flat_at_trace_edges() {
        let t = trace(&[9.0, 9.0, 70.0, 8.0, 8.0]);
        let bridged = t.with_gaps_bridged(&[(0, 2), (3, 2)]).expect("edge gaps");
        assert_eq!(bridged.hourly_values(), &[70.0, 70.0, 70.0, 70.0, 70.0]);
    }

    #[test]
    fn bridging_merges_overlapping_gaps() {
        let t = trace(&[10.0, 0.0, 0.0, 0.0, 50.0]);
        let a = t.with_gaps_bridged(&[(1, 2), (2, 2)]).expect("overlap");
        let b = t.with_gaps_bridged(&[(1, 3)]).expect("single");
        assert_eq!(a, b);
    }

    #[test]
    fn bridging_rejects_unusable_gaps() {
        let t = trace(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            t.with_gaps_bridged(&[(2, 2)]),
            Err(CarbonError::InvalidGap { .. })
        ));
        assert!(matches!(
            t.with_gaps_bridged(&[(0, 3)]),
            Err(CarbonError::InvalidGap { .. })
        ));
        assert!(matches!(
            t.with_gaps_bridged(&[(u64::MAX, 2)]),
            Err(CarbonError::InvalidGap { .. })
        ));
    }

    #[test]
    fn window_integral_scans_at_the_edges() {
        let trace = CarbonTrace::from_hourly(vec![100.0, 300.0, 200.0]).unwrap();
        let start = SimTime::from_minutes(95);
        let len = Minutes::new(130);
        assert_eq!(
            trace
                .window_integrals(start, Minutes::new(7), len, 0)
                .count(),
            0
        );
        assert!(trace
            .window_integrals(start, Minutes::new(7), Minutes::ZERO, 4)
            .all(|v| v == 0.0));
        // A step of whole trace periods lands on the same phase each time.
        let one = trace.window_integral(start, len);
        let periodic: Vec<f64> = trace
            .window_integrals(start, Minutes::from_hours(6), len, 3)
            .collect();
        assert!(periodic.iter().all(|v| v.to_bits() == one.to_bits()));
    }

    #[test]
    #[should_panic(expected = "window_avg over an empty window")]
    fn window_avg_rejects_an_empty_window() {
        CarbonTrace::constant(1.0, 2)
            .unwrap()
            .window_avg(SimTime::ORIGIN, Minutes::ZERO);
    }
}
