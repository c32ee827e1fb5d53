//! The Carbon Information Service (CIS) forecasting interface.
//!
//! GAIA's scheduling policies consume carbon intensity exclusively through
//! a [`CarbonForecaster`], mirroring the paper's CIS component (§4.1):
//! third-party services such as ElectricityMaps provide "real-time
//! per-region carbon intensity information and forecasts".
//!
//! The paper assumes perfect forecasts (§6.1, citing CarbonCast's
//! accuracy); [`PerfectForecaster`] implements that assumption.
//! [`NoisyForecaster`] is provided as an extension for sensitivity
//! studies: it perturbs forecasts with horizon-proportional noise while
//! keeping the *current* intensity exact.
//!
//! # Query architecture
//!
//! Policies hold a [`ForecastView`] — a thin façade anchored at one
//! decision instant. It answers in one of two ways:
//!
//! * When the forecaster's forecasts *are* a trace
//!   ([`CarbonForecaster::exact_trace`], true for [`PerfectForecaster`]),
//!   the view reads that [`CarbonTrace`] directly, with no `Box` and no
//!   virtual dispatch: integrals from [`CarbonTrace::window_integral`],
//!   batched start-time scans from [`CarbonTrace::window_integrals`].
//! * Otherwise it wraps the [`ForecastQuery`] session from
//!   [`CarbonForecaster::query`]. [`NoisyForecaster`] and
//!   [`PersistenceForecaster`] memoize their per-hour samples for the
//!   current `now` (the memo is invalidated whenever a query is opened at
//!   a different instant); any other forecaster gets a naive query that
//!   re-derives every answer from [`CarbonForecaster::forecast`].
//!
//! Every path takes quantiles and greenest-slot plans through the same
//! two bodies over the window's hourly slots; they differ only in where
//! a slot's intensity is read from. All paths return **bit-identical**
//! results: order statistics are exact sample values under
//! [`f64::total_cmp`], and memoized samples are the very values a direct
//! [`CarbonForecaster::forecast`] call would produce, summed in the same
//! order.

use std::cell::RefCell;
use std::sync::Mutex;

use gaia_time::{HourlySlots, Minutes, SimTime, SlotSpan, MINUTES_PER_HOUR};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::synth::standard_normal;
use crate::{CarbonTrace, GramsPerKwh};

/// A source of carbon-intensity observations and forecasts.
///
/// All scheduling decisions in GAIA flow through this trait, so swapping
/// forecast quality is a one-line change in experiment configuration.
///
/// Implementors must be deterministic: repeated calls with the same
/// arguments must return the same values, otherwise scheduling runs are
/// not reproducible.
pub trait CarbonForecaster {
    /// The carbon intensity observed *now*, at instant `t`.
    fn current(&self, t: SimTime) -> GramsPerKwh;

    /// The forecast carbon intensity for instant `at`, issued at `now`.
    ///
    /// `at` must not precede `now`.
    fn forecast(&self, now: SimTime, at: SimTime) -> GramsPerKwh;

    /// The forecast *integral* of carbon intensity over
    /// `[start, start + len)` as seen from `now`, in (g/kWh)·hours.
    ///
    /// The default implementation sums hourly forecasts; implementors with
    /// cheaper exact integrals (e.g. the perfect forecaster) override it.
    fn forecast_integral(&self, now: SimTime, start: SimTime, len: Minutes) -> f64 {
        HourlySlots::spanning(start, len)
            .map(|s| self.forecast(now, s.start) * s.fraction())
            .sum()
    }

    /// Opens a query session anchored at decision instant `now`.
    ///
    /// The default implementation answers every query by re-deriving it
    /// from [`CarbonForecaster::forecast`] — correct for any implementor.
    /// Forecasters with memoizable structure override this to serve the
    /// same answers from a memo (the results must be bit-identical; see
    /// the module docs).
    fn query<'s>(&'s self, now: SimTime) -> Box<dyn ForecastQuery + 's> {
        Box::new(NaiveQuery::new(self, now))
    }

    /// The trace this forecaster's forecasts equal exactly, if they do.
    ///
    /// Returning `Some` lets [`ForecastView::new`] skip the boxed
    /// [`CarbonForecaster::query`] session and read the trace directly —
    /// the hot path for engines that open a fresh view on every job
    /// arrival. Implementors must only return `Some(trace)` when every
    /// forecast is `trace.intensity_at(at)` and every integral is
    /// `trace.window_integral` (true for [`PerfectForecaster`]), so the
    /// view's answers stay bit-identical to their
    /// [`CarbonForecaster::query`] session. The default is `None`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gaia_carbon::{CarbonForecaster, CarbonTrace, NoisyForecaster, PerfectForecaster};
    ///
    /// let trace = CarbonTrace::from_hourly(vec![100.0, 50.0, 200.0])?;
    /// assert!(PerfectForecaster::new(&trace).exact_trace().is_some());
    /// assert!(NoisyForecaster::new(&trace, 0.2, 7).exact_trace().is_none());
    /// # Ok::<(), gaia_carbon::CarbonError>(())
    /// ```
    fn exact_trace(&self) -> Option<&CarbonTrace> {
        None
    }
}

/// Horizon queries anchored at one decision instant.
///
/// Obtained from [`CarbonForecaster::query`]; [`ForecastView`] wraps one
/// of these. Implementations are free to precompute or memoize, but must
/// return bit-identical results to the naive per-call derivation from
/// [`CarbonForecaster::forecast`].
pub trait ForecastQuery {
    /// The decision instant this query session is anchored at.
    fn now(&self) -> SimTime;

    /// Carbon intensity observed at the decision instant.
    fn current(&self) -> GramsPerKwh;

    /// Forecast intensity at a future instant.
    fn at(&self, at: SimTime) -> GramsPerKwh;

    /// Forecast CI integral over `[start, start + len)`, in (g/kWh)·hours.
    fn integral(&self, start: SimTime, len: Minutes) -> f64;

    /// Forecast CI integrals over `[start + k·step, start + k·step + len)`
    /// for `k in 0..count`, handed to `visit` in order of `k`.
    ///
    /// Each value is bit-identical to [`ForecastQuery::integral`] at that
    /// start. The default is exactly that per-candidate loop; a
    /// [`ForecastView`] over an exact trace runs the
    /// [`CarbonTrace::window_integrals`] scan instead.
    fn scan_integrals(
        &self,
        start: SimTime,
        step: Minutes,
        len: Minutes,
        count: u64,
        visit: &mut dyn FnMut(f64),
    ) {
        let mut t = start;
        for _ in 0..count {
            visit(self.integral(t, len));
            t += step;
        }
    }

    /// Forecast time-average CI over `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    fn average(&self, start: SimTime, len: Minutes) -> GramsPerKwh {
        assert!(!len.is_zero(), "average over empty window");
        self.integral(start, len) / len.as_hours_f64()
    }

    /// The `q`-quantile of forecast hourly CI over `[now, now + horizon)`,
    /// nearest-rank, `q` clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    fn quantile(&self, horizon: Minutes, q: f64) -> GramsPerKwh;

    /// The greenest-slot suspend-resume plan over `[now, now + horizon)`
    /// covering `need` minutes: cheapest hourly slots first, ties to the
    /// earliest, returned merged and sorted by start. Returns an empty
    /// plan when `need` is zero.
    ///
    /// # Panics
    ///
    /// Panics if `need` exceeds `horizon`.
    fn greenest_slots(&self, horizon: Minutes, need: Minutes) -> Vec<(SimTime, Minutes)>;
}

/// The fallback [`ForecastQuery`]: every answer re-derived per call from
/// [`CarbonForecaster::forecast`], exactly as `ForecastView` historically
/// computed it (modulo the `select_nth_unstable_by` quantile, which picks
/// the same element a full sort would).
struct NaiveQuery<'s, F: ?Sized> {
    f: &'s F,
    now: SimTime,
    scratch: RefCell<Vec<f64>>,
}

impl<'s, F: CarbonForecaster + ?Sized> NaiveQuery<'s, F> {
    fn new(f: &'s F, now: SimTime) -> Self {
        NaiveQuery {
            f,
            now,
            scratch: RefCell::new(Vec::new()),
        }
    }
}

impl<F: CarbonForecaster + ?Sized> ForecastQuery for NaiveQuery<'_, F> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn current(&self) -> GramsPerKwh {
        self.f.current(self.now)
    }

    fn at(&self, at: SimTime) -> GramsPerKwh {
        self.f.forecast(self.now, at)
    }

    fn integral(&self, start: SimTime, len: Minutes) -> f64 {
        self.f.forecast_integral(self.now, start, len)
    }

    fn quantile(&self, horizon: Minutes, q: f64) -> GramsPerKwh {
        let mut samples = self.scratch.borrow_mut();
        slots_quantile(&mut samples, self.now, horizon, q, |s| self.at(s.start))
    }

    fn greenest_slots(&self, horizon: Minutes, need: Minutes) -> Vec<(SimTime, Minutes)> {
        slots_greenest(self.now, horizon, need, |s| self.at(s.start))
    }
}

/// The nearest-rank `q`-quantile of `value` over the hourly slots of
/// `[now, now + horizon)`, gathered in `samples`. Every query path
/// shares this body; they differ only in `value`.
fn slots_quantile(
    samples: &mut Vec<f64>,
    now: SimTime,
    horizon: Minutes,
    q: f64,
    value: impl FnMut(SlotSpan) -> f64,
) -> GramsPerKwh {
    samples.clear();
    samples.extend(HourlySlots::spanning(now, horizon).map(value));
    let idx = quantile_rank(samples.len() as u64, q) as usize;
    // NaN forecasts sort above every real value (`total_cmp`), so a
    // perturbed forecaster degrades the answer instead of panicking.
    let (_, nth, _) = samples.select_nth_unstable_by(idx, f64::total_cmp);
    *nth
}

/// Nearest-rank index for the `q`-quantile of `count` samples, with `q`
/// clamped to `[0, 1]`.
fn quantile_rank(count: u64, q: f64) -> u64 {
    ((count - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64
}

/// The greenest-slot plan over the hourly slots of `[now, now +
/// horizon)`, each slot's CI read from `value`; shared like
/// [`slots_quantile`].
fn slots_greenest(
    now: SimTime,
    horizon: Minutes,
    need: Minutes,
    mut value: impl FnMut(SlotSpan) -> f64,
) -> Vec<(SimTime, Minutes)> {
    assert!(need <= horizon, "cannot fit {need} of work into {horizon}");
    let slots = HourlySlots::spanning(now, horizon)
        .map(|s| SlotCand {
            start: s.start,
            avail: s.overlap,
            ci: value(s),
        })
        .collect();
    select_greenest(slots, need)
}

/// One candidate hourly slot for greenest-slot selection.
#[derive(Debug, Clone, Copy)]
struct SlotCand {
    /// Start of the usable portion of the slot.
    start: SimTime,
    /// Usable minutes within the slot (1..=60; only the first and last
    /// slots of a window can be partial).
    avail: Minutes,
    /// Carbon intensity during the slot.
    ci: f64,
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
fn select_greenest(mut slots: Vec<SlotCand>, need: Minutes) -> Vec<(SimTime, Minutes)> {
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

/// Per-`now` memo of hourly forecast samples, owned by the stochastic
/// forecasters. Invalidated whenever a query is opened at a different
/// decision instant.
#[derive(Debug)]
struct MemoCache {
    now: SimTime,
    /// `values[i]` caches the forecast for hour `now_hour + i`, sampled
    /// at its canonical instant (`now` itself for the first hour, the
    /// hour boundary afterwards).
    values: Vec<Option<f64>>,
}

impl MemoCache {
    fn empty() -> Self {
        MemoCache {
            now: SimTime::ORIGIN,
            values: Vec::new(),
        }
    }
}

/// The memoizing [`ForecastQuery`] for forecasters whose per-hour samples
/// are expensive (RNG + `exp` for [`NoisyForecaster`], day-stepping for
/// [`PersistenceForecaster`]) but deterministic per `(now, at)`.
///
/// Samples are cached only at *canonical* instants — `now` for the hour
/// containing `now`, the hour boundary for later hours — because (for the
/// noisy forecaster) the error factor depends on the continuous lead
/// time, not just the target hour. Horizon scans anchored at `now` hit
/// canonical instants exclusively, so they are fully memoized; any other
/// instant falls through to a direct [`CarbonForecaster::forecast`] call.
/// Either way the value returned is bit-identical to the direct call.
struct MemoQuery<'s, F: ?Sized> {
    f: &'s F,
    memo: &'s Mutex<MemoCache>,
    now: SimTime,
    scratch: RefCell<Vec<f64>>,
}

impl<'s, F: CarbonForecaster + ?Sized> MemoQuery<'s, F> {
    fn open(f: &'s F, memo: &'s Mutex<MemoCache>, now: SimTime) -> Self {
        let mut cache = memo.lock().expect("memo lock poisoned");
        if cache.now != now {
            cache.now = now;
            cache.values.clear();
        }
        drop(cache);
        MemoQuery {
            f,
            memo,
            now,
            scratch: RefCell::new(Vec::new()),
        }
    }

    /// The canonical sampling instant for `hour` (>= the hour of `now`).
    fn canonical(&self, hour: u64) -> SimTime {
        if hour == self.now.as_hours_floor() {
            self.now
        } else {
            SimTime::from_hours(hour)
        }
    }

    /// The memoized forecast for `hour`, sampled at its canonical instant.
    fn sample(&self, hour: u64) -> f64 {
        let at = self.canonical(hour);
        let idx = (hour - self.now.as_hours_floor()) as usize;
        let mut cache = self.memo.lock().expect("memo lock poisoned");
        // A concurrently opened query at a different `now` may have
        // re-keyed the cache; never mix samples across anchors.
        if cache.now != self.now {
            drop(cache);
            return self.f.forecast(self.now, at);
        }
        if cache.values.len() <= idx {
            cache.values.resize(idx + 1, None);
        }
        if let Some(v) = cache.values[idx] {
            return v;
        }
        drop(cache);
        let v = self.f.forecast(self.now, at);
        let mut cache = self.memo.lock().expect("memo lock poisoned");
        if cache.now == self.now && cache.values.len() > idx {
            cache.values[idx] = Some(v);
        }
        v
    }

    /// The forecast value for one slot of a horizon scan: memoized when
    /// the slot starts at its hour's canonical instant, direct otherwise.
    fn slot_value(&self, s: SlotSpan) -> f64 {
        if s.hour >= self.now.as_hours_floor() && s.start == self.canonical(s.hour) {
            self.sample(s.hour)
        } else {
            self.f.forecast(self.now, s.start)
        }
    }
}

impl<F: CarbonForecaster + ?Sized> ForecastQuery for MemoQuery<'_, F> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn current(&self) -> GramsPerKwh {
        self.f.current(self.now)
    }

    fn at(&self, at: SimTime) -> GramsPerKwh {
        let hour = at.as_hours_floor();
        if hour >= self.now.as_hours_floor() && at == self.canonical(hour) {
            self.sample(hour)
        } else {
            self.f.forecast(self.now, at)
        }
    }

    fn integral(&self, start: SimTime, len: Minutes) -> f64 {
        // Same slot walk and summation order as the default
        // `forecast_integral`, with memoized per-slot samples.
        HourlySlots::spanning(start, len)
            .map(|s| self.slot_value(s) * s.fraction())
            .sum()
    }

    fn quantile(&self, horizon: Minutes, q: f64) -> GramsPerKwh {
        let mut samples = self.scratch.borrow_mut();
        slots_quantile(&mut samples, self.now, horizon, q, |s| self.slot_value(s))
    }

    fn greenest_slots(&self, horizon: Minutes, need: Minutes) -> Vec<(SimTime, Minutes)> {
        slots_greenest(self.now, horizon, need, |s| self.slot_value(s))
    }
}

/// A read-only view pairing a forecaster with a decision instant.
///
/// Policies receive a `ForecastView` so they cannot accidentally peek at a
/// different "now" than the scheduler intended. Internally the view reads
/// the forecaster's exact trace, or holds the [`ForecastQuery`] session
/// opened at construction, so repeated horizon queries hit the
/// forecaster's memo.
///
/// # Examples
///
/// ```
/// use gaia_carbon::{CarbonTrace, ForecastView, PerfectForecaster};
/// use gaia_time::{Minutes, SimTime};
///
/// let trace = CarbonTrace::from_hourly(vec![100.0, 50.0, 200.0])?;
/// let cis = PerfectForecaster::new(&trace);
/// let view = ForecastView::new(&cis, SimTime::ORIGIN);
/// assert_eq!(view.at(SimTime::from_hours(1)), 50.0);
/// # Ok::<(), gaia_carbon::CarbonError>(())
/// ```
pub struct ForecastView<'a> {
    forecaster: &'a dyn CarbonForecaster,
    now: SimTime,
    backend: ViewBackend<'a>,
}

/// How a [`ForecastView`] answers queries.
///
/// The trace arm exists so the per-arrival hot path pays neither a
/// `Box` allocation nor virtual dispatch: when the forecaster's forecasts
/// are a trace ([`CarbonForecaster::exact_trace`]), every view method
/// below reads it directly. Both arms compute bit-identical answers: the
/// trace arm runs the same slot bodies the boxed naive session would,
/// with the same per-slot values.
enum ViewBackend<'a> {
    Trace(&'a CarbonTrace),
    Dyn(Box<dyn ForecastQuery + 'a>),
}

impl std::fmt::Debug for ForecastView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForecastView")
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a> ForecastView<'a> {
    /// Creates a view of `forecaster` anchored at decision instant `now`.
    pub fn new(forecaster: &'a dyn CarbonForecaster, now: SimTime) -> Self {
        let backend = match forecaster.exact_trace() {
            Some(trace) => ViewBackend::Trace(trace),
            None => ViewBackend::Dyn(forecaster.query(now)),
        };
        ForecastView {
            forecaster,
            now,
            backend,
        }
    }

    /// The decision instant this view is anchored at.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The forecaster backing this view.
    pub fn forecaster(&self) -> &'a dyn CarbonForecaster {
        self.forecaster
    }

    /// Carbon intensity observed at the decision instant.
    pub fn current(&self) -> GramsPerKwh {
        match &self.backend {
            ViewBackend::Trace(t) => t.intensity_at(self.now),
            ViewBackend::Dyn(q) => q.current(),
        }
    }

    /// Forecast intensity at a future instant.
    pub fn at(&self, at: SimTime) -> GramsPerKwh {
        match &self.backend {
            ViewBackend::Trace(t) => t.intensity_at(at),
            ViewBackend::Dyn(q) => q.at(at),
        }
    }

    /// Forecast CI integral over `[start, start + len)`, in (g/kWh)·hours.
    pub fn integral(&self, start: SimTime, len: Minutes) -> f64 {
        match &self.backend {
            ViewBackend::Trace(t) => t.window_integral(start, len),
            ViewBackend::Dyn(q) => q.integral(start, len),
        }
    }

    /// Forecast CI integrals over `[start + k·step, start + k·step + len)`
    /// for `k in 0..count`, handed to `visit` in order of `k` (see
    /// [`ForecastQuery::scan_integrals`]). Each value is bit-identical to
    /// [`ForecastView::integral`] at that start.
    #[inline]
    pub fn scan_integrals(
        &self,
        start: SimTime,
        step: Minutes,
        len: Minutes,
        count: u64,
        mut visit: impl FnMut(f64),
    ) {
        match &self.backend {
            ViewBackend::Trace(t) => t.window_integrals(start, step, len, count).for_each(visit),
            ViewBackend::Dyn(q) => q.scan_integrals(start, step, len, count, &mut visit),
        }
    }

    /// Forecast time-average CI over `[start, start + len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn average(&self, start: SimTime, len: Minutes) -> GramsPerKwh {
        match &self.backend {
            ViewBackend::Trace(t) => t.window_avg(start, len),
            ViewBackend::Dyn(q) => q.average(start, len),
        }
    }

    /// The `q`-quantile of forecast hourly CI over `[now, now + horizon)`.
    ///
    /// NaN forecasts sort above every real value ([`f64::total_cmp`]), so
    /// a perturbed forecaster degrades the answer instead of panicking.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn quantile(&self, horizon: Minutes, q: f64) -> GramsPerKwh {
        match &self.backend {
            ViewBackend::Trace(t) => slots_quantile(&mut Vec::new(), self.now, horizon, q, |s| {
                t.intensity_at(s.start)
            }),
            ViewBackend::Dyn(s) => s.quantile(horizon, q),
        }
    }

    /// The greenest-slot suspend-resume plan over `[now, now + horizon)`
    /// covering `need` minutes (see [`ForecastQuery::greenest_slots`]).
    ///
    /// # Panics
    ///
    /// Panics if `need` exceeds `horizon`.
    pub fn greenest_slots(&self, horizon: Minutes, need: Minutes) -> Vec<(SimTime, Minutes)> {
        match &self.backend {
            ViewBackend::Trace(t) => {
                slots_greenest(self.now, horizon, need, |s| t.intensity_at(s.start))
            }
            ViewBackend::Dyn(q) => q.greenest_slots(horizon, need),
        }
    }
}

/// The paper's perfect-forecast assumption: forecasts equal the trace.
///
/// Views anchored on it read the trace directly
/// ([`CarbonForecaster::exact_trace`]); nothing is built or cached.
#[derive(Debug, Clone)]
pub struct PerfectForecaster<'t> {
    trace: &'t CarbonTrace,
}

impl<'t> PerfectForecaster<'t> {
    /// Creates a perfect forecaster backed by `trace`.
    pub fn new(trace: &'t CarbonTrace) -> Self {
        PerfectForecaster { trace }
    }

    /// The backing trace.
    pub fn trace(&self) -> &'t CarbonTrace {
        self.trace
    }

    /// Does nothing: a perfect forecaster has nothing to build before
    /// its first query. Kept so callers written against the earlier
    /// index-building forecaster still compile.
    pub fn warm(&self) -> &Self {
        self
    }
}

impl CarbonForecaster for PerfectForecaster<'_> {
    fn current(&self, t: SimTime) -> GramsPerKwh {
        self.trace.intensity_at(t)
    }

    fn forecast(&self, _now: SimTime, at: SimTime) -> GramsPerKwh {
        self.trace.intensity_at(at)
    }

    fn forecast_integral(&self, _now: SimTime, start: SimTime, len: Minutes) -> f64 {
        self.trace.window_integral(start, len)
    }

    fn exact_trace(&self) -> Option<&CarbonTrace> {
        Some(self.trace)
    }
}

/// A forecaster with horizon-proportional multiplicative error.
///
/// The error for hour `h` of the forecast horizon is a deterministic
/// pseudo-random factor `exp(sd_per_day * sqrt(h/24) * z(h))`, where `z`
/// is a standard normal deviate seeded by `(seed, target hour)` — so the
/// *same* future hour always receives the same error regardless of when
/// it is forecast, and the current hour is always exact. This mimics how
/// real CI forecasts degrade with lead time while staying reproducible.
///
/// Horizon queries memoize the per-hour samples for the current `now`
/// (the RNG + `exp` per sample dominates scan cost); the memo is
/// invalidated when a query is opened at a different instant.
#[derive(Debug)]
pub struct NoisyForecaster<'t> {
    trace: &'t CarbonTrace,
    sd_per_day: f64,
    seed: u64,
    memo: Mutex<MemoCache>,
}

impl Clone for NoisyForecaster<'_> {
    fn clone(&self) -> Self {
        // The memo is a cache of derivable values; a clone starts cold.
        NoisyForecaster {
            trace: self.trace,
            sd_per_day: self.sd_per_day,
            seed: self.seed,
            memo: Mutex::new(MemoCache::empty()),
        }
    }
}

impl<'t> NoisyForecaster<'t> {
    /// Creates a noisy forecaster with `sd_per_day` log-error at a
    /// 24-hour lead time.
    pub fn new(trace: &'t CarbonTrace, sd_per_day: f64, seed: u64) -> Self {
        NoisyForecaster {
            trace,
            sd_per_day,
            seed,
            memo: Mutex::new(MemoCache::empty()),
        }
    }

    fn error_factor(&self, now: SimTime, at: SimTime) -> f64 {
        let lead_hours = at.saturating_since(now).as_hours_f64();
        if lead_hours < 1.0 {
            return 1.0;
        }
        let hour = at.as_hours_floor();
        let mut rng = StdRng::seed_from_u64(self.seed ^ hour.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let z = standard_normal(&mut rng);
        (self.sd_per_day * (lead_hours / 24.0).sqrt() * z).exp()
    }
}

impl CarbonForecaster for NoisyForecaster<'_> {
    fn current(&self, t: SimTime) -> GramsPerKwh {
        self.trace.intensity_at(t)
    }

    fn forecast(&self, now: SimTime, at: SimTime) -> GramsPerKwh {
        self.trace.intensity_at(at) * self.error_factor(now, at)
    }

    fn query<'s>(&'s self, now: SimTime) -> Box<dyn ForecastQuery + 's> {
        Box::new(MemoQuery::open(self, &self.memo, now))
    }
}

/// The classic diurnal-persistence baseline: the forecast for a future
/// instant is the observed intensity at the same time of day on the most
/// recent fully-observed day.
///
/// Real CIS providers publish model-based forecasts that beat
/// persistence (the paper cites CarbonCast's accuracy to justify the
/// perfect-forecast assumption); persistence bounds how badly a
/// *forecast-free* deployment of GAIA would do.
#[derive(Debug)]
pub struct PersistenceForecaster<'t> {
    trace: &'t CarbonTrace,
    memo: Mutex<MemoCache>,
}

impl Clone for PersistenceForecaster<'_> {
    fn clone(&self) -> Self {
        PersistenceForecaster {
            trace: self.trace,
            memo: Mutex::new(MemoCache::empty()),
        }
    }
}

impl<'t> PersistenceForecaster<'t> {
    /// Creates a persistence forecaster backed by `trace`.
    pub fn new(trace: &'t CarbonTrace) -> Self {
        PersistenceForecaster {
            trace,
            memo: Mutex::new(MemoCache::empty()),
        }
    }
}

impl CarbonForecaster for PersistenceForecaster<'_> {
    fn current(&self, t: SimTime) -> GramsPerKwh {
        self.trace.intensity_at(t)
    }

    fn forecast(&self, now: SimTime, at: SimTime) -> GramsPerKwh {
        if at <= now {
            return self.trace.intensity_at(at);
        }
        // Step back whole days until the reference lies in the observed
        // past (clamping to the trace origin for the first day).
        let lead = at - now;
        let days_back = lead.as_minutes().div_ceil(gaia_time::MINUTES_PER_DAY);
        let shift = Minutes::from_days(days_back);
        let reference = if at.as_minutes() >= shift.as_minutes() {
            at - shift
        } else {
            SimTime::from_minutes(at.as_minutes() % gaia_time::MINUTES_PER_DAY)
        };
        self.trace.intensity_at(reference)
    }

    fn query<'s>(&'s self, now: SimTime) -> Box<dyn ForecastQuery + 's> {
        Box::new(MemoQuery::open(self, &self.memo, now))
    }
}

/// Mean absolute percentage error of `forecaster` against `truth` for a
/// fixed lead time, sampled hourly over one trace period.
///
/// Each decision instant opens one [`ForecastQuery`] session, so
/// memoizing forecasters serve the hourly samples from their memo (the
/// values are bit-identical to direct `forecast` calls).
///
/// # Panics
///
/// Panics if the trace is shorter than the lead time plus one hour.
pub fn forecast_mape(forecaster: &dyn CarbonForecaster, truth: &CarbonTrace, lead: Minutes) -> f64 {
    let lead_hours = lead.as_hours_ceil();
    let total_hours = truth.len_hours() as u64;
    assert!(total_hours > lead_hours, "trace shorter than the lead time");
    let mut acc = 0.0;
    let mut n = 0u64;
    for h in 0..total_hours - lead_hours {
        let now = SimTime::from_hours(h);
        let query = forecaster.query(now);
        let at = now + lead;
        let predicted = query.at(at);
        let actual = truth.intensity_at(at);
        if actual > 0.0 {
            acc += ((predicted - actual) / actual).abs();
            n += 1;
        }
    }
    acc / n.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> CarbonTrace {
        CarbonTrace::from_hourly(vec![100.0, 50.0, 200.0, 75.0]).expect("valid")
    }

    #[test]
    fn perfect_forecaster_equals_trace() {
        let t = trace();
        let f = PerfectForecaster::new(&t);
        for h in 0..8 {
            let at = SimTime::from_hours(h);
            assert_eq!(f.forecast(SimTime::ORIGIN, at), t.intensity_at(at));
            assert_eq!(f.current(at), t.intensity_at(at));
        }
        let integral =
            f.forecast_integral(SimTime::ORIGIN, SimTime::ORIGIN, Minutes::from_hours(4));
        assert!((integral - 425.0).abs() < 1e-9);
    }

    #[test]
    fn view_average_and_quantile() {
        let t = trace();
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        assert!((view.average(SimTime::ORIGIN, Minutes::from_hours(4)) - 106.25).abs() < 1e-9);
        assert_eq!(view.quantile(Minutes::from_hours(4), 0.0), 50.0);
        assert_eq!(view.quantile(Minutes::from_hours(4), 1.0), 200.0);
        assert_eq!(view.current(), 100.0);
        assert_eq!(view.now(), SimTime::ORIGIN);
    }

    #[test]
    fn quantile_30th_percentile() {
        let t = CarbonTrace::from_hourly((1..=10).map(|i| f64::from(i) * 10.0).collect())
            .expect("valid");
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        let horizon = Minutes::from_hours(10);
        // nearest-rank over 10 samples: index round(9 * 0.3) = 3 -> 40.
        assert_eq!(view.quantile(horizon, 0.3), 40.0);
        assert_eq!(view.quantile(horizon, 0.0), 10.0);
        assert_eq!(view.quantile(horizon, 1.0), 100.0);
    }

    /// Out-of-range `q` clamps to the window's min or max on every query
    /// path: the trace arm (perfect), memoized (noisy, persistence) and
    /// naive (a custom forecaster).
    #[test]
    fn quantile_clamps_q_outside_unit_interval() {
        struct Wrap<'a>(&'a CarbonTrace);
        impl CarbonForecaster for Wrap<'_> {
            fn current(&self, t: SimTime) -> f64 {
                self.0.intensity_at(t)
            }
            fn forecast(&self, _now: SimTime, at: SimTime) -> f64 {
                self.0.intensity_at(at)
            }
        }
        let t = crate::synth::synthesize_region(crate::Region::Ontario, 3);
        let perfect = PerfectForecaster::new(&t);
        let noisy = NoisyForecaster::new(&t, 0.25, 13);
        let persistence = PersistenceForecaster::new(&t);
        let naive = Wrap(&t);
        let forecasters: [(&dyn CarbonForecaster, &str); 4] = [
            (&perfect, "perfect"),
            (&noisy, "noisy"),
            (&persistence, "persistence"),
            (&naive, "naive"),
        ];
        let horizon = Minutes::from_hours(48);
        for (f, name) in forecasters {
            let view = ForecastView::new(f, SimTime::from_minutes(100 * 60 + 30));
            let lo = view.quantile(horizon, 0.0);
            let hi = view.quantile(horizon, 1.0);
            assert!(lo <= hi, "{name}");
            assert_eq!(
                view.quantile(horizon, -0.25).to_bits(),
                lo.to_bits(),
                "{name}"
            );
            assert_eq!(
                view.quantile(horizon, 1.25).to_bits(),
                hi.to_bits(),
                "{name}"
            );
        }
    }

    #[test]
    fn greenest_slots_pick_valley_and_sum_to_need() {
        let t =
            CarbonTrace::from_hourly(vec![300.0, 100.0, 120.0, 400.0, 90.0, 500.0]).expect("valid");
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        // The three cheapest hours: 4 (90), 1 (100) and 2 (120); hours 1
        // and 2 merge into one segment.
        assert_eq!(
            view.greenest_slots(Minutes::from_hours(6), Minutes::from_hours(3)),
            vec![
                (SimTime::from_hours(1), Minutes::from_hours(2)),
                (SimTime::from_hours(4), Minutes::from_hours(1)),
            ]
        );
    }

    #[test]
    fn greenest_slots_partial_hour_trim() {
        let t = CarbonTrace::from_hourly(vec![300.0, 100.0, 200.0]).expect("valid");
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        // The full hour 1 plus the first 30 minutes of hour 2 (the
        // second-cheapest), merged.
        assert_eq!(
            view.greenest_slots(Minutes::from_hours(3), Minutes::new(90)),
            vec![(SimTime::from_hours(1), Minutes::new(90))]
        );
    }

    #[test]
    fn greenest_slots_whole_horizon_when_need_equals_horizon() {
        let t = CarbonTrace::from_hourly(vec![5.0, 4.0, 3.0]).expect("valid");
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        assert_eq!(
            view.greenest_slots(Minutes::from_hours(3), Minutes::from_hours(3)),
            vec![(SimTime::ORIGIN, Minutes::from_hours(3))]
        );
    }

    #[test]
    fn quantile_handles_nan_forecasts() {
        struct NanForecaster;
        impl CarbonForecaster for NanForecaster {
            fn current(&self, _t: SimTime) -> f64 {
                f64::NAN
            }
            fn forecast(&self, _now: SimTime, _at: SimTime) -> f64 {
                f64::NAN
            }
        }
        let view = ForecastView::new(&NanForecaster, SimTime::ORIGIN);
        // NaN sorts above every real value; q=1 must return it, q=0 too
        // (all samples NaN) — and neither call may panic.
        assert!(view.quantile(Minutes::from_hours(4), 0.0).is_nan());
        assert!(view.quantile(Minutes::from_hours(4), 1.0).is_nan());
    }

    #[test]
    fn default_integral_matches_exact_for_perfect() {
        // Route through the trait's default implementation.
        struct Wrap<'a>(&'a CarbonTrace);
        impl CarbonForecaster for Wrap<'_> {
            fn current(&self, t: SimTime) -> f64 {
                self.0.intensity_at(t)
            }
            fn forecast(&self, _now: SimTime, at: SimTime) -> f64 {
                self.0.intensity_at(at)
            }
        }
        let t = trace();
        let w = Wrap(&t);
        for (start, len) in [(0u64, 60u64), (30, 90), (45, 240), (119, 61)] {
            let start = SimTime::from_minutes(start);
            let len = Minutes::new(len);
            let default_integral = w.forecast_integral(SimTime::ORIGIN, start, len);
            let exact = t.window_integral(start, len);
            assert!(
                (default_integral - exact).abs() < 1e-9,
                "start={start} len={len}"
            );
        }
    }

    /// The query sessions must answer identically to the raw forecaster
    /// calls they cache or re-derive.
    #[test]
    fn query_paths_are_bit_identical_to_direct_calls() {
        let t = crate::synth::synthesize_region(crate::Region::Ontario, 3);
        let perfect = PerfectForecaster::new(&t);
        let noisy = NoisyForecaster::new(&t, 0.25, 13);
        let persistence = PersistenceForecaster::new(&t);
        let forecasters: [(&dyn CarbonForecaster, &str); 3] = [
            (&perfect, "perfect"),
            (&noisy, "noisy"),
            (&persistence, "persistence"),
        ];
        for (f, name) in forecasters {
            for now_min in [0u64, 45, 26 * 60, 26 * 60 + 30] {
                let now = SimTime::from_minutes(now_min);
                let query = f.query(now);
                // Point forecasts at canonical and non-canonical instants.
                for at_min in [now_min, now_min + 15, now_min + 60, now_min + 607] {
                    let at = SimTime::from_minutes(at_min);
                    assert_eq!(
                        query.at(at).to_bits(),
                        f.forecast(now, at).to_bits(),
                        "{name} now={now_min} at={at_min}"
                    );
                }
                // Integrals over aligned and unaligned windows.
                for (start_min, len) in [(now_min, 240u64), (now_min + 30, 90), (now_min + 61, 600)]
                {
                    let start = SimTime::from_minutes(start_min);
                    let len = Minutes::new(len);
                    let naive: f64 = HourlySlots::spanning(start, len)
                        .map(|s| f.forecast(now, s.start) * s.fraction())
                        .sum();
                    // The perfect forecaster has always used the exact
                    // trace integral rather than the slot walk.
                    let expected = if name == "perfect" {
                        t.window_integral(start, len)
                    } else {
                        naive
                    };
                    assert_eq!(
                        query.integral(start, len).to_bits(),
                        expected.to_bits(),
                        "{name} now={now_min} start={start_min}"
                    );
                }
                assert_eq!(query.current().to_bits(), f.current(now).to_bits());
            }
        }
    }

    #[test]
    fn noisy_current_is_exact() {
        let t = trace();
        let f = NoisyForecaster::new(&t, 0.2, 7);
        let now = SimTime::from_hours(1);
        assert_eq!(f.current(now), 50.0);
        assert_eq!(f.forecast(now, now), 50.0);
    }

    #[test]
    fn noisy_forecast_is_deterministic_and_consistent() {
        let t = trace();
        let f = NoisyForecaster::new(&t, 0.2, 7);
        let at = SimTime::from_hours(30);
        let a = f.forecast(SimTime::ORIGIN, at);
        let b = f.forecast(SimTime::ORIGIN, at);
        assert_eq!(a, b);
        // Error grows with lead time, so near-term forecasts are closer to
        // truth on average; just verify positivity and inequality here.
        assert!(a > 0.0);
        let near = f.forecast(SimTime::from_hours(29), at);
        assert!(near > 0.0);
    }

    #[test]
    fn noisy_with_zero_sd_is_perfect() {
        let t = trace();
        let f = NoisyForecaster::new(&t, 0.0, 7);
        for h in 0..48 {
            let at = SimTime::from_hours(h);
            assert_eq!(f.forecast(SimTime::ORIGIN, at), t.intensity_at(at));
        }
    }

    /// The noisy memo serves cached samples for one `now` and is
    /// invalidated when a query is opened at a different instant.
    #[test]
    fn noisy_memo_invalidated_when_now_advances() {
        let t = crate::synth::synthesize_region(crate::Region::California, 21);
        let f = NoisyForecaster::new(&t, 0.4, 17);
        let at = SimTime::from_hours(30);

        let early = SimTime::from_hours(2);
        let q1 = f.query(early);
        let from_early = q1.at(at);
        assert_eq!(from_early.to_bits(), f.forecast(early, at).to_bits());
        // Warm hit: same query session returns the cached bits.
        assert_eq!(q1.at(at).to_bits(), from_early.to_bits());

        // Advancing `now` shrinks the lead time, so the same target hour
        // gets a different error factor — a stale memo would return
        // `from_early` again.
        let late = SimTime::from_hours(20);
        let q2 = f.query(late);
        let from_late = q2.at(at);
        assert_eq!(from_late.to_bits(), f.forecast(late, at).to_bits());
        assert_ne!(
            from_late.to_bits(),
            from_early.to_bits(),
            "lead time changed, the sample must too"
        );

        // Stepping back re-derives the original value, not a stale one.
        let q3 = f.query(early);
        assert_eq!(q3.at(at).to_bits(), from_early.to_bits());
    }

    #[test]
    fn persistence_repeats_yesterday() {
        // Two distinct days.
        let mut hourly = vec![100.0; 48];
        for (h, v) in hourly.iter_mut().enumerate().take(24) {
            *v = 100.0 + h as f64;
        }
        for (h, v) in hourly.iter_mut().enumerate().skip(24) {
            *v = 500.0 + h as f64;
        }
        let t = CarbonTrace::from_hourly(hourly).expect("valid");
        let f = PersistenceForecaster::new(&t);
        let now = SimTime::from_hours(25);
        // Forecasting hour 30 from hour 25: persistence answers hour 6.
        assert_eq!(f.forecast(now, SimTime::from_hours(30)), 106.0);
        // Past and present lookups are exact.
        assert_eq!(f.forecast(now, SimTime::from_hours(20)), 120.0);
        assert_eq!(f.current(now), 525.0);
        // A two-day lead steps back two days.
        let later = f.forecast(SimTime::from_hours(1), SimTime::from_hours(40));
        assert_eq!(later, 116.0); // clamped to day 0's hour 16
    }

    #[test]
    fn mape_orders_forecasters() {
        let t = crate::synth::synthesize_region(crate::Region::California, 5);
        let lead = Minutes::from_hours(12);
        let perfect = forecast_mape(&PerfectForecaster::new(&t), &t, lead);
        let persistence = forecast_mape(&PersistenceForecaster::new(&t), &t, lead);
        let mildly_noisy = forecast_mape(&NoisyForecaster::new(&t, 0.05, 7), &t, lead);
        let very_noisy = forecast_mape(&NoisyForecaster::new(&t, 0.5, 7), &t, lead);
        assert_eq!(perfect, 0.0);
        assert!(persistence > 0.01, "persistence errs: {persistence}");
        assert!(mildly_noisy < very_noisy);
        assert!(mildly_noisy > 0.0);
        // A mild model forecast beats raw persistence on a noisy grid.
        assert!(
            mildly_noisy < persistence,
            "{mildly_noisy} vs {persistence}"
        );
    }

    /// `forecast_mape` routed through the query layer must agree with the
    /// direct per-call derivation, including non-hour-aligned leads.
    #[test]
    fn mape_matches_direct_forecast_loop() {
        let t = crate::synth::synthesize_region(crate::Region::Kentucky, 6);
        for lead_min in [60u64, 90, 720] {
            let lead = Minutes::new(lead_min);
            for f in [
                Box::new(NoisyForecaster::new(&t, 0.2, 7)) as Box<dyn CarbonForecaster>,
                Box::new(PersistenceForecaster::new(&t)),
            ] {
                let via_query = forecast_mape(f.as_ref(), &t, lead);
                let lead_hours = lead.as_hours_ceil();
                let total_hours = t.len_hours() as u64;
                let mut acc = 0.0;
                let mut n = 0u64;
                for h in 0..total_hours - lead_hours {
                    let now = SimTime::from_hours(h);
                    let at = now + lead;
                    let predicted = f.forecast(now, at);
                    let actual = t.intensity_at(at);
                    if actual > 0.0 {
                        acc += ((predicted - actual) / actual).abs();
                        n += 1;
                    }
                }
                let direct = acc / n.max(1) as f64;
                assert_eq!(via_query.to_bits(), direct.to_bits(), "lead={lead_min}");
            }
        }
    }

    #[test]
    fn cloned_noisy_forecaster_answers_identically() {
        let t = trace();
        let f = NoisyForecaster::new(&t, 0.2, 7);
        // Warm the memo, then clone (clones start cold).
        let _ = f.query(SimTime::ORIGIN).at(SimTime::from_hours(3));
        let g = f.clone();
        let at = SimTime::from_hours(3);
        assert_eq!(
            f.forecast(SimTime::ORIGIN, at).to_bits(),
            g.forecast(SimTime::ORIGIN, at).to_bits()
        );
        let _ = PersistenceForecaster::new(&t).clone();
    }

    #[test]
    fn view_debug_includes_now() {
        let t = trace();
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::from_hours(3));
        let dbg = format!("{view:?}");
        assert!(dbg.contains("now"));
    }

    #[test]
    fn quantile_on_constant_trace() {
        let t = CarbonTrace::constant(123.25, 48).expect("valid");
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        assert_eq!(view.quantile(Minutes::from_hours(5), 0.5), 123.25);
    }

    /// Out-of-range `q` clamps on the trace arm for windows from one
    /// hour to longer than the year-long period.
    #[test]
    fn trace_quantile_clamps_q_on_every_horizon() {
        let t = crate::synth::synthesize_region(crate::Region::SouthAustralia, 42);
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::from_minutes(8000 * 60 + 7));
        for horizon_h in [1u64, 7, 24, 9000] {
            let horizon = Minutes::from_hours(horizon_h);
            let lo = view.quantile(horizon, 0.0);
            let hi = view.quantile(horizon, 1.0);
            for q in [-0.5, f64::NEG_INFINITY] {
                let got = view.quantile(horizon, q);
                assert_eq!(got.to_bits(), lo.to_bits(), "q={q} h={horizon_h}");
            }
            for q in [1.5, f64::INFINITY] {
                let got = view.quantile(horizon, q);
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
        let t = crate::synth::synthesize_region(crate::Region::SouthAustralia, 42);
        let f = PerfectForecaster::new(&t);
        let view = ForecastView::new(&f, SimTime::ORIGIN);
        let start = SimTime::from_minutes(12345);
        let len = Minutes::new(789);
        assert_eq!(
            view.integral(start, len).to_bits(),
            t.window_integral(start, len).to_bits()
        );
        assert_eq!(
            view.average(start, len).to_bits(),
            t.window_avg(start, len).to_bits()
        );
    }

    /// The view's trace arm answers every method bit for bit like the
    /// perfect forecaster's own query session (the default naive one),
    /// at year-trace anchors deep in and past the period, with horizons
    /// longer than one period.
    #[test]
    fn trace_arm_is_bit_equal_to_the_query_session() {
        let t = crate::synth::synthesize_region(crate::Region::SouthAustralia, 42);
        let f = PerfectForecaster::new(&t);
        let year = 8760 * 60;
        for now_min in [0u64, 59, 4_000 * 60 + 17, year - 30, year + 61] {
            let now = SimTime::from_minutes(now_min);
            let view = ForecastView::new(&f, now);
            assert!(matches!(view.backend, ViewBackend::Trace(_)));
            let query = f.query(now);
            let ctx = format!("now={now_min}");
            assert_eq!(view.now(), query.now(), "{ctx}");
            assert_eq!(view.current().to_bits(), query.current().to_bits(), "{ctx}");
            for at_min in [now_min, now_min + 1, now_min + 60, now_min + year + 7] {
                let at = SimTime::from_minutes(at_min);
                assert_eq!(view.at(at).to_bits(), query.at(at).to_bits(), "{ctx}");
            }
            for horizon_min in [60u64, 91, 24 * 60, year + 90, 2 * year + 1] {
                let horizon = Minutes::new(horizon_min);
                let ctx = format!("{ctx} horizon={horizon_min}");
                assert_eq!(
                    view.integral(now, horizon).to_bits(),
                    query.integral(now, horizon).to_bits(),
                    "{ctx}"
                );
                assert_eq!(
                    view.average(now, horizon).to_bits(),
                    query.average(now, horizon).to_bits(),
                    "{ctx}"
                );
                let step = Minutes::new(37);
                let mut scanned = Vec::new();
                view.scan_integrals(now, step, horizon, 12, |v| scanned.push(v.to_bits()));
                let mut want = Vec::new();
                query.scan_integrals(now, step, horizon, 12, &mut |v| want.push(v.to_bits()));
                assert_eq!(scanned, want, "{ctx}");
                for q in [0.0, 0.3, 0.5, 1.0] {
                    assert_eq!(
                        view.quantile(horizon, q).to_bits(),
                        query.quantile(horizon, q).to_bits(),
                        "{ctx} q={q}"
                    );
                }
                for need_min in [0u64, 1, 90, horizon_min / 2, horizon_min] {
                    let need = Minutes::new(need_min.min(horizon_min));
                    assert_eq!(
                        view.greenest_slots(horizon, need),
                        query.greenest_slots(horizon, need),
                        "{ctx} need={need_min}"
                    );
                }
            }
        }
    }
}
