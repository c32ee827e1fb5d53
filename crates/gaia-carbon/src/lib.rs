//! Carbon-intensity substrate for the GAIA carbon-aware batch scheduler.
//!
//! This crate provides everything GAIA needs to reason about the carbon
//! intensity (CI) of grid electricity:
//!
//! * [`CarbonTrace`] — an hourly CI time series with O(1) window-sum
//!   queries, the substrate equivalent of the ElectricityMaps traces used
//!   by the paper.
//! * [`Region`] and [`synth`] — synthetic generators for the six cloud
//!   regions the paper evaluates (Sweden, Ontario, South Australia,
//!   California, Netherlands, Kentucky), calibrated to the qualitative
//!   taxonomy of paper Figure 6 (Low/Med/High average × Stable/Variable)
//!   and the quantitative spreads of Figures 1 and 7.
//! * [`CarbonForecaster`] — the Carbon Information Service (CIS)
//!   interface. The paper assumes perfect forecasts (§6.1); a noisy
//!   forecaster is provided as an extension.
//! * [`price`] — a synthetic hourly energy-price series with tunable
//!   correlation to CI, reproducing the carbon-cost (mis)alignment of
//!   paper Figure 20.
//!
//! # Examples
//!
//! ```
//! use gaia_carbon::{Region, synth::synthesize_region};
//! use gaia_time::{Minutes, SimTime};
//!
//! let trace = synthesize_region(Region::SouthAustralia, 42);
//! // South Australia is a high-variability region: shifting a 4-hour job
//! // across the day should find windows that differ substantially.
//! let job = Minutes::from_hours(4);
//! let averages: Vec<f64> = (0..24)
//!     .map(|h| trace.window_avg(SimTime::from_hours(h), job))
//!     .collect();
//! let worst = averages.iter().copied().fold(0.0, f64::max);
//! let best = averages.iter().copied().fold(f64::INFINITY, f64::min);
//! assert!(worst / best > 1.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod forecast;
mod index;
pub mod io;
pub mod price;
mod region;
pub mod stats;
pub mod synth;
mod trace;

pub use error::CarbonError;
pub use forecast::{
    forecast_mape, CarbonForecaster, ForecastQuery, ForecastView, NoisyForecaster,
    PerfectForecaster, PersistenceForecaster,
};
pub use index::ForecastIndex;
pub use region::{IntensityLevel, Region, Variability};
pub use trace::{CarbonTrace, GramsCo2, GramsPerKwh};
