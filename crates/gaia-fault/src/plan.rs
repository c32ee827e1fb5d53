//! The declarative fault-plan spec and its on-disk JSON format.

use std::fmt;
use std::fmt::Write as _;

use gaia_obs::json::{self, Value};
use gaia_time::SimTime;

use crate::schedule::FaultSchedule;

/// One injectable fault.
///
/// Time windows are half-open `[start, end)` on the simulated clock; hourly
/// ranges address trace samples by hour index.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Multiply the hourly spot-eviction rate by `multiplier` for spot runs
    /// that begin inside the window (the scaled rate is clamped to 1.0).
    EvictionStorm {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Rate multiplier; must be finite and positive.
        multiplier: f64,
    },
    /// Forecast queries fail inside the window: the engine swaps the policy's
    /// forecast view to a persistence fallback and marks decisions degraded.
    ForecastOutage {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
    },
    /// Elastic (on-demand / spot) prices are multiplied inside the window.
    /// The extra cost is accounted as a degradation *surcharge* so the base
    /// accounting identities — and the audit that checks them — still hold.
    PriceSpike {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Price multiplier; must be finite and positive.
        multiplier: f64,
    },
    /// Clamp elastic capacity to `cap` CPUs inside the window (the engine's
    /// usual idle-cluster admission exception still applies, so a zero cap
    /// degrades throughput without deadlocking oversized jobs).
    CapacityDrop {
        /// Window start (inclusive).
        start: SimTime,
        /// Window end (exclusive).
        end: SimTime,
        /// Elastic-CPU clamp inside the window.
        cap: u32,
    },
    /// Hourly carbon samples `[start_hour, start_hour + hours)` are missing;
    /// the policy-visible trace bridges them by linear interpolation while
    /// accounting keeps the true trace.
    TraceGap {
        /// First missing hour index.
        start_hour: u64,
        /// Number of consecutive missing hours (≥ 1).
        hours: u64,
    },
    /// Deterministically fail the first `fail_attempts` attempts of every
    /// sweep cell whose key contains `key_substr` — exercises the sweep's
    /// retry-with-backoff path without any real nondeterminism.
    ChaosCell {
        /// Substring matched against the sweep cell key (empty matches all).
        key_substr: String,
        /// Number of leading attempts to fail (≥ 1).
        fail_attempts: u32,
    },
}

impl FaultSpec {
    /// Stable kind name used in the fault file and in trace events.
    pub fn kind_name(&self) -> &'static str {
        match self {
            FaultSpec::EvictionStorm { .. } => "eviction_storm",
            FaultSpec::ForecastOutage { .. } => "forecast_outage",
            FaultSpec::PriceSpike { .. } => "price_spike",
            FaultSpec::CapacityDrop { .. } => "capacity_drop",
            FaultSpec::TraceGap { .. } => "trace_gap",
            FaultSpec::ChaosCell { .. } => "chaos_cell",
        }
    }

    /// Fault window in simulated minutes (trace gaps report their hourly
    /// range as minutes; chaos cells have no window and report `(0, 0)`).
    pub fn window_minutes(&self) -> (u64, u64) {
        match *self {
            FaultSpec::EvictionStorm { start, end, .. }
            | FaultSpec::ForecastOutage { start, end }
            | FaultSpec::PriceSpike { start, end, .. }
            | FaultSpec::CapacityDrop { start, end, .. } => (start.as_minutes(), end.as_minutes()),
            FaultSpec::TraceGap { start_hour, hours } => {
                (start_hour * 60, (start_hour + hours) * 60)
            }
            FaultSpec::ChaosCell { .. } => (0, 0),
        }
    }

    /// The fault's scalar severity: a multiplier, a CPU cap, a gap length in
    /// hours, or a failed-attempt count, depending on the kind.
    pub fn magnitude(&self) -> f64 {
        match *self {
            FaultSpec::EvictionStorm { multiplier, .. }
            | FaultSpec::PriceSpike { multiplier, .. } => multiplier,
            FaultSpec::ForecastOutage { .. } => 1.0,
            FaultSpec::CapacityDrop { cap, .. } => cap as f64,
            FaultSpec::TraceGap { hours, .. } => hours as f64,
            FaultSpec::ChaosCell { fail_attempts, .. } => fail_attempts as f64,
        }
    }

    fn validate(&self) -> Result<(), FaultError> {
        let window_ok = |start: SimTime, end: SimTime| {
            if start < end {
                Ok(())
            } else {
                Err(FaultError::Invalid(format!(
                    "{}: window start {} is not before end {}",
                    self.kind_name(),
                    start.as_minutes(),
                    end.as_minutes()
                )))
            }
        };
        let multiplier_ok = |m: f64| {
            if m.is_finite() && m > 0.0 {
                Ok(())
            } else {
                Err(FaultError::Invalid(format!(
                    "{}: multiplier {m} must be finite and positive",
                    self.kind_name()
                )))
            }
        };
        match *self {
            FaultSpec::EvictionStorm {
                start,
                end,
                multiplier,
            }
            | FaultSpec::PriceSpike {
                start,
                end,
                multiplier,
            } => {
                window_ok(start, end)?;
                multiplier_ok(multiplier)
            }
            FaultSpec::ForecastOutage { start, end } => window_ok(start, end),
            FaultSpec::CapacityDrop { start, end, .. } => window_ok(start, end),
            FaultSpec::TraceGap { hours, .. } => {
                if hours >= 1 {
                    Ok(())
                } else {
                    Err(FaultError::Invalid(
                        "trace_gap: hours must be at least 1".into(),
                    ))
                }
            }
            FaultSpec::ChaosCell { fail_attempts, .. } => {
                if fail_attempts >= 1 {
                    Ok(())
                } else {
                    Err(FaultError::Invalid(
                        "chaos_cell: fail_attempts must be at least 1".into(),
                    ))
                }
            }
        }
    }
}

/// A fault plan could not be read, parsed, or validated.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// The fault file could not be read.
    Io(String),
    /// The fault file is not valid JSON or not a valid plan document.
    Parse(String),
    /// A fault entry violates a structural constraint.
    Invalid(String),
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::Io(m) => write!(f, "cannot read fault file: {m}"),
            FaultError::Parse(m) => write!(f, "invalid fault file: {m}"),
            FaultError::Invalid(m) => write!(f, "invalid fault entry: {m}"),
        }
    }
}

impl std::error::Error for FaultError {}

/// An ordered, declarative list of [`FaultSpec`] entries.
///
/// Construct one in code (`new` + `push`) or from a fault file
/// ([`from_json`] / [`load`]), then [`compile`] it into the query form the
/// engine consumes. The JSON writer is canonical: serializing a plan and
/// parsing it back yields a bit-identical plan (f64 fields use Rust's
/// shortest round-trip formatting).
///
/// [`from_json`]: FaultPlan::from_json
/// [`load`]: FaultPlan::load
/// [`compile`]: FaultPlan::compile
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    faults: Vec<FaultSpec>,
}

/// Fault-file schema version written and accepted by this crate.
const FILE_VERSION: u64 = 1;

impl FaultPlan {
    /// An empty plan (injects nothing; compiles to an empty schedule).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Appends one fault entry.
    pub fn push(&mut self, spec: FaultSpec) {
        self.faults.push(spec);
    }

    /// The plan's entries, in file order.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.faults
    }

    /// True when the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Validates every entry and builds the compiled [`FaultSchedule`].
    pub fn compile(&self) -> Result<FaultSchedule, FaultError> {
        for spec in &self.faults {
            spec.validate()?;
        }
        Ok(FaultSchedule::build(self))
    }

    /// Serializes the plan to the canonical fault-file JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"version\":{FILE_VERSION},\"faults\":[");
        for (i, spec) in self.faults.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"kind\":\"{}\"", spec.kind_name());
            match *spec {
                FaultSpec::EvictionStorm {
                    start,
                    end,
                    multiplier,
                }
                | FaultSpec::PriceSpike {
                    start,
                    end,
                    multiplier,
                } => {
                    let _ = write!(
                        out,
                        ",\"start_min\":{},\"end_min\":{},\"multiplier\":{}",
                        start.as_minutes(),
                        end.as_minutes(),
                        multiplier
                    );
                }
                FaultSpec::ForecastOutage { start, end } => {
                    let _ = write!(
                        out,
                        ",\"start_min\":{},\"end_min\":{}",
                        start.as_minutes(),
                        end.as_minutes()
                    );
                }
                FaultSpec::CapacityDrop { start, end, cap } => {
                    let _ = write!(
                        out,
                        ",\"start_min\":{},\"end_min\":{},\"cap\":{}",
                        start.as_minutes(),
                        end.as_minutes(),
                        cap
                    );
                }
                FaultSpec::TraceGap { start_hour, hours } => {
                    let _ = write!(out, ",\"start_hour\":{start_hour},\"hours\":{hours}");
                }
                FaultSpec::ChaosCell {
                    ref key_substr,
                    fail_attempts,
                } => {
                    json::push_str(&mut out, "key_substr", key_substr);
                    let _ = write!(out, ",\"fail_attempts\":{fail_attempts}");
                }
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    /// Parses a fault file and validates every entry.
    pub fn from_json(text: &str) -> Result<FaultPlan, FaultError> {
        let doc = json::parse(text.trim_end()).map_err(FaultError::Parse)?;
        let version = doc
            .get("version")
            .and_then(Value::as_u64)
            .ok_or_else(|| FaultError::Parse("missing \"version\" field".into()))?;
        if version != FILE_VERSION {
            return Err(FaultError::Parse(format!(
                "unsupported fault-file version {version} (expected {FILE_VERSION})"
            )));
        }
        let entries = match doc.get("faults") {
            Some(Value::Arr(items)) => items,
            _ => return Err(FaultError::Parse("missing \"faults\" array".into())),
        };
        let mut plan = FaultPlan::new();
        for (i, entry) in entries.iter().enumerate() {
            plan.push(
                parse_spec(entry).map_err(|m| FaultError::Parse(format!("faults[{i}]: {m}")))?,
            );
        }
        for spec in &plan.faults {
            spec.validate()?;
        }
        Ok(plan)
    }

    /// Reads and parses a fault file from disk.
    pub fn load(path: &std::path::Path) -> Result<FaultPlan, FaultError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| FaultError::Io(format!("{}: {e}", path.display())))?;
        FaultPlan::from_json(&text)
    }
}

fn parse_spec(entry: &Value) -> Result<FaultSpec, String> {
    let kind = entry
        .get("kind")
        .and_then(Value::as_str)
        .ok_or("missing \"kind\"")?;
    let req_u64 = |key: &str| {
        entry
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("missing or non-integer \"{key}\""))
    };
    let req_f64 = |key: &str| {
        entry
            .get(key)
            .and_then(Value::as_f64)
            .ok_or(format!("missing or non-numeric \"{key}\""))
    };
    let window = || -> Result<(SimTime, SimTime), String> {
        Ok((
            SimTime::from_minutes(req_u64("start_min")?),
            SimTime::from_minutes(req_u64("end_min")?),
        ))
    };
    match kind {
        "eviction_storm" => {
            let (start, end) = window()?;
            Ok(FaultSpec::EvictionStorm {
                start,
                end,
                multiplier: req_f64("multiplier")?,
            })
        }
        "forecast_outage" => {
            let (start, end) = window()?;
            Ok(FaultSpec::ForecastOutage { start, end })
        }
        "price_spike" => {
            let (start, end) = window()?;
            Ok(FaultSpec::PriceSpike {
                start,
                end,
                multiplier: req_f64("multiplier")?,
            })
        }
        "capacity_drop" => {
            let (start, end) = window()?;
            let cap = req_u64("cap")?;
            let cap = u32::try_from(cap).map_err(|_| format!("cap {cap} out of range"))?;
            Ok(FaultSpec::CapacityDrop { start, end, cap })
        }
        "trace_gap" => Ok(FaultSpec::TraceGap {
            start_hour: req_u64("start_hour")?,
            hours: req_u64("hours")?,
        }),
        "chaos_cell" => {
            let key_substr = entry
                .get("key_substr")
                .and_then(Value::as_str)
                .ok_or("missing \"key_substr\"")?
                .to_owned();
            let attempts = req_u64("fail_attempts")?;
            let fail_attempts = u32::try_from(attempts)
                .map_err(|_| format!("fail_attempts {attempts} out of range"))?;
            Ok(FaultSpec::ChaosCell {
                key_substr,
                fail_attempts,
            })
        }
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec::EvictionStorm {
            start: SimTime::from_hours(10),
            end: SimTime::from_hours(20),
            multiplier: 4.5,
        });
        plan.push(FaultSpec::ForecastOutage {
            start: SimTime::from_hours(30),
            end: SimTime::from_hours(40),
        });
        plan.push(FaultSpec::PriceSpike {
            start: SimTime::from_hours(5),
            end: SimTime::from_hours(6),
            multiplier: 3.0,
        });
        plan.push(FaultSpec::CapacityDrop {
            start: SimTime::from_hours(0),
            end: SimTime::from_hours(12),
            cap: 4,
        });
        plan.push(FaultSpec::TraceGap {
            start_hour: 100,
            hours: 6,
        });
        plan.push(FaultSpec::ChaosCell {
            key_substr: "s42\"\\ε".into(),
            fail_attempts: 2,
        });
        plan
    }

    #[test]
    fn json_round_trips_exactly() {
        let plan = sample_plan();
        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("parse");
        assert_eq!(back, plan);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn empty_plan_round_trips() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let back = FaultPlan::from_json(&plan.to_json()).expect("parse");
        assert_eq!(back, plan);
    }

    #[test]
    fn rejects_bad_documents() {
        assert!(matches!(
            FaultPlan::from_json("not json"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::from_json("{\"faults\":[]}"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::from_json("{\"version\":9,\"faults\":[]}"),
            Err(FaultError::Parse(_))
        ));
        assert!(matches!(
            FaultPlan::from_json("{\"version\":1,\"faults\":[{\"kind\":\"volcano\"}]}"),
            Err(FaultError::Parse(_))
        ));
    }

    #[test]
    fn rejects_invalid_entries() {
        let text = "{\"version\":1,\"faults\":[{\"kind\":\"eviction_storm\",\
                    \"start_min\":100,\"end_min\":100,\"multiplier\":2}]}";
        assert!(matches!(
            FaultPlan::from_json(text),
            Err(FaultError::Invalid(_))
        ));
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec::PriceSpike {
            start: SimTime::ORIGIN,
            end: SimTime::from_hours(1),
            multiplier: f64::NAN,
        });
        assert!(plan.compile().is_err());
        let mut plan = FaultPlan::new();
        plan.push(FaultSpec::TraceGap {
            start_hour: 3,
            hours: 0,
        });
        assert!(plan.compile().is_err());
    }

    #[test]
    fn kind_metadata_covers_every_variant() {
        for spec in sample_plan().specs() {
            assert!(!spec.kind_name().is_empty());
            let (start, end) = spec.window_minutes();
            if !matches!(spec, FaultSpec::ChaosCell { .. }) {
                assert!(start < end, "{}", spec.kind_name());
            }
            assert!(spec.magnitude() > 0.0);
        }
    }

    #[test]
    fn load_reports_missing_files() {
        let err = FaultPlan::load(std::path::Path::new("/nonexistent/faults.json"))
            .expect_err("missing file");
        assert!(matches!(err, FaultError::Io(_)));
    }
}
