//! Property suite for the fault-file format: serializing any `FaultPlan`
//! and parsing it back must reproduce the plan bit-for-bit (including the
//! f64 multipliers), and the canonical writer must be a fixed point.

use gaia_fault::{FaultPlan, FaultSpec};
use gaia_time::SimTime;
use proptest::prelude::*;

const KEYS: [&str; 4] = ["", "s42", "carbon-time/sa-au", "quote\"back\\slash\tté"];

type RawSpec = (u8, u64, u64, f64, u64, usize);

fn spec_from((kind, a, len, mult, small, strdx): RawSpec) -> FaultSpec {
    let start = SimTime::from_minutes(a);
    let end = SimTime::from_minutes(a + len);
    match kind {
        0 => FaultSpec::EvictionStorm {
            start,
            end,
            multiplier: mult,
        },
        1 => FaultSpec::ForecastOutage { start, end },
        2 => FaultSpec::PriceSpike {
            start,
            end,
            multiplier: mult,
        },
        3 => FaultSpec::CapacityDrop {
            start,
            end,
            cap: small as u32,
        },
        4 => FaultSpec::TraceGap {
            start_hour: a % 8760,
            hours: 1 + len % 48,
        },
        _ => FaultSpec::ChaosCell {
            key_substr: KEYS[strdx].to_string(),
            fail_attempts: small as u32,
        },
    }
}

fn multiplier_bits(spec: &FaultSpec) -> Option<u64> {
    match *spec {
        FaultSpec::EvictionStorm { multiplier, .. } | FaultSpec::PriceSpike { multiplier, .. } => {
            Some(multiplier.to_bits())
        }
        _ => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn fault_plan_round_trips_bit_identically(
        raw in collection::vec(
            (0u8..6, 0u64..20_000, 1u64..5_000, 0.1f64..32.0, 1u64..5, 0usize..4),
            0..8,
        )
    ) {
        let mut plan = FaultPlan::new();
        for entry in raw {
            plan.push(spec_from(entry));
        }

        let text = plan.to_json();
        let back = FaultPlan::from_json(&text).expect("canonical output parses");

        // Structurally equal, f64 fields bit-equal, and the writer is a
        // fixed point (serialize . parse . serialize is the identity).
        prop_assert_eq!(&back, &plan);
        for (a, b) in plan.specs().iter().zip(back.specs()) {
            prop_assert_eq!(multiplier_bits(a), multiplier_bits(b));
        }
        prop_assert_eq!(back.to_json(), text);

        // Both copies compile to the same schedule.
        let compiled = plan.compile().expect("generated plans are valid");
        prop_assert_eq!(back.compile().expect("round-tripped plan compiles"), compiled);
    }
}
