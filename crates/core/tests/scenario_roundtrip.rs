//! Property tests for the scenario text format and registry: randomly
//! generated specs must (1) print to text that parses back to the *same*
//! value (`parse(print(spec)) == spec`), (2) keep their fingerprint across
//! the round-trip, (3) construct through the protocol registry, and
//! (4) normalize to a share vector summing to 1 whenever they validate.

use fairness_core::miner::{normalize_shares, two_miner};
use fairness_core::registry;
use fairness_core::scenario::text::parse_scenarios;
use fairness_core::scenario::{
    print_scenarios, Checkpoints, ProtocolSpec, ScenarioSpec, SharesSpec,
};
use proptest::prelude::*;

/// One of the eight base protocols, parameterized by the sampled values.
fn base_protocol(selector: u8, w: f64, v: f64, shards: u8) -> ProtocolSpec {
    match selector % 8 {
        0 => ProtocolSpec::new("pow").with("w", w),
        1 => ProtocolSpec::new("ml-pos").with("w", w),
        2 => ProtocolSpec::new("sl-pos").with("w", w),
        3 => ProtocolSpec::new("fsl-pos").with("w", w),
        4 => ProtocolSpec::new("c-pos")
            .with("w", w)
            .with("v", v)
            .with("shards", f64::from(shards)),
        5 => ProtocolSpec::new("neo").with("w", w),
        6 => ProtocolSpec::new("algorand").with("v", w),
        _ => ProtocolSpec::new("eos").with("w", w).with("v", v),
    }
}

/// Optionally wraps the base in one of the registry's adapters. Only
/// single-winner bases take the adversary adapter (the machine panics on
/// reward-splitting protocols by design), so the adversary arm reuses a
/// single-winner inner.
fn protocol(
    selector: u8,
    adapter: u8,
    w: f64,
    v: f64,
    shards: u8,
    gamma: f64,
    tries: u32,
) -> ProtocolSpec {
    let base = base_protocol(selector, w, v, shards);
    match adapter % 4 {
        0 => base,
        1 => ProtocolSpec::new("cash-out")
            .with("inner", base)
            .with("miner", 0.0)
            .with("stake", 0.25),
        2 => ProtocolSpec::new("mining-pool")
            .with("inner", base)
            .with("members", vec![0.0, 1.0]),
        _ => {
            let single_winner = base_protocol(selector % 4, w, 0.0, 1);
            let strategy = match tries % 3 {
                0 => ProtocolSpec::new("honest"),
                1 => ProtocolSpec::new("selfish-mining").with("gamma", gamma),
                _ => ProtocolSpec::new("stake-grinding").with("tries", f64::from(tries)),
            };
            ProtocolSpec::new("adversary")
                .with("inner", single_winner)
                .with("strategy", strategy)
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn scenario(
    selector: u8,
    adapter: u8,
    w: f64,
    v: f64,
    shards: u8,
    gamma: f64,
    tries: u32,
    a: f64,
    period: u64,
    reps: usize,
    horizon: u64,
    count: usize,
    flavor: u8,
    flags: u8,
) -> ScenarioSpec {
    let checkpoints = match flavor % 3 {
        0 => Checkpoints::Linear { horizon, count },
        1 => Checkpoints::Log {
            horizon,
            per_decade: count.clamp(1, 8),
        },
        _ => {
            let step = (horizon / count as u64).max(1);
            Checkpoints::Explicit((1..=count as u64).map(|i| i * step).collect())
        }
    };
    let mut builder = ScenarioSpec::builder(
        format!("prop {selector}-{adapter}-{flavor} a={a}"),
        protocol(selector, adapter, w, v, shards, gamma, tries),
    )
    .shares(&two_miner(a))
    .checkpoints(checkpoints);
    if flags & 1 != 0 {
        builder = builder.repetitions(reps);
    }
    if flags & 2 != 0 {
        builder = builder.withholding(period);
    }
    if flags & 4 != 0 {
        let engine = ["pow", "ml-pos", "sl-pos", "fsl-pos", "c-pos"][(flags >> 3) as usize % 5];
        builder = builder.system(engine, horizon.max(10), u64::from(flags));
    }
    builder.build()
}

/// A non-negative share from one of four magnitude classes: zero, a
/// subnormal, a finite number of any exponent, or one within a factor of
/// two of `f64::MAX` (two of those overflow the sum).
fn share(class: u8, bits: u64) -> f64 {
    let mantissa = bits & ((1 << 52) - 1);
    match class {
        0..=3 => 0.0,
        4..=7 => f64::from_bits(mantissa),
        8..=14 => f64::from_bits((((bits >> 52) % 0x7FF) << 52) | mantissa),
        _ => f64::from_bits((0x7FE << 52) | mantissa),
    }
}

proptest! {
    #[test]
    fn validated_shares_normalize_to_one(
        entries in proptest::collection::vec((0u8..16, any::<u64>()), 1..41),
        empirical in any::<bool>(),
    ) {
        let shares: Vec<f64> = entries.iter().map(|&(class, bits)| share(class, bits)).collect();
        let mut spec = ScenarioSpec::builder("shares", ProtocolSpec::new("ml-pos").with("w", 0.01))
            .two_miner(0.5)
            .linear(100, 5)
            .build();
        spec.shares = if empirical {
            SharesSpec::Empirical(shares)
        } else {
            SharesSpec::Explicit(shares)
        };
        if spec.validate().is_ok() {
            let normalized = normalize_shares(&spec.initial_shares());
            prop_assert!(normalized.iter().all(|s| s.is_finite()), "{:?}", spec.shares);
            let sum: f64 = normalized.iter().sum();
            prop_assert!((sum - 1.0).abs() <= 1e-12, "sum {} for {:?}", sum, spec.shares);
        }
    }

    #[test]
    fn parse_print_round_trips_and_preserves_fingerprints(
        selector in 0u8..8,
        adapter in 0u8..4,
        w in 1e-6f64..0.2,
        v in 0.0f64..0.5,
        shards in 1u8..65,
        gamma in 0.0f64..1.0,
        tries in 1u32..9,
        a in 0.01f64..0.99,
        period in 1u64..5000,
        reps in 1usize..20_000,
        horizon in 10u64..100_000,
        count in 1usize..40,
        flavor in 0u8..3,
        flags in 0u8..64,
    ) {
        let spec = scenario(
            selector, adapter, w, v, shards, gamma, tries, a, period, reps, horizon, count,
            flavor, flags,
        );
        let text = print_scenarios(std::slice::from_ref(&spec));
        let parsed = parse_scenarios(&text).expect("canonical text parses");
        prop_assert_eq!(&parsed, &vec![spec.clone()], "round-trip changed the spec:\n{}", text);
        prop_assert_eq!(parsed[0].fingerprint(), spec.fingerprint());
        // Printing is a fixed point (canonical form).
        prop_assert_eq!(print_scenarios(&parsed), text);
    }

    #[test]
    fn generated_specs_construct_through_the_registry(
        selector in 0u8..8,
        adapter in 0u8..4,
        w in 1e-6f64..0.2,
        v in 0.0f64..0.5,
        shards in 1u8..65,
        gamma in 0.0f64..1.0,
        tries in 1u32..9,
        a in 0.01f64..0.99,
    ) {
        let spec = scenario(
            selector, adapter, w, v, shards, gamma, tries, a, 100, 10, 1000, 5, 0, 0,
        );
        let protocol = registry::construct(&spec.protocol, &spec.initial_shares());
        prop_assert!(
            protocol.is_ok(),
            "spec failed to construct: {} ({:?})",
            spec.protocol,
            protocol.err()
        );
    }

    #[test]
    fn multi_scenario_files_round_trip(
        a1 in 0.01f64..0.99,
        a2 in 0.01f64..0.99,
        w in 1e-6f64..0.2,
    ) {
        let specs = vec![
            scenario(0, 0, w, 0.0, 1, 0.0, 1, a1, 100, 10, 1000, 5, 0, 1),
            scenario(2, 3, w, 0.0, 1, 0.5, 2, a2, 100, 10, 2000, 7, 2, 0),
        ];
        let text = print_scenarios(&specs);
        let parsed = parse_scenarios(&text).expect("two-block file parses");
        prop_assert_eq!(parsed, specs);
    }
}

/// A repeated key must be rejected everywhere a spec can enter the system:
/// the `.scn` parser (with the offending line number), `validate()` on
/// builder-made specs, and the registry's argument check. Constructors read
/// the first occurrence, so a silently-accepted duplicate would diverge from
/// what the printed form round-trips to.
#[test]
fn duplicate_parameters_are_rejected_at_every_layer() {
    // Parser: duplicate protocol parameter, error names the line.
    let text = "\
scenario \"dup\" {
  protocol = pow(w = 0.01, w = 0.02)
  shares = [0.2, 0.8]
  checkpoints = linear(1000, 5)
}
";
    let err = parse_scenarios(text).expect_err("duplicate parameter must not parse");
    let message = err.to_string();
    assert!(message.contains("line 2"), "no line number in: {message}");
    assert!(
        message.contains("duplicate"),
        "not a duplicate error: {message}"
    );

    // Parser: duplicate scenario-level field.
    let text = "\
scenario \"dup\" {
  protocol = pow(w = 0.01)
  shares = [0.2, 0.8]
  shares = [0.5, 0.5]
  checkpoints = linear(1000, 5)
}
";
    let err = parse_scenarios(text).expect_err("duplicate field must not parse");
    let message = err.to_string();
    assert!(message.contains("line 4"), "no line number in: {message}");
    assert!(
        message.contains("duplicate"),
        "not a duplicate error: {message}"
    );

    // Builder path: validate() walks the protocol tree. (The builder's
    // `build()` itself panics on invalid specs, so assemble one directly.)
    let spec = ScenarioSpec {
        name: "dup".to_owned(),
        protocol: ProtocolSpec::new("pow").with("w", 0.01).with("w", 0.02),
        shares: SharesSpec::Explicit(two_miner(0.2)),
        checkpoints: Checkpoints::Linear {
            horizon: 1000,
            count: 5,
        },
        repetitions: None,
        withholding: None,
        system: None,
    };
    let error = spec
        .validate()
        .expect_err("validate must reject duplicates");
    assert_eq!(error.code(), "duplicate-param");
    let message = error.to_string();
    assert!(
        message.contains('w'),
        "message should name the key: {message}"
    );

    // Registry: construction rejects duplicates even without validate().
    let err = registry::construct(
        &ProtocolSpec::new("pow").with("w", 0.01).with("w", 0.02),
        &two_miner(0.2),
    )
    .expect_err("registry must reject duplicates");
    let message = err.to_string();
    assert!(
        message.contains("more than once"),
        "unexpected registry error: {message}"
    );
}
