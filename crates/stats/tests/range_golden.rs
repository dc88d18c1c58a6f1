//! Golden digests pinning the integer range draw.
//!
//! The hash-level network draws its synthetic traffic through one range
//! method (`1..20`, `1..100`, `5..50` and a recipient offset in `0..7`),
//! and ML-PoS breaks a tie between `k` simultaneous winners with `0..k`.
//! The draw takes two output words, high word first, and reduces their
//! 128-bit concatenation modulo the span. Each digest below covers 1,000
//! draws of one range at one seed; the edge spans (1, 2⁶³ and `u64::MAX`)
//! pin the reduction itself. A change that moves a digest moves the
//! hash-level network's bytes. Regenerate ONLY for a deliberate change of
//! the simulation's semantics.

use fairness_stats::cache::StableHasher;
use fairness_stats::rng::Xoshiro256StarStar;
use std::ops::Range;

/// Draws per digest.
const DRAWS: usize = 1_000;

/// A pinned range, in the integer type its call site draws.
#[derive(Debug, Clone)]
enum Span {
    U64(Range<u64>),
    Usize(Range<usize>),
}

fn draw(rng: &mut Xoshiro256StarStar, span: &Span) -> u64 {
    match span {
        Span::U64(r) => {
            let x = rng.gen_range(r.clone());
            assert!(r.contains(&x), "{x} outside {r:?}");
            x
        }
        Span::Usize(r) => {
            let x = rng.gen_range(r.start as u64..r.end as u64) as usize;
            assert!(r.contains(&x), "{x} outside {r:?}");
            x as u64
        }
    }
}

fn digest(span: &Span, seed: u64) -> u64 {
    let mut rng = Xoshiro256StarStar::new(seed);
    let mut h = StableHasher::new();
    for _ in 0..DRAWS {
        h.write_u64(draw(&mut rng, span));
    }
    // The stream position after the draws: two words per draw.
    h.write_u64(rng.next());
    h.finish()
}

const SEEDS: [u64; 3] = [1, 1_365_785_858, 0x5EED_0500];

/// (range, digest at each of `SEEDS`).
fn golden() -> Vec<(Span, [u64; 3])> {
    vec![
        (
            Span::U64(1..20),
            [0x5cda82e08a92d3b5, 0x10ff8d04e6171533, 0xdf667e98f863b2a9],
        ),
        (
            Span::U64(1..100),
            [0x47e3468909e20c14, 0x47365ce6ac225a36, 0x2e38362efb54bad5],
        ),
        (
            Span::U64(5..50),
            [0x0afa26c59663e301, 0x9d3d208c01b9abb9, 0xbca56443aa9075f1],
        ),
        (
            Span::Usize(0..7),
            [0x9444c3b7d05e61bb, 0xa70f0b02651ff225, 0x410340798775cbe3],
        ),
        (
            Span::Usize(0..3),
            [0x6e6934b35c4512fa, 0x7800c5f92fa13988, 0x1b0f579e92f82073],
        ),
        (
            Span::U64(9..10),
            [0xa3f088b8cc9ae254, 0x919e57bb9d069329, 0x8478312fdd8c37bf],
        ),
        (
            Span::U64(3..3 + (1 << 63)),
            [0xd9e7e5435d41b6d5, 0x2293cda785b653a2, 0x4d060140a191078c],
        ),
        (
            Span::U64(0..u64::MAX),
            [0x18c7df4ad98d9a1e, 0x20a3dbc02d8799eb, 0xa4b4b712e10bf660],
        ),
    ]
}

#[test]
fn range_draws_match_golden_digests() {
    let mut failures = Vec::new();
    for (span, expect) in golden() {
        for (&seed, &want) in SEEDS.iter().zip(&expect) {
            let got = digest(&span, seed);
            if got != want {
                failures.push(format!(
                    "{span:?} seed {seed}: got {got:#018x}, want {want:#018x}"
                ));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
