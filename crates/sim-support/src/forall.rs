//! A minimal seeded property-testing harness (the in-repo `proptest`
//! replacement).
//!
//! A property test is three pieces: a *generator* drawing a random input
//! from a [`SimRng`], a *property* asserting over that input, and (optional)
//! a *shrinker* proposing smaller variants of a failing input. The
//! [`forall!`] macro wires them up:
//!
//! ```
//! use sim_support::forall;
//!
//! forall!(cases: 32, gen: |rng| {
//!     let len = rng.gen_range(0usize..64);
//!     (0..len).map(|_| rng.gen_range(0u64..100)).collect::<Vec<u64>>()
//! }, shrink: sim_support::forall::shrink_halves, prop: |xs| {
//!     let mut sorted = xs.clone();
//!     sorted.sort_unstable();
//!     assert_eq!(sorted.len(), xs.len());
//! });
//! ```
//!
//! Every case runs with a seed derived deterministically from the test
//! location and the case index, so a red run is a *replayable* red run: the
//! panic message prints `FORALL_SEED=<seed>`, and setting that environment
//! variable reruns exactly the failing case (skipping all others). On
//! failure the shrinker is applied greedily — for vectors, halving — and the
//! smallest still-failing input is reported.

use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::SimRng;

/// Environment variable that replays one specific failing case.
pub const SEED_ENV: &str = "FORALL_SEED";

/// Runs `cases` property-test cases. Prefer the [`forall!`] macro, which
/// fills in `location` for you.
///
/// # Panics
///
/// Panics (failing the enclosing test) on the first case whose property
/// fails, after shrinking, with the case seed and the shrunk input in the
/// message.
pub fn run<T, G, S, P>(location: &str, cases: u32, generate: G, shrink: S, property: P)
where
    T: std::fmt::Debug,
    G: Fn(&mut SimRng) -> T,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    // simlint: allow(D04) -- FORALL_SEED replay knob is documented in README.md
    let replay: Option<u64> = std::env::var(SEED_ENV).ok().map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{SEED_ENV} must be a u64, got {v:?}"))
    });
    // FNV-1a over the test location: stable across runs and platforms.
    let base = crate::fault::fnv1a(location.as_bytes());
    let seeds: Vec<u64> = match replay {
        Some(seed) => vec![seed],
        None => (0..u64::from(cases)).map(|i| mix(base, i)).collect(),
    };

    for seed in seeds {
        let mut rng = SimRng::seed_from_u64(seed);
        let input = generate(&mut rng);
        if let Err(message) = check(&property, &input) {
            let (minimal, shrunk_message, steps) = shrink_loop(&property, &shrink, input, message);
            panic!(
                "property failed at {location} (replay with {SEED_ENV}={seed})\n\
                 after {steps} shrink step(s), minimal failing input:\n{minimal:#?}\n\
                 failure: {shrunk_message}"
            );
        }
    }
}

/// Runs the property, converting a panic into the panic's message.
fn check<T, P: Fn(&T)>(property: &P, input: &T) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(|| property(input))) {
        Ok(()) => Ok(()),
        Err(payload) => Err(panic_message(&*payload)),
    }
}

/// Greedily applies the shrinker while the property keeps failing. Bounded,
/// so a pathological shrinker cannot loop forever.
fn shrink_loop<T, S, P>(
    property: &P,
    shrink: &S,
    mut input: T,
    mut message: String,
) -> (T, String, u32)
where
    T: std::fmt::Debug,
    S: Fn(&T) -> Vec<T>,
    P: Fn(&T),
{
    let mut steps = 0u32;
    'outer: while steps < 64 {
        for candidate in shrink(&input) {
            if let Err(m) = check(property, &candidate) {
                input = candidate;
                message = m;
                steps += 1;
                continue 'outer;
            }
        }
        break;
    }
    (input, message, steps)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// SplitMix-style mix of the base seed and case index.
fn mix(base: u64, i: u64) -> u64 {
    let mut z = base ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z ^ (z >> 31)
}

/// Shrinker for vector inputs: proposes the two halves (shrinking by
/// halving), converging on a minimal failing slice in O(log n) rounds.
#[allow(clippy::ptr_arg)] // must match the Fn(&T) -> Vec<T> shrinker shape
pub fn shrink_halves<T: Clone>(v: &Vec<T>) -> Vec<Vec<T>> {
    if v.len() < 2 {
        return Vec::new();
    }
    let mid = v.len() / 2;
    vec![v[..mid].to_vec(), v[mid..].to_vec()]
}

/// Shrinker for inputs with no useful smaller form.
pub fn shrink_none<T>(_: &T) -> Vec<T> {
    Vec::new()
}

/// Runs a seeded property test; see the [module docs](self) for the anatomy.
///
/// Two forms:
///
/// ```text
/// forall!(cases: N, gen: |rng| ..., prop: |input| ...);
/// forall!(cases: N, gen: |rng| ..., shrink: f, prop: |input| ...);
/// ```
///
/// The property takes the input by reference and asserts with the ordinary
/// `assert!` family.
#[macro_export]
macro_rules! forall {
    (cases: $cases:expr, gen: $gen:expr, prop: $prop:expr $(,)?) => {
        $crate::forall::run(
            concat!(file!(), ":", line!()),
            $cases,
            $gen,
            $crate::forall::shrink_none,
            $prop,
        )
    };
    (cases: $cases:expr, gen: $gen:expr, shrink: $shrink:expr, prop: $prop:expr $(,)?) => {
        $crate::forall::run(concat!(file!(), ":", line!()), $cases, $gen, $shrink, $prop)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counter = std::cell::Cell::new(0u32);
        run(
            "forall-count",
            16,
            |rng| {
                counter.set(counter.get() + 1);
                rng.next_u64()
            },
            shrink_none,
            |_| {},
        );
        assert_eq!(counter.get(), 16);
    }

    #[test]
    fn failing_property_reports_seed_and_shrinks() {
        let result = catch_unwind(|| {
            run(
                "forall-fail",
                32,
                |rng| {
                    let len = rng.gen_range(4usize..64);
                    (0..len)
                        .map(|_| rng.gen_range(0u64..100))
                        .collect::<Vec<u64>>()
                },
                shrink_halves,
                |xs: &Vec<u64>| assert!(xs.iter().all(|&x| x < 90), "found big element"),
            );
        });
        let message = panic_message(&*result.expect_err("property must fail"));
        assert!(message.contains(SEED_ENV), "no replay seed in: {message}");
        assert!(
            message.contains("minimal failing input"),
            "no input in: {message}"
        );
    }

    #[test]
    fn shrinking_halves_to_a_small_witness() {
        // The property rejects any vector containing 7; shrinking must cut
        // the witness down hard (≤ a quarter of the typical original).
        let result = catch_unwind(|| {
            run(
                "forall-shrink",
                64,
                |rng| {
                    (0..64)
                        .map(|_| rng.gen_range(0u64..10))
                        .collect::<Vec<u64>>()
                },
                shrink_halves,
                |xs: &Vec<u64>| assert!(!xs.contains(&7)),
            );
        });
        let message = panic_message(&*result.expect_err("must fail: 7 is common"));
        // The minimal input debug-prints its elements; count them.
        let shrunk_len = message.lines().filter(|l| l.trim().ends_with(',')).count();
        assert!(
            shrunk_len <= 16,
            "shrinker left {shrunk_len} elements:\n{message}"
        );
    }

    #[test]
    fn seeds_differ_across_cases_but_not_across_runs() {
        let collect = || {
            let seeds = std::cell::RefCell::new(Vec::new());
            run(
                "forall-seeds",
                8,
                |rng| {
                    seeds.borrow_mut().push(rng.next_u64());
                },
                shrink_none,
                |_| {},
            );
            seeds.into_inner()
        };
        let a = collect();
        let b = collect();
        assert_eq!(a, b, "case seeds must be stable across runs");
        let mut unique = a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), a.len(), "case seeds must differ");
    }
}
