//! Golden determinism pins: the generator's output is part of the
//! reproducibility contract (EXPERIMENTS.md), so accidental changes to it
//! must fail loudly. If you change the generator *intentionally*, update
//! the hashes and note the change in CHANGES.md.

use btb_workloads::{AppSpec, InputConfig};

/// FNV-1a over the packed record stream.
fn trace_hash(trace: &btb_trace::Trace) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in trace.records() {
        mix(r.pc);
        mix(r.target);
        mix(u64::from(r.kind.code()) | (u64::from(r.taken) << 8) | (u64::from(r.inst_gap) << 16));
    }
    h
}

#[test]
fn golden_hashes_are_stable() {
    for (name, input, expected) in GOLDEN {
        let spec = AppSpec::by_name(name).expect("built-in app");
        let trace = spec.generate(InputConfig::input(*input), 10_000);
        let h = trace_hash(&trace);
        assert_eq!(
            h, *expected,
            "{name}#{input}: generator output changed (got {h:#018x}); if intentional, update GOLDEN"
        );
    }
}

const GOLDEN: &[(&str, u32, u64)] = &[
    // Regenerated when the generator moved from rand's StdRng to the in-repo
    // sim-support xoshiro256++ RNG (same structure, different stream).
    ("kafka", 0, 0x4a471ffd6769c4f3),
    ("kafka", 1, 0xfff63095b87b23a2),
    ("verilator", 0, 0xadf6589fac085a1b),
    ("python", 2, 0x201ccdd8ac4f7322),
];
