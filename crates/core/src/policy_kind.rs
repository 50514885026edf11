//! The policy zoo: one table naming every replacement policy the CLI can
//! run, and the enum dispatch generated from it.
//!
//! Each row of the `policies!` table gives a member's CLI name, its
//! [`PolicyKind`] variant, the concrete policy type, the constructor the
//! name builds, and whether the policy reads temperature hints. The macro
//! generates [`PolicyKind`], [`POLICY_NAMES`], [`PolicyKind::by_name`] and
//! the [`ReplacementPolicy`] dispatch from those rows, so a member is named
//! exactly once and cannot be half-added.
//!
//! [`PolicyKind`] exists so a run over a name (`btbsim --policy`) compiles
//! one `Frontend<Btb<PolicyKind>>` instead of one simulation loop per policy
//! type: each [`ReplacementPolicy`] method is a `match` that the optimizer
//! turns into a jump table. Unlike `Box<dyn ReplacementPolicy>`, the policy
//! state lives inline (no pointer chase on the hot path) and the
//! per-variant bodies stay inlinable. Code that knows its policy statically
//! (every figure) passes the concrete type and stays monomorphized.

// A glob, so the table below is the only place a member is named.
use btb_model::policies::*;
use btb_model::{AccessContext, BtbEntry, Geometry, ReplacementPolicy, Victim};

use crate::policy::ThermometerPolicy;

/// Generates the zoo's enum, name list, builder and dispatch from one table
/// of `"name" => Variant(Type) = constructor, hints: bool;` rows.
macro_rules! policies {
    ($(
        $(#[doc = $doc:literal])*
        $name:literal => $variant:ident($ty:ty) = $ctor:expr, hints: $hints:literal;
    )*) => {
        /// Every policy reachable through [`POLICY_NAMES`], as one
        /// inline-stored enum.
        #[derive(Clone, Debug)]
        pub enum PolicyKind {
            $($(#[doc = $doc])* $variant($ty),)*
        }

        /// The CLI policy vocabulary (`btbsim --policy`), in table order.
        /// [`PolicyKind::by_name`] builds each entry.
        pub const POLICY_NAMES: [&str; [$($name),*].len()] = [$($name),*];

        impl PolicyKind {
            /// Builds the policy for one of the [`POLICY_NAMES`], or `None`
            /// for an unknown name.
            pub fn by_name(name: &str) -> Option<Self> {
                match name {
                    $($name => Some(Self::$variant($ctor)),)*
                    _ => None,
                }
            }

            /// Whether this policy reads temperature hints, so a run should
            /// profile a training trace for it.
            pub fn wants_hints(&self) -> bool {
                match self {
                    $(Self::$variant(_) => $hints,)*
                }
            }
        }

        impl ReplacementPolicy for PolicyKind {
            fn name(&self) -> &'static str {
                match self {
                    $(Self::$variant(p) => p.name(),)*
                }
            }

            fn reset(&mut self, geometry: &Geometry) {
                match self {
                    $(Self::$variant(p) => p.reset(geometry),)*
                }
            }

            fn on_hit(&mut self, set: usize, way: usize, ctx: &AccessContext) {
                match self {
                    $(Self::$variant(p) => p.on_hit(set, way, ctx),)*
                }
            }

            fn on_fill(&mut self, set: usize, way: usize, ctx: &AccessContext) {
                match self {
                    $(Self::$variant(p) => p.on_fill(set, way, ctx),)*
                }
            }

            fn choose_victim(
                &mut self,
                set: usize,
                resident: &[BtbEntry],
                ctx: &AccessContext,
            ) -> Victim {
                match self {
                    $(Self::$variant(p) => p.choose_victim(set, resident, ctx),)*
                }
            }

            fn on_replace(
                &mut self,
                set: usize,
                way: usize,
                evicted: &BtbEntry,
                ctx: &AccessContext,
            ) {
                match self {
                    $(Self::$variant(p) => p.on_replace(set, way, evicted, ctx),)*
                }
            }

            fn on_invalidate(&mut self, set: usize, way: usize, last: usize) {
                match self {
                    $(Self::$variant(p) => p.on_invalidate(set, way, last),)*
                }
            }

            fn needs_oracle(&self) -> bool {
                match self {
                    $(Self::$variant(p) => p.needs_oracle(),)*
                }
            }
        }
    };
}

policies! {
    /// Classic least-recently-used (the baseline).
    "lru" => Lru(Lru) = Lru::new(), hints: false;
    /// Insertion-order eviction.
    "fifo" => Fifo(Fifo) = Fifo::new(), hints: false;
    /// Tree pseudo-LRU.
    "plru" => Plru(PseudoLru) = PseudoLru::new(), hints: false;
    /// Uniform-random victim (seeded).
    "random" => Random(Random) = Random::with_seed(0x5eed), hints: false;
    /// Static RRIP.
    "srrip" => Srrip(Srrip) = Srrip::new(), hints: false;
    /// Dynamic RRIP with set dueling.
    "drrip" => Drrip(Drrip) = Drrip::new(), hints: false;
    /// Temperature-hinted RRIP.
    "trrip" => Trrip(Trrip) = Trrip::new(), hints: true;
    /// Signature-based hit prediction.
    "ship" => Ship(Ship) = Ship::new(), hints: false;
    /// Global-history reference prediction.
    "ghrp" => Ghrp(Ghrp) = Ghrp::new(GhrpConfig::default()), hints: false;
    /// OPT-trained friendliness prediction.
    "hawkeye" => Hawkeye(Hawkeye) = Hawkeye::new(HawkeyeConfig::default()), hints: false;
    /// Belady's offline optimum (needs the next-use oracle).
    "opt" => Opt(BeladyOpt) = BeladyOpt::new(), hints: false;
    /// The paper's profile-guided policy.
    "thermometer" => Thermometer(ThermometerPolicy) = ThermometerPolicy::new(), hints: true;
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each constructed policy reports its display label, and only OPT
    /// asks for the oracle.
    #[test]
    fn covers_the_cli_vocabulary_with_matching_labels() {
        let labels = [
            ("lru", "LRU"),
            ("fifo", "FIFO"),
            ("plru", "PLRU"),
            ("random", "Random"),
            ("srrip", "SRRIP"),
            ("drrip", "DRRIP"),
            ("trrip", "TRRIP"),
            ("ship", "SHiP"),
            ("ghrp", "GHRP"),
            ("hawkeye", "Hawkeye"),
            ("opt", "OPT"),
            ("thermometer", "Thermometer"),
        ];
        assert_eq!(labels.map(|(name, _)| name), POLICY_NAMES);
        for (name, label) in labels {
            let kind = PolicyKind::by_name(name).expect("known name");
            assert_eq!(kind.name(), label);
            assert_eq!(kind.needs_oracle(), name == "opt", "{name}");
            assert_eq!(
                kind.wants_hints(),
                name == "trrip" || name == "thermometer",
                "{name}"
            );
        }
        assert!(PolicyKind::by_name("nosuch").is_none());
    }

    #[test]
    fn enum_dispatch_matches_direct_policy() {
        use btb_model::{Btb, BtbConfig};
        use btb_trace::BranchKind;

        let mut direct = Btb::new(BtbConfig::new(16, 4), Lru::new());
        let mut wrapped = Btb::new(
            BtbConfig::new(16, 4),
            PolicyKind::by_name("lru").expect("lru is known"),
        );
        for i in 0..500u64 {
            let pc = (i * 13) % 97;
            let a = direct.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            let b = wrapped.access_taken(pc, pc + 1, BranchKind::UncondDirect, u64::MAX);
            assert_eq!(a, b, "diverged at access {i}");
        }
        assert_eq!(direct.stats(), wrapped.stats());
    }
}
