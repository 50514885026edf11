//! Incremental hint recompute: the online counterpart of
//! [`OptProfile::measure`].
//!
//! The paper's pipeline is offline — one full trace, one OPT replay, one
//! hint table. A serving deployment (the `hintd` server) instead receives
//! the profile stream in batches and must keep a hint table continuously
//! fresh without replaying history. [`IncrementalProfiler`] provides that
//! entry point: each absorbed batch is replayed under Belady's OPT *within
//! its own window* and the per-branch counters are merged into the
//! accumulated profile; committing rebuilds the [`HintTable`] from the
//! merged counters.
//!
//! Windowed OPT is an approximation of whole-trace OPT (the oracle cannot
//! see reuse across batch boundaries, so long-range reuse measures slightly
//! colder), but it is **deterministic in the batch sequence**: the same
//! batches absorbed in the same order produce a bit-identical profile and
//! table, at any commit cadence. That determinism is what the hint server's
//! crash-recovery contract (journal replay ⇒ byte-identical table) rests
//! on.

use btb_model::BtbConfig;
use btb_trace::Trace;

use crate::hints::HintTable;
use crate::profile::OptProfile;
use crate::temperature::TemperatureConfig;

/// Accumulates per-batch OPT measurements and serves a committed hint
/// table.
///
/// Absorbing is cheap-ish (one OPT replay over the batch); committing
/// rebuilds the table from the merged counters. The two are split so a
/// server can absorb under load and commit on its own cadence — the
/// committed table is always a pure function of the absorbed batch
/// sequence, never of the commit schedule.
///
/// # Examples
///
/// ```
/// use btb_model::BtbConfig;
/// use btb_trace::{BranchKind, BranchRecord, Trace};
/// use thermometer::{IncrementalProfiler, TemperatureConfig};
///
/// let mut inc = IncrementalProfiler::new(BtbConfig::new(16, 4), TemperatureConfig::paper_default());
/// let mut batch = Trace::new("b0");
/// for _ in 0..10 {
///     batch.push(BranchRecord::taken(0x40, 0x80, BranchKind::UncondDirect, 0));
/// }
/// inc.absorb(&batch);
/// assert_eq!(inc.commit().hint(0x40), 2, "a 90% hit-to-taken branch is hot");
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalProfiler {
    profile: OptProfile,
    btb: BtbConfig,
    temperature: TemperatureConfig,
    table: HintTable,
    batches: u64,
    dirty: bool,
}

impl IncrementalProfiler {
    /// Creates an empty profiler for the given BTB geometry and temperature
    /// thresholds. The initial committed table is empty (every branch
    /// coldest), exactly like an unprofiled binary.
    pub fn new(btb: BtbConfig, temperature: TemperatureConfig) -> Self {
        Self {
            profile: OptProfile::default(),
            btb,
            temperature,
            table: HintTable::default(),
            batches: 0,
            dirty: false,
        }
    }

    /// Replays `batch` under OPT (windowed to the batch) and merges the
    /// counters into the accumulated profile. The committed table is *not*
    /// refreshed — call [`commit`](Self::commit) for that.
    pub fn absorb(&mut self, batch: &Trace) {
        let window = OptProfile::measure(batch, self.btb);
        self.profile.merge(&window);
        self.batches += 1;
        self.dirty = true;
    }

    /// Rebuilds the committed hint table from the accumulated profile (a
    /// no-op when nothing was absorbed since the last commit) and returns
    /// it.
    pub fn commit(&mut self) -> &HintTable {
        if self.dirty {
            self.table = HintTable::from_profile(&self.profile, &self.temperature);
            self.dirty = false;
        }
        &self.table
    }

    /// The last committed table. Absorbed-but-uncommitted batches are not
    /// reflected — this is exactly the "last committed hint table" a
    /// degraded server keeps serving.
    pub fn table(&self) -> &HintTable {
        &self.table
    }

    /// Whether batches were absorbed since the last commit.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Batches absorbed since construction.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// The accumulated (merged) profile.
    pub fn profile(&self) -> &OptProfile {
        &self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btb_trace::{BranchKind, BranchRecord};

    fn taken(pc: u64) -> BranchRecord {
        BranchRecord::taken(pc, pc + 0x100, BranchKind::UncondDirect, 1)
    }

    fn batch(name: &str, pcs: &[u64]) -> Trace {
        Trace::from_records(name, pcs.iter().map(|&pc| taken(pc)).collect())
    }

    fn paper() -> (BtbConfig, TemperatureConfig) {
        (BtbConfig::new(16, 4), TemperatureConfig::paper_default())
    }

    #[test]
    fn one_batch_matches_offline_pipeline() {
        let (btb, temp) = paper();
        let pcs: Vec<u64> = (0..400).map(|i| i % 23).collect();
        let t = batch("whole", &pcs);

        let offline = HintTable::from_profile(&OptProfile::measure(&t, btb), &temp);
        let mut inc = IncrementalProfiler::new(btb, temp);
        inc.absorb(&t);
        assert_eq!(*inc.commit(), offline, "single window == offline pipeline");
        assert_eq!(inc.batches(), 1);
    }

    #[test]
    fn absorb_order_determines_identical_tables() {
        let (btb, temp) = paper();
        let batches: Vec<Trace> = (0..5)
            .map(|b| {
                let pcs: Vec<u64> = (0..200).map(|i| (i * 7 + b * 13) % 31).collect();
                batch(&format!("b{b}"), &pcs)
            })
            .collect();

        // Same sequence, different commit cadences: identical final table.
        let mut eager = IncrementalProfiler::new(btb, temp.clone());
        for b in &batches {
            eager.absorb(b);
            eager.commit();
        }
        let mut lazy = IncrementalProfiler::new(btb, temp);
        for b in &batches {
            lazy.absorb(b);
        }
        assert_eq!(lazy.commit(), eager.table());
        assert_eq!(
            lazy.profile().branches,
            eager.profile().branches,
            "profiles merge identically regardless of commit cadence"
        );
    }

    #[test]
    fn merged_counters_are_per_batch_sums() {
        let (btb, temp) = paper();
        let a = batch("a", &[1, 2, 1, 2, 1]);
        let b = batch("b", &[1, 3, 1, 3]);
        let mut inc = IncrementalProfiler::new(btb, temp);
        inc.absorb(&a);
        inc.absorb(&b);

        let mut expect = OptProfile::measure(&a, btb);
        expect.merge(&OptProfile::measure(&b, btb));
        assert_eq!(inc.profile().branches, expect.branches);
        assert_eq!(inc.profile().accesses, 9);
        assert_eq!(inc.profile().branches[&1].taken, 5);
    }

    #[test]
    fn uncommitted_absorbs_stay_off_the_served_table() {
        let (btb, temp) = paper();
        let mut inc = IncrementalProfiler::new(btb, temp);
        assert!(
            inc.table().is_empty(),
            "fresh profiler serves the cold table"
        );
        inc.absorb(&batch("hot", &[0x40; 20]));
        assert!(inc.is_dirty());
        assert!(
            inc.table().is_empty(),
            "absorbed but uncommitted: still serving the last committed table"
        );
        inc.commit();
        assert!(!inc.is_dirty());
        assert_eq!(inc.table().hint(0x40), 2);
        // Committing again without new absorbs is a no-op.
        let before = inc.table().clone();
        assert_eq!(*inc.commit(), before);
    }

    #[test]
    #[should_panic(expected = "different BTB geometries")]
    fn merging_mismatched_geometries_is_rejected() {
        let a = OptProfile::measure(&batch("a", &[1]), BtbConfig::new(16, 4));
        let mut b = OptProfile::measure(&batch("b", &[1]), BtbConfig::new(8, 4));
        b.merge(&a);
    }
}
