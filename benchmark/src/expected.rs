//! Output correctness: blessed digests of what the programs print, and the
//! per-run checker that counts attempted and failed operations.
//!
//! `benchmark/expected/seed<N>.txt` holds one `workload key digest` line per
//! output (FNV-1a 64 of its bytes). An output with a blessed digest must
//! match it; one without must match the first time this run produced it,
//! so every repeat of a deterministic output is still checked.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;

use sim_support::fault::fnv1a;

/// The digest the expected files store.
pub fn digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// The blessed digests of one seed.
pub struct Expected {
    path: PathBuf,
    entries: BTreeMap<(String, String), String>,
}

impl Expected {
    /// Loads `expected/seed<seed>.txt`; a missing file is an empty set.
    pub fn load(seed: u64) -> io::Result<Self> {
        let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected"))
            .join(format!("seed{seed}.txt"));
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut entries = BTreeMap::new();
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, key, digest] = fields[..] else {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: bad line {line:?}", path.display()),
                ));
            };
            entries.insert((workload.to_owned(), key.to_owned()), digest.to_owned());
        }
        Ok(Self { path, entries })
    }

    /// The blessed digests of `workload`, by output key.
    pub fn of(&self, workload: &str) -> BTreeMap<String, String> {
        self.entries
            .iter()
            .filter(|((w, _), _)| w == workload)
            .map(|((_, k), d)| (k.clone(), d.clone()))
            .collect()
    }

    /// Replaces `workload`'s digests for the given keys and rewrites the file.
    pub fn bless(&mut self, workload: &str, outputs: &BTreeMap<String, String>) -> io::Result<()> {
        for (key, digest) in outputs {
            self.entries
                .insert((workload.to_owned(), key.clone()), digest.clone());
        }
        let mut text = String::from(
            "# thermobench blessed output digests (FNV-1a 64): workload key digest.\n\
             # Rewrite with: benchmark/run.sh --bless --seed N\n",
        );
        for ((w, k), d) in &self.entries {
            text.push_str(&format!("{w} {k} {d}\n"));
        }
        if let Some(dir) = self.path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        sim_support::fsio::write_atomic(&self.path, text.as_bytes())
    }
}

/// Counts one run's operations and checks their outputs.
#[derive(Debug, Default)]
pub struct Checker {
    blessed: BTreeMap<String, String>,
    seen: BTreeMap<String, String>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    /// A checker against `blessed` digests (empty when blessing).
    pub fn new(blessed: BTreeMap<String, String>) -> Self {
        Self {
            blessed,
            ..Self::default()
        }
    }

    /// Records one operation: whether it ran cleanly and, if it produced a
    /// checked output, that output's key and bytes.
    pub fn op(&mut self, label: &str, ran_ok: bool, output: Option<(&str, &[u8])>) {
        self.attempted += 1;
        let mut ok = ran_ok;
        if !ran_ok {
            eprintln!("FAILED: {label}");
        }
        if let Some((key, bytes)) = output {
            let got = digest(bytes);
            let want = self.blessed.get(key).or_else(|| self.seen.get(key));
            if let Some(want) = want.filter(|w| **w != got) {
                eprintln!("FAILED: {label}: output {key} digest {got}, expected {want}");
                ok = false;
            }
            self.seen.entry(key.to_owned()).or_insert(got);
        }
        if !ok {
            self.failed += 1;
        }
    }

    /// Records an operation that failed outright.
    pub fn fail(&mut self, label: &str, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("FAILED: {label}: {why}");
    }

    /// The digests this run produced, by key (what `--bless` writes).
    pub fn outputs(&self) -> &BTreeMap<String, String> {
        &self.seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blessed_digests_win_and_repeats_must_agree() {
        let blessed = BTreeMap::from([("kafka".to_owned(), digest(b"right"))]);
        let mut c = Checker::new(blessed);
        let failed_after = |c: &mut Checker, ran_ok: bool, output: Option<(&str, &[u8])>| {
            c.op("op", ran_ok, output);
            c.failed
        };
        assert_eq!(failed_after(&mut c, true, Some(("kafka", b"right"))), 0);
        assert_eq!(
            failed_after(&mut c, true, Some(("kafka", b"wrong"))),
            1,
            "blessed mismatch"
        );
        assert_eq!(
            failed_after(&mut c, true, Some(("python", b"first"))),
            1,
            "unblessed: recorded"
        );
        assert_eq!(
            failed_after(&mut c, true, Some(("python", b"second"))),
            2,
            "repeat must agree"
        );
        assert_eq!(
            failed_after(&mut c, false, None),
            3,
            "a non-zero exit fails"
        );
        c.fail("f", "client error after retries");
        assert_eq!((c.attempted, c.failed), (6, 4));
        assert_eq!(c.outputs()["python"], digest(b"first"));
    }
}
