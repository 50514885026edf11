//! The per-cell checkpoint journal (`results/grid_journal.jsonl`).
//!
//! The `figures` binary appends one fsync'd JSONL record per event, so a
//! crashed run can `--resume` without recomputing finished work:
//!
//! | record | meaning |
//! |--------|---------|
//! | `{"kind":"run","version":1,"fingerprint":…}` | header; resume only trusts a journal whose fingerprint matches the current scale + figure list |
//! | `{"kind":"cell",…,"status":"done"\|"quarantined",…}` | one grid cell settled (progress + forensics; quarantine records are re-surfaced into `grid_stats.json` on resume) |
//! | `{"kind":"figure","id":…,"hash":…,"display":…,"markdown":…}` | a whole figure finished rendering — the **replay unit** |
//!
//! The figure record is what resume skips on: cell values are arbitrary
//! in-memory types (no serde in this workspace), so a half-finished
//! figure is recomputed from scratch — which is safe precisely because
//! cells are deterministic pure functions of `(figure id, cell index)`.
//! A journaled figure replays its exact rendered bytes, so a resumed run's
//! stdout and markdown are byte-identical to an uninterrupted run.
//!
//! Torn tail lines (a crash mid-append) are dropped by
//! [`fsio::read_journal_lines`]; a record is only trusted once its
//! newline hit the disk. Figure records carry a content `hash`
//! ([`figure_hash`] over the display + markdown bytes), so a corrupted
//! commit is recomputed instead of replayed. [`Journal::load`] is the one
//! reader of the file, and as its owner it truncates the torn bytes
//! ([`fsio::repair_torn_tail`]) and cuts everything else after the last
//! trusted commit, so a resumed run's journal ends byte-identical to an
//! uninterrupted run's too. It must not run while another process may
//! still be appending.

use std::io;
use std::path::{Path, PathBuf};

use sim_support::fault::FaultClass;
use sim_support::fsio::{self, json_escape};

use crate::grid::{CellOutcome, Quarantined};

/// Journal format version; bump on any incompatible record change so stale
/// journals are ignored rather than misread. v2 added the figure-record
/// content `hash`.
const VERSION: u32 = 2;

/// Handle to one on-disk journal file.
pub struct Journal {
    path: PathBuf,
}

/// A figure restored from the journal: its exact rendered bytes.
#[derive(Clone, Debug)]
pub struct ReplayFigure {
    /// Figure id (`"fig01"`, …).
    pub id: String,
    /// Exact stdout bytes the original run printed for this figure.
    pub display: String,
    /// Exact markdown section the original run rendered.
    pub markdown: String,
}

/// Everything a `--resume` run recovers from a journal.
#[derive(Debug, Default)]
pub struct Loaded {
    /// Completed figures, in journal (= execution) order.
    pub figures: Vec<ReplayFigure>,
    /// Quarantine records belonging to the completed figures, so a resumed
    /// run's `grid_stats.json` still names every dropped cell.
    pub quarantined: Vec<Quarantined>,
}

impl Loaded {
    /// The replayed figure with `id`, if the journal holds one.
    pub fn figure(&self, id: &str) -> Option<&ReplayFigure> {
        self.figures.iter().find(|f| f.id == id)
    }
}

impl Journal {
    /// A journal at `path`; no I/O happens until [`start`](Self::start) /
    /// [`load`](Self::load).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Journal { path: path.into() }
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Begins a fresh journal: removes any previous file and writes the
    /// run header. Call on every non-resume run so stale checkpoints can
    /// never leak into a new experiment.
    pub fn start(&self, fingerprint: &str) -> io::Result<()> {
        match std::fs::remove_file(&self.path) {
            Ok(()) => {}
            Err(err) if err.kind() == io::ErrorKind::NotFound => {}
            Err(err) => return Err(err),
        }
        self.append(&header_line(fingerprint))
    }

    /// Loads the journal for a `--resume` run. Returns `Ok(None)` — start
    /// from scratch — when the file is missing, the header is absent or
    /// unreadable, the version is foreign, or the fingerprint does not
    /// match the current run configuration.
    ///
    /// As the file's owner, `load` also canonicalises it: it truncates a
    /// torn tail, then cuts everything else after the last trusted figure
    /// commit — cells of a figure that never committed, and everything
    /// from the first malformed or hash-mismatched commit on. A run that
    /// appends the remaining figures in canonical order then leaves a
    /// journal byte-identical to an uninterrupted run's.
    pub fn load(&self, fingerprint: &str) -> io::Result<Option<Loaded>> {
        fsio::repair_torn_tail(&self.path)?;
        let lines = fsio::read_journal_lines(&self.path)?;
        let Some(header) = lines.first() else {
            return Ok(None);
        };
        if !header_matches(header, fingerprint) {
            return Ok(None);
        }
        let mut loaded = Loaded::default();
        // Cells journal ahead of their figure record: every cell since the
        // previous commit belongs to the next one (`fig19` commits the
        // cells of two grids), and only cells of a trusted commit count.
        let mut pending_quarantine: Vec<Quarantined> = Vec::new();
        let mut trusted = 1;
        for (i, line) in lines.iter().enumerate().skip(1) {
            match field_str(line, "kind").as_deref() {
                Some("cell") => {
                    if field_str(line, "status").as_deref() != Some("quarantined") {
                        continue;
                    }
                    let (Some(figure), Some(label), Some(index), Some(reason)) = (
                        field_str(line, "figure"),
                        field_str(line, "label"),
                        field_u64(line, "index"),
                        field_str(line, "reason"),
                    ) else {
                        continue;
                    };
                    let class = field_str(line, "class")
                        .and_then(|c| FaultClass::parse(&c).ok())
                        .unwrap_or(FaultClass::Poison);
                    let attempts = field_u64(line, "attempts").unwrap_or(1) as u32;
                    pending_quarantine.push(Quarantined {
                        figure,
                        label,
                        index: index as usize,
                        class,
                        reason,
                        attempts,
                    });
                }
                Some("figure") => {
                    let (Some(id), Some(display), Some(markdown), Some(hash)) = (
                        field_str(line, "id"),
                        field_str(line, "display"),
                        field_str(line, "markdown"),
                        field_u64(line, "hash"),
                    ) else {
                        break;
                    };
                    // A commit whose content hash disagrees with its bytes
                    // was corrupted on disk: it and everything after it
                    // recompute rather than replay.
                    if hash != figure_hash(&display, &markdown) {
                        break;
                    }
                    trusted = i + 1;
                    loaded.quarantined.append(&mut pending_quarantine);
                    loaded.figures.push(ReplayFigure {
                        id,
                        display,
                        markdown,
                    });
                }
                _ => {}
            }
        }
        self.keep_lines(&lines[..trusted])?;
        Ok(Some(loaded))
    }

    /// Cuts the file down to `lines`, a prefix of its complete lines, with
    /// an atomic rewrite; a file that already holds exactly them is left
    /// alone.
    fn keep_lines(&self, lines: &[String]) -> io::Result<()> {
        let mut kept = String::new();
        for line in lines {
            kept.push_str(line);
            kept.push('\n');
        }
        if std::fs::metadata(&self.path)?.len() != kept.len() as u64 {
            fsio::write_atomic(&self.path, kept.as_bytes())?;
        }
        Ok(())
    }

    /// Appends one cell outcome (called from the grid's cell hook, in
    /// canonical order on the gathering thread).
    pub fn append_cell(&self, outcome: &CellOutcome<'_>) -> io::Result<()> {
        let line = match outcome {
            CellOutcome::Completed(stat) => format!(
                "{{\"kind\":\"cell\",\"figure\":\"{}\",\"label\":\"{}\",\"index\":{},\
                 \"status\":\"done\",\"attempts\":{}}}",
                json_escape(&stat.figure),
                json_escape(&stat.label),
                stat.index,
                stat.attempts
            ),
            CellOutcome::Quarantined(q) => format!(
                "{{\"kind\":\"cell\",\"figure\":\"{}\",\"label\":\"{}\",\"index\":{},\
                 \"status\":\"quarantined\",\"class\":\"{}\",\"reason\":\"{}\",\"attempts\":{}}}",
                json_escape(&q.figure),
                json_escape(&q.label),
                q.index,
                q.class,
                json_escape(&q.reason),
                q.attempts
            ),
        };
        self.append(&line)
    }

    /// Commits a finished figure: its id plus the exact display/markdown
    /// bytes, making every cell line of that figure authoritative.
    pub fn append_figure(&self, id: &str, display: &str, markdown: &str) -> io::Result<()> {
        self.append(&figure_line(id, display, markdown))
    }

    /// Durable append with a bounded retry for injected/transient
    /// interruptions. The fault hook fires before any bytes are written,
    /// so retrying an interrupted append never duplicates a record.
    fn append(&self, line: &str) -> io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match fsio::append_line_durable(&self.path, line) {
                Ok(()) => return Ok(()),
                Err(err) if err.kind() == io::ErrorKind::Interrupted && attempt < 3 => {
                    attempt += 1;
                }
                Err(err) => return Err(err),
            }
        }
    }
}

/// Fingerprint binding a journal to a run configuration: the scale and the
/// requested figure list — everything that changes cell enumeration.
/// Thread width is deliberately excluded: resume at any `--threads` must
/// splice cleanly (the grid's output is width-independent by construction).
pub fn run_fingerprint(scale: &crate::Scale, ids: &[String]) -> String {
    let apps: Vec<&str> = scale.apps.iter().map(|a| a.name.as_str()).collect();
    format!(
        "v{VERSION};trace_len={};cbp={}x{};ipc1={}x{};apps={};ids={}",
        scale.trace_len,
        scale.cbp_count,
        scale.cbp_len,
        scale.ipc1_count,
        scale.ipc1_len,
        apps.join("+"),
        ids.join("+")
    )
}

/// Whether a journal header line is this format version and carries the
/// expected run fingerprint.
fn header_matches(header: &str, fingerprint: &str) -> bool {
    field_str(header, "kind").as_deref() == Some("run")
        && field_u64(header, "version") == Some(u64::from(VERSION))
        && field_str(header, "fingerprint").as_deref() == Some(fingerprint)
}

/// The exact header line [`Journal::start`] writes.
fn header_line(fingerprint: &str) -> String {
    format!(
        "{{\"kind\":\"run\",\"version\":{VERSION},\"fingerprint\":\"{}\"}}",
        json_escape(fingerprint)
    )
}

/// The exact figure-commit line [`Journal::append_figure`] writes.
fn figure_line(id: &str, display: &str, markdown: &str) -> String {
    format!(
        "{{\"kind\":\"figure\",\"id\":\"{}\",\"hash\":{},\"display\":\"{}\",\"markdown\":\"{}\"}}",
        json_escape(id),
        figure_hash(display, markdown),
        json_escape(display),
        json_escape(markdown)
    )
}

/// Content hash of a figure commit: FNV-1a over the display bytes mixed
/// with a rotated FNV-1a over the markdown bytes, so swapping the two
/// fields (same concatenated bytes) still changes the hash.
pub fn figure_hash(display: &str, markdown: &str) -> u64 {
    sim_support::fault::fnv1a(display.as_bytes())
        ^ sim_support::fault::fnv1a(markdown.as_bytes()).rotate_left(17)
}

/// Extracts `"key":"…"` from one journal line, undoing [`json_escape`].
fn field_str(line: &str, key: &str) -> Option<String> {
    let marker = format!("\"{key}\":\"");
    let start = line.find(&marker)? + marker.len();
    let bytes = line.as_bytes();
    let mut out = String::new();
    let mut i = start;
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return Some(out),
            b'\\' => {
                let esc = *bytes.get(i + 1)?;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = line.get(i + 2..i + 6)?;
                        let code = u32::from_str_radix(hex, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        i += 4;
                    }
                    _ => return None,
                }
                i += 2;
            }
            _ => {
                // Multi-byte UTF-8: copy the whole char.
                let ch = line[i..].chars().next()?;
                out.push(ch);
                i += ch.len_utf8();
                continue;
            }
        }
    }
    None
}

/// Extracts `"key":123` from one journal line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let marker = format!("\"{key}\":");
    let start = line.find(&marker)? + marker.len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::CellStat;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bench-journal-tests");
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir.join(name)
    }

    fn stat(figure: &str, index: usize) -> CellStat {
        CellStat {
            figure: figure.to_owned(),
            label: format!("app{index}"),
            index,
            wall_ms: 1.0,
            accesses: 10,
            accesses_per_sec: 10_000.0,
            queue_depth: 0,
            attempts: 1,
        }
    }

    #[test]
    fn round_trips_figures_and_quarantine_records() {
        let journal = Journal::new(scratch("roundtrip.jsonl"));
        journal.start("fp-1").unwrap();
        journal
            .append_cell(&CellOutcome::Completed(&stat("fig01", 0)))
            .unwrap();
        journal
            .append_cell(&CellOutcome::Quarantined(&Quarantined {
                figure: "fig01".to_owned(),
                label: "py\"thon".to_owned(),
                index: 1,
                class: FaultClass::Poison,
                reason: "corrupt \"trace\"\nline two".to_owned(),
                attempts: 1,
            }))
            .unwrap();
        journal
            .append_figure("fig01", "## fig01\nrow\n", "| a | b |\n")
            .unwrap();
        // A figure whose cells ran but which never committed.
        journal
            .append_cell(&CellOutcome::Completed(&stat("fig02", 0)))
            .unwrap();

        let loaded = journal.load("fp-1").unwrap().expect("fingerprint matches");
        assert_eq!(loaded.figures.len(), 1);
        let fig = loaded.figure("fig01").unwrap();
        assert_eq!(fig.display, "## fig01\nrow\n");
        assert_eq!(fig.markdown, "| a | b |\n");
        assert!(loaded.figure("fig02").is_none(), "uncommitted: recompute");
        assert_eq!(loaded.quarantined.len(), 1);
        let q = &loaded.quarantined[0];
        assert_eq!(q.label, "py\"thon");
        assert_eq!(q.reason, "corrupt \"trace\"\nline two");
        assert_eq!(q.class, FaultClass::Poison);
    }

    #[test]
    fn fingerprint_mismatch_and_fresh_start_discard_history() {
        let journal = Journal::new(scratch("mismatch.jsonl"));
        journal.start("fp-a").unwrap();
        journal.append_figure("fig01", "d", "m").unwrap();
        assert!(journal.load("fp-b").unwrap().is_none(), "wrong fingerprint");
        assert!(journal.load("fp-a").unwrap().is_some());
        journal.start("fp-a").unwrap();
        let reloaded = journal.load("fp-a").unwrap().unwrap();
        assert!(reloaded.figures.is_empty(), "start() truncates");
        let missing = Journal::new(scratch("never-written.jsonl"));
        assert!(missing.load("fp").unwrap().is_none());
    }

    #[test]
    fn torn_tail_line_is_ignored() {
        use std::io::Write as _;
        let path = scratch("torn.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp").unwrap();
        journal.append_figure("fig01", "d1", "m1").unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"figure\",\"id\":\"fig02\",\"disp")
            .unwrap();
        drop(f);
        let loaded = journal.load("fp").unwrap().unwrap();
        assert_eq!(loaded.figures.len(), 1, "torn record must not surface");
        assert_eq!(loaded.figures[0].id, "fig01");
    }

    #[test]
    fn load_repairs_torn_tail_so_next_append_lands_on_fresh_line() {
        use std::io::Write as _;
        let path = scratch("torn-repair.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp").unwrap();
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"figure\",\"id\":\"fig01\",\"disp")
            .unwrap();
        drop(f);
        journal.load("fp").unwrap().unwrap();
        journal.append_figure("fig02", "d2", "m2").unwrap();
        let loaded = journal.load("fp").unwrap().unwrap();
        assert_eq!(loaded.figures.len(), 1, "torn bytes truncated, not fused");
        assert_eq!(loaded.figures[0].id, "fig02");
    }

    #[test]
    fn corrupt_figure_hash_forces_recompute() {
        let path = scratch("badhash.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp").unwrap();
        journal.append_figure("fig01", "good", "bytes").unwrap();
        // Flip the committed display bytes without updating the hash, as a
        // disk corruption would.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("good", "evil")).unwrap();
        let loaded = journal.load("fp").unwrap().unwrap();
        assert!(
            loaded.figure("fig01").is_none(),
            "hash mismatch must not replay"
        );
    }

    #[test]
    fn positional_attribution_spans_multiple_grid_figures_per_commit() {
        // fig19 commits the cells of its `fig19-entries` and `fig19-ways`
        // grids: a quarantine record journaled before the commit is its.
        let journal = Journal::new(scratch("positional.jsonl"));
        journal.start("fp").unwrap();
        journal
            .append_cell(&CellOutcome::Quarantined(&Quarantined {
                figure: "fig19-entries".to_owned(),
                label: "kafka".to_owned(),
                index: 0,
                class: FaultClass::Poison,
                reason: "injected".to_owned(),
                attempts: 1,
            }))
            .unwrap();
        journal
            .append_cell(&CellOutcome::Completed(&stat("fig19-ways", 0)))
            .unwrap();
        journal.append_figure("fig19", "d", "m").unwrap();
        let loaded = journal.load("fp").unwrap().unwrap();
        assert_eq!(loaded.quarantined.len(), 1, "fig19's record dropped");
        assert_eq!(loaded.quarantined[0].figure, "fig19-entries");
    }

    /// Journals `id`'s two cells, then (with `commit`) its figure record.
    fn journal_figure(journal: &Journal, id: &str, commit: bool) {
        for index in 0..2 {
            journal
                .append_cell(&CellOutcome::Completed(&stat(id, index)))
                .unwrap();
        }
        if commit {
            let display = format!("## {id}\n");
            journal.append_figure(id, &display, "| m |\n").unwrap();
        }
    }

    #[test]
    fn load_cuts_to_the_last_trusted_commit_so_resume_matches_an_uninterrupted_run() {
        use std::io::Write as _;
        let ids = ["fig01", "fig02", "fig03", "fig04"];
        let reference = Journal::new(scratch("canonical-reference.jsonl"));
        reference.start("fp").unwrap();
        for id in ids {
            journal_figure(&reference, id, true);
        }

        let path = scratch("canonical-resumed.jsonl");
        let journal = Journal::new(&path);
        journal.start("fp").unwrap();
        journal_figure(&journal, "fig01", true);
        // fig02's commit is corrupted on disk; fig03 committed after it,
        // then the run died in fig04, mid-append.
        journal_figure(&journal, "fig02", true);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("## fig02", "## fig2!")).unwrap();
        journal_figure(&journal, "fig03", true);
        journal_figure(&journal, "fig04", false);
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"kind\":\"cell\",\"fig").unwrap();
        drop(f);

        let loaded = journal.load("fp").unwrap().expect("fingerprint matches");
        let replayed: Vec<&str> = loaded.figures.iter().map(|f| f.id.as_str()).collect();
        assert_eq!(replayed, ["fig01"], "trust ends at the corrupt commit");
        for id in &ids[1..] {
            journal_figure(&journal, id, true);
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            std::fs::read(reference.path()).unwrap(),
            "resumed journal differs from the uninterrupted one"
        );
    }

    #[test]
    fn field_parsers_handle_escapes_and_numbers() {
        let line = r#"{"kind":"cell","label":"a\"b\\c\nd","index":42,"attempts":2}"#;
        assert_eq!(field_str(line, "kind").as_deref(), Some("cell"));
        assert_eq!(field_str(line, "label").as_deref(), Some("a\"b\\c\nd"));
        assert_eq!(field_u64(line, "index"), Some(42));
        assert_eq!(field_u64(line, "attempts"), Some(2));
        assert_eq!(field_str(line, "missing"), None);
        assert_eq!(field_u64(line, "label"), None);
    }
}
