//! Crash-safe results I/O.
//!
//! A killed `figures` run must never leave a half-written
//! `grid_stats.json` or `figures.md` behind, and a torn tail line in the
//! checkpoint journal must not poison a resume. Two primitives provide
//! that:
//!
//! * [`write_atomic`] — write to `<path>.tmp` in the same directory, fsync,
//!   then rename over the destination. Readers observe either the old file
//!   or the complete new one, never a prefix.
//! * [`append_line_durable`] — append one newline-terminated record and
//!   fsync before returning, so a journal line that the process reported as
//!   committed survives an immediate crash.
//!
//! Both route through [`fault::io_fault`], so a `--fault-plan io=PATTERN:K`
//! entry can make the first `K` attempts on matching paths fail with a
//!   retryable [`io::ErrorKind::Interrupted`] error. [`write_atomic_retry`]
//! is the bounded-retry wrapper the executors use: it retries *only*
//! interrupted writes, a fixed number of times, keeping behaviour
//! deterministic.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;

use crate::fault;

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename. On any error the destination is untouched (a stale
/// `.tmp` sibling may remain; the next successful write replaces it).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(err) = fault::io_fault(&path.display().to_string()) {
        return Err(err);
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    let tmp = tmp_sibling(path);
    {
        let mut file = File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
    }
    match fs::rename(&tmp, path) {
        Ok(()) => {
            // Durability contract: fsyncing the renamed file makes its
            // *bytes* durable, but the rename itself lives in the parent
            // directory's entries — on power loss before a directory sync,
            // the file can legally revert to the old version or vanish.
            // Shard journals and merged reports must survive power loss,
            // not just process kill, so the parent is synced too.
            fsync_parent_dir(path);
            Ok(())
        }
        Err(err) => {
            // Leave the filesystem as close to untouched as we can.
            let _ = fs::remove_file(&tmp);
            Err(err)
        }
    }
}

/// Base delay of the retry backoff schedule, milliseconds.
const BACKOFF_BASE_MS: u64 = 1;
/// Ceiling of the retry backoff schedule, milliseconds: ten doublings from
/// the base — long enough to ride out a real transient stall, short enough
/// that a bounded retry loop stays test-friendly.
const BACKOFF_CAP_MS: u64 = 1024;

/// Deterministic exponential backoff schedule: `base << attempt`, capped.
/// A pure function of the attempt number, so a retried operation's timing
/// profile is replayable (and unit-testable without a clock).
pub fn backoff_delay_ms(attempt: u32) -> u64 {
    capped_backoff_ms(BACKOFF_BASE_MS, BACKOFF_CAP_MS, attempt)
}

/// The one exponential backoff schedule of the workspace:
/// `min(base << attempt, cap)`, saturating to `cap` when the shift
/// overflows. [`backoff_delay_ms`] and the `hintd` client's retry policy
/// differ only in `base` and `cap`.
pub fn capped_backoff_ms(base: u64, cap: u64, attempt: u32) -> u64 {
    1u64.checked_shl(attempt)
        .and_then(|factor| base.checked_mul(factor))
        .map_or(cap, |delay| delay.min(cap))
}

/// [`write_atomic`] with a bounded retry loop for transient
/// ([`io::ErrorKind::Interrupted`]) failures — the kind the fault plan
/// injects. Non-transient errors propagate immediately; after
/// `max_retries` extra attempts the last error is returned.
///
/// Retries back off exponentially per [`backoff_delay_ms`] (1 ms, 2 ms,
/// 4 ms, … capped at ~1 s) instead of hot-looping: a disk that answered
/// `Interrupted` twice in a row needs breathing room, not a third attempt
/// nanoseconds later.
pub fn write_atomic_retry(path: &Path, bytes: &[u8], max_retries: u32) -> io::Result<()> {
    let mut attempt = 0u32;
    loop {
        match write_atomic(path, bytes) {
            Ok(()) => return Ok(()),
            Err(err) if err.kind() == io::ErrorKind::Interrupted && attempt < max_retries => {
                std::thread::sleep(std::time::Duration::from_millis(backoff_delay_ms(attempt)));
                attempt += 1;
            }
            Err(err) => return Err(err),
        }
    }
}

/// Appends `line` (a newline is added if missing) to `path`, creating it if
/// absent, and fsyncs before returning. Used for the per-cell checkpoint
/// journal: once this returns, the record survives a crash.
pub fn append_line_durable(path: &Path, line: &str) -> io::Result<()> {
    if let Some(err) = fault::io_fault(&path.display().to_string()) {
        return Err(err);
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)?;
        }
    }
    // Durability contract: appended bytes are made durable by the file
    // fsync below, but the journal's *existence* (its directory entry) is
    // only durable once the parent directory is synced. A journal created,
    // written, and fsync'd can still vanish wholesale on power loss if the
    // parent entry never hit disk — so the first append to a fresh file
    // syncs the directory too. Appends to an existing file don't touch the
    // directory entry and skip that cost.
    let created = !path.exists();
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    file.write_all(line.as_bytes())?;
    if !line.ends_with('\n') {
        file.write_all(b"\n")?;
    }
    file.sync_all()?;
    if created {
        fsync_parent_dir(path);
    }
    Ok(())
}

/// Fsyncs `path`'s parent directory so renames/creations of `path` survive
/// power loss (see the durability contract notes in [`write_atomic`] /
/// [`append_line_durable`]). Best-effort on platforms where directories
/// cannot be opened for sync; errors are deliberately swallowed — the data
/// write already succeeded, and a failed directory sync only narrows the
/// power-loss window back to the pre-contract behaviour.
fn fsync_parent_dir(path: &Path) {
    #[cfg(unix)]
    {
        let parent = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p,
            _ => Path::new("."),
        };
        if let Ok(dir) = File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    #[cfg(not(unix))]
    {
        let _ = path;
    }
}

/// Reads a journal written by [`append_line_durable`], returning complete
/// lines only: a torn final line (no trailing newline — the crash landed
/// mid-append despite our fsync discipline, e.g. on a different
/// filesystem) is **uncommitted**, dropped rather than parsed or errored
/// on. The read is byte-based, so a torn tail containing invalid UTF-8 (a
/// power loss mid-`write(2)` leaves arbitrary bytes) cannot poison the
/// committed prefix; a non-UTF-8 *complete* line marks the start of a
/// corrupt region — it and everything after it are treated as
/// uncommitted. A missing file is an empty journal.
pub fn read_journal_lines(path: &Path) -> io::Result<Vec<String>> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(err) => return Err(err),
    };
    let mut lines: Vec<String> = Vec::new();
    let complete = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(last) => &bytes[..=last],
        None => return Ok(lines), // single torn line
    };
    for raw in complete.split(|&b| b == b'\n') {
        match std::str::from_utf8(raw) {
            Ok(line) => {
                if !line.trim().is_empty() {
                    lines.push(line.to_owned());
                }
            }
            // Corrupt region: nothing after the first bad line is trusted.
            Err(_) => break,
        }
    }
    Ok(lines)
}

/// Truncates a torn (non-newline-terminated) tail off a journal, returning
/// the number of bytes removed. By the [`append_line_durable`] contract,
/// bytes after the last newline were never acknowledged as committed, so
/// removing them loses nothing — and *not* removing them would corrupt the
/// next append, which would land on the same line as the torn fragment.
/// Callers that reopen a journal for writing (resume) must repair first;
/// read-only consumers rely on [`read_journal_lines`]'s tolerance instead.
/// A missing file is a no-op.
pub fn repair_torn_tail(path: &Path) -> io::Result<u64> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(err) => return Err(err),
    };
    if bytes.last().is_none_or(|&b| b == b'\n') {
        return Ok(0);
    }
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |last| last + 1) as u64;
    let torn = bytes.len() as u64 - keep;
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    file.sync_all()?;
    Ok(torn)
}

/// Escapes `s` as the body of a JSON string literal (no surrounding
/// quotes). Shared by the journal and stats writers so all `results/`
/// JSON uses identical escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn tmp_sibling(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "out".to_owned());
    name.push_str(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{self, FaultPlan};

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sim-support-fsio-tests");
        fs::create_dir_all(&dir).expect("temp scratch dir");
        dir.join(name)
    }

    #[test]
    fn write_atomic_replaces_content_and_leaves_no_tmp() {
        let path = scratch("atomic.json");
        write_atomic(&path, b"{\"v\":1}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":1}");
        write_atomic(&path, b"{\"v\":2}").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"{\"v\":2}");
        assert!(!tmp_sibling(&path).exists(), "tmp sibling must be renamed");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_and_read_journal_drops_torn_tail() {
        let path = scratch("journal.jsonl");
        let _ = fs::remove_file(&path);
        append_line_durable(&path, "{\"cell\":0}").unwrap();
        append_line_durable(&path, "{\"cell\":1}\n").unwrap();
        // Simulate a crash mid-append: raw write without trailing newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":2").unwrap();
        drop(f);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines, vec!["{\"cell\":0}", "{\"cell\":1}"]);
        fs::remove_file(&path).unwrap();
        assert!(read_journal_lines(&path).unwrap().is_empty(), "missing ok");
    }

    #[test]
    fn torn_tail_with_invalid_utf8_is_uncommitted_not_an_error() {
        let path = scratch("torn_utf8.jsonl");
        let _ = fs::remove_file(&path);
        append_line_durable(&path, "{\"cell\":0}").unwrap();
        // A power-loss-style tear: partial record, invalid UTF-8, no newline.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":1,\"lab\xFF\xFE").unwrap();
        drop(f);
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines, vec!["{\"cell\":0}"], "torn tail must be dropped");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn repair_torn_tail_truncates_only_uncommitted_bytes() {
        let path = scratch("repair.jsonl");
        let _ = fs::remove_file(&path);
        assert_eq!(repair_torn_tail(&path).unwrap(), 0, "missing file: no-op");
        append_line_durable(&path, "{\"cell\":0}").unwrap();
        assert_eq!(repair_torn_tail(&path).unwrap(), 0, "clean file: no-op");
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"cell\":1,\"x\xFF").unwrap();
        drop(f);
        assert_eq!(repair_torn_tail(&path).unwrap(), 13, "torn bytes removed");
        // After repair, a fresh append starts a clean line — the corrupt
        // concatenation hazard the repair exists to prevent.
        append_line_durable(&path, "{\"cell\":2}").unwrap();
        let lines = read_journal_lines(&path).unwrap();
        assert_eq!(lines, vec!["{\"cell\":0}", "{\"cell\":2}"]);
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn backoff_schedule_doubles_and_caps() {
        assert_eq!(backoff_delay_ms(0), 1);
        assert_eq!(backoff_delay_ms(1), 2);
        assert_eq!(backoff_delay_ms(2), 4);
        assert_eq!(backoff_delay_ms(9), 512);
        assert_eq!(backoff_delay_ms(10), 1024);
        assert_eq!(backoff_delay_ms(11), 1024, "capped, not doubling forever");
        assert_eq!(backoff_delay_ms(63), 1024);
        assert_eq!(
            backoff_delay_ms(64),
            1024,
            "shift overflow saturates to cap"
        );
        // Determinism: the schedule is a pure function of the attempt.
        let a: Vec<u64> = (0..16).map(backoff_delay_ms).collect();
        let b: Vec<u64> = (0..16).map(backoff_delay_ms).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn transient_faults_retry_with_backoff_then_succeed() {
        let _guard = fault::ClearPlan::exclusive();
        let path = scratch("backoff.json");
        // Three injected transient failures: attempts 1-3 fail, attempt 4
        // succeeds. The retry loop must absorb them (sleeping 1+2+4 ms along
        // the way) and land the write.
        fault::install(FaultPlan::parse("io=backoff.json:3").unwrap());
        write_atomic_retry(&path, b"persisted", 3).expect("retries absorb the flakes");
        assert_eq!(fs::read(&path).unwrap(), b"persisted");
        // An exhausted budget still reports the transient error.
        fault::install(FaultPlan::parse("io=backoff.json:3").unwrap());
        let err = write_atomic_retry(&path, b"x", 2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        fault::clear();
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_io_faults_are_retried_away() {
        let _guard = fault::ClearPlan::exclusive();
        let path = scratch("faulted.json");
        fault::install(FaultPlan::parse("io=faulted.json:2").unwrap());
        let err = write_atomic(&path, b"x").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        // One retry is not enough (two injected failures), three is.
        assert!(write_atomic_retry(&path, b"x", 0).is_err());
        fault::install(FaultPlan::parse("io=faulted.json:2").unwrap());
        write_atomic_retry(&path, b"ok", 3).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"ok");
        fs::remove_file(&path).unwrap();
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("plain"), "plain");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
