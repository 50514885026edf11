//! Deterministic fault injection and the partial-failure error taxonomy.
//!
//! A 700-trace figure grid runs for hours; a single corrupt input or a
//! panicking cell must not abort the whole batch. This module supplies the
//! two halves of that contract:
//!
//! * **Taxonomy** — [`SimError`] classifies every failure as
//!   [`FaultClass::Transient`] (retry is worthwhile: I/O hiccups, injected
//!   flakes), [`FaultClass::Poison`] (deterministically wrong input: a
//!   corrupt trace, a panicking cell — quarantine it and move on), or
//!   [`FaultClass::Fatal`] (the run itself is compromised — abort).
//!   Executors decide retry vs quarantine vs abort from the class alone.
//! * **Injection** — a [`FaultPlan`] parsed from a spec string (the
//!   `--fault-plan` flag of `figures`, `hintd` and `hintload`) chooses,
//!   *deterministically*, which grid cells panic, which `results/` writes
//!   fail, how and when a process dies, and which client frames the wire
//!   injures. Every choice is a pure function of the plan and the fault
//!   site, so a faulty run is exactly reproducible — the property the
//!   crash-resume CI stage relies on.
//!
//! [`isolated`] is the only sanctioned `catch_unwind` wrapper outside the
//! pool (enforced by simlint rule S03): it converts panics into [`SimError`]
//! and performs the bounded deterministic retry loop for transient faults.
//!
//! # Plan spec grammar
//!
//! One loop parses every plan: comma-separated `key=field:field…`
//! entries. Each binary accepts only the keys it has sites for
//! ([`FaultPlan::parse_keys`]): `figures` all but `net`, `hintd` `io` and
//! `exit-after`, and `hintload` `net`.
//!
//! | entry | site | meaning |
//! |-------|------|---------|
//! | `seed=N`                          | cell    | seeds `panic-rate` draws (default 0) |
//! | `panic=FIG:IDX:CLASS`             | cell    | cell `(FIG, IDX)` panics with `CLASS` |
//! | `panic-rate=P:CLASS`              | cell    | every cell panics with probability `P` |
//! | `io=PATTERN:K`                    | write   | first `K` writes to paths containing `PATTERN` fail |
//! | `exit-after=N`                    | process | every process dies after `N` journaled cells |
//! | `proc=SHARD:ATTEMPT:KIND[:AFTER]` | process | one worker attempt does `KIND` after `AFTER` cells |
//! | `net=CONN:OP:KIND[:ARGS][:CLASS]` | frame   | client frame `OP` on connection `CONN` is injured |
//!
//! * `CLASS` is `transient` (a cell fault fires on attempt 0 only — a
//!   retry succeeds), `poison` (fires on every attempt), or `fatal`.
//!   Injected write failures are transient.
//! * `proc=`: `SHARD` must be 1, because `figures supervise` runs one
//!   worker per grid; the field keeps specs in the old grammar readable.
//!   `ATTEMPT` is the worker's 0-based `--attempt`; `AFTER` defaults to 1. `KIND` is `die` (exit 86), `hang`,
//!   `torn` (tear the journal tail, then exit 86) or `garbage` (garbage on
//!   stdout, then exit 0). `exit-after=N` is a `die` after `N` cells.
//! * `net=`: `KIND` is `drop`, `delay:MS` (`MS` ≤ 10 000), `trunc:N` (only
//!   the first `N` bytes are sent) or `garble:N:X` (byte `N` mod the frame
//!   length is XORed with `X` ≠ 0). `CLASS` defaults to `transient`.
//! * `P` lies in `[0, 1]`; `N` and `AFTER` are ≥ 1. `seed`, `panic-rate`,
//!   `io` and `exit-after` may each appear once; `panic`, `proc` and `net`
//!   repeat. A lookup takes the first entry that matches its site, and
//!   `exit-after` matches every attempt.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
// simlint: allow(D03) -- guards the installed plan, swapped only at run setup/teardown
use std::sync::Mutex;

use crate::rng::{SimRng, SplitMix64};

/// Exit code used by [`cell_completed`] when a `die` or `torn` process
/// fault fires — distinguishable from ordinary failures in `scripts/ci.sh`.
pub const CRASH_EXIT_CODE: i32 = 86;

/// How a failure should be treated by the executor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// Worth retrying: the same operation may succeed on the next attempt.
    Transient,
    /// Deterministically broken input or computation: retrying cannot help;
    /// quarantine the unit and continue with the rest of the batch.
    Poison,
    /// The run itself is compromised; abort instead of continuing.
    Fatal,
}

impl FaultClass {
    /// Lower-case name used in specs, journals and `grid_stats.json`.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::Transient => "transient",
            FaultClass::Poison => "poison",
            FaultClass::Fatal => "fatal",
        }
    }

    /// Parses a spec-string class name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "transient" => Ok(FaultClass::Transient),
            "poison" => Ok(FaultClass::Poison),
            "fatal" => Ok(FaultClass::Fatal),
            other => Err(format!(
                "unknown fault class {other:?} (transient|poison|fatal)"
            )),
        }
    }
}

impl std::fmt::Display for FaultClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A classified simulation failure. The class drives the executor's
/// retry/quarantine/abort decision; the message records the root cause for
/// `grid_stats.json` and the journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimError {
    /// Retry / quarantine / abort.
    pub class: FaultClass,
    /// Human-readable root cause.
    pub message: String,
}

impl SimError {
    /// A retryable failure.
    pub fn transient(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Transient,
            message: message.into(),
        }
    }

    /// A deterministic failure: quarantine, don't retry.
    pub fn poison(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Poison,
            message: message.into(),
        }
    }

    /// A run-compromising failure: abort.
    pub fn fatal(message: impl Into<String>) -> Self {
        Self {
            class: FaultClass::Fatal,
            message: message.into(),
        }
    }

    /// Recovers a `SimError` from a panic payload. Injected faults travel as
    /// `SimError` payloads and keep their class; organic panics (assertion
    /// failures, indexing bugs, corrupt-input unwinds) are deterministic for
    /// a given cell, so they classify as [`FaultClass::Poison`].
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> Self {
        match payload.downcast::<SimError>() {
            Ok(err) => *err,
            Err(payload) => {
                let message = if let Some(s) = payload.downcast_ref::<String>() {
                    s.clone()
                } else if let Some(s) = payload.downcast_ref::<&str>() {
                    (*s).to_owned()
                } else {
                    "opaque panic payload".to_owned()
                };
                SimError::poison(format!("panic: {message}"))
            }
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.class, self.message)
    }
}

impl std::error::Error for SimError {}

/// Outcome of [`isolated`]: the task's result plus how many attempts ran.
#[derive(Debug)]
pub struct Isolated<T> {
    /// `Ok` with the task's value, or the classified failure after the
    /// final attempt.
    pub result: Result<T, SimError>,
    /// Attempts executed (≥ 1).
    pub attempts: u32,
}

/// Runs `f`, converting panics into [`SimError`] and retrying transient
/// failures up to `max_retries` extra times. `f` receives the zero-based
/// attempt number, so deterministic fault injection can fire on chosen
/// attempts only.
///
/// This is the one sanctioned panic-capture site for task execution
/// (simlint S03); poison and fatal failures are never retried, keeping the
/// attempt sequence a pure function of `(f, max_retries)`.
pub fn isolated<T>(max_retries: u32, mut f: impl FnMut(u32) -> T) -> Isolated<T> {
    let mut attempt = 0u32;
    loop {
        match catch_unwind(AssertUnwindSafe(|| f(attempt))) {
            Ok(value) => {
                return Isolated {
                    result: Ok(value),
                    attempts: attempt + 1,
                }
            }
            Err(payload) => {
                let error = SimError::from_panic(payload);
                let retry = error.class == FaultClass::Transient && attempt < max_retries;
                if !retry {
                    return Isolated {
                        result: Err(error),
                        attempts: attempt + 1,
                    };
                }
                attempt += 1;
            }
        }
    }
}

/// One explicitly targeted cell fault.
#[derive(Clone, Debug, PartialEq, Eq)]
struct CellPoint {
    figure: String,
    index: usize,
    class: FaultClass,
}

/// A process fault and the attempt it is addressed to; `None` addresses
/// every process (`exit-after=N`).
#[derive(Clone, Debug, PartialEq, Eq)]
struct ProcPoint {
    at: Option<u32>,
    fault: ProcFault,
}

/// A deterministic fault-injection plan. See the [module docs](self) for
/// the spec grammar. All injection decisions are pure functions of the plan
/// and the fault site, never of scheduling or wall-clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cell_points: Vec<CellPoint>,
    panic_rate: Option<(f64, FaultClass)>,
    io_pattern: Option<(String, u32)>,
    proc_points: Vec<ProcPoint>,
    net_points: Vec<(u64, u64, NetFault)>,
}

/// Every key of the grammar, in the order of the module-docs table.
pub const ALL_KEYS: [&str; 7] = [
    "seed",
    "panic",
    "panic-rate",
    "io",
    "exit-after",
    "proc",
    "net",
];

/// Keys the plan holds one value for. A spec that repeats one is rejected:
/// keeping only the last entry would silently drop the first.
const SINGULAR_KEYS: [&str; 4] = ["seed", "panic-rate", "io", "exit-after"];

/// Upper bound accepted for `net=…:delay:MS` entries: fault plans must
/// never make a test hang for minutes on a typo.
const MAX_NET_DELAY_MS: u64 = 10_000;

impl FaultPlan {
    /// Parses a `--fault-plan` spec string. An empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_keys(spec, &ALL_KEYS)
    }

    /// Parses a spec for a binary that has fault sites for `keys` only: an
    /// entry under any other key of the grammar is an error naming the key
    /// and listing `keys`, because that binary would never fire it.
    pub fn parse_keys(spec: &str, keys: &[&str]) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        let mut seen: Vec<&str> = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry {entry:?} is not key=value"))?;
            let key = key.trim();
            if ALL_KEYS.contains(&key) && !keys.contains(&key) {
                return Err(format!(
                    "fault-plan key {key:?} has no fault site in this binary (accepted: {})",
                    keys.join(", ")
                ));
            }
            if SINGULAR_KEYS.contains(&key) {
                if seen.contains(&key) {
                    return Err(format!("fault-plan key {key:?} given twice"));
                }
                seen.push(key);
            }
            let mut fields = Fields {
                entry,
                rest: value.trim().split(':').peekable(),
            };
            match key {
                "seed" => plan.seed = fields.num("seed")?,
                "panic" => {
                    let figure = fields.next("figure id")?;
                    if figure.is_empty() {
                        return Err(fields.error("missing figure id"));
                    }
                    plan.cell_points.push(CellPoint {
                        figure: figure.to_owned(),
                        index: fields.num("cell index")?,
                        class: fields.class()?,
                    });
                }
                "panic-rate" => {
                    let p: f64 = fields.num("probability")?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(fields.error(&format!("probability {p} outside [0, 1]")));
                    }
                    plan.panic_rate = Some((p, fields.class()?));
                }
                "io" => {
                    let pattern = fields.next("path pattern")?.to_owned();
                    plan.io_pattern = Some((pattern, fields.num("failure count")?));
                }
                "exit-after" => plan.proc_points.push(ProcPoint {
                    at: None,
                    fault: ProcFault {
                        kind: ProcFaultKind::Die,
                        after_cells: fields.cells()?,
                    },
                }),
                "proc" => {
                    let shard: u64 = fields.num("shard number")?;
                    if shard != 1 {
                        return Err(
                            fields.error("SHARD must be 1: figures supervise runs a single worker")
                        );
                    }
                    let attempt: u32 = fields.num("attempt index")?;
                    let kind = match fields.next("kind")? {
                        "die" => ProcFaultKind::Die,
                        "hang" => ProcFaultKind::Hang,
                        "torn" => ProcFaultKind::TornJournal,
                        "garbage" => ProcFaultKind::GarbageStdout,
                        other => return Err(fields.error(&format!("unknown proc kind {other:?}"))),
                    };
                    let after_cells = if fields.is_done() { 1 } else { fields.cells()? };
                    plan.proc_points.push(ProcPoint {
                        at: Some(attempt),
                        fault: ProcFault { kind, after_cells },
                    });
                }
                "net" => {
                    let conn: u64 = fields.num("connection id")?;
                    let op: u64 = fields.num("operation index")?;
                    let kind = match fields.next("kind")? {
                        "drop" => NetFaultKind::Drop,
                        "delay" => {
                            let ms = fields.num("delay")?;
                            if ms > MAX_NET_DELAY_MS {
                                return Err(fields.error(&format!(
                                    "delay {ms} ms exceeds the {MAX_NET_DELAY_MS} ms cap"
                                )));
                            }
                            NetFaultKind::Delay { ms }
                        }
                        "trunc" => NetFaultKind::Truncate {
                            offset: fields.num("truncate offset")?,
                        },
                        "garble" => {
                            let offset = fields.num("garble offset")?;
                            let xor = fields.num("garble mask")?;
                            if xor == 0 {
                                return Err(fields.error("garble mask 0 is a no-op"));
                            }
                            NetFaultKind::Garble { offset, xor }
                        }
                        other => return Err(fields.error(&format!("unknown net kind {other:?}"))),
                    };
                    let class = if fields.is_done() {
                        kind.class()
                    } else {
                        fields.class()?
                    };
                    plan.net_points.push((conn, op, NetFault { kind, class }));
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
            if !fields.is_done() {
                return Err(fields.error("trailing fields"));
            }
        }
        Ok(plan)
    }

    /// The fault class planned for cell `(figure, index)`, if any — a pure
    /// function of the plan and the site.
    pub fn cell_fault(&self, figure: &str, index: usize) -> Option<FaultClass> {
        if let Some(point) = self
            .cell_points
            .iter()
            .find(|p| p.figure == figure && p.index == index)
        {
            return Some(point.class);
        }
        if let Some((p, class)) = self.panic_rate {
            let site = self.seed ^ fnv1a(figure.as_bytes()) ^ (index as u64).wrapping_mul(0x9e37);
            let draw = SplitMix64::new(site).next_u64();
            // 53-bit mantissa draw in [0, 1).
            if ((draw >> 11) as f64) / ((1u64 << 53) as f64) < p {
                return Some(class);
            }
        }
        None
    }

    /// The fault planned for operation `op` on client connection `conn`,
    /// if any; the first matching `net=` entry wins.
    pub fn net_fault(&self, conn: u64, op: u64) -> Option<NetFault> {
        self.net_points
            .iter()
            .find(|(c, o, _)| *c == conn && *o == op)
            .map(|(_, _, fault)| *fault)
    }

    /// The process fault planned for worker `attempt`, if any: the first
    /// `proc=` entry addressed to it or an `exit-after` entry, whichever
    /// the spec lists first. A restart (next attempt) is a different key —
    /// typically clean, letting the supervised run converge; listing every
    /// attempt simulates a worker that never finishes.
    pub fn proc_fault(&self, attempt: u32) -> Option<ProcFault> {
        self.proc_points
            .iter()
            .find(|p| p.at.is_none_or(|at| at == attempt))
            .map(|p| p.fault.clone())
    }
}

/// The `:`-separated fields of one spec entry, consumed left to right;
/// every error names the entry.
struct Fields<'a> {
    entry: &'a str,
    rest: std::iter::Peekable<std::str::Split<'a, char>>,
}

impl<'a> Fields<'a> {
    fn error(&self, what: &str) -> String {
        format!("fault-plan entry {:?}: {what}", self.entry)
    }

    fn next(&mut self, what: &str) -> Result<&'a str, String> {
        self.rest
            .next()
            .ok_or_else(|| self.error(&format!("missing {what}")))
    }

    fn num<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, String> {
        let field = self.next(what)?;
        field
            .parse()
            .map_err(|_| self.error(&format!("bad {what} {field:?}")))
    }

    /// A journaled-cell count: `exit-after=N` and `proc=…:AFTER`, ≥ 1.
    fn cells(&mut self) -> Result<u64, String> {
        match self.num("cell count")? {
            0 => Err(self.error("cell count must be >= 1")),
            n => Ok(n),
        }
    }

    fn class(&mut self) -> Result<FaultClass, String> {
        FaultClass::parse(self.next("class")?).map_err(|e| self.error(&e))
    }

    fn is_done(&mut self) -> bool {
        self.rest.peek().is_none()
    }
}

/// Process-wide installed plan plus its runtime state.
struct ActivePlan {
    plan: FaultPlan,
    /// Per-path injected-I/O-failure attempt counters.
    io_attempts: Vec<(String, u32)>,
    /// Cells journaled (or hintd batches accepted) since [`install`].
    cells_completed: u64,
    /// The process fault [`cell_completed`] fires — at most one per
    /// process (one worker = one attempt) — and the journal a
    /// [`ProcFaultKind::TornJournal`] fault tears.
    armed: Option<ProcFault>,
    journal: Option<PathBuf>,
}

// simlint: allow(D03) -- plan registry; swapped at run setup, its counters touched only at fault checkpoints
static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);

/// Installs `plan` process-wide, replacing any previous plan and all of
/// its runtime state, and arms the plan's `exit-after` fault (if any).
pub fn install(plan: FaultPlan) {
    let armed = plan
        .proc_points
        .iter()
        .find(|p| p.at.is_none())
        .map(|p| p.fault.clone());
    *PLAN.lock().expect("fault plan registry poisoned") = Some(ActivePlan {
        plan,
        io_attempts: Vec::new(),
        cells_completed: 0,
        armed,
        journal: None,
    });
}

/// Arms the installed plan's process fault for this worker's `attempt`
/// ([`FaultPlan::proc_fault`]) in place of the one [`install`] armed;
/// `journal` is the file a torn fault tears. Returns the armed fault;
/// without an installed plan nothing is armed.
pub fn arm(attempt: u32, journal: PathBuf) -> Option<ProcFault> {
    let mut guard = PLAN.lock().expect("fault plan registry poisoned");
    let active = guard.as_mut()?;
    active.armed = active.plan.proc_fault(attempt);
    active.journal = Some(journal);
    active.armed.clone()
}

/// Removes the installed plan; subsequent checks are no-ops.
pub fn clear() {
    *PLAN.lock().expect("fault plan registry poisoned") = None;
}

/// Injection checkpoint at the start of a cell attempt. Panics with a
/// [`SimError`] payload when the installed plan targets this cell:
/// transient faults fire on attempt 0 only (so one retry heals them);
/// poison and fatal faults fire on every attempt.
pub fn cell_attempt(figure: &str, index: usize, attempt: u32) {
    let class = {
        let guard = PLAN.lock().expect("fault plan registry poisoned");
        match guard.as_ref() {
            Some(active) => active.plan.cell_fault(figure, index),
            None => None,
        }
    };
    if let Some(class) = class {
        if class != FaultClass::Transient || attempt == 0 {
            std::panic::panic_any(SimError {
                class,
                message: format!(
                    "injected {class} fault at cell {figure}[{index}] (attempt {attempt})"
                ),
            });
        }
    }
}

/// Crash checkpoint, called once per journaled grid cell (or accepted
/// hintd batch): counts it and, once the armed process fault's threshold
/// is reached, performs the planned failure — simulating a mid-run crash
/// for the resume tests, the hintd crash battery and the supervisor
/// battery. Never returns when a fault fires.
pub fn cell_completed() {
    let (fault, journal, done) = {
        let mut guard = PLAN.lock().expect("fault plan registry poisoned");
        let Some(active) = guard.as_mut() else { return };
        active.cells_completed += 1;
        let done = active.cells_completed;
        let Some(fault) = active.armed.take_if(|f| done >= f.after_cells) else {
            return;
        };
        (fault, active.journal.clone(), done)
    };
    fire(fault.kind, journal, done);
}

/// Injection checkpoint for `results/` writes: returns an injected
/// transient error ([`io::ErrorKind::Interrupted`], so callers' bounded
/// retry loops recognise it as retryable) for the first `K` attempts on any
/// path matching the plan's `io=PATTERN:K` entry.
pub fn io_fault(path: &str) -> Option<io::Error> {
    let mut guard = PLAN.lock().expect("fault plan registry poisoned");
    let active = guard.as_mut()?;
    let (pattern, k) = active.plan.io_pattern.clone()?;
    if !path.contains(&pattern) {
        return None;
    }
    let attempts = match active.io_attempts.iter_mut().find(|(p, _)| p == path) {
        Some((_, n)) => n,
        None => {
            active.io_attempts.push((path.to_owned(), 0));
            &mut active.io_attempts.last_mut().expect("just pushed").1
        }
    };
    *attempts += 1;
    if *attempts <= k {
        Some(io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient i/o fault on {path} (attempt {attempts})"),
        ))
    } else {
        None
    }
}

/// Installs a panic hook that silences injected faults (payload is a
/// [`SimError`]) and shrinks organic cell panics to one line — quarantined
/// cells already report through `grid_stats.json`, so the default
/// multi-line hook output would only drown the run log.
pub fn silence_injected_panics() {
    std::panic::set_hook(Box::new(|info| {
        if info.payload().downcast_ref::<SimError>().is_some() {
            return;
        }
        let location = info
            .location()
            .map(|l| format!("{}:{}", l.file(), l.line()))
            .unwrap_or_else(|| "<unknown>".to_owned());
        let message = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("opaque panic payload");
        eprintln!("cell panic at {location}: {message}");
    }));
}

/// A single deterministic byte-stream corruption, for fuzzing decoders
/// against truncated / bit-flipped / garbage input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the stream to `len` bytes.
    Truncate(usize),
    /// Flip one bit of one byte.
    FlipBit {
        /// Byte offset (taken modulo the stream length).
        offset: usize,
        /// Bit index 0..8.
        bit: u8,
    },
    /// Overwrite one byte.
    ReplaceByte {
        /// Byte offset (taken modulo the stream length).
        offset: usize,
        /// Replacement value.
        value: u8,
    },
    /// Replace the whole stream with arbitrary bytes.
    Garbage(Vec<u8>),
}

impl Corruption {
    /// Draws a corruption appropriate for a stream of `len` bytes.
    pub fn arbitrary(rng: &mut SimRng, len: usize) -> Corruption {
        let byte = |rng: &mut SimRng| (rng.next_u64() >> 56) as u8;
        if len == 0 {
            let n = rng.gen_range(1usize..64);
            return Corruption::Garbage((0..n).map(|_| byte(rng)).collect());
        }
        match rng.gen_range(0u32..4) {
            0 => Corruption::Truncate(rng.gen_range(0usize..len)),
            1 => Corruption::FlipBit {
                offset: rng.gen_range(0usize..len),
                bit: rng.gen_range(0u32..8) as u8,
            },
            2 => Corruption::ReplaceByte {
                offset: rng.gen_range(0usize..len),
                value: byte(rng),
            },
            _ => {
                let n = rng.gen_range(1usize..64);
                Corruption::Garbage((0..n).map(|_| byte(rng)).collect())
            }
        }
    }

    /// Applies the corruption in place.
    pub fn apply(&self, bytes: &mut Vec<u8>) {
        match self {
            Corruption::Truncate(len) => bytes.truncate(*len),
            Corruption::FlipBit { offset, bit } => {
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] ^= 1 << (bit % 8);
                }
            }
            Corruption::ReplaceByte { offset, value } => {
                if !bytes.is_empty() {
                    let i = offset % bytes.len();
                    bytes[i] = *value;
                }
            }
            Corruption::Garbage(garbage) => *bytes = garbage.clone(),
        }
    }
}

/// One deterministic network fault, injected at a codec boundary (the
/// length-prefixed frame layer of `hintd` and anything else that ships
/// byte frames over a stream). Each variant models a concrete wire
/// failure; [`NetFaultKind::class`] maps it onto the transient/poison/fatal
/// taxonomy so client retry loops classify wire errors exactly the way
/// [`isolated`] classifies cell failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFaultKind {
    /// The frame is silently discarded: never written to the stream. The
    /// sender observes a missing response (read timeout / closed stream).
    Drop,
    /// The frame is delivered after a deterministic delay of `ms`
    /// milliseconds — long enough to trip read deadlines and the
    /// idle-connection reaper when configured above them.
    Delay {
        /// Injected delay, milliseconds (capped at parse time).
        ms: u64,
    },
    /// Only the first `offset` bytes of the frame reach the stream; the
    /// connection is then unusable mid-frame (the receiver sees a torn
    /// length-prefixed frame and must drop the connection).
    Truncate {
        /// Bytes delivered before the cut.
        offset: usize,
    },
    /// One byte of the frame is XORed with `xor` — a bit-level corruption
    /// the receiver's decoder must reject rather than act on.
    Garble {
        /// Byte offset (taken modulo the frame length by appliers).
        offset: usize,
        /// XOR mask applied to the byte (0 is rejected at parse time).
        xor: u8,
    },
}

impl NetFaultKind {
    /// Taxonomy mapping. Every wire-level fault is [`FaultClass::Transient`]
    /// from the sender's perspective: resending the frame (on a fresh
    /// connection where the stream state is torn) heals it, exactly like an
    /// injected I/O flake. Spec entries may override the class (e.g. to
    /// test that a poison-classified failure is *not* retried).
    pub fn class(self) -> FaultClass {
        FaultClass::Transient
    }
}

/// A planned network fault: fires on exactly one `(connection, operation)`
/// site, with an explicit taxonomy class.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetFault {
    /// What happens to the frame.
    pub kind: NetFaultKind,
    /// How the sender's retry logic should treat the resulting failure.
    pub class: FaultClass,
}

/// A process-level fault: how a supervised worker process dies (or
/// misbehaves) once it has journaled `after_cells` grid cells. Unlike a
/// plan's cell faults — which panic *inside* a cell and are healed by
/// `fault::isolated` — these simulate the failure modes a worker
/// **supervisor** must survive: the whole worker disappearing, wedging,
/// or lying about success.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcFaultKind {
    /// `process::exit(CRASH_EXIT_CODE)` mid-run — the moral equivalent of
    /// an OOM kill or `kill -9`; the fsync'd journal is all that survives.
    Die,
    /// The worker stops making progress but never exits: an infinite
    /// bounded-sleep loop. Only the supervisor's journal-watermark
    /// heartbeat (or an external `kill -9`) can clear it.
    Hang,
    /// A torn-journal exit: raw non-newline-terminated bytes (including an
    /// invalid-UTF-8 byte) are appended to the journal, then the process
    /// dies — the on-disk state a power loss mid-`write(2)` leaves behind.
    TornJournal,
    /// The worker prints garbage to stdout and exits **0** without
    /// finishing its figures: a false success the supervisor must catch via
    /// journal-coverage verification, never via exit status.
    GarbageStdout,
}

impl ProcFaultKind {
    /// Lower-case spec name.
    pub fn name(&self) -> &'static str {
        match self {
            ProcFaultKind::Die => "die",
            ProcFaultKind::Hang => "hang",
            ProcFaultKind::TornJournal => "torn",
            ProcFaultKind::GarbageStdout => "garbage",
        }
    }
}

/// One planned process-level fault (`proc=` or `exit-after=`), armed
/// by [`install`] or [`arm`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcFault {
    /// What the worker does at the trigger point.
    pub kind: ProcFaultKind,
    /// Grid cells journaled before the fault fires (≥ 1).
    pub after_cells: u64,
}

/// Performs a process fault that [`cell_completed`] found due. Never
/// returns (exit or hang).
fn fire(kind: ProcFaultKind, journal: Option<PathBuf>, cells_done: u64) -> ! {
    match kind {
        ProcFaultKind::Die => {
            eprintln!("proc fault: dying after {cells_done} journaled cells");
            std::process::exit(CRASH_EXIT_CODE);
        }
        ProcFaultKind::Hang => {
            eprintln!("proc fault: hanging after {cells_done} journaled cells");
            // Wedge without burning a core; only the supervisor's
            // heartbeat timeout (or kill -9) clears this state.
            loop {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        }
        ProcFaultKind::TornJournal => {
            eprintln!("proc fault: tearing journal after {cells_done} journaled cells");
            if let Some(path) = &journal {
                use std::io::Write as _;
                // Raw append, no newline, invalid UTF-8 mid-record: the
                // exact bytes a power loss mid-write leaves behind. The
                // fsync matters — the *torn* state must itself be durable
                // for the resume path to prove it tolerates it.
                if let Ok(mut f) = std::fs::OpenOptions::new().append(true).open(path) {
                    let _ = f.write_all(b"{\"kind\":\"cell\",\"figure\":\"t\xFForn");
                    let _ = f.sync_all();
                }
            }
            std::process::exit(CRASH_EXIT_CODE);
        }
        ProcFaultKind::GarbageStdout => {
            use std::io::Write as _;
            eprintln!("proc fault: garbage stdout + false success after {cells_done} cells");
            let mut out = std::io::stdout();
            let _ = out.write_all(&[0xA5u8; 64]);
            let _ = out.write_all(b"\x00GARBAGE NOT A FIGURE\x00");
            let _ = out.flush();
            // Exit 0: the lie. Supervisors must verify journal coverage,
            // not trust exit status.
            std::process::exit(0);
        }
    }
}

/// FNV-1a over a byte string; the workspace's standard cheap stable hash
/// (fault-site draws here, shard selection in `hintd`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Test-only exclusive hold on the process-global fault state.
///
/// The plan and the armed process fault are process-wide, and the test
/// harness runs tests on parallel threads: a test that installs a plan must
/// hold this guard for its whole body, so no other test's plan replaces or
/// clears it mid-assertion. Dropping the guard clears the state (even when
/// an assertion failed) before releasing the lock.
#[cfg(test)]
pub(crate) struct ClearPlan {
    _exclusive: std::sync::MutexGuard<'static, ()>,
}

#[cfg(test)]
impl ClearPlan {
    /// Waits for every other plan-installing test to finish, then starts
    /// from a clean state.
    pub(crate) fn exclusive() -> Self {
        // simlint: allow(D03) -- test-only serialization of the global plan, never compiled into the library
        static EXCLUSIVE: Mutex<()> = Mutex::new(());
        // A test that panicked while holding the lock still cleared the
        // state in `drop`, so a poisoned lock guards a clean state.
        let exclusive = EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner());
        clear();
        Self {
            _exclusive: exclusive,
        }
    }
}

#[cfg(test)]
impl Drop for ClearPlan {
    fn drop(&mut self) {
        clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_returns_value_first_try() {
        let out = isolated(3, |attempt| {
            assert_eq!(attempt, 0);
            42
        });
        assert_eq!(out.result.unwrap(), 42);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn isolated_retries_transient_then_succeeds() {
        let out = isolated(2, |attempt| {
            if attempt == 0 {
                std::panic::panic_any(SimError::transient("flaky"));
            }
            attempt
        });
        assert_eq!(out.result.unwrap(), 1);
        assert_eq!(out.attempts, 2);
    }

    #[test]
    fn isolated_gives_up_after_retry_budget() {
        let out: Isolated<()> = isolated(2, |_| {
            std::panic::panic_any(SimError::transient("always flaky"));
        });
        let err = out.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
        assert_eq!(out.attempts, 3, "initial attempt + 2 retries");
    }

    #[test]
    fn isolated_never_retries_poison_and_classifies_organic_panics() {
        let out: Isolated<()> = isolated(5, |_| {
            std::panic::panic_any(SimError::poison("bad input"));
        });
        assert_eq!(out.attempts, 1);
        assert_eq!(out.result.unwrap_err().class, FaultClass::Poison);

        let organic: Isolated<()> = isolated(5, |_| panic!("index out of bounds"));
        assert_eq!(organic.attempts, 1, "organic panics are poison: no retry");
        let err = organic.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Poison);
        assert!(err.message.contains("index out of bounds"), "{err}");
    }

    #[test]
    fn plan_spec_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("seed=7,panic=fig01:2:poison,panic=fig09:0:transient,io=stats:2")
                .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.cell_fault("fig01", 2), Some(FaultClass::Poison));
        assert_eq!(plan.cell_fault("fig09", 0), Some(FaultClass::Transient));
        assert_eq!(plan.cell_fault("fig01", 1), None);
        assert_eq!(plan.io_pattern, Some(("stats".to_owned(), 2)));

        let with_exit = FaultPlan::parse("exit-after=5").unwrap();
        let die_after_5 = Some(ProcFault {
            kind: ProcFaultKind::Die,
            after_cells: 5,
        });
        assert_eq!(with_exit.proc_fault(0), die_after_5);
        assert_eq!(
            with_exit.proc_fault(3),
            die_after_5,
            "exit-after addresses every process"
        );

        assert!(FaultPlan::parse("panic=fig01:x:poison").is_err());
        assert!(FaultPlan::parse("panic-rate=1.5:poison").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("exit-after=0").is_err(), "N >= 1");
        for (spec, key) in [
            ("seed=1,seed=2", "seed"),
            ("panic-rate=0.1:poison,panic-rate=0.2:poison", "panic-rate"),
            ("io=a:1,io=b:2", "io"),
            ("exit-after=3,exit-after=4", "exit-after"),
        ] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains(&format!("{key:?}")), "{spec}: {err}");
        }
        assert!(FaultPlan::parse("").unwrap().cell_points.is_empty());
    }

    #[test]
    fn parse_keys_rejects_keys_without_a_site() {
        let keys = ["io", "exit-after"];
        assert!(FaultPlan::parse_keys("io=stats:1,exit-after=2", &keys).is_ok());
        let err = FaultPlan::parse_keys("exit-after=2,proc=1:0:die", &keys).unwrap_err();
        assert!(err.contains("\"proc\""), "{err}");
        assert!(err.contains("accepted: io, exit-after"), "{err}");
        let err = FaultPlan::parse_keys("bogus=1", &keys).unwrap_err();
        assert!(err.contains("unknown fault-plan key \"bogus\""), "{err}");
    }

    #[test]
    fn rate_based_faults_are_deterministic_per_site() {
        let plan = FaultPlan::parse("seed=3,panic-rate=0.5:poison").unwrap();
        let draws: Vec<Option<FaultClass>> = (0..64).map(|i| plan.cell_fault("figX", i)).collect();
        let again: Vec<Option<FaultClass>> = (0..64).map(|i| plan.cell_fault("figX", i)).collect();
        assert_eq!(draws, again, "same plan + site => same decision");
        let hits = draws.iter().filter(|d| d.is_some()).count();
        assert!((10..=54).contains(&hits), "rate 0.5 hit {hits}/64 cells");
        let other_seed = FaultPlan::parse("seed=4,panic-rate=0.5:poison").unwrap();
        let other: Vec<Option<FaultClass>> =
            (0..64).map(|i| other_seed.cell_fault("figX", i)).collect();
        assert_ne!(draws, other, "seed must matter");
    }

    #[test]
    fn installed_plan_panics_targeted_cells_only() {
        let _guard = ClearPlan::exclusive();
        install(FaultPlan::parse("panic=unit:1:transient").unwrap());
        cell_attempt("unit", 0, 0); // untargeted: no panic
        cell_attempt("unit", 1, 1); // transient fires on attempt 0 only
        let out: Isolated<()> = isolated(0, |attempt| cell_attempt("unit", 1, attempt));
        let err = out.result.unwrap_err();
        assert_eq!(err.class, FaultClass::Transient);
        assert!(err.message.contains("unit[1]"), "{err}");
        // With one retry the transient fault heals.
        let healed = isolated(1, |attempt| {
            cell_attempt("unit", 1, attempt);
            "ok"
        });
        assert_eq!(healed.result.unwrap(), "ok");
        assert_eq!(healed.attempts, 2);
    }

    #[test]
    fn io_faults_fail_first_k_attempts_on_matching_paths() {
        let _guard = ClearPlan::exclusive();
        install(FaultPlan::parse("io=grid_stats:2").unwrap());
        assert!(io_fault("results/figures.md").is_none(), "pattern mismatch");
        let first = io_fault("results/grid_stats.json").expect("attempt 1 fails");
        assert_eq!(first.kind(), io::ErrorKind::Interrupted);
        assert!(io_fault("results/grid_stats.json").is_some(), "attempt 2");
        assert!(
            io_fault("results/grid_stats.json").is_none(),
            "attempt 3 ok"
        );
        clear();
        assert!(io_fault("results/grid_stats.json").is_none(), "no plan");
    }

    #[test]
    fn net_fault_plan_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("net=0:2:drop,net=1:0:delay:250,net=1:3:trunc:7,net=2:1:garble:5:255")
                .expect("valid spec");
        assert_eq!(plan.net_points.len(), 4);
        assert_eq!(
            plan.net_fault(0, 2),
            Some(NetFault {
                kind: NetFaultKind::Drop,
                class: FaultClass::Transient,
            })
        );
        assert_eq!(
            plan.net_fault(1, 0).map(|f| f.kind),
            Some(NetFaultKind::Delay { ms: 250 })
        );
        assert_eq!(
            plan.net_fault(1, 3).map(|f| f.kind),
            Some(NetFaultKind::Truncate { offset: 7 })
        );
        assert_eq!(
            plan.net_fault(2, 1).map(|f| f.kind),
            Some(NetFaultKind::Garble {
                offset: 5,
                xor: 255
            })
        );
        assert_eq!(plan.net_fault(0, 0), None, "unplanned site is clean");
        assert!(FaultPlan::parse("").unwrap().net_points.is_empty());

        assert!(FaultPlan::parse("net=0:drop").is_err(), "missing op");
        assert!(FaultPlan::parse("net=0:0:warp").is_err(), "unknown kind");
        assert!(FaultPlan::parse("net=0:0:delay").is_err(), "delay wants ms");
        assert!(
            FaultPlan::parse("net=0:0:delay:99999").is_err(),
            "delay cap enforced"
        );
        assert!(
            FaultPlan::parse("net=0:0:garble:1:0").is_err(),
            "no-op garble rejected"
        );
        assert!(
            FaultPlan::parse("net=0:0:drop:poison:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn net_fault_class_defaults_transient_and_overrides_parse() {
        for spec in [
            "net=7:0:drop",
            "net=7:0:delay:1",
            "net=7:0:trunc:0",
            "net=7:0:garble:0:1",
        ] {
            let plan = FaultPlan::parse(spec).unwrap();
            assert_eq!(
                plan.net_fault(7, 0).unwrap().class,
                FaultClass::Transient,
                "{spec}: wire faults default to transient"
            );
        }
        let overridden = FaultPlan::parse("net=7:0:drop:poison,net=7:1:trunc:3:fatal").unwrap();
        assert_eq!(
            overridden.net_fault(7, 0).unwrap().class,
            FaultClass::Poison
        );
        assert_eq!(overridden.net_fault(7, 1).unwrap().class, FaultClass::Fatal);
    }

    #[test]
    fn proc_fault_plan_round_trips_the_grammar() {
        let plan =
            FaultPlan::parse("proc=1:0:die:3,proc=1:1:hang:2,proc=1:2:torn,proc=1:3:garbage")
                .expect("valid spec");
        assert_eq!(plan.proc_points.len(), 4);
        assert_eq!(
            plan.proc_fault(0),
            Some(ProcFault {
                kind: ProcFaultKind::Die,
                after_cells: 3,
            })
        );
        assert_eq!(
            plan.proc_fault(1).map(|f| f.kind),
            Some(ProcFaultKind::Hang)
        );
        assert_eq!(
            plan.proc_fault(2),
            Some(ProcFault {
                kind: ProcFaultKind::TornJournal,
                after_cells: 1,
            }),
            "AFTER defaults to 1"
        );
        assert_eq!(
            plan.proc_fault(3).map(|f| f.kind),
            Some(ProcFaultKind::GarbageStdout)
        );
        // Keyed by attempt: an unplanned restart is clean.
        assert_eq!(plan.proc_fault(4), None, "unplanned attempt is clean");
        assert!(FaultPlan::parse("").unwrap().proc_points.is_empty());

        assert!(FaultPlan::parse("proc=1:die").is_err(), "missing attempt");
        for spec in ["proc=0:0:die", "proc=2:0:die"] {
            let err = FaultPlan::parse(spec).expect_err(spec);
            assert!(err.contains("SHARD must be 1"), "{spec}: {err}");
        }
        assert!(
            FaultPlan::parse("proc=1:0:explode").is_err(),
            "unknown kind"
        );
        assert!(FaultPlan::parse("proc=1:0:die:0").is_err(), "AFTER >= 1");
        assert!(
            FaultPlan::parse("proc=1:0:die:1:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn proc_fault_lookup_is_deterministic_and_first_match_wins() {
        let plan = FaultPlan::parse("proc=1:0:die:5,proc=1:0:hang:9").unwrap();
        let a = plan.proc_fault(0);
        let b = plan.proc_fault(0);
        assert_eq!(a, b, "same attempt => same fault");
        assert_eq!(a.map(|f| f.kind), Some(ProcFaultKind::Die));
    }

    #[test]
    fn arming_below_threshold_is_inert_and_disarm_clears() {
        let _guard = ClearPlan::exclusive();
        let armed = || {
            PLAN.lock()
                .unwrap()
                .as_ref()
                .and_then(|active| active.armed.clone())
        };
        install(FaultPlan::parse(&format!("proc=1:0:die:{}", u64::MAX)).unwrap());
        assert_eq!(armed(), None, "install arms only exit-after");
        assert_eq!(arm(1, PathBuf::from("unused")), None, "other attempt");
        let planned = arm(0, PathBuf::from("unused")).expect("own attempt");
        assert_eq!(planned.after_cells, u64::MAX);
        // Threshold unreachable: the checkpoint must be a no-op.
        cell_completed();
        cell_completed();
        assert_eq!(armed(), Some(planned));
        // A fresh install disarms, as clear does, and arms its exit-after.
        install(FaultPlan::parse("exit-after=9").unwrap());
        assert_eq!(armed().map(|f| f.after_cells), Some(9));
        clear();
        assert_eq!(armed(), None);
        cell_completed();
    }

    #[test]
    fn corruption_applies_deterministically() {
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..200 {
            let n = rng.gen_range(0usize..32);
            let mut bytes: Vec<u8> = (0..n).map(|_| (rng.next_u64() >> 56) as u8).collect();
            let original = bytes.clone();
            let corruption = Corruption::arbitrary(&mut rng, bytes.len());
            corruption.apply(&mut bytes);
            let mut again = original.clone();
            corruption.apply(&mut again);
            assert_eq!(bytes, again, "apply must be deterministic");
            if let Corruption::Truncate(n) = corruption {
                assert_eq!(bytes.len(), n.min(original.len()));
            }
        }
    }
}
