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
//!   `figures --fault-plan` flag) chooses, *deterministically*, which grid
//!   cells panic, which `results/` writes fail, and when the process dies
//!   mid-run. Every choice is a pure function of the plan seed and the
//!   fault site, so a faulty run is exactly reproducible — the property the
//!   crash-resume CI stage relies on.
//!
//! [`isolated`] is the only sanctioned `catch_unwind` wrapper outside the
//! pool (enforced by simlint rule S03): it converts panics into [`SimError`]
//! and performs the bounded deterministic retry loop for transient faults.
//!
//! # Plan spec grammar
//!
//! Comma-separated `key=value` entries:
//!
//! | entry | meaning |
//! |-------|---------|
//! | `seed=N`              | seeds rate-based draws (default 0) |
//! | `panic=FIG:IDX:CLASS` | cell `(FIG, IDX)` panics with `CLASS` (repeatable) |
//! | `panic-rate=P:CLASS`  | every cell panics with probability `P` |
//! | `io=PATTERN:K`        | first `K` writes to paths containing `PATTERN` fail transiently |
//! | `exit-after=N`        | `process::exit(86)` once `N` cells have been journaled |
//!
//! `CLASS` is `transient` (fires on attempt 0 only — a retry succeeds),
//! `poison` (fires on every attempt), or `fatal`.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
// simlint: allow(D03) -- fault-plane bookkeeping only; decisions are pure in (seed, site)
use std::sync::atomic::{AtomicU64, Ordering};
// simlint: allow(D03) -- guards the installed plan, swapped only at run setup/teardown
use std::sync::Mutex;

use crate::rng::{SimRng, SplitMix64};

/// Exit code used by [`cell_completed`] when an `exit-after` fault fires —
/// distinguishable from ordinary failures in `scripts/ci.sh`.
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

/// A deterministic fault-injection plan. See the [module docs](self) for
/// the spec grammar. All injection decisions are pure functions of the plan
/// and the fault site, never of scheduling or wall-clock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    cell_points: Vec<CellPoint>,
    panic_rate: Option<(f64, FaultClass)>,
    io_pattern: Option<(String, u32)>,
    exit_after: Option<u64>,
}

impl FaultPlan {
    /// Parses a `--fault-plan` spec string.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let (key, value) = entry
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry {entry:?} is not key=value"))?;
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("bad seed {value:?}"))?;
                }
                "panic" => {
                    let mut parts = value.splitn(3, ':');
                    let figure = parts.next().unwrap_or("").to_owned();
                    let index: usize = parts
                        .next()
                        .ok_or_else(|| format!("panic={value:?}: missing cell index"))?
                        .parse()
                        .map_err(|_| format!("panic={value:?}: bad cell index"))?;
                    let class = FaultClass::parse(
                        parts
                            .next()
                            .ok_or_else(|| format!("panic={value:?}: missing class"))?,
                    )?;
                    if figure.is_empty() {
                        return Err(format!("panic={value:?}: missing figure id"));
                    }
                    plan.cell_points.push(CellPoint {
                        figure,
                        index,
                        class,
                    });
                }
                "panic-rate" => {
                    let (p, class) = value
                        .split_once(':')
                        .ok_or_else(|| format!("panic-rate={value:?}: want P:CLASS"))?;
                    let p: f64 = p
                        .parse()
                        .map_err(|_| format!("panic-rate={value:?}: bad probability"))?;
                    if !(0.0..=1.0).contains(&p) {
                        return Err(format!("panic-rate={p}: probability outside [0, 1]"));
                    }
                    plan.panic_rate = Some((p, FaultClass::parse(class)?));
                }
                "io" => {
                    let (pattern, k) = value
                        .split_once(':')
                        .ok_or_else(|| format!("io={value:?}: want PATTERN:K"))?;
                    let k: u32 = k
                        .parse()
                        .map_err(|_| format!("io={value:?}: bad failure count"))?;
                    plan.io_pattern = Some((pattern.to_owned(), k));
                }
                "exit-after" => {
                    plan.exit_after = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| format!("bad exit-after {value:?}"))?,
                    );
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
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
}

/// Process-wide installed plan plus its runtime counters.
struct ActivePlan {
    plan: FaultPlan,
    /// Per-path injected-I/O-failure attempt counters.
    io_attempts: Vec<(String, u32)>,
}

// simlint: allow(D03) -- plan registry; swapped at run setup, read-only during execution
static PLAN: Mutex<Option<ActivePlan>> = Mutex::new(None);
// simlint: allow(D03) -- crash-countdown telemetry, never read by simulated code
static CELLS_COMPLETED: AtomicU64 = AtomicU64::new(0);

/// Installs `plan` process-wide (replacing any previous plan) and resets
/// the runtime fault counters.
pub fn install(plan: FaultPlan) {
    let mut slot = PLAN.lock().expect("fault plan registry poisoned");
    *slot = Some(ActivePlan {
        plan,
        io_attempts: Vec::new(),
    });
    CELLS_COMPLETED.store(0, Ordering::SeqCst);
}

/// Removes the installed plan; subsequent checks are no-ops.
pub fn clear() {
    *PLAN.lock().expect("fault plan registry poisoned") = None;
    *PROC_FAULT.lock().expect("proc fault slot poisoned") = None;
    CELLS_COMPLETED.store(0, Ordering::SeqCst);
}

/// Whether a fault plan is currently installed.
pub fn is_active() -> bool {
    PLAN.lock().expect("fault plan registry poisoned").is_some()
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

/// Crash checkpoint: counts journaled cells and, when the plan's
/// `exit-after` threshold (or an armed [`ProcFault`]) is reached, performs
/// the planned process-level failure — simulating a mid-run crash for the
/// resume tests and the shard-supervisor battery.
pub fn cell_completed() {
    let exit_after = {
        let guard = PLAN.lock().expect("fault plan registry poisoned");
        guard.as_ref().and_then(|active| active.plan.exit_after)
    };
    let done = CELLS_COMPLETED.fetch_add(1, Ordering::SeqCst) + 1;
    if let Some(limit) = exit_after {
        if done >= limit {
            eprintln!("fault plan: simulated crash after {done} journaled cells");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }
    maybe_fire_proc_fault(done);
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
/// [`crate::pool::ThreadPool::try_par_map`] classifies cell failures.
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

    /// Lower-case spec name.
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Delay { .. } => "delay",
            NetFaultKind::Truncate { .. } => "trunc",
            NetFaultKind::Garble { .. } => "garble",
        }
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

/// A deterministic network fault plan: a set of [`NetFault`]s addressed by
/// `(connection id, operation index)`. Like [`FaultPlan`], every decision
/// is a pure function of the plan and the site, so a faulty exchange is
/// exactly replayable.
///
/// # Spec grammar
///
/// Comma-separated entries `CONN:OP:KIND[:ARGS][:CLASS]`:
///
/// | entry | meaning |
/// |-------|---------|
/// | `C:O:drop`          | frame `O` on connection `C` is discarded |
/// | `C:O:delay:MS`      | frame delayed `MS` ms (capped at 10 000) |
/// | `C:O:trunc:N`       | only the first `N` bytes are delivered |
/// | `C:O:garble:N:X`    | byte `N` (mod frame len) XORed with `X` |
///
/// `CLASS` (`transient`/`poison`/`fatal`) optionally overrides the default
/// transient classification, e.g. `0:1:drop:poison`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NetFaultPlan {
    entries: Vec<(u64, u64, NetFault)>,
}

/// Upper bound accepted for `delay` entries: fault plans must never make a
/// test hang for minutes on a typo.
const MAX_NET_DELAY_MS: u64 = 10_000;

impl NetFaultPlan {
    /// Parses the spec grammar above. An empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = NetFaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() < 3 {
                return Err(format!("net-fault entry {entry:?} wants CONN:OP:KIND"));
            }
            let conn: u64 = parts[0]
                .parse()
                .map_err(|_| format!("net-fault {entry:?}: bad connection id"))?;
            let op: u64 = parts[1]
                .parse()
                .map_err(|_| format!("net-fault {entry:?}: bad operation index"))?;
            let (kind, consumed) = match parts[2] {
                "drop" => (NetFaultKind::Drop, 3),
                "delay" => {
                    let ms: u64 = parts
                        .get(3)
                        .ok_or_else(|| format!("net-fault {entry:?}: delay wants :MS"))?
                        .parse()
                        .map_err(|_| format!("net-fault {entry:?}: bad delay"))?;
                    if ms > MAX_NET_DELAY_MS {
                        return Err(format!(
                            "net-fault {entry:?}: delay {ms} ms exceeds the {MAX_NET_DELAY_MS} ms cap"
                        ));
                    }
                    (NetFaultKind::Delay { ms }, 4)
                }
                "trunc" => {
                    let offset: usize = parts
                        .get(3)
                        .ok_or_else(|| format!("net-fault {entry:?}: trunc wants :N"))?
                        .parse()
                        .map_err(|_| format!("net-fault {entry:?}: bad truncate offset"))?;
                    (NetFaultKind::Truncate { offset }, 4)
                }
                "garble" => {
                    let offset: usize = parts
                        .get(3)
                        .ok_or_else(|| format!("net-fault {entry:?}: garble wants :N:X"))?
                        .parse()
                        .map_err(|_| format!("net-fault {entry:?}: bad garble offset"))?;
                    let xor: u8 = parts
                        .get(4)
                        .ok_or_else(|| format!("net-fault {entry:?}: garble wants :N:X"))?
                        .parse()
                        .map_err(|_| format!("net-fault {entry:?}: bad garble mask"))?;
                    if xor == 0 {
                        return Err(format!("net-fault {entry:?}: garble mask 0 is a no-op"));
                    }
                    (NetFaultKind::Garble { offset, xor }, 5)
                }
                other => return Err(format!("unknown net-fault kind {other:?}")),
            };
            let class = match parts.get(consumed) {
                Some(name) => FaultClass::parse(name)?,
                None => kind.class(),
            };
            if parts.len() > consumed + 1 {
                return Err(format!("net-fault {entry:?}: trailing fields"));
            }
            plan.entries.push((conn, op, NetFault { kind, class }));
        }
        Ok(plan)
    }

    /// The fault planned for operation `op` on connection `conn`, if any —
    /// a pure function of the plan and the site. The first matching entry
    /// wins, mirroring `FaultPlan::cell_fault`.
    pub fn fault_at(&self, conn: u64, op: u64) -> Option<NetFault> {
        self.entries
            .iter()
            .find(|(c, o, _)| *c == conn && *o == op)
            .map(|(_, _, fault)| *fault)
    }

    /// Whether the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// A process-level fault: how a sharded-sweep worker process dies (or
/// misbehaves) once it has journaled `after_cells` grid cells. Unlike the
/// in-process [`FaultPlan`] checkpoints — which panic *inside* a cell and
/// are healed by `fault::isolated` — these simulate the failure modes a
/// shard **supervisor** must survive: the whole worker disappearing,
/// wedging, or lying about success.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProcFaultKind {
    /// `process::exit(CRASH_EXIT_CODE)` mid-sweep — the moral equivalent of
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
    /// finishing its shard: a false success the supervisor must catch via
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

/// One planned process-level fault, armed inside a sweep worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcFault {
    /// What the worker does at the trigger point.
    pub kind: ProcFaultKind,
    /// Grid cells journaled before the fault fires (≥ 1).
    pub after_cells: u64,
}

/// A deterministic process-fault plan for sharded sweeps, keyed by
/// `(shard, attempt)` so every failure mode is exactly reproducible: the
/// supervisor forwards the spec to each worker, and the worker arms only
/// the entry addressed to its own coordinates. A restart (next attempt)
/// therefore sees a *different* key — typically clean, letting the sweep
/// converge; listing every attempt simulates a poison shard.
///
/// # Spec grammar
///
/// Comma-separated entries `SHARD:ATTEMPT:KIND[:AFTER]` (`SHARD` is the
/// 1-based shard number shown in `--shard i/N`; `AFTER` defaults to 1):
///
/// | entry | meaning |
/// |-------|---------|
/// | `2:0:die:3`   | shard 2's first attempt exits after 3 journaled cells |
/// | `1:0:hang:2`  | shard 1's first attempt wedges after 2 cells |
/// | `3:1:torn`    | shard 3's first *restart* tears its journal and dies |
/// | `4:0:garbage` | shard 4 prints garbage and exits 0 without finishing |
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcFaultPlan {
    entries: Vec<(u64, u32, ProcFault)>,
}

impl ProcFaultPlan {
    /// Parses the spec grammar above. An empty spec is an empty plan.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = ProcFaultPlan::default();
        for entry in spec.split(',').filter(|e| !e.trim().is_empty()) {
            let parts: Vec<&str> = entry.trim().split(':').collect();
            if parts.len() < 3 {
                return Err(format!(
                    "proc-fault entry {entry:?} wants SHARD:ATTEMPT:KIND[:AFTER]"
                ));
            }
            let shard: u64 = parts[0]
                .parse()
                .map_err(|_| format!("proc-fault {entry:?}: bad shard number"))?;
            if shard == 0 {
                return Err(format!(
                    "proc-fault {entry:?}: shards are 1-based (as in --shard i/N)"
                ));
            }
            let attempt: u32 = parts[1]
                .parse()
                .map_err(|_| format!("proc-fault {entry:?}: bad attempt index"))?;
            let kind = match parts[2] {
                "die" => ProcFaultKind::Die,
                "hang" => ProcFaultKind::Hang,
                "torn" => ProcFaultKind::TornJournal,
                "garbage" => ProcFaultKind::GarbageStdout,
                other => return Err(format!("unknown proc-fault kind {other:?}")),
            };
            let after_cells = match parts.get(3) {
                Some(n) => n
                    .parse()
                    .map_err(|_| format!("proc-fault {entry:?}: bad cell count"))?,
                None => 1,
            };
            if after_cells == 0 {
                return Err(format!("proc-fault {entry:?}: AFTER must be >= 1"));
            }
            if parts.len() > 4 {
                return Err(format!("proc-fault {entry:?}: trailing fields"));
            }
            plan.entries
                .push((shard, attempt, ProcFault { kind, after_cells }));
        }
        Ok(plan)
    }

    /// The fault planned for `(shard, attempt)`, if any — a pure function
    /// of the plan and the coordinates; the first matching entry wins.
    pub fn fault_for(&self, shard: u64, attempt: u32) -> Option<ProcFault> {
        self.entries
            .iter()
            .find(|(s, a, _)| *s == shard && *a == attempt)
            .map(|(_, _, fault)| fault.clone())
    }

    /// Whether the plan has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

/// An armed process fault plus the journal path [`ProcFaultKind::TornJournal`]
/// tears. At most one fault is armed per process (one worker = one shard
/// attempt = one plan entry).
struct ArmedProcFault {
    fault: ProcFault,
    journal_path: Option<std::path::PathBuf>,
}

// simlint: allow(D03) -- armed-fault slot; written once at worker startup, read at the cell checkpoint
static PROC_FAULT: Mutex<Option<ArmedProcFault>> = Mutex::new(None);

/// Arms `fault` in this process; it fires inside [`cell_completed`] once
/// the journaled-cell count reaches `fault.after_cells`. `journal_path`
/// is required by the torn-journal kind (it must tear the real journal).
pub fn arm_proc_fault(fault: ProcFault, journal_path: Option<std::path::PathBuf>) {
    *PROC_FAULT.lock().expect("proc fault slot poisoned") = Some(ArmedProcFault {
        fault,
        journal_path,
    });
}

/// Disarms any armed process fault (also done by [`clear`]).
pub fn disarm_proc_fault() {
    *PROC_FAULT.lock().expect("proc fault slot poisoned") = None;
}

/// Fires the armed process fault, if its cell threshold is met. Never
/// returns when a fault actually fires (exit or hang).
fn maybe_fire_proc_fault(cells_done: u64) {
    let armed = {
        let mut guard = PROC_FAULT.lock().expect("proc fault slot poisoned");
        match guard.as_ref() {
            Some(armed) if cells_done >= armed.fault.after_cells => guard.take(),
            _ => None,
        }
    };
    let Some(armed) = armed else { return };
    match armed.fault.kind {
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
            if let Some(path) = &armed.journal_path {
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
        assert_eq!(with_exit.exit_after, Some(5));

        assert!(FaultPlan::parse("panic=fig01:x:poison").is_err());
        assert!(FaultPlan::parse("panic-rate=1.5:poison").is_err());
        assert!(FaultPlan::parse("frobnicate=1").is_err());
        assert!(FaultPlan::parse("").unwrap().cell_points.is_empty());
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
        let plan = NetFaultPlan::parse("0:2:drop,1:0:delay:250,1:3:trunc:7,2:1:garble:5:255")
            .expect("valid spec");
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.fault_at(0, 2),
            Some(NetFault {
                kind: NetFaultKind::Drop,
                class: FaultClass::Transient,
            })
        );
        assert_eq!(
            plan.fault_at(1, 0).map(|f| f.kind),
            Some(NetFaultKind::Delay { ms: 250 })
        );
        assert_eq!(
            plan.fault_at(1, 3).map(|f| f.kind),
            Some(NetFaultKind::Truncate { offset: 7 })
        );
        assert_eq!(
            plan.fault_at(2, 1).map(|f| f.kind),
            Some(NetFaultKind::Garble {
                offset: 5,
                xor: 255
            })
        );
        assert_eq!(plan.fault_at(0, 0), None, "unplanned site is clean");
        assert!(NetFaultPlan::parse("").unwrap().is_empty());

        assert!(NetFaultPlan::parse("0:drop").is_err(), "missing op");
        assert!(NetFaultPlan::parse("0:0:warp").is_err(), "unknown kind");
        assert!(NetFaultPlan::parse("0:0:delay").is_err(), "delay wants ms");
        assert!(
            NetFaultPlan::parse("0:0:delay:99999").is_err(),
            "delay cap enforced"
        );
        assert!(
            NetFaultPlan::parse("0:0:garble:1:0").is_err(),
            "no-op garble rejected"
        );
        assert!(
            NetFaultPlan::parse("0:0:drop:poison:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn net_fault_class_defaults_transient_and_overrides_parse() {
        for spec in ["7:0:drop", "7:0:delay:1", "7:0:trunc:0", "7:0:garble:0:1"] {
            let plan = NetFaultPlan::parse(spec).unwrap();
            assert_eq!(
                plan.fault_at(7, 0).unwrap().class,
                FaultClass::Transient,
                "{spec}: wire faults default to transient"
            );
        }
        let overridden = NetFaultPlan::parse("7:0:drop:poison,7:1:trunc:3:fatal").unwrap();
        assert_eq!(overridden.fault_at(7, 0).unwrap().class, FaultClass::Poison);
        assert_eq!(overridden.fault_at(7, 1).unwrap().class, FaultClass::Fatal);
    }

    #[test]
    fn proc_fault_plan_round_trips_the_grammar() {
        let plan =
            ProcFaultPlan::parse("2:0:die:3,1:0:hang:2,3:1:torn,4:0:garbage").expect("valid spec");
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.fault_for(2, 0),
            Some(ProcFault {
                kind: ProcFaultKind::Die,
                after_cells: 3,
            })
        );
        assert_eq!(
            plan.fault_for(1, 0).map(|f| f.kind),
            Some(ProcFaultKind::Hang)
        );
        assert_eq!(
            plan.fault_for(3, 1),
            Some(ProcFault {
                kind: ProcFaultKind::TornJournal,
                after_cells: 1,
            }),
            "AFTER defaults to 1"
        );
        assert_eq!(
            plan.fault_for(4, 0).map(|f| f.kind),
            Some(ProcFaultKind::GarbageStdout)
        );
        // Keyed by (shard, attempt): a restart of shard 2 is clean.
        assert_eq!(plan.fault_for(2, 1), None);
        assert_eq!(plan.fault_for(5, 0), None, "unplanned shard is clean");
        assert!(ProcFaultPlan::parse("").unwrap().is_empty());

        assert!(ProcFaultPlan::parse("1:die").is_err(), "missing attempt");
        assert!(
            ProcFaultPlan::parse("0:0:die").is_err(),
            "shards are 1-based"
        );
        assert!(ProcFaultPlan::parse("1:0:explode").is_err(), "unknown kind");
        assert!(ProcFaultPlan::parse("1:0:die:0").is_err(), "AFTER >= 1");
        assert!(
            ProcFaultPlan::parse("1:0:die:1:x").is_err(),
            "trailing fields rejected"
        );
    }

    #[test]
    fn proc_fault_lookup_is_deterministic_and_first_match_wins() {
        let plan = ProcFaultPlan::parse("1:0:die:5,1:0:hang:9").unwrap();
        let a = plan.fault_for(1, 0);
        let b = plan.fault_for(1, 0);
        assert_eq!(a, b, "same coordinates => same fault");
        assert_eq!(a.map(|f| f.kind), Some(ProcFaultKind::Die));
    }

    #[test]
    fn arming_below_threshold_is_inert_and_disarm_clears() {
        let _guard = ClearPlan::exclusive();
        arm_proc_fault(
            ProcFault {
                kind: ProcFaultKind::Die,
                after_cells: u64::MAX,
            },
            None,
        );
        // Threshold unreachable: the checkpoint must be a no-op.
        cell_completed();
        cell_completed();
        disarm_proc_fault();
        clear();
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
