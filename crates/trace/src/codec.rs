//! Binary and text codecs for [`Trace`]s.
//!
//! The binary format is a compact, versioned, varint-based encoding:
//!
//! ```text
//! magic  "BTBT"            4 bytes
//! version                  varint (currently 1)
//! name length, name bytes  varint + UTF-8
//! record count             varint
//! per record:
//!   flags byte             kind in bits 0..3, taken in bit 3
//!   pc delta               signed varint (zig-zag) from previous pc
//!   target delta           signed varint (zig-zag) from pc
//!   inst_gap               varint
//! ```
//!
//! Delta + zig-zag encoding keeps typical records to a handful of bytes since
//! branch PCs and targets are clustered.

use std::io::{self, Read, Write};

use crate::index::Interner;
use crate::{BranchIndex, BranchKind, BranchRecord, Trace};

const MAGIC: &[u8; 4] = b"BTBT";
const VERSION: u64 = 1;

/// Upper bound on a trace name accepted by [`read_binary`]. Real names are
/// tens of bytes; the cap exists so a corrupt length prefix cannot make the
/// reader pre-allocate gigabytes and abort the process on OOM.
const MAX_NAME_LEN: u64 = 4096;

/// Error returned when decoding a trace fails.
#[derive(Debug)]
pub enum CodecError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input did not start with the `BTBT` magic.
    BadMagic,
    /// The input is a newer format version than this reader understands.
    UnsupportedVersion(u64),
    /// A record carried an unknown branch-kind code.
    BadKind(u8),
    /// The trace name was not valid UTF-8.
    BadName,
    /// The trace name length prefix exceeds the sanity cap — almost
    /// certainly a corrupt stream; refusing avoids an OOM abort.
    NameTooLong(u64),
    /// A numeric field exceeds its domain (e.g. a 64-bit `inst_gap` for a
    /// 32-bit record field): corrupt input, not silently truncated.
    Overflow(&'static str),
    /// A varint ran past 10 bytes or the input ended mid-value.
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Io(e) => write!(f, "i/o error: {e}"),
            CodecError::BadMagic => f.write_str("input is not a BTBT trace"),
            CodecError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            CodecError::BadKind(c) => write!(f, "unknown branch kind code {c}"),
            CodecError::BadName => f.write_str("trace name is not valid utf-8"),
            CodecError::NameTooLong(n) => {
                write!(
                    f,
                    "trace name length {n} exceeds the {MAX_NAME_LEN}-byte cap"
                )
            }
            CodecError::Overflow(field) => write!(f, "field {field} exceeds its domain"),
            CodecError::Truncated => f.write_str("unexpected end of input"),
        }
    }
}

impl std::error::Error for CodecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CodecError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            CodecError::Truncated
        } else {
            CodecError::Io(e)
        }
    }
}

fn write_varint<W: Write>(w: &mut W, mut v: u64) -> io::Result<()> {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            return w.write_all(&[byte]);
        }
        w.write_all(&[byte | 0x80])?;
    }
}

fn read_varint<R: Read>(r: &mut R) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Writes `trace` in the compact binary format.
///
/// # Errors
///
/// Returns any error from the underlying writer.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use btb_trace::{read_binary, write_binary, BranchKind, BranchRecord, Trace};
///
/// let mut trace = Trace::new("demo");
/// trace.push(BranchRecord::taken(0x400100, 0x400200, BranchKind::CondDirect, 3));
///
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace)?;
/// assert_eq!(read_binary(&mut buf.as_slice())?, trace);
/// # Ok(())
/// # }
/// ```
pub fn write_binary<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_varint(w, VERSION)?;
    write_varint(w, trace.name().len() as u64)?;
    w.write_all(trace.name().as_bytes())?;
    write_varint(w, trace.len() as u64)?;
    let mut prev_pc = 0u64;
    for r in trace.records() {
        let flags = r.kind.code() | (u8::from(r.taken) << 3);
        w.write_all(&[flags])?;
        write_varint(w, zigzag(r.pc.wrapping_sub(prev_pc) as i64))?;
        write_varint(w, zigzag(r.target.wrapping_sub(r.pc) as i64))?;
        write_varint(w, u64::from(r.inst_gap))?;
        prev_pc = r.pc;
    }
    Ok(())
}

/// Reads a trace previously written with [`write_binary`].
///
/// # Errors
///
/// Returns a [`CodecError`] when the input is malformed, truncated, or in an
/// unsupported version.
pub fn read_binary<R: Read>(r: &mut R) -> Result<Trace, CodecError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let version = read_varint(r)?;
    if version != VERSION {
        return Err(CodecError::UnsupportedVersion(version));
    }
    let name_len = read_varint(r)?;
    if name_len > MAX_NAME_LEN {
        return Err(CodecError::NameTooLong(name_len));
    }
    let mut name = vec![0u8; name_len as usize];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name).map_err(|_| CodecError::BadName)?;
    let count = read_varint(r)? as usize;
    let mut trace = Trace::new(name);
    let mut prev_pc = 0u64;
    for _ in 0..count {
        let mut flags = [0u8; 1];
        r.read_exact(&mut flags)?;
        let kind =
            BranchKind::from_code(flags[0] & 0x7).ok_or(CodecError::BadKind(flags[0] & 0x7))?;
        let taken = flags[0] & 0x8 != 0;
        let pc = prev_pc.wrapping_add(unzigzag(read_varint(r)?) as u64);
        let target = pc.wrapping_add(unzigzag(read_varint(r)?) as u64);
        let inst_gap =
            u32::try_from(read_varint(r)?).map_err(|_| CodecError::Overflow("inst_gap"))?;
        trace.push(BranchRecord {
            pc,
            target,
            kind,
            taken,
            inst_gap,
        });
        prev_pc = pc;
    }
    Ok(trace)
}

/// Records decoded per [`BatchReader::next_batch`] call.
pub const BATCH_RECORDS: usize = 1024;

/// Bytes the batch reader pulls from the source per refill.
const REFILL_BYTES: usize = 64 * 1024;

/// The most bytes one record can consume before it decodes or fails: the
/// flags byte plus three varints of at most 11 bytes each (the overlong
/// check fires on a varint's 11th byte).
const MAX_RECORD_BYTES: usize = 1 + 3 * 11;

/// Records [`read_binary_batched`] reserves room for up front. The count
/// prefix is untrusted, so a corrupt one must not pre-allocate more than
/// this (as [`MAX_NAME_LEN`] caps the name).
const MAX_RESERVE_RECORDS: u64 = 1 << 20;

/// A byte stream [`decode_record`] and [`decode_varint`] read from.
trait ByteSource {
    fn byte(&mut self) -> Result<u8, CodecError>;
}

/// A slice known to hold every byte the decode will read; indexing past its
/// end is a bug, not a truncated input.
struct SliceBytes<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl ByteSource for SliceBytes<'_> {
    #[inline(always)]
    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }
}

/// Same value and error semantics as the free `read_varint` (the byte is
/// consumed before the overlong check fires, on a varint's 11th byte).
#[inline(always)]
fn decode_varint(src: &mut impl ByteSource) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = src.byte()?;
        if shift >= 64 {
            return Err(CodecError::Truncated);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Decodes one record whose pc is a delta from `prev_pc`.
#[inline(always)]
fn decode_record(src: &mut impl ByteSource, prev_pc: u64) -> Result<BranchRecord, CodecError> {
    let flags = src.byte()?;
    let kind = BranchKind::from_code(flags & 0x7).ok_or(CodecError::BadKind(flags & 0x7))?;
    let taken = flags & 0x8 != 0;
    let pc = prev_pc.wrapping_add(unzigzag(decode_varint(src)?) as u64);
    let target = pc.wrapping_add(unzigzag(decode_varint(src)?) as u64);
    let inst_gap =
        u32::try_from(decode_varint(src)?).map_err(|_| CodecError::Overflow("inst_gap"))?;
    Ok(BranchRecord {
        pc,
        target,
        kind,
        taken,
        inst_gap,
    })
}

/// Streaming batch decoder for the binary trace format.
///
/// [`read_binary`] issues one (or more) `Read::read_exact` calls per field —
/// fine as a readable reference, but each call is a virtual dispatch plus a
/// bounds-checked copy, and it dominates decode time on multi-million-record
/// traces. `BatchReader` instead slurps the source through a 64 KiB refill
/// buffer and decodes ~[`BATCH_RECORDS`]-record blocks straight out of that
/// buffer into a caller-owned, reusable `Vec<BranchRecord>`.
///
/// While at least 34 bytes are buffered, a record is decoded straight from
/// the buffered slice, with no per-byte refill check: 34 bytes (a flags
/// byte and three varints of at most 11 bytes each) is the most one record
/// can read before it decodes or fails. Closer to the end of the buffered
/// bytes, each byte goes through the refilling path instead.
///
/// The decoded stream and every error case are bit-for-bit identical to
/// [`read_binary`] (the property tests in `tests/trace_roundtrip.rs` pin
/// this). The one observable difference: the reader buffers ahead, so the
/// underlying source may be positioned past the end of the trace — use it
/// for whole-stream decoding, not for parsing a trace embedded mid-stream.
pub struct BatchReader<R> {
    src: R,
    buf: Vec<u8>,
    pos: usize,
    len: usize,
    eof: bool,
    name: String,
    remaining: u64,
    prev_pc: u64,
}

impl<R: Read> BatchReader<R> {
    /// Opens the stream and decodes the header (magic, version, name,
    /// record count).
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the header is malformed, truncated, or
    /// in an unsupported version.
    pub fn new(src: R) -> Result<Self, CodecError> {
        let mut reader = Self {
            src,
            buf: vec![0u8; REFILL_BYTES],
            pos: 0,
            len: 0,
            eof: false,
            name: String::new(),
            remaining: 0,
            prev_pc: 0,
        };
        let mut magic = [0u8; 4];
        reader.read_exact_into(&mut magic)?;
        if &magic != MAGIC {
            return Err(CodecError::BadMagic);
        }
        let version = decode_varint(&mut reader)?;
        if version != VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let name_len = decode_varint(&mut reader)?;
        if name_len > MAX_NAME_LEN {
            return Err(CodecError::NameTooLong(name_len));
        }
        let mut name = vec![0u8; name_len as usize];
        reader.read_exact_into(&mut name)?;
        reader.name = String::from_utf8(name).map_err(|_| CodecError::BadName)?;
        reader.remaining = decode_varint(&mut reader)?;
        Ok(reader)
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Records the header promises that have not been decoded yet.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Decodes the next block of up to [`BATCH_RECORDS`] records into
    /// `out`, clearing it first (capacity is reused across calls). Returns
    /// the number of records decoded; `0` means the trace is exhausted.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] when the stream is malformed or truncated;
    /// the reader should not be used further after an error.
    pub fn next_batch(&mut self, out: &mut Vec<BranchRecord>) -> Result<usize, CodecError> {
        out.clear();
        let take = self.remaining.min(BATCH_RECORDS as u64) as usize;
        for _ in 0..take {
            let record = if self.len - self.pos >= MAX_RECORD_BYTES {
                let mut window = SliceBytes {
                    buf: &self.buf[self.pos..self.len],
                    pos: 0,
                };
                let record = decode_record(&mut window, self.prev_pc)?;
                self.pos += window.pos;
                record
            } else {
                decode_record(self, self.prev_pc)?
            };
            out.push(record);
            self.prev_pc = record.pc;
        }
        self.remaining -= take as u64;
        Ok(take)
    }

    /// Refills the buffer from the source; `pos == len` afterwards only at
    /// source EOF.
    fn refill(&mut self) -> Result<(), CodecError> {
        debug_assert_eq!(self.pos, self.len, "refill with bytes still buffered");
        self.pos = 0;
        self.len = 0;
        while !self.eof {
            match self.src.read(&mut self.buf) {
                Ok(0) => self.eof = true,
                Ok(n) => {
                    self.len = n;
                    break;
                }
                // Retry on Interrupted, exactly as `read_exact` does.
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }

    #[inline]
    fn read_byte(&mut self) -> Result<u8, CodecError> {
        if self.pos == self.len {
            self.refill()?;
            if self.len == 0 {
                return Err(CodecError::Truncated);
            }
        }
        let b = self.buf[self.pos];
        self.pos += 1;
        Ok(b)
    }

    fn read_exact_into(&mut self, dst: &mut [u8]) -> Result<(), CodecError> {
        let mut written = 0;
        while written < dst.len() {
            if self.pos == self.len {
                self.refill()?;
                if self.len == 0 {
                    return Err(CodecError::Truncated);
                }
            }
            let n = (dst.len() - written).min(self.len - self.pos);
            dst[written..written + n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
            self.pos += n;
            written += n;
        }
        Ok(())
    }
}

impl<R: Read> ByteSource for BatchReader<R> {
    #[inline]
    fn byte(&mut self) -> Result<u8, CodecError> {
        self.read_byte()
    }
}

/// Reads a trace previously written with [`write_binary`], decoding through
/// [`BatchReader`] blocks instead of per-field reader calls. Produces the
/// same `Trace` (and the same errors) as [`read_binary`], several times
/// faster on large inputs.
///
/// # Errors
///
/// Returns a [`CodecError`] when the input is malformed, truncated, or in an
/// unsupported version.
pub fn read_binary_batched<R: Read>(r: &mut R) -> Result<Trace, CodecError> {
    let mut reader = BatchReader::new(r)?;
    let reserve = reader.remaining().min(MAX_RESERVE_RECORDS) as usize;
    let mut trace = Trace::with_capacity(reader.name().to_owned(), reserve);
    let mut batch = Vec::with_capacity(BATCH_RECORDS);
    while reader.next_batch(&mut batch)? > 0 {
        trace.extend(batch.iter().copied());
    }
    Ok(trace)
}

/// Reads a trace written with [`write_binary`] straight into the
/// [`BranchIndex`] of its taken branches, without keeping its records:
/// all an OPT profile of a trace file reads. Returns the index and the
/// trace's record count.
///
/// # Errors
///
/// Returns the [`CodecError`] [`read_binary_batched`] returns on the same
/// input: both decode through the same [`BatchReader`].
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use btb_trace::{read_branch_index, write_binary, BranchIndex, BranchKind, BranchRecord, Trace};
///
/// let mut trace = Trace::new("i");
/// for pc in [0x10u64, 0x20, 0x10] {
///     trace.push(BranchRecord::taken(pc, 0x100, BranchKind::UncondDirect, 0));
/// }
/// trace.push(BranchRecord::not_taken(0x30, BranchKind::CondDirect, 0));
/// let mut buf = Vec::new();
/// write_binary(&mut buf, &trace)?;
/// let (index, records) = read_branch_index(&mut buf.as_slice())?;
/// assert_eq!(index, BranchIndex::build(&trace));
/// assert_eq!(records, 4);
/// # Ok(())
/// # }
/// ```
pub fn read_branch_index<R: Read>(r: &mut R) -> Result<(BranchIndex, u64), CodecError> {
    let mut reader = BatchReader::new(r)?;
    let records = reader.remaining();
    let mut interner = Interner::with_capacity(records.min(MAX_RESERVE_RECORDS) as usize);
    let mut batch = Vec::with_capacity(BATCH_RECORDS);
    while reader.next_batch(&mut batch)? > 0 {
        batch
            .iter()
            .filter(|r| r.taken)
            .for_each(|r| interner.push(r.pc));
    }
    Ok((interner.finish(), records))
}

/// Writes `trace` as one human-readable line per record:
/// `pc target kind T|N gap`.
///
/// # Errors
///
/// Returns any error from the underlying writer.
pub fn write_text<W: Write>(w: &mut W, trace: &Trace) -> io::Result<()> {
    writeln!(w, "# trace {}", trace.name())?;
    for r in trace.records() {
        writeln!(
            w,
            "{:#x} {:#x} {} {} {}",
            r.pc,
            r.target,
            r.kind,
            if r.taken { 'T' } else { 'N' },
            r.inst_gap
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_support::{forall, SimRng};

    fn sample_trace() -> Trace {
        let mut t = Trace::new("codec-test");
        t.push(BranchRecord::taken(
            0x40_0000,
            0x40_1000,
            BranchKind::DirectCall,
            12,
        ));
        t.push(BranchRecord::not_taken(
            0x40_1004,
            BranchKind::CondDirect,
            2,
        ));
        t.push(BranchRecord::taken(
            0x40_1010,
            0x3f_0000,
            BranchKind::IndirectJump,
            0,
        ));
        t.push(BranchRecord::taken(
            0x3f_0040,
            0x40_0004,
            BranchKind::Return,
            9,
        ));
        t
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = read_binary(&mut &b"NOPE0000"[..]).unwrap_err();
        assert!(matches!(err, CodecError::BadMagic), "{err}");
    }

    #[test]
    fn truncation_is_detected() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).unwrap();
        for cut in [5, buf.len() / 2, buf.len() - 1] {
            let err = read_binary(&mut &buf[..cut]).unwrap_err();
            assert!(matches!(err, CodecError::Truncated), "cut={cut}: {err}");
        }
    }

    #[test]
    fn unsupported_version_is_reported() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, 99).unwrap();
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::UnsupportedVersion(99)));
    }

    #[test]
    fn text_output_is_line_per_record() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_text(&mut buf, &t).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 1 + t.len());
        assert!(text.contains("icall") || text.contains("call"));
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v).unwrap();
            assert_eq!(read_varint(&mut buf.as_slice()).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_roundtrips_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    fn arb_record(rng: &mut SimRng) -> BranchRecord {
        let kind = BranchKind::from_code(rng.gen_range(0u32..6) as u8).unwrap();
        // Only conditionals may be not-taken.
        let taken = rng.gen::<bool>() || !kind.is_conditional();
        BranchRecord {
            pc: rng.gen(),
            target: rng.gen(),
            kind,
            taken,
            inst_gap: rng.gen(),
        }
    }

    fn arb_name(rng: &mut SimRng) -> String {
        const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
        let len = rng.gen_range(0usize..=24);
        (0..len)
            .map(|_| ALPHABET[rng.gen_range(0usize..ALPHABET.len())] as char)
            .collect()
    }

    #[test]
    fn prop_binary_roundtrip() {
        forall!(cases: 64, gen: |rng| {
            let len = rng.gen_range(0usize..200);
            let records: Vec<BranchRecord> = (0..len).map(|_| arb_record(rng)).collect();
            (arb_name(rng), records)
        }, prop: |(name, records)| {
            let t = Trace::from_records(name.clone(), records.clone());
            let mut buf = Vec::new();
            write_binary(&mut buf, &t).unwrap();
            let back = read_binary(&mut buf.as_slice()).unwrap();
            assert_eq!(back, t);
        });
    }

    #[test]
    fn prop_corrupted_input_never_panics() {
        use sim_support::fault::Corruption;
        // Truncations, bit flips, byte swaps and outright garbage must all
        // settle as Ok or CodecError — never a panic (which would escape the
        // decoder and abort a whole figure run) and never an OOM prealloc.
        forall!(cases: 256, gen: |rng| {
            let len = rng.gen_range(0usize..40);
            let records: Vec<BranchRecord> = (0..len).map(|_| arb_record(rng)).collect();
            let t = Trace::from_records(arb_name(rng), records);
            let mut bytes = Vec::new();
            write_binary(&mut bytes, &t).unwrap();
            let corruption = Corruption::arbitrary(rng, bytes.len());
            (bytes, corruption)
        }, prop: |(bytes, corruption)| {
            let mut corrupted = bytes.clone();
            corruption.apply(&mut corrupted);
            let outcome = read_binary(&mut corrupted.as_slice());
            if let Corruption::Truncate(n) = corruption {
                // Every written byte is load-bearing: a strict prefix can
                // never decode successfully.
                if *n < bytes.len() {
                    assert!(outcome.is_err(), "truncated stream decoded: cut at {n}");
                }
            }
            // Any other corruption may or may not decode; reaching this
            // line without unwinding is the property.
            let _ = outcome;
        });
    }

    #[test]
    fn oversized_name_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, VERSION).unwrap();
        write_varint(&mut buf, u64::MAX).unwrap(); // claimed name length
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, CodecError::NameTooLong(n) if n == u64::MAX),
            "{err}"
        );
    }

    #[test]
    fn inst_gap_overflow_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        write_varint(&mut buf, VERSION).unwrap();
        write_varint(&mut buf, 1).unwrap(); // name length
        buf.push(b'x');
        write_varint(&mut buf, 1).unwrap(); // record count
        buf.push(BranchKind::CondDirect.code() | 0x8); // flags
        write_varint(&mut buf, zigzag(0x1000)).unwrap(); // pc delta
        write_varint(&mut buf, zigzag(0x40)).unwrap(); // target delta
        write_varint(&mut buf, u64::from(u32::MAX) + 1).unwrap(); // inst_gap
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, CodecError::Overflow("inst_gap")), "{err}");
    }
}
