//! Trace serialization fidelity: a workload trace written to the binary
//! codec and read back must be bit-identical and produce the identical
//! simulation result — through the per-record reference decoder and the
//! batch decoder alike, with identical error classification on malformed
//! input. The branch index streamed out of the same bytes
//! (`read_branch_index`) must equal the index of the decoded trace, fail
//! with the batch decoder's error, and profile like the reference OPT
//! replay.

use btb_model::policies::Lru;
use btb_model::BtbConfig;
use btb_trace::{
    read_binary, read_binary_batched, read_branch_index, write_binary, BatchReader, BranchIndex,
    BranchKind, BranchRecord, CodecError, NextUseOracle, Trace, TraceStats,
};
use btb_workloads::{AppSpec, InputConfig};
use sim_support::{forall, SimRng};
use thermometer::pipeline::{Pipeline, PipelineConfig};
use thermometer::reference::reference_profile;
use thermometer::OptProfile;

#[test]
fn workload_traces_roundtrip_through_the_codec() {
    for name in ["kafka", "verilator", "python"] {
        let spec = AppSpec::by_name(name).expect("built-in app");
        let trace = spec.generate(InputConfig::input(0), 50_000);
        let mut buf = Vec::new();
        write_binary(&mut buf, &trace).expect("write to memory");
        let back = read_binary(&mut buf.as_slice()).expect("read back");
        assert_eq!(back, trace, "{name}: codec roundtrip changed the trace");

        // Compact: delta+varint encoding should beat 29 bytes/record raw.
        let bytes_per_record = buf.len() as f64 / trace.len() as f64;
        assert!(
            bytes_per_record < 12.0,
            "{name}: {bytes_per_record:.1} bytes/record"
        );
    }
}

#[test]
fn decoded_trace_simulates_identically() {
    let spec = AppSpec::by_name("finagle-http").expect("built-in app");
    let trace = spec.generate(InputConfig::input(1), 60_000);
    let mut buf = Vec::new();
    write_binary(&mut buf, &trace).expect("write");
    let decoded = read_binary(&mut buf.as_slice()).expect("read");

    let pipeline = Pipeline::new(PipelineConfig::default());
    let original = pipeline.run(&trace, Lru::new(), None);
    let roundtripped = pipeline.run(&decoded, Lru::new(), None);
    assert_eq!(original, roundtripped);
}

fn arb_record(rng: &mut SimRng) -> BranchRecord {
    let kind = BranchKind::from_code(rng.gen_range(0u32..6) as u8).expect("codes 0..6 are valid");
    let taken = rng.gen::<bool>() || !kind.is_conditional();
    BranchRecord {
        pc: rng.gen(),
        target: rng.gen(),
        kind,
        taken,
        inst_gap: rng.gen(),
    }
}

/// The two decoders must classify an error identically; the payloads (e.g.
/// the io::Error inside `Io`) need not be comparable.
fn same_variant(a: &CodecError, b: &CodecError) -> bool {
    std::mem::discriminant(a) == std::mem::discriminant(b)
        && match (a, b) {
            (CodecError::UnsupportedVersion(x), CodecError::UnsupportedVersion(y)) => x == y,
            (CodecError::BadKind(x), CodecError::BadKind(y)) => x == y,
            (CodecError::NameTooLong(x), CodecError::NameTooLong(y)) => x == y,
            (CodecError::Overflow(x), CodecError::Overflow(y)) => x == y,
            _ => true,
        }
}

/// The index streamed out of some bytes must be the batch decoder's answer
/// on them in index form: on success the index and record count of the
/// decoded trace, on failure the same error.
fn assert_streamed_agrees(
    batched: &Result<Trace, CodecError>,
    streamed: Result<(BranchIndex, u64), CodecError>,
) {
    match (batched, streamed) {
        (Ok(trace), Ok((index, records))) => {
            assert_eq!(index, BranchIndex::build(trace), "streamed index differs");
            assert_eq!(records, trace.len() as u64, "streamed record count differs");
        }
        (Err(a), Err(b)) => assert!(same_variant(a, &b), "batched {a:?} vs streamed {b:?}"),
        (a, b) => panic!("decoders disagree: batched {a:?} vs streamed {b:?}"),
    }
}

/// A random trace over a recurring pool of branch sites of every kind,
/// each kind taken or not, at a length straddling the batch boundaries.
fn arb_stream(rng: &mut SimRng) -> Trace {
    let len = match rng.gen_range(0u32..4) {
        0 => rng.gen_range(0usize..4),
        1 => rng.gen_range(1000usize..1100),
        2 => 1024,
        _ => rng.gen_range(2048usize..3000),
    };
    let sites: Vec<u64> = (0..rng.gen_range(1usize..64))
        .map(|_| 0x40_0000 + 4 * rng.gen_range(0u64..4096))
        .collect();
    let records = (0..len)
        .map(|_| BranchRecord {
            pc: sites[rng.gen_range(0..sites.len())],
            taken: rng.gen::<bool>(),
            ..arb_record(rng)
        })
        .collect();
    Trace::from_records("stream", records)
}

#[test]
fn the_streamed_index_is_the_index_of_the_decoded_trace() {
    forall!(cases: 48, gen: arb_stream, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let mut buf = Vec::new();
        write_binary(&mut buf, trace).expect("write to memory");
        let batched = read_binary_batched(&mut buf.as_slice());
        assert_eq!(batched.as_ref().expect("batched decode"), trace);
        assert_streamed_agrees(&batched, read_branch_index(&mut buf.as_slice()));
    });
}

#[test]
fn the_index_only_profile_is_the_reference_profile() {
    // From file bytes to a profile with no trace in between: the streamed
    // index and its oracle must profile exactly like the reference replay,
    // which reads every record's pc, target and kind.
    forall!(cases: 32, gen: arb_stream, shrink: sim_support::forall::shrink_none, prop: |trace: &Trace| {
        let mut buf = Vec::new();
        write_binary(&mut buf, trace).expect("write to memory");
        let (index, _) = read_branch_index(&mut buf.as_slice()).expect("streamed index");
        let oracle = NextUseOracle::from_index(&index);
        for config in [BtbConfig::new(4, 1), BtbConfig::new(16, 4), BtbConfig::table1()] {
            let streamed = OptProfile::measure_indexed(&index, &oracle, config);
            assert_eq!(streamed, reference_profile(trace, config), "{config:?}");
            assert_eq!(streamed, OptProfile::measure(trace, config), "{config:?}");
        }
    });
}

#[test]
fn batch_decoding_is_equivalent_to_per_record_decoding() {
    // Random traces spanning the batch-size boundaries (empty, one short
    // block, exactly one block, several blocks plus a partial tail): both
    // decoders must return the identical trace.
    forall!(cases: 48, gen: |rng| {
        let len = match rng.gen_range(0u32..4) {
            0 => rng.gen_range(0usize..4),
            1 => rng.gen_range(1000usize..1100), // straddles 1024
            2 => 1024,
            _ => rng.gen_range(2048usize..2600),
        };
        (0..len).map(|_| arb_record(rng)).collect::<Vec<BranchRecord>>()
    }, shrink: sim_support::forall::shrink_halves, prop: |records| {
        let t = Trace::from_records("batch-eq", records.clone());
        let mut buf = Vec::new();
        write_binary(&mut buf, &t).expect("write to memory");
        let reference = read_binary(&mut buf.as_slice()).expect("reference decode");
        let batched = read_binary_batched(&mut buf.as_slice()).expect("batched decode");
        assert_eq!(batched, reference);
        assert_eq!(batched, t);
    });
}

#[test]
fn batch_reader_reuses_the_caller_buffer() {
    let records: Vec<BranchRecord> = {
        let mut rng = SimRng::seed_from_u64(7);
        (0..3000).map(|_| arb_record(&mut rng)).collect()
    };
    let t = Trace::from_records("buffer-reuse", records);
    let mut buf = Vec::new();
    write_binary(&mut buf, &t).expect("write");

    let mut reader = BatchReader::new(buf.as_slice()).expect("header");
    assert_eq!(reader.name(), "buffer-reuse");
    assert_eq!(reader.remaining(), 3000);
    let mut batch = Vec::new();
    let mut total = 0usize;
    let mut sizes = Vec::new();
    let mut cap_after_first = 0usize;
    while reader.next_batch(&mut batch).expect("decode") > 0 {
        if sizes.is_empty() {
            cap_after_first = batch.capacity();
        }
        sizes.push(batch.len());
        total += batch.len();
    }
    assert_eq!(total, 3000);
    assert_eq!(sizes, [1024, 1024, 952], "full blocks then the tail");
    assert_eq!(reader.remaining(), 0);
    // Capacity settled after the first block and was reused, not regrown.
    assert_eq!(batch.capacity(), cap_after_first);
}

#[test]
fn truncations_error_identically_in_both_decoders() {
    // Every strict prefix cut — mid-header, mid-record, and specifically
    // inside the *final* block of a multi-block trace — must fail in both
    // decoders with the same error variant (Truncated, or the header error
    // the cut exposes). A batch decoder that buffers ahead could plausibly
    // return the records it already decoded; equivalence forbids that.
    let records: Vec<BranchRecord> = {
        let mut rng = SimRng::seed_from_u64(11);
        (0..2100).map(|_| arb_record(&mut rng)).collect()
    };
    let t = Trace::from_records("truncate", records);
    let mut buf = Vec::new();
    write_binary(&mut buf, &t).expect("write");

    let mut cuts = vec![0, 1, 3, 4, 5, 9, 10, buf.len() / 2, buf.len() - 1];
    // A spread of cuts inside the final block's byte range.
    let final_block_floor = (buf.len() * 2048) / 2100;
    for i in 0..8 {
        cuts.push(final_block_floor + i * (buf.len() - 1 - final_block_floor) / 8);
    }
    for cut in cuts {
        let reference = read_binary(&mut &buf[..cut]).expect_err("prefix must not decode");
        let batched = read_binary_batched(&mut &buf[..cut]).expect_err("prefix must not decode");
        let streamed = read_branch_index(&mut &buf[..cut]).expect_err("prefix must not decode");
        assert!(
            same_variant(&batched, &streamed),
            "cut={cut}: batched {batched:?} vs streamed {streamed:?}"
        );
        assert!(
            same_variant(&reference, &batched),
            "cut={cut}: reference {reference:?} vs batched {batched:?}"
        );
        assert!(
            matches!(batched, CodecError::Truncated | CodecError::BadMagic),
            "cut={cut}: {batched:?}"
        );
    }
}

#[test]
fn corrupt_inputs_error_identically_in_both_decoders() {
    use sim_support::fault::Corruption;
    // Bit flips, byte swaps, truncations, garbage: whatever the reference
    // decoder does (accept or reject, and with which error), the batch
    // decoder must do the same. This subsumes corrupt length prefixes
    // (record count, name length, overlong varints).
    forall!(cases: 192, gen: |rng| {
        let len = rng.gen_range(0usize..60);
        let records: Vec<BranchRecord> = (0..len).map(|_| arb_record(rng)).collect();
        let t = Trace::from_records("corrupt-eq", records);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &t).expect("write");
        let corruption = Corruption::arbitrary(rng, bytes.len());
        (bytes, corruption)
    }, prop: |(bytes, corruption)| {
        let mut corrupted = bytes.clone();
        corruption.apply(&mut corrupted);
        let reference = read_binary(&mut corrupted.as_slice());
        let batched = read_binary_batched(&mut corrupted.as_slice());
        assert_streamed_agrees(&batched, read_branch_index(&mut corrupted.as_slice()));
        match (reference, batched) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "decoders accepted different traces"),
            (Err(a), Err(b)) => assert!(
                same_variant(&a, &b),
                "reference {a:?} vs batched {b:?} for {corruption:?}"
            ),
            (a, b) => panic!("decoders disagree: reference {a:?} vs batched {b:?}"),
        }
    });
}

#[test]
fn corrupt_record_count_is_detected_not_trusted() {
    // Inflate the record-count prefix past the actual payload: the decode
    // must end in Truncated (in both decoders), never in a partial trace.
    let records: Vec<BranchRecord> = {
        let mut rng = SimRng::seed_from_u64(23);
        (0..100).map(|_| arb_record(&mut rng)).collect()
    };
    let t = Trace::from_records("x", records);
    let mut buf = Vec::new();
    write_binary(&mut buf, &t).expect("write");
    // Header: 4 magic + 1 version + 1 name-len + 1 name byte; the count
    // (100) is the single byte right after.
    assert_eq!(buf[7], 100);
    buf[7] = 101;
    assert!(matches!(
        read_binary(&mut buf.as_slice()),
        Err(CodecError::Truncated)
    ));
    assert!(matches!(
        read_binary_batched(&mut buf.as_slice()),
        Err(CodecError::Truncated)
    ));
    assert!(matches!(
        read_branch_index(&mut buf.as_slice()),
        Err(CodecError::Truncated)
    ));
}

#[test]
fn overlong_varint_at_the_end_of_the_buffer_is_truncated_not_a_panic() {
    // The batch decoder reads a record straight from its buffer only while
    // 34 bytes are buffered: a flags byte and three varints that each fail
    // as overlong at their 11th byte. The longest read before that check
    // fires is 1 + 10 + 10 + 11 = 32 bytes: two maximal valid varints, then
    // an overlong one. Ending the stream 30..=40 bytes after such a
    // record's start puts the end of the buffered bytes on every side of
    // that read, and of the 34-byte window.
    let records: Vec<BranchRecord> = {
        let mut rng = SimRng::seed_from_u64(29);
        (0..50).map(|_| arb_record(&mut rng)).collect()
    };
    let t = Trace::from_records("overlong", records);
    let mut head = Vec::new();
    write_binary(&mut head, &t).expect("write");
    // Header: 4 magic + 1 version + 1 name-len + 8 name bytes; the count
    // (50) is the single byte right after. Promise one record more.
    assert_eq!(head[14], 50);
    head[14] = 51;
    let ten_byte_varint = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
    for remaining in 30..=40 {
        let mut bytes = head.clone();
        bytes.push(BranchKind::CondDirect.code() | 0x8);
        bytes.extend_from_slice(&ten_byte_varint); // pc delta
        bytes.extend_from_slice(&ten_byte_varint); // target delta
        bytes.resize(head.len() + remaining, 0x80); // overlong inst_gap
        let reference = read_binary(&mut bytes.as_slice());
        let batched = read_binary_batched(&mut bytes.as_slice());
        assert!(
            matches!(reference, Err(CodecError::Truncated)),
            "{remaining} bytes left: reference {reference:?}"
        );
        assert!(
            matches!(batched, Err(CodecError::Truncated)),
            "{remaining} bytes left: batched {batched:?}"
        );
        assert_streamed_agrees(&batched, read_branch_index(&mut bytes.as_slice()));
    }
}

/// A reader that hands out 1..=37 bytes per `read`, so the batch decoder's
/// buffer holds at most 37 bytes and its switch between reading a record
/// from the buffer and reading it byte by byte lands at every offset.
struct ShortReads<'a> {
    bytes: &'a [u8],
    rng: SimRng,
}

impl std::io::Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1usize..=37)
            .min(buf.len())
            .min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

#[test]
fn short_reads_decode_like_the_reference() {
    use sim_support::fault::Corruption;
    // Multi-block traces, half of them corrupted: through short reads the
    // batch decoder must accept what the reference accepts, and reject the
    // rest with the same error variant.
    forall!(cases: 32, gen: |rng| {
        let len = rng.gen_range(1000usize..2600);
        let records: Vec<BranchRecord> = (0..len).map(|_| arb_record(rng)).collect();
        let t = Trace::from_records("short-reads", records);
        let mut bytes = Vec::new();
        write_binary(&mut bytes, &t).expect("write");
        let corruption = rng.gen::<bool>().then(|| Corruption::arbitrary(rng, bytes.len()));
        (bytes, corruption, rng.gen::<u64>())
    }, prop: |(bytes, corruption, read_seed)| {
        let mut bytes = bytes.clone();
        if let Some(corruption) = corruption {
            corruption.apply(&mut bytes);
        }
        let reference = read_binary(&mut bytes.as_slice());
        let batched = read_binary_batched(&mut ShortReads {
            bytes: &bytes,
            rng: SimRng::seed_from_u64(*read_seed),
        });
        let streamed = read_branch_index(&mut ShortReads {
            bytes: &bytes,
            rng: SimRng::seed_from_u64(*read_seed),
        });
        assert_streamed_agrees(&batched, streamed);
        match (reference, batched) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "decoders accepted different traces"),
            (Err(a), Err(b)) => assert!(
                same_variant(&a, &b),
                "reference {a:?} vs batched {b:?} for {corruption:?}"
            ),
            (a, b) => panic!("decoders disagree: reference {a:?} vs batched {b:?}"),
        }
    });
}

#[test]
fn stats_survive_roundtrip() {
    let spec = AppSpec::by_name("mysql").expect("built-in app");
    let trace = spec.generate(InputConfig::input(0), 40_000);
    let mut buf = Vec::new();
    write_binary(&mut buf, &trace).expect("write");
    let decoded = read_binary(&mut buf.as_slice()).expect("read");

    let a = TraceStats::collect(&trace);
    let b = TraceStats::collect(&decoded);
    assert_eq!(a.dynamic_branches, b.dynamic_branches);
    assert_eq!(a.dynamic_taken, b.dynamic_taken);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.unique_branches(), b.unique_branches());
}
