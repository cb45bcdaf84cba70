//! The trace-ingestion contract, end to end: recorded traces for the
//! compiled loop-nest kernels round-trip through both serializations,
//! replay deterministically on all four timing cores (byte-identical
//! cycle digests across runs), and a seeded corpus of hostile mutations
//! — truncations, bit flips, splices — always lands on a structured
//! error, never a panic or a silently-accepted corrupt file.

use std::io::Cursor;

use braid::core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid::core::processor::{trace_program, CoreConfig};
use braid::core::trace::{for_each_entry, TraceEntry};
use braid::tracein::{cycle_digest, verify, TraceFile, TraceReader};
use braid::workloads::by_name_any;
use braid_prng::Rng;

/// Compiled loop-nest kernels the golden-trace lock covers.
const NESTS: [&str; 4] = ["ln_saxpy_u2", "ln_stencil_u1", "ln_matmul_n8", "ln_chains_c4_u2"];

fn record(name: &str) -> TraceFile {
    let w = by_name_any(name, 1.0).unwrap_or_else(|| panic!("{name} resolves"));
    TraceFile::record(&w.program, w.fuel).unwrap_or_else(|e| panic!("{name}: record: {e}"))
}

fn binary(file: &TraceFile) -> Vec<u8> {
    let mut bytes = Vec::new();
    file.write_binary(&mut bytes).unwrap_or_else(|e| panic!("{}: write_binary: {e}", file.name));
    bytes
}

/// Every entry of a trace file, read through [`TraceReader`].
fn entries(bytes: &[u8]) -> Vec<TraceEntry> {
    let mut reader = TraceReader::new(Cursor::new(bytes)).expect("header decodes");
    let mut out = Vec::new();
    for_each_entry(&mut reader, |e| out.push(*e));
    reader.finish().expect("file checks out");
    out
}

fn all_cores() -> [CoreConfig; 4] {
    [
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ]
}

/// Whether a trace file is refused by the checking pass.
fn rejected(bytes: &[u8]) -> bool {
    verify(Cursor::new(bytes)).is_err()
}

#[test]
fn recorded_nests_round_trip_and_replay_deterministically() {
    for name in NESTS {
        let file = record(name);
        // The streamed file holds exactly the golden interpreter's trace.
        let oracle = trace_program(&file.program, file.fuel).expect("oracle runs").entries;

        let bin = binary(&file);
        let (back, digest) =
            verify(Cursor::new(&bin)).unwrap_or_else(|e| panic!("{name}: verify: {e}"));
        assert_eq!(back.entries, oracle.len() as u64, "{name}: binary header");
        assert_eq!(entries(&bin), oracle, "{name}: binary round-trip");

        let mut jsonl = Vec::new();
        file.write_jsonl(&mut jsonl).unwrap_or_else(|e| panic!("{name}: write_jsonl: {e}"));
        let (_, jsonl_digest) =
            verify(Cursor::new(&jsonl)).unwrap_or_else(|e| panic!("{name}: verify: {e}"));
        assert_eq!(jsonl_digest, digest, "{name}: one digest for both serializations");
        assert_eq!(entries(&jsonl), oracle, "{name}: jsonl round-trip");

        let cores = all_cores();
        let d1 = cycle_digest(|| Ok(Cursor::new(&bin)), &cores)
            .unwrap_or_else(|e| panic!("{name}: digest: {e}"));
        let d2 = cycle_digest(|| Ok(Cursor::new(&jsonl)), &cores)
            .unwrap_or_else(|e| panic!("{name}: digest: {e}"));
        assert_eq!(d1, d2, "{name}: cycle digest must be byte-identical across runs");

        for core in &cores {
            let report = TraceReader::new(Cursor::new(&bin))
                .map_err(Into::into)
                .and_then(|r| r.replay(core))
                .unwrap_or_else(|e| panic!("{name}: replay: {e}"));
            assert!(report.cycles > 0, "{name}:{}: replay simulates cycles", core.name());
        }
    }
}

#[test]
fn hostile_mutations_error_and_never_panic() {
    let good = binary(&record(NESTS[0]));
    let other = binary(&record(NESTS[1]));
    let mut rng = Rng::seed_from_u64(0x7ace);

    // Every prefix truncation is rejected (the frame footer is load-bearing).
    for len in 0..good.len() {
        assert!(rejected(&good[..len]), "truncation to {len} bytes must be rejected");
    }

    // Seeded single-bit flips anywhere in the file are caught by the
    // content digest before any field is trusted.
    for _ in 0..200 {
        let mut bytes = good.clone();
        let pos = (rng.next_u64() as usize) % bytes.len();
        bytes[pos] ^= 1 << (rng.next_u64() % 8);
        assert!(rejected(&bytes), "bit flip at {pos} must be rejected");
    }

    // Seeded splices of two valid files never produce a valid third.
    for _ in 0..100 {
        let cut_a = (rng.next_u64() as usize) % good.len();
        let cut_b = (rng.next_u64() as usize) % other.len();
        let mut spliced = good[..cut_a].to_vec();
        spliced.extend_from_slice(&other[cut_b..]);
        if spliced == good || spliced == other {
            continue;
        }
        assert!(rejected(&spliced), "splice at ({cut_a},{cut_b}) must be rejected");
    }
}
