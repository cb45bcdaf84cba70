//! Property-based tests over random instructions and random programs.
//!
//! The central property is the translation-correctness theorem of the
//! braid paradigm: for *any* valid program, the braid-annotated, reordered
//! program computes the same architectural results (externally-written
//! registers and memory) as the original.
//!
//! The generators draw from the in-repo deterministic PRNG (`braid-prng`)
//! rather than proptest, so the suite runs in hermetic environments with no
//! registry access. Each property checks a fixed number of seeded cases;
//! failures print the offending seed, which reproduces the case exactly.

use braid::compiler::{translate, TranslatorConfig};
use braid::core::functional::Machine;
use braid::isa::{decode, encode, Reg};
use braid_prng::Rng;

mod common;
use common::{gen_program, gen_straightline_inst};

const CASES: u64 = 96;

/// Runs `check` for [`CASES`] seeded cases, tagging failures with the seed.
fn for_each_case(name: &str, mut check: impl FnMut(&mut Rng)) {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{name}` failed for seed {seed}");
            std::panic::resume_unwind(payload);
        }
    }
}

// ---- properties ----

/// decode(encode(i)) is the identity on valid instructions.
#[test]
fn encoding_round_trips() {
    for_each_case("encoding_round_trips", |rng| {
        for _ in 0..16 {
            let inst = gen_straightline_inst(rng);
            let word = encode(&inst).expect("valid instructions encode");
            assert_eq!(decode(word).expect("decodes"), inst);
        }
    });
}

/// The assembler parses what the disassembler prints.
#[test]
fn disassembly_round_trips() {
    for_each_case("disassembly_round_trips", |rng| {
        let p = gen_program(rng);
        let text = braid::isa::asm::disassemble(&p);
        let back = braid::isa::asm::assemble(&text).expect("reassembles");
        assert_eq!(back.insts, p.insts);
    });
}

/// Translation is a permutation within blocks that preserves live
/// architectural state.
#[test]
fn translation_preserves_semantics() {
    for_each_case("translation_preserves_semantics", |rng| {
        let p = gen_program(rng);
        let t = translate(&p, &TranslatorConfig::default()).expect("translates");
        assert_eq!(t.program.len(), p.len());
        assert_eq!(t.program.opcode_histogram(), p.opcode_histogram());

        let fuel = 100_000;
        let mut original = Machine::new(&p);
        original.run(&p, fuel).expect("original runs");
        let mut braided = Machine::new(&t.program);
        braided.run(&t.program, fuel).expect("translated runs");

        for reg in Reg::all() {
            let writers: Vec<_> = t
                .program
                .insts
                .iter()
                .filter(|i| i.written_reg() == Some(reg))
                .collect();
            // Registers also written internally may end with a discarded
            // (dead) external value; the paradigm only guarantees values
            // that can still be read. Purely-external registers must match.
            let purely_external =
                !writers.is_empty() && writers.iter().all(|i| i.braid.external && !i.braid.internal);
            if purely_external {
                assert_eq!(original.reg(reg), braided.reg(reg), "register {reg} diverged");
            }
        }
        for addr in (0..1024u64).step_by(8) {
            assert_eq!(original.mem.read_u64(addr), braided.mem.read_u64(addr));
        }
    });
}

/// Structural braid invariants: the partition tiles each block, `S`
/// bits mark exactly the braid starts, and every `T`-annotated source
/// was produced internally earlier in the same braid.
#[test]
fn braid_partition_invariants() {
    for_each_case("braid_partition_invariants", |rng| {
        let p = gen_program(rng);
        let t = translate(&p, &TranslatorConfig::default()).expect("translates");
        let total: u32 = t.braids.iter().map(|d| d.len).sum();
        assert_eq!(total as usize, t.program.len());
        for (i, desc) in t.braids.iter().enumerate() {
            assert!(desc.len >= 1);
            // `internals` counts all internal values of the braid; the
            // 8-register bound applies to the *simultaneous* working set,
            // which `translate` enforces via its internal allocation pass.
            assert!(desc.internals <= desc.len);
            for (k, idx) in (desc.start..desc.start + desc.len).enumerate() {
                assert_eq!(t.braid_of_inst[idx as usize], i as u32);
                let inst = &t.program.insts[idx as usize];
                assert_eq!(inst.braid.start, k == 0);
                for (slot, &is_t) in inst.braid.t.iter().enumerate() {
                    if !is_t {
                        continue;
                    }
                    let reg = inst.srcs[slot].expect("T implies a source");
                    let produced = (desc.start..idx).rev().any(|j| {
                        t.program.insts[j as usize].written_reg() == Some(reg)
                            && t.program.insts[j as usize].braid.internal
                    });
                    assert!(produced, "T source {reg} at {idx} has no internal producer");
                }
            }
        }
    });
}

/// The static braid-contract checker accepts every translator output:
/// program flow, reordering legality, and descriptor metadata are all
/// clean — no errors *and* no warnings — for 200 random programs.
#[test]
fn translation_is_always_check_clean() {
    use braid::check::CheckConfig;

    const CHECK_CASES: u64 = 200;
    for seed in 0..CHECK_CASES {
        let mut rng = Rng::seed_from_u64(seed);
        let p = gen_program(&mut rng);
        let config = TranslatorConfig { self_check: false, ..Default::default() };
        let t = translate(&p, &config).expect("translates");
        let report = t.check(&p, &CheckConfig { max_internal_regs: config.max_internal_regs });
        assert!(report.is_clean(), "seed {seed}: translator output flagged:\n{report}");
    }
}

/// Every dynamic instruction retires on the braid machine, and the
/// cycle count respects the width bound.
#[test]
fn braid_core_retires_random_programs() {
    use braid::core::config::BraidConfig;
    use braid::core::cores::BraidCore;
    for_each_case("braid_core_retires_random_programs", |rng| {
        let p = gen_program(rng);
        let t = translate(&p, &TranslatorConfig::default()).expect("translates");
        let mut m = Machine::new(&t.program);
        let trace = m.run(&t.program, 100_000).expect("runs");
        let mut cfg = BraidConfig::paper_default();
        cfg.common = cfg.common.perfect();
        let r = BraidCore::new(cfg).run(&t.program, &trace).expect("runs");
        assert_eq!(r.instructions, trace.len() as u64);
        assert!(r.cycles as usize >= trace.len() / 8);
    });
}

/// Differential test against the co-simulation oracle: for ≥200
/// PRNG-generated programs, the braid pipeline (translate → functional →
/// timing) runs in lockstep with the functional golden model and finishes
/// with no divergence in registers, memory, or retirement counts. Every
/// tenth case additionally runs all four timing cores through the oracle.
///
/// This is a different check from [`translation_preserves_semantics`]:
/// the oracle compares state *during* execution (committed stores, per-
/// instruction results), not just at the end, so reordering bugs that
/// cancel out by halt still get caught.
#[test]
fn differential_oracle_finds_no_divergence() {
    use braid_verify::oracle::{check_all_cores, check_core, CoreKind};

    const DIFF_CASES: u64 = 200;
    const FUEL: u64 = 100_000;
    for seed in 0..DIFF_CASES {
        // A seed stream disjoint from the other properties' `0..CASES`.
        let mut rng = Rng::seed_from_u64(0xD1FF_0000 + seed);
        let p = gen_program(&mut rng);
        let name = format!("diff-seed-{seed}");
        let report = check_core(CoreKind::Braid, &p, &name, FUEL)
            .unwrap_or_else(|e| panic!("differential oracle failed for seed {seed}:\n{e}"));
        assert!(report.instructions > 0, "seed {seed}: nothing retired");
        if seed % 10 == 0 {
            check_all_cores(&p, &name, FUEL)
                .unwrap_or_else(|e| panic!("all-core oracle failed for seed {seed}:\n{e}"));
        }
    }
}

// ---- Memory edge cases (paper-independent substrate properties) ----

/// Sparse-page memory: writes that straddle page boundaries, wrap the
/// address space, or interleave at random must all read back exactly, and
/// untouched bytes must stay zero.
mod memory_properties {
    use super::for_each_case;
    use braid::core::functional::Memory;

    const PAGE: u64 = 4096;

    #[test]
    fn page_boundary_straddles_round_trip() {
        for_each_case("page_boundary_straddles_round_trip", |rng| {
            let mut mem = Memory::new();
            // A write beginning within 7 bytes of a page boundary spans
            // two pages; both halves must land.
            let page = rng.gen_range(0..1024u64);
            let offset = PAGE - rng.gen_range(1..8u64);
            let addr = page * PAGE + offset;
            let value = rng.next_u64();
            mem.write_u64(addr, value);
            assert_eq!(mem.read_u64(addr), value);
            // Byte-level view agrees with the little-endian encoding.
            for (i, &b) in value.to_le_bytes().iter().enumerate() {
                assert_eq!(mem.read_u8(addr + i as u64), b);
            }
        });
    }

    #[test]
    fn address_space_wraps() {
        for_each_case("address_space_wraps", |rng| {
            let mut mem = Memory::new();
            // The last `wrap` bytes of the 8-byte write land at the bottom
            // of the address space.
            let wrap = rng.gen_range(1..8u64);
            let start = 0u64.wrapping_sub(8 - wrap);
            let value = rng.next_u64();
            mem.write_u64(start, value);
            assert_eq!(mem.read_u64(start), value, "wrap at {start:#x}");
            let wrapped = start.wrapping_add(7);
            assert!(wrapped < 8, "picked a wrapping start");
            assert_eq!(mem.read_u8(wrapped), value.to_le_bytes()[7]);
        });
    }

    #[test]
    fn random_writes_match_a_shadow_model() {
        for_each_case("random_writes_match_a_shadow_model", |rng| {
            let mut mem = Memory::new();
            let mut shadow: std::collections::HashMap<u64, u8> = std::collections::HashMap::new();
            for _ in 0..64 {
                // Cluster addresses around page boundaries and the wrap
                // point, where the bugs would live.
                let base = match rng.gen_range(0..3u32) {
                    0 => rng.gen_range(0..4 * PAGE),
                    1 => rng.gen_range(1..16u64) * PAGE - rng.gen_range(0..16u64),
                    _ => u64::MAX - rng.gen_range(0..16u64),
                };
                let len = rng.gen_range(1..9usize);
                let bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(0..=255u8)).collect();
                mem.write_bytes(base, &bytes);
                for (i, &b) in bytes.iter().enumerate() {
                    shadow.insert(base.wrapping_add(i as u64), b);
                }
            }
            for (&addr, &b) in &shadow {
                assert_eq!(mem.read_u8(addr), b, "at {addr:#x}");
            }
        });
    }

    #[test]
    fn unwritten_memory_reads_zero() {
        for_each_case("unwritten_memory_reads_zero", |rng| {
            let mem = Memory::new();
            let addr = rng.next_u64();
            assert_eq!(mem.read_u8(addr), 0);
            assert_eq!(mem.read_u64(addr), 0);
            let mut mem = Memory::new();
            mem.write_u8(addr, 0xAB);
            // A single write must not bleed into neighbours.
            assert_eq!(mem.read_u8(addr.wrapping_add(1)), 0);
            assert_eq!(mem.read_u8(addr.wrapping_sub(1)), 0);
        });
    }

    #[test]
    fn read_write_bytes_round_trip_every_width() {
        for_each_case("read_write_bytes_round_trip_every_width", |rng| {
            let mut mem = Memory::new();
            let addr = rng.next_u64();
            let v32 = rng.next_u64() as u32;
            mem.write_bytes(addr, &v32.to_le_bytes());
            assert_eq!(mem.read_u32(addr), v32);
            let v64 = rng.next_u64();
            mem.write_u64(addr, v64);
            assert_eq!(mem.read_u64(addr), v64);
            let raw: [u8; 8] = mem.read_bytes(addr);
            assert_eq!(raw, v64.to_le_bytes());
        });
    }
}

/// The run API returns typed `RunError`s — never panics — on malformed or
/// degenerate inputs.
mod run_error_properties {
    use braid::core::config::{BraidConfig, OooConfig};
    use braid::core::processor::{run_full, run_tier, CoreConfig, RunError, TierReport};
    use braid::core::{NoopObserver, SamplingConfig, SimReport, Tier};
    use braid::isa::{Inst, Program};

    fn full(p: &Program, core: CoreConfig) -> Result<SimReport, RunError> {
        match run_tier(p, &core, Tier::Full, 1_000, &SamplingConfig::default())? {
            TierReport::Full(r) => Ok(r),
            other => panic!("expected a full report, got {other:?}"),
        }
    }

    fn ooo(p: &Program, cfg: OooConfig) -> Result<SimReport, RunError> {
        run_full(p, &CoreConfig::Ooo(cfg), 1_000, &mut NoopObserver)
    }

    #[test]
    fn empty_program_is_a_typed_error() {
        let p = Program::from_insts("empty", vec![]);
        match ooo(&p, OooConfig::paper_8wide()) {
            Err(RunError::Exec(_)) => {}
            other => panic!("expected typed exec error, got {other:?}"),
        }
        match full(&p, CoreConfig::Braid(BraidConfig::paper_default())) {
            Err(_) => {}
            Ok(_) => panic!("empty program must not simulate"),
        }
    }

    #[test]
    fn missing_halt_is_a_typed_error() {
        let p = Program::from_insts("no-halt", vec![Inst::nop(), Inst::nop()]);
        match full(&p, CoreConfig::Braid(BraidConfig::paper_default())) {
            Err(RunError::Exec(_) | RunError::Translate(_)) => {}
            other => panic!("expected typed error, got {other:?}"),
        }
    }

    #[test]
    fn branch_out_of_range_is_a_typed_error() {
        let mut br = Inst::br(1_000_000);
        br.braid = braid::isa::BraidBits::unannotated(false);
        let p = Program::from_insts("wild-branch", vec![br, Inst::halt()]);
        match ooo(&p, OooConfig::paper_8wide()) {
            Err(RunError::Exec(_)) => {}
            other => panic!("expected typed exec error, got {other:?}"),
        }
    }

    #[test]
    fn bad_config_is_a_typed_sim_error() {
        let p = braid::isa::asm::assemble("addi r0, #1, r1\nhalt").unwrap();
        let mut cfg = OooConfig::paper_8wide();
        cfg.schedulers = 0;
        match ooo(&p, cfg) {
            Err(RunError::Sim(_)) => {}
            other => panic!("expected typed sim error, got {other:?}"),
        }
    }
}
