//! The differential test layer locking down the fast functional tier.
//!
//! Three rings of defence around `braid_core::func`:
//!
//! 1. **Property differential** — 300 PRNG-generated programs run on the
//!    fast interpreter and the reference golden model; the final
//!    [`ArchSnapshot`]s (registers, every non-zero memory page, pc,
//!    retired count) must be byte-identical, for both the original and
//!    the braid-translated program.
//! 2. **Kernel differential** — the same byte-level comparison over the
//!    eight hand-written kernels, the 26 synthetic suite programs (whose
//!    arrays live in the fast tier's sparse high range) and a hand-built
//!    program of word accesses across page, flat/sparse and wrap
//!    boundaries, plus lockstep-validated sampled runs (snapshots
//!    compared at every interval boundary inside the driver).
//! 3. **Golden sampled-IPC fixtures** — `tests/golden/sampled/<kernel>.golden`
//!    pins the sampled tier's estimate for every kernel × core at the
//!    default window: estimated IPC, exact IPC (both in deterministic
//!    micro-IPC integers) and the relative error. Regenerate after an
//!    intentional estimator change with:
//!
//!    ```text
//!    BRAID_UPDATE_GOLDEN=1 cargo test --test functional_tier
//!    ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid::core::func::{run_func, FastMachine, FuncTable};
use braid::core::functional::{ExecError, Machine};
use braid::core::processor::{run_tier, CoreConfig, TierReport};
use braid::core::{ArchSnapshot, SamplingConfig, Tier, TraceEntry};
use braid::isa::{AliasClass, Inst, Opcode, Program, Reg};
use braid::workloads::{kernel_suite, loopnest_suite, suite};
use braid_prng::Rng;

mod common;
use common::gen_program;

const DIFF_CASES: u64 = 300;
const FUEL: u64 = 100_000;

/// The paper-default configuration of each timing core, as the tier
/// driver consumes it.
fn paper_cores() -> [CoreConfig; 4] {
    [
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ]
}

/// The default sampling window with lockstep validation off (the tests
/// that want lockstep turn it on explicitly).
fn default_sampling() -> SamplingConfig {
    SamplingConfig { lockstep: false, ..SamplingConfig::default() }
}

/// Runs `program` to completion on both executors and asserts the final
/// architectural snapshots are byte-identical.
fn assert_executors_agree(program: &braid::isa::Program, what: &str) {
    let mut reference = Machine::new(program);
    reference.run(program, FUEL).unwrap_or_else(|e| panic!("{what}: reference: {e}"));
    let table = FuncTable::new(program);
    let mut fast = FastMachine::new(program, &table);
    fast.run(FUEL).unwrap_or_else(|e| panic!("{what}: fast: {e}"));

    let want = ArchSnapshot::of_machine(&reference);
    let got = fast.snapshot();
    assert_eq!(
        want.retired, got.retired,
        "{what}: retire counts diverged ({} vs {})",
        want.retired, got.retired
    );
    if let Some(diff) = want.divergence(&got) {
        panic!("{what}: fast interpreter diverged from the reference: {diff}");
    }
    assert_eq!(want, got, "{what}: snapshot inequality without a reported divergence");
    assert_eq!(want.digest(), got.digest(), "{what}: digests of equal snapshots differ");
}

/// Ring 1: 300 seeded random programs, original and braid-translated,
/// byte-identical architectural state on both executors.
#[test]
fn fast_interpreter_matches_reference_on_300_random_programs() {
    for seed in 0..DIFF_CASES {
        // A seed stream disjoint from the other suites' (`0..CASES`,
        // `0xD1FF_0000 + seed`).
        let mut rng = Rng::seed_from_u64(0xFA57_0000 + seed);
        let p = gen_program(&mut rng);
        assert_executors_agree(&p, &format!("seed {seed}"));
        let t = translate(&p, &TranslatorConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: translate: {e}"));
        assert_executors_agree(&t.program, &format!("seed {seed} (braid)"));
    }
}

/// Ring 2a: the eight golden kernels, original and braid-translated.
#[test]
fn fast_interpreter_matches_reference_on_kernels() {
    let kernels = kernel_suite();
    assert_eq!(kernels.len(), 8, "the golden kernel suite is eight kernels");
    for w in kernels {
        assert_executors_agree(&w.program, &w.name);
        let t = translate(&w.program, &TranslatorConfig::default())
            .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
        assert_executors_agree(&t.program, &format!("{} (braid)", w.name));
    }
}

/// Ring 2a: the 26 synthetic suite programs, original and
/// braid-translated. Their arrays sit at 256 MiB and up, above the fast
/// tier's flat range, so these runs reach its sparse high range.
#[test]
fn fast_interpreter_matches_reference_on_the_synthetic_suite() {
    let programs = suite(0.05);
    assert_eq!(programs.len(), 26, "the synthetic suite is 26 programs");
    for w in programs {
        assert_executors_agree(&w.program, &w.name);
        let t = translate(&w.program, &TranslatorConfig::default())
            .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
        assert_executors_agree(&t.program, &format!("{} (braid)", w.name));
    }
}

/// A program that stores and loads 4- and 8-byte words around four
/// boundaries: the middle of a page above the flat range, a page boundary
/// above it, the flat range's own end (64 MiB), and the top of the
/// address space, where an access wraps to address 0. Around each
/// boundary `b` it first reads untouched memory, then stores a quad at
/// `b - 4` and a long at `b - 2` (both straddling `b`), and reads back a
/// quad at `b - 4`, longs at `b - 2` and `b - 6`, and a quad at `b`.
fn sparse_boundary_program() -> braid::isa::Program {
    let r = |n| Reg::int(n).expect("in range");
    let alu = |op, a, b, d| Inst::alu(op, r(a), r(b), r(d)).expect("shape");
    let alui = |op, s, imm, d| Inst::alui(op, r(s), imm, r(d)).expect("shape");
    let load = |op, base, off, d| Inst::load(op, r(base), off, r(d), AliasClass::Unknown);
    let store = |op, v, base, off| Inst::store(op, r(v), r(base), off, AliasClass::Unknown);
    let mut insts = vec![
        // r1 = 64 MiB (the flat range's end), r2 = a page boundary above
        // it, r3 = the middle of a page above it; r0 reads zero, so
        // r0 + off wraps past u64::MAX for a negative off.
        alui(Opcode::Addi, 0, 1, 1),
        alui(Opcode::Slli, 1, 26, 1),
        alui(Opcode::Addi, 1, 0x5000, 2),
        alui(Opcode::Addi, 1, 0x9800, 3),
        // r10, r11: values with no zero byte.
        alui(Opcode::Addi, 0, 0x7AB3, 10),
        alu(Opcode::Mul, 10, 10, 10),
        alu(Opcode::Mul, 10, 10, 10),
        alui(Opcode::Ori, 10, 0x0101, 10),
        alui(Opcode::Slli, 10, 13, 11),
        alu(Opcode::Xor, 11, 10, 11),
        alui(Opcode::Ori, 11, 0x3C5, 11),
    ];
    let mut dest = 11;
    for base in [3, 2, 1, 0] {
        let mut dests = || {
            dest += 1;
            dest
        };
        let accesses = [
            load(Opcode::Ldq, base, -4, dests()),
            store(Opcode::Stq, 10, base, -4),
            store(Opcode::Stl, 11, base, -2),
            load(Opcode::Ldq, base, -4, dests()),
            load(Opcode::Ldl, base, -2, dests()),
            load(Opcode::Ldl, base, -6, dests()),
            load(Opcode::Ldq, base, 0, dests()),
        ];
        insts.extend(accesses.map(|i| i.expect("shape")));
    }
    assert!(dest < 32, "one register per load");
    insts.push(Inst::halt());
    Program::from_insts("sparse-boundaries", insts)
}

/// Ring 2a: word accesses in the sparse range, across page boundaries,
/// across the flat/sparse boundary and across the wrap at `u64::MAX`.
#[test]
fn fast_interpreter_matches_reference_on_sparse_boundaries() {
    let p = sparse_boundary_program();
    assert_executors_agree(&p, "sparse boundaries");
    let t = translate(&p, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("sparse boundaries: translate: {e}"));
    assert_executors_agree(&t.program, "sparse boundaries (braid)");
    // Both ends of the wrapped quad landed (its middle bytes were
    // overwritten by the long).
    let mut m = Machine::new(&p);
    m.run(&p, FUEL).expect("runs");
    let quad = 0x7AB3u64.pow(4) | 0x0101;
    assert_eq!(m.mem.read_u8(u64::MAX - 3), quad as u8, "low byte below the wrap");
    assert_eq!(m.mem.read_u8(3), (quad >> 56) as u8, "high byte past the wrap");
}

/// Records `program`'s trace on the fast interpreter in chunks of `chunk`
/// instructions, the way the streamed full tier pulls it.
fn record_chunked(
    program: &braid::isa::Program,
    fuel: u64,
    chunk: u64,
) -> Result<Vec<TraceEntry>, ExecError> {
    let table = FuncTable::new(program);
    let mut fast = FastMachine::new(program, &table);
    let mut out = Vec::new();
    while !fast.halted() {
        fast.run_recording_until(fast.executed() + chunk, fuel, &mut out)?;
    }
    Ok(out)
}

/// The trace producer the full tier streams from must record exactly the
/// golden interpreter's entries (`idx`, `next_idx`, `addr`, `taken`) —
/// or fail with the same [`ExecError`] — in one pass and in chunks of 1,
/// 7 and 4096 instructions alike.
fn assert_producers_agree(program: &braid::isa::Program, fuel: u64, what: &str) {
    let want = Machine::new(program).run(program, fuel).map(|t| t.entries);
    let table = FuncTable::new(program);
    let mut fast = FastMachine::new(program, &table);
    let mut one_pass = Vec::new();
    let got = fast.run_recording(fuel, &mut one_pass).map(|()| one_pass);
    assert!(want == got, "{what}: fast recording diverged from the golden trace");
    for chunk in [1, 7, 4096] {
        assert!(
            record_chunked(program, fuel, chunk) == want,
            "{what}: recording in chunks of {chunk} diverged from one pass"
        );
    }
}

/// Ring 3a: trace-producer equivalence on the kernels and the `ln_*`
/// loop nests, original and braid-translated.
#[test]
fn fast_recording_matches_golden_trace_on_kernels_and_nests() {
    let mut suite = kernel_suite();
    suite.extend(loopnest_suite());
    for w in suite {
        assert_producers_agree(&w.program, w.fuel, &w.name);
        let t = translate(&w.program, &TranslatorConfig::default())
            .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
        assert_producers_agree(&t.program, w.fuel, &format!("{} (braid)", w.name));
    }
}

/// Ring 3b: trace-producer equivalence on the 300 seeded random programs,
/// before and after translation, plus the two error shapes (fuel running
/// out, control leaving the program).
#[test]
fn fast_recording_matches_golden_trace_on_300_random_programs() {
    for seed in 0..DIFF_CASES {
        let mut rng = Rng::seed_from_u64(0xFA57_0000 + seed);
        let p = gen_program(&mut rng);
        assert_producers_agree(&p, FUEL, &format!("seed {seed}"));
        let t = translate(&p, &TranslatorConfig::default())
            .unwrap_or_else(|e| panic!("seed {seed}: translate: {e}"));
        assert_producers_agree(&t.program, FUEL, &format!("seed {seed} (braid)"));
    }
    for (src, err) in [
        ("loop: br loop\nhalt", ExecError::OutOfFuel),
        ("addi r0, #100, r1\nnop\nnop\nnop\nnop\nret r1\nhalt", ExecError::PcOutOfRange(100)),
    ] {
        let p = braid::isa::asm::assemble(src).expect("assembles");
        assert_eq!(record_chunked(&p, 100, 7), Err(err), "{src:?}");
        assert_producers_agree(&p, 100, src);
    }
}

/// Ring 2b: sampled runs with lockstep comparison forced on — the driver
/// itself snapshots fast vs reference at every interval boundary and
/// panics on the first divergence, whatever the build profile.
#[test]
fn sampled_driver_survives_lockstep_on_every_kernel_and_core() {
    let sampling = SamplingConfig { lockstep: true, ..SamplingConfig::default() };
    for w in kernel_suite() {
        for core in &paper_cores() {
            let rep = run_tier(&w.program, core, Tier::Sampled, w.fuel, &sampling)
                .unwrap_or_else(|e| panic!("{}:{}: sampled: {e}", w.name, core.name()));
            let TierReport::Sampled(r) = rep else { panic!("wrong report kind") };
            assert!(r.est_cycles > 0, "{}:{}: empty estimate", w.name, core.name());
            assert!(r.intervals > 0, "{}:{}: no intervals", w.name, core.name());
        }
    }
}

/// Ring 2c: a long run that leaves the dense phase. `tests/data/accum_long.bl`
/// retires ~0.56M instructions (init loop, then the accumulate passes), so
/// most of it is sampled sparsely and extrapolated: on every core, with
/// lockstep on, the estimate must stay within 5% of the full tier, time at
/// most a quarter of the run, and carry a confidence interval.
#[test]
fn sparse_sampling_holds_accuracy_on_a_long_nest() {
    let src = include_str!("data/accum_long.bl");
    let program = braid::lang::compile("accum_long", src)
        .unwrap_or_else(|r| panic!("accum_long: {}", r.render_with_source(src)))
        .program;
    let sampling = SamplingConfig { lockstep: true, ..SamplingConfig::default() };
    for core in &paper_cores() {
        let name = core.name();
        let run = |tier| {
            run_tier(&program, core, tier, 10_000_000, &sampling)
                .unwrap_or_else(|e| panic!("{name}: {tier}: {e}"))
        };
        let (TierReport::Full(full), TierReport::Sampled(est)) =
            (run(Tier::Full), run(Tier::Sampled))
        else {
            panic!("{name}: wrong report kinds");
        };
        assert_eq!(full.instructions, est.instructions, "{name}: instruction counts");
        let err = (est.est_ipc() - full.ipc()) / full.ipc();
        assert!(err.abs() <= 0.05, "{name}: IPC error {:.2}% over 5%", err * 100.0);
        assert!(est.coverage() <= 0.25, "{name}: {:.1}% timed", est.coverage() * 100.0);
        assert!(est.ci95_cycles.is_some(), "{name}: no confidence interval");
    }
}

/// The functional tier is only worth having if it is much faster than
/// timing simulation. Aggregated over the whole kernel × core matrix the
/// speedup is ~25-30×; assert the ≥10× floor with that margin absorbing
/// host noise. Debug builds skip the ratio (unoptimized interpreter
/// dispatch is not what ships) but still exercise the path.
#[test]
fn functional_tier_is_at_least_ten_times_faster_than_full_timing() {
    let mut full_nanos = 0u64;
    let mut func_nanos = 0u64;
    for w in kernel_suite() {
        for core in &paper_cores() {
            let run = |tier| {
                run_tier(&w.program, core, tier, w.fuel, &default_sampling())
                    .unwrap_or_else(|e| panic!("{}:{}: {e}", w.name, core.name()))
            };
            full_nanos += run(Tier::Full).host_nanos();
            func_nanos += run(Tier::Func).host_nanos();
        }
        // The standalone entry point agrees with the tier driver on the
        // state digest (same interpreter underneath).
        let direct = run_func(&w.program, w.fuel).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(direct.instructions > 0);
    }
    assert!(func_nanos > 0 && full_nanos > 0, "host clocks advanced");
    if cfg!(debug_assertions) {
        return;
    }
    let speedup = full_nanos as f64 / func_nanos as f64;
    assert!(
        speedup >= 10.0,
        "functional tier only {speedup:.1}x faster than full timing (need >= 10x)"
    );
}

// ------------------------------------------------- golden sampled IPC --

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sampled")
}

/// Rounded-to-nearest integer micro-IPC — pure integer arithmetic, so the
/// goldens are byte-stable across hosts and optimization levels.
fn ipc_micro(instructions: u64, cycles: u64) -> u64 {
    (instructions * 1_000_000 + cycles / 2).checked_div(cycles).unwrap_or(0)
}

/// Signed relative error in parts-per-million, from the micro-IPC
/// integers (again integer arithmetic only).
fn err_ppm(est_micro: u64, exact_micro: u64) -> i64 {
    (est_micro * 1_000_000).checked_div(exact_micro).map_or(0, |r| r as i64 - 1_000_000)
}

/// Renders one kernel's sampled-IPC golden record and asserts the live
/// acceptance bounds: ≤5% relative error at the default window, and a
/// CPI stack that totals exactly the estimated cycles.
fn render_sampled_golden(w: &braid::workloads::Workload) -> String {
    let mut out = String::new();
    for core in &paper_cores() {
        let run = |tier| {
            run_tier(&w.program, core, tier, w.fuel, &default_sampling())
                .unwrap_or_else(|e| panic!("{}:{}: {e}", w.name, core.name()))
        };
        let TierReport::Full(exact) = run(Tier::Full) else { panic!("wrong report kind") };
        let TierReport::Sampled(est) = run(Tier::Sampled) else { panic!("wrong report kind") };
        assert_eq!(
            est.instructions, exact.instructions,
            "{}:{}: tiers disagree on the instruction stream",
            w.name,
            core.name()
        );
        assert_eq!(
            est.cpi.total(),
            est.est_cycles,
            "{}:{}: CPI stack does not total the estimated cycles",
            w.name,
            core.name()
        );
        let est_micro = ipc_micro(est.instructions, est.est_cycles);
        let exact_micro = ipc_micro(exact.instructions, exact.cycles);
        let err = err_ppm(est_micro, exact_micro);
        assert!(
            err.abs() <= 50_000,
            "{}:{}: sampled IPC error {err} ppm exceeds the 5% budget",
            w.name,
            core.name()
        );
        let _ = writeln!(
            out,
            "{} est_ipc_micro {est_micro} exact_ipc_micro {exact_micro} err_ppm {err}",
            core.name()
        );
    }
    out
}

/// Ring 3: the sampled estimate for every kernel × core is pinned to a
/// checked-in fixture; any estimator drift is a deliberate regeneration
/// or a regression.
#[test]
fn sampled_estimates_match_their_goldens() {
    let update = std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden/sampled");
    }

    let mut failures = Vec::new();
    for w in kernel_suite() {
        let current = render_sampled_golden(&w);
        let path = dir.join(format!("{}.golden", w.name));
        if update {
            fs::write(&path, &current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(no golden file — generate the set with \
                 BRAID_UPDATE_GOLDEN=1 cargo test --test functional_tier)",
                path.display()
            )
        });
        if golden != current {
            failures.push(format!(
                "sampled golden mismatch for kernel `{}`\n\
                 (if this change is intentional, regenerate with \
                 BRAID_UPDATE_GOLDEN=1 cargo test --test functional_tier)\n\
                 golden:\n{golden}current:\n{current}",
                w.name
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn sampled_golden_files_cover_exactly_the_kernel_suite() {
    if std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        return; // the update pass is rewriting the set right now
    }
    let mut on_disk: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden/sampled exists")
        .filter_map(|e| {
            let name = e.ok()?.file_name().into_string().ok()?;
            name.strip_suffix(".golden").map(String::from)
        })
        .collect();
    on_disk.sort();
    let mut kernels: Vec<String> = kernel_suite().into_iter().map(|w| w.name).collect();
    kernels.sort();
    assert_eq!(
        on_disk, kernels,
        "tests/golden/sampled/ out of sync with the kernel suite — \
         regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test functional_tier"
    );
}
