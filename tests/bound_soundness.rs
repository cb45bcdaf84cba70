//! Soundness lock for `braid-analyze`: the static cycle lower bound never
//! exceeds the simulated cycle count — on any core, for any program.
//!
//! Three layers:
//!
//! * a 300-case PRNG differential property (75 random programs × 4 cores):
//!   `cycle_bound(...) ≤ run_tier(Full) cycles`, on both the original
//!   program and (for the braid core) the canonical translation it
//!   actually executes;
//! * the same property on every hand-written kernel workload;
//! * a never-panic corpus: the analyzer and the checker return normally
//!   (a report or a typed error) on mangled annotations and degenerate
//!   programs.

use braid::analyze::{analyze, cycle_bound, AnalyzeConfig};
use braid::compiler::{translate, TranslatorConfig};
use braid::core::processor::{run_tier, trace_program, CoreConfig, TierReport};
use braid::core::{
    BraidConfig, DepConfig, InOrderConfig, OooConfig, SamplingConfig, Tier,
};
use braid::isa::Program;
use braid_prng::Rng;

mod common;
use common::gen_program;

fn paper_cores() -> Vec<CoreConfig> {
    vec![
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ]
}

/// Full-tier cycles for `program` on `core` (the braid core translates
/// internally, so callers pass the *original* program for every core).
fn full_cycles(program: &Program, core: &CoreConfig, fuel: u64) -> u64 {
    match run_tier(program, core, Tier::Full, fuel, &SamplingConfig::default()) {
        Ok(TierReport::Full(r)) => r.cycles,
        Ok(_) => unreachable!("full tier returns a full report"),
        Err(e) => panic!("{}: full tier failed: {e}", core.name()),
    }
}

/// Asserts bound ≤ simulated for every core on `program`, via the same
/// trace selection `analyze` uses: the braid core is bounded over its
/// canonical translation, everything else over the program itself.
/// Counts one checked (program, core) pair per call per core.
fn assert_sound(program: &Program, fuel: u64, tag: &str) -> u64 {
    let tconfig = TranslatorConfig { self_check: false, ..Default::default() };
    let mut checked = 0;
    for core in paper_cores() {
        let (exec, sim_ok): (Program, bool) = if core.is_braid() {
            match translate(program, &tconfig) {
                Ok(t) => {
                    // run_tier would reject check-dirty translations;
                    // bound them anyway (soundness must still hold), but
                    // only compare against simulation when it runs.
                    let clean = !t
                        .check(program, &braid::check::CheckConfig::default())
                        .has_errors();
                    (t.program, clean)
                }
                Err(_) => continue, // no braid execution to compare against
            }
        } else {
            (program.clone(), true)
        };
        if !sim_ok {
            continue;
        }
        let trace = trace_program(&exec, fuel).expect("functional trace");
        let bound = cycle_bound(&exec, &core, &mut trace.entries.as_slice()).cycles();
        let cycles = full_cycles(program, &core, fuel);
        assert!(
            bound <= cycles,
            "{tag}: UNSOUND on {}: bound {bound} > simulated {cycles}",
            core.name()
        );
        checked += 1;
    }
    checked
}

#[test]
fn bound_is_sound_on_300_random_programs() {
    let mut total = 0;
    let mut seed = 0u64;
    while total < 300 {
        let mut rng = Rng::seed_from_u64(seed);
        let p = gen_program(&mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_sound(&p, 1_000_000, &format!("seed {seed}"))
        }));
        match result {
            Ok(n) => total += n,
            Err(payload) => {
                eprintln!("soundness property failed for seed {seed}");
                std::panic::resume_unwind(payload);
            }
        }
        seed += 1;
    }
    assert!(total >= 300, "checked {total} (program, core) cases");
}

#[test]
fn bound_is_sound_on_every_kernel_workload() {
    for w in braid::workloads::kernel_suite() {
        let checked = assert_sound(&w.program, w.fuel, &w.name);
        assert_eq!(checked, 4, "{}: all four cores must be checked", w.name);
    }
}

#[test]
fn analyze_matches_the_direct_bound_on_kernels() {
    // The `analyze` orchestration must report the same per-core bounds the
    // direct `cycle_bound` computation gives (no drift between the CLI
    // path and the library path).
    let cores = paper_cores();
    for w in braid::workloads::kernel_suite().into_iter().take(3) {
        let config = AnalyzeConfig { fuel: w.fuel, ..AnalyzeConfig::default() };
        let report = analyze(&w.program, &cores, &config).expect("analyze runs");
        assert_eq!(report.bounds.len(), 4);
        for core in &cores {
            let exec = if core.is_braid() {
                translate(&w.program, &TranslatorConfig { self_check: false, ..Default::default() })
                    .expect("kernels translate")
                    .program
            } else {
                w.program.clone()
            };
            let trace = trace_program(&exec, w.fuel).expect("trace");
            let direct = cycle_bound(&exec, core, &mut trace.entries.as_slice()).cycles();
            let reported = report
                .bounds
                .iter()
                .find(|b| b.core == core.name())
                .map(|b| b.cycles())
                .expect("bound present");
            assert_eq!(direct, reported, "{}:{}", w.name, core.name());
        }
    }
}

/// Analyzer-and-checker-never-panic corpus: mangled annotation bits,
/// truncated programs, and wild branches must produce a report or a typed
/// error — never a panic. Mirrors the braidd fuzz suite's seeded-PRNG
/// style so every failure is a replayable seed.
#[test]
fn analyzer_and_checker_never_panic_on_mangled_programs() {
    let cores = paper_cores();
    let config = AnalyzeConfig { fuel: 10_000, ..AnalyzeConfig::default() };
    for seed in 0..64u64 {
        let mut rng = Rng::seed_from_u64(seed);
        let base = gen_program(&mut rng);
        // Annotate first so the mangling hits real braid bits half the
        // time, then corrupt.
        let tconfig = TranslatorConfig { self_check: false, ..Default::default() };
        let mut p = match translate(&base, &tconfig) {
            Ok(t) if seed % 2 == 0 => t.program,
            _ => base,
        };
        for _ in 0..rng.gen_range(1..6u32) {
            if p.insts.is_empty() {
                break;
            }
            let i = rng.gen_range(0..p.insts.len());
            match rng.gen_range(0..6u32) {
                0 => p.insts[i].braid.start = !p.insts[i].braid.start,
                1 => p.insts[i].braid.internal = !p.insts[i].braid.internal,
                2 => p.insts[i].braid.external = !p.insts[i].braid.external,
                3 => p.insts[i].braid.t[rng.gen_range(0..2usize)] ^= true,
                4 => {
                    p.insts.truncate(i.max(1));
                }
                _ => {
                    if let Some(t) = p.insts[i].target() {
                        p.insts[i].set_target(t.wrapping_add(rng.gen_range(0..4096u32)));
                    }
                }
            }
        }
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Typed errors are fine; panics are the bug.
            let _ = braid::check::check_program(&p, &braid::check::CheckConfig::default());
            let _ = analyze(&p, &cores, &config);
        }));
        assert!(result.is_ok(), "analyzer/checker panicked for seed {seed}");
    }
}
