//! CPI-stack regression and identity tests.
//!
//! Three guarantees pinned down here:
//!
//! 1. **Golden snapshots** — `tests/golden/cpi/<kernel>.golden` records
//!    the full cycle-accounting breakdown of every kernel on all four
//!    paper-default machines. Any drift in where cycles are charged is a
//!    deliberate accounting change (regenerate) or a regression (fix).
//! 2. **Conservation** — every cycle is charged to exactly one cause, so
//!    each stack totals exactly the core's cycle count. Checked on every
//!    kernel × core pair while rendering the goldens.
//! 3. **Observer neutrality** — attaching the full [`PipelineObserver`]
//!    must not change simulation results: for 200 seeded random-program ×
//!    core cases, the observed and unobserved runs produce byte-identical
//!    deterministic report JSON.
//!
//! Regenerate the snapshots after an intentional accounting change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test cpi_stacks
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid::core::cores::{BraidCore, DepSteerCore, InOrderCore, OooCore};
use braid::core::functional::Machine;
use braid::core::processor::{run_full, CoreConfig};
use braid::core::report::SimReport;
use braid::core::StallCause;
use braid::isa::{AliasClass, Inst, Opcode, Program, Reg};
use braid::obs::{report_json, PipelineObserver};
use braid::workloads::{kernel_suite, Workload};
use braid_prng::Rng;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cpi")
}

/// Runs the kernel on all four paper-default machines, returning
/// `(label, report)` pairs in a fixed order.
fn run_all_cores(w: &Workload) -> Vec<(&'static str, SimReport)> {
    let mut m = Machine::new(&w.program);
    let trace = m.run(&w.program, w.fuel).unwrap_or_else(|e| panic!("{}: {e}", w.name));

    let io = InOrderCore::new(InOrderConfig::paper_8wide())
        .run(&w.program, &trace)
        .unwrap_or_else(|e| panic!("{}: inorder: {e}", w.name));
    let dep = DepSteerCore::new(DepConfig::paper_8wide())
        .run(&w.program, &trace)
        .unwrap_or_else(|e| panic!("{}: dep: {e}", w.name));
    let ooo = OooCore::new(OooConfig::paper_8wide())
        .run(&w.program, &trace)
        .unwrap_or_else(|e| panic!("{}: ooo: {e}", w.name));

    let t = translate(&w.program, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
    let mut mb = Machine::new(&t.program);
    let braid_trace =
        mb.run(&t.program, w.fuel).unwrap_or_else(|e| panic!("{}: braid trace: {e}", w.name));
    let braid = BraidCore::new(BraidConfig::paper_default())
        .run(&t.program, &braid_trace)
        .unwrap_or_else(|e| panic!("{}: braid: {e}", w.name));

    vec![("inorder", io), ("dep", dep), ("ooo", ooo), ("braid", braid)]
}

/// Renders the kernel's CPI golden record: per core, the cycle total and
/// one line per cause (all ten, zeros included), in canonical order.
fn render_cpi_golden(w: &Workload) -> String {
    let mut out = String::new();
    for (label, r) in run_all_cores(w) {
        assert_eq!(
            r.cpi.total(),
            r.cycles,
            "{}/{label}: CPI stack must account for every cycle exactly once",
            w.name
        );
        let _ = writeln!(out, "cycles {label} {}", r.cycles);
        for cause in StallCause::ALL {
            let _ = writeln!(out, "cpi {label} {} {}", cause.key(), r.cpi.get(cause));
        }
    }
    out
}

fn diff_report(name: &str, golden: &str, current: &str) -> String {
    let mut out = format!(
        "CPI golden mismatch for kernel `{name}`\n\
         (if this accounting change is intentional, regenerate with \
         BRAID_UPDATE_GOLDEN=1 cargo test --test cpi_stacks)\n"
    );
    let golden_lines: Vec<&str> = golden.lines().collect();
    let current_lines: Vec<&str> = current.lines().collect();
    for i in 0..golden_lines.len().max(current_lines.len()) {
        match (golden_lines.get(i), current_lines.get(i)) {
            (Some(g), Some(c)) if g == c => {}
            (Some(g), Some(c)) => {
                let _ = writeln!(out, "  line {}: golden  `{g}`", i + 1);
                let _ = writeln!(out, "  line {}: current `{c}`", i + 1);
            }
            (Some(g), None) => {
                let _ = writeln!(out, "  line {}: missing from current: `{g}`", i + 1);
            }
            (None, Some(c)) => {
                let _ = writeln!(out, "  line {}: only in current: `{c}`", i + 1);
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

/// Guarantee 1 + 2: the golden snapshots (conservation is asserted inside
/// [`render_cpi_golden`], so the update pass can't record a broken stack).
#[test]
fn kernels_match_their_golden_cpi_stacks() {
    let update = std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden/cpi");
    }

    let mut failures = Vec::new();
    for w in kernel_suite() {
        let current = render_cpi_golden(&w);
        let path = dir.join(format!("{}.golden", w.name));
        if update {
            fs::write(&path, &current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(no golden file — generate the set with \
                 BRAID_UPDATE_GOLDEN=1 cargo test --test cpi_stacks)",
                path.display()
            )
        });
        if golden != current {
            failures.push(diff_report(&w.name, &golden, &current));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn golden_cpi_files_cover_exactly_the_kernel_suite() {
    if std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        return; // the update pass is rewriting the set right now
    }
    let mut on_disk: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden/cpi exists")
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
        "tests/golden/cpi/ out of sync with the kernel suite — \
         regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test cpi_stacks"
    );
}

// ---- observer neutrality over random programs ----

/// A small random straight-line program (ALU mix, loads, stores, a few
/// forward branches) over a low data page, ending in `halt`. Same recipe
/// as `tests/properties.rs`, trimmed to the shapes that matter for timing.
fn gen_program(rng: &mut Rng) -> Program {
    let int = |rng: &mut Rng| Reg::int(rng.gen_range(0..32u8)).expect("in range");
    loop {
        let len = rng.gen_range(8..64usize);
        let mut insts: Vec<Inst> = (0..len)
            .map(|_| match rng.gen_range(0..8u32) {
                0..=2 => {
                    let op = *rng.choose(&[Opcode::Add, Opcode::Sub, Opcode::Mul, Opcode::Xor]);
                    let (a, b, d) = (int(rng), int(rng), int(rng));
                    Inst::alu(op, a, b, d).expect("valid shape")
                }
                3..=4 => {
                    let (s, d) = (int(rng), int(rng));
                    Inst::alui(Opcode::Addi, s, rng.gen_range(-100..100i32), d)
                        .expect("valid shape")
                }
                5..=6 => {
                    let (base, d) = (int(rng), int(rng));
                    let slot = rng.gen_range(0..32i32);
                    Inst::load(Opcode::Ldq, base, slot * 8, d, AliasClass::Unknown)
                        .expect("valid shape")
                }
                _ => {
                    let (v, base) = (int(rng), int(rng));
                    let slot = rng.gen_range(0..32i32);
                    Inst::store(Opcode::Stq, v, base, slot * 8, AliasClass::Unknown)
                        .expect("valid shape")
                }
            })
            .collect();
        for _ in 0..rng.gen_range(0..3usize) {
            let at = rng.gen_range(0..60usize).min(insts.len().saturating_sub(1));
            let skip = rng.gen_range(1..8u32);
            let target = (at as u32 + 1 + skip).min(insts.len() as u32);
            let src = int(rng);
            insts.insert(at, Inst::branch(Opcode::Bne, src, target + 1).expect("shape"));
        }
        let halt_at = insts.len() as u32;
        #[allow(clippy::needless_range_loop)] // set_target needs &mut insts[i]
        for i in 0..insts.len() {
            if let Some(t) = insts[i].target() {
                insts[i].set_target(t.max(i as u32 + 1).min(halt_at));
            }
        }
        insts.push(Inst::halt());
        let mut p = Program::from_insts("prop", insts);
        p.data.push(braid::isa::DataSegment::from_words(
            0,
            &(0..64).map(|i| i * 13 + 5).collect::<Vec<u64>>(),
        ));
        if p.validate().is_ok() {
            return p;
        }
    }
}

/// Guarantee 3: 50 random programs × 4 cores = 200 cases where the
/// observed and unobserved runs must agree byte-for-byte on the
/// deterministic report rendering (which covers cycles, every stall
/// counter and the full CPI stack — everything except host wall-clock).
/// The unobserved run times a materialized trace; the observed one goes
/// through `run_full`, which streams its own.
#[test]
fn observer_on_and_off_agree_for_200_cases() {
    const SEEDS: u64 = 50;
    const FUEL: u64 = 100_000;
    for seed in 0..SEEDS {
        let mut rng = Rng::seed_from_u64(0xC91_57AC + seed);
        let p = gen_program(&mut rng);
        let mut m = Machine::new(&p);
        let trace = m.run(&p, FUEL).expect("runs");
        let t = translate(&p, &TranslatorConfig::default()).expect("translates");
        let mut mb = Machine::new(&t.program);
        let braid_trace = mb.run(&t.program, FUEL).expect("runs");

        let check = |program: &Program, plain: SimReport, core: CoreConfig| {
            let label = core.name();
            let mut obs = PipelineObserver::new();
            let observed = run_full(program, &core, FUEL, &mut obs).expect("runs");
            assert_eq!(
                report_json(&plain).to_string(),
                report_json(&observed).to_string(),
                "seed {seed}/{label}: observer changed the simulation"
            );
            assert_eq!(
                obs.retired_count(),
                observed.instructions,
                "seed {seed}/{label}: every retired instruction gets one retired record"
            );
        };

        let io = InOrderConfig::paper_8wide();
        check(&p, InOrderCore::new(io.clone()).run(&p, &trace).expect("runs"), CoreConfig::InOrder(io));
        let dep = DepConfig::paper_8wide();
        check(&p, DepSteerCore::new(dep.clone()).run(&p, &trace).expect("runs"), CoreConfig::Dep(dep));
        let ooo = OooConfig::paper_8wide();
        check(&p, OooCore::new(ooo.clone()).run(&p, &trace).expect("runs"), CoreConfig::Ooo(ooo));
        let braid = BraidConfig::paper_default();
        check(
            &t.program,
            BraidCore::new(braid.clone()).run(&t.program, &braid_trace).expect("runs"),
            CoreConfig::Braid(braid),
        );
    }
}
