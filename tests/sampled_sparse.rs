//! Byte-for-byte pins on the sampled tier's sparse phase.
//!
//! The kernel fixtures in `tests/golden/sampled/` never leave the dense
//! phase (the first 64K instructions are timed wall to wall), so they do
//! not cover what only a long run exercises: the separately timed warm-up
//! prefix, the extrapolation of untimed tails, and the confidence
//! interval. This suite pins those, plus the exact error a sampled run
//! returns when timing or execution fails after the dense phase:
//!
//! * `tests/golden/sampled_sparse/accum_long.golden` — every deterministic
//!   [`SampledReport`] field of `tests/data/accum_long.bl` on the four
//!   paper cores, CPI stack included.
//! * `tests/golden/sampled_sparse/errors.golden` — the error of a run
//!   whose cycle deadline trips in a sparse window, combined with fuel
//!   that runs out before, inside and after that window, and of
//!   `accum_long` running out of fuel mid-run.
//!
//! Regenerate after an intentional estimator change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test sampled_sparse
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid::core::processor::{run_tier, CoreConfig, TierReport};
use braid::core::{ExecError, RunError, SampledReport, SamplingConfig, SimError, Tier};
use braid::isa::Program;

/// The paper-default configuration of each timing core.
fn paper_cores() -> [CoreConfig; 4] {
    [
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ]
}

/// The default sampling window with lockstep validation off: these pins
/// are about results, and lockstep never changes them.
fn sampling() -> SamplingConfig {
    SamplingConfig { lockstep: false, ..SamplingConfig::default() }
}

fn compile(name: &str, src: &str) -> Program {
    braid::lang::compile(name, src)
        .unwrap_or_else(|r| panic!("{name}: {}", r.render_with_source(src)))
        .program
}

/// About 100K cheap ALU instructions, then a streaming pass that misses
/// to memory on every load. At the default window every dense-phase
/// window (the first 64K instructions) is cheaper than every window of
/// the streaming pass, which starts in the sparse phase (interval 18, at
/// instruction 131 072) — so a cycle deadline between the two trips in a
/// sparse window and nowhere earlier, on all four cores.
const STREAM_TAIL: &str = "\
array a[65536];
let s = 0;
for j in 0..20000 { s = s + j * 3; }
for i in 0..8192 { s = s + a[i * 8]; }
a[0] = s;
";

/// Above every dense-phase window of [`STREAM_TAIL`] (at most ~4.3K
/// cycles, on the in-order core), below every streaming window (at least
/// ~6.7K cycles, on the dep and ooo cores).
const SPARSE_DEADLINE: u64 = 5_000;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sampled_sparse")
}

/// Compares `current` with the named fixture (or rewrites it under
/// `BRAID_UPDATE_GOLDEN=1`).
fn check_golden(name: &str, current: &str) {
    let path = golden_dir().join(name);
    if std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        fs::create_dir_all(golden_dir()).expect("create tests/golden/sampled_sparse");
        fs::write(&path, current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\n(no golden file — generate it with \
             BRAID_UPDATE_GOLDEN=1 cargo test --test sampled_sparse)",
            path.display()
        )
    });
    assert!(
        golden == current,
        "sampled sparse-phase golden mismatch in {name}\n\
         (if this change is intentional, regenerate with \
         BRAID_UPDATE_GOLDEN=1 cargo test --test sampled_sparse)\n\
         golden:\n{golden}current:\n{current}"
    );
}

/// Every deterministic field of `r` on one line (host times excluded).
fn render_report(core: &str, r: &SampledReport) -> String {
    let ci = r.ci95_cycles.map_or_else(|| "none".to_string(), |c| c.to_string());
    let mut line = format!(
        "{core} insts {} est_cycles {} intervals {} timed {} measured_insts {} \
         measured_cycles {} overhead_cycles {} ci95 {ci} cpi",
        r.instructions,
        r.est_cycles,
        r.intervals,
        r.timed_insts,
        r.measured_insts,
        r.measured_cycles,
        r.overhead_cycles,
    );
    for (cause, n) in r.cpi.iter() {
        let _ = write!(line, " {}={n}", cause.key());
    }
    line
}

/// The sparse-phase estimate of `accum_long` — warm-up re-timing,
/// extrapolation, confidence interval and CPI stack — is pinned exactly.
#[test]
fn accum_long_sampled_reports_match_their_golden() {
    let program = compile("accum_long", include_str!("data/accum_long.bl"));
    let mut out = String::new();
    for core in &paper_cores() {
        let rep = run_tier(&program, core, Tier::Sampled, 10_000_000, &sampling())
            .unwrap_or_else(|e| panic!("{}: {e}", core.name()));
        let TierReport::Sampled(r) = rep else { panic!("wrong report kind") };
        assert!(r.ci95_cycles.is_some(), "{}: accum_long must reach the sparse phase", core.name());
        assert_eq!(r.cpi.total(), r.est_cycles, "{}: CPI stack total", core.name());
        out.push_str(&render_report(core.name(), &r));
        out.push('\n');
    }
    check_golden("accum_long.golden", &out);
}

/// The error a sampled run returns.
fn sampled_error(program: &Program, core: &CoreConfig, fuel: u64) -> RunError {
    match run_tier(program, core, Tier::Sampled, fuel, &sampling()) {
        Ok(r) => panic!("{}: fuel {fuel}: no error after {} insts", core.name(), r.instructions()),
        Err(e) => e,
    }
}

/// Which failure a sampled run reports is the sequential order of its
/// events: a window's timing error before the fast-forward that follows
/// it, an execution error while recording a window before that window's
/// timing. With the deadline tripping in the window of interval 18
/// (instructions 131 072..135 168, tail to 163 840), fuel of 120 000 runs
/// out in interval 17 (execution error), 133 000 while recording window
/// 18 (execution error) and 150 000 in interval 18's fast-forward, after
/// the window timed out (deadline error). Unlimited fuel gives the
/// deadline alone.
#[test]
fn sampled_errors_keep_their_sequential_order() {
    let stream = compile("stream_tail", STREAM_TAIL);
    let accum = compile("accum_long", include_str!("data/accum_long.bl"));
    let mut out = String::new();
    for mut core in paper_cores() {
        let name = core.name();
        // `accum_long` is ~0.56M instructions: fuel runs out mid-run,
        // deep in the sparse phase.
        let err = sampled_error(&accum, &core, 300_000);
        assert!(matches!(err, RunError::Exec(ExecError::OutOfFuel)), "{name}: {err}");
        let _ = writeln!(out, "{name} accum_long fuel 300000: {err}");
        // Every `stream_tail` run carries the sparse-window deadline.
        core.common_mut().deadline_cycles = SPARSE_DEADLINE;
        for (fuel, deadline_wins) in
            [(120_000, false), (133_000, false), (150_000, true), (10_000_000, true)]
        {
            let err = sampled_error(&stream, &core, fuel);
            let want = if deadline_wins {
                matches!(err, RunError::Sim(SimError::Deadline { .. }))
            } else {
                matches!(err, RunError::Exec(ExecError::OutOfFuel))
            };
            assert!(want, "{name} fuel {fuel}: {err}");
            let _ = writeln!(out, "{name} stream_tail fuel {fuel}: {err}");
        }
    }
    check_golden("errors.golden", &out);
}
