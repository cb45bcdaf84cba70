//! Golden braid-bound fixtures: the static cycle lower bound of every
//! hand-written kernel on every paper core, pinned line by line.
//!
//! A bound change is a semantic event — either the analyzer got tighter
//! (good, but the goldens must be regenerated deliberately) or an engine
//! change moved the floor (which the soundness suite cross-checks). The
//! fixtures also re-assert soundness at generation *and* verification
//! time: a pinned bound that exceeds its simulated cycles can never land.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test golden_bounds
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::analyze::cycle_bound;
use braid::compiler::{translate, TranslatorConfig};
use braid::core::processor::{run_tier, trace_program, CoreConfig, TierReport};
use braid::core::{
    BraidConfig, DepConfig, InOrderConfig, OooConfig, SamplingConfig, Tier,
};
use braid::workloads::{kernel_suite, Workload};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/bounds")
}

fn paper_cores() -> Vec<CoreConfig> {
    vec![
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ]
}

/// Renders one kernel's golden record: per core, the bound, its limiter,
/// every component, and the simulated cycles it must stay below.
fn render_golden(w: &Workload) -> String {
    let mut out = String::new();
    for core in paper_cores() {
        let exec = if core.is_braid() {
            translate(&w.program, &TranslatorConfig { self_check: false, ..Default::default() })
                .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name))
                .program
        } else {
            w.program.clone()
        };
        let trace = trace_program(&exec, w.fuel)
            .unwrap_or_else(|e| panic!("{}:{}: trace: {e}", w.name, core.name()));
        let b = cycle_bound(&exec, &core, &mut trace.entries.as_slice());
        let cycles =
            match run_tier(&w.program, &core, Tier::Full, w.fuel, &SamplingConfig::default()) {
                Ok(TierReport::Full(r)) => r.cycles,
                Ok(_) => unreachable!("full tier returns a full report"),
                Err(e) => panic!("{}:{}: full tier: {e}", w.name, core.name()),
            };
        assert!(
            b.cycles() <= cycles,
            "{}:{}: UNSOUND: bound {} > simulated {cycles}",
            w.name,
            core.name(),
            b.cycles()
        );
        let _ = writeln!(
            out,
            "bound {} {} limiter {} width {} issue {} lsq {} dep {} simulated {cycles}",
            core.name(),
            b.cycles(),
            b.limiter(),
            b.width_bound,
            b.issue_bound,
            b.lsq_bound,
            b.dep_bound,
        );
    }
    out
}

#[test]
fn kernel_bounds_match_their_goldens() {
    let update = std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden/bounds");
    }

    let mut failures = Vec::new();
    for w in kernel_suite() {
        let current = render_golden(&w);
        let path = dir.join(format!("{}.golden", w.name));
        if update {
            fs::write(&path, &current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(no golden file — generate the set with \
                 BRAID_UPDATE_GOLDEN=1 cargo test --test golden_bounds)",
                path.display()
            )
        });
        if golden != current {
            failures.push(format!(
                "golden bound mismatch for kernel `{}`\n\
                 (if intentional, regenerate with BRAID_UPDATE_GOLDEN=1 \
                 cargo test --test golden_bounds)\n  golden:\n{}\n  current:\n{}",
                w.name, golden, current
            ));
        }
    }
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

#[test]
fn golden_bound_files_cover_exactly_the_kernel_suite() {
    if std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        return;
    }
    let mut expected: Vec<String> =
        kernel_suite().iter().map(|w| format!("{}.golden", w.name)).collect();
    expected.sort();
    let mut found: Vec<String> = fs::read_dir(golden_dir())
        .expect("tests/golden/bounds exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".golden"))
        .collect();
    found.sort();
    assert_eq!(
        expected, found,
        "golden bound fixtures out of sync with the kernel suite; \
         regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test golden_bounds"
    );
}
