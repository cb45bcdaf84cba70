//! Golden fixtures for the braid machine's two producer-reading paths that
//! the paper-default fixtures never exercise.
//!
//! * **Clustered BEUs** (paper §5.2): a consumer in another cluster sees an
//!   external value `inter_cluster_delay` cycles late, so the issue check
//!   reads its producer's timing slot even after that producer retired.
//! * **Exception mode** (paper §3.4): a raised exception squashes the
//!   window back to the checkpoint and replays it in order on one BEU,
//!   reusing the dependence links recorded at first dispatch.
//!
//! `tests/golden/braid_paths/<kernel>.golden` records, for every kernel,
//! the cycle count and full CPI stack of each clustered configuration
//! (`clusters` ∈ {2, 4} × `inter_cluster_delay` ∈ {2, 4}) and of one
//! exception run. Regenerate after an intentional timing change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test braid_paths
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::BraidConfig;
use braid::core::cores::BraidCore;
use braid::core::functional::Machine;
use braid::core::report::SimReport;
use braid::core::StallCause;
use braid::workloads::{kernel_suite, Workload};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/braid_paths")
}

/// Handler latency charged per exception in the exception run.
const HANDLER_LATENCY: u64 = 200;

/// Number of exceptions raised, evenly spread over the trace.
const EXCEPTIONS: u64 = 5;

fn render_run(out: &mut String, label: &str, r: &SimReport) {
    assert_eq!(r.cpi.total(), r.cycles, "{label}: CPI stack must total the cycles");
    let _ = writeln!(out, "cycles {label} {}", r.cycles);
    for cause in StallCause::ALL {
        let _ = writeln!(out, "cpi {label} {} {}", cause.key(), r.cpi.get(cause));
    }
}

fn render_golden(w: &Workload) -> String {
    let t = translate(&w.program, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
    let mut m = Machine::new(&t.program);
    let trace = m.run(&t.program, w.fuel).unwrap_or_else(|e| panic!("{}: trace: {e}", w.name));
    let mut out = String::new();
    for clusters in [2, 4] {
        for delay in [2, 4] {
            let mut cfg = BraidConfig::paper_default();
            cfg.clusters = clusters;
            cfg.inter_cluster_delay = delay;
            let r = BraidCore::new(cfg)
                .run(&t.program, &trace)
                .unwrap_or_else(|e| panic!("{}: clusters {clusters}: {e}", w.name));
            assert_eq!(r.instructions, trace.len() as u64, "{}: retires all", w.name);
            render_run(&mut out, &format!("c{clusters}d{delay}"), &r);
        }
    }
    let n = trace.len() as u64;
    let points: Vec<u64> = (1..=EXCEPTIONS).map(|k| k * n / (EXCEPTIONS + 1)).collect();
    let r = BraidCore::new(BraidConfig::paper_default())
        .run_with_exceptions(&t.program, &mut trace.entries.as_slice(), &points, HANDLER_LATENCY)
        .unwrap_or_else(|e| panic!("{}: exceptions: {e}", w.name));
    assert_eq!(r.instructions, n, "{}: exception run retires all", w.name);
    let _ = writeln!(out, "exceptions_taken {}", r.exceptions_taken);
    render_run(&mut out, "exc", &r);
    out
}

#[test]
fn kernels_match_their_braid_path_goldens() {
    let update = std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden/braid_paths");
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
                "{}: {e}\n(regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test braid_paths)",
                path.display()
            )
        });
        if golden != current {
            let changed: Vec<String> = golden
                .lines()
                .zip(current.lines())
                .filter(|(g, c)| g != c)
                .map(|(g, c)| format!("  golden `{g}` / current `{c}`"))
                .collect();
            failures.push(format!("{}:\n{}", w.name, changed.join("\n")));
        }
    }
    assert!(failures.is_empty(), "braid path goldens drifted:\n{}", failures.join("\n"));
}
