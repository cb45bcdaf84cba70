//! Golden fixtures for the out-of-order, dependence-steering and braid
//! cores under machine configurations the paper-default fixtures never
//! run: other widths, conservative memory disambiguation, scarce read
//! ports, tiny schedulers and a small register buffer.
//!
//! These are the paths where select logic, not dataflow, decides timing:
//! an entry that is ready but finds no read port, a load the LSQ turns
//! back, a dispatch that finds every scheduler full or no free register.
//! `tests/golden/core_configs/<kernel>.golden` records, per core and
//! configuration, the cycle count, the stall/LSQ/forwarding counters and
//! the full CPI stack. Regenerate after an intentional timing change with:
//!
//! ```text
//! BRAID_UPDATE_GOLDEN=1 cargo test --test core_configs
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use braid::compiler::{translate, TranslatorConfig};
use braid::core::config::{BraidConfig, DepConfig, OooConfig};
use braid::core::cores::{BraidCore, DepSteerCore, OooCore};
use braid::core::functional::Machine;
use braid::core::report::SimReport;
use braid::core::StallCause;
use braid::workloads::{kernel_suite, Workload};

/// Kernels with loads, stores, long chains and wide parallelism between
/// them.
const KERNELS: [&str; 4] = ["dot_product", "histogram", "partition", "pointer_chase"];

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/core_configs")
}

fn ooo_configs() -> Vec<(&'static str, OooConfig)> {
    let base = OooConfig::paper_8wide;
    let mut cons = base();
    cons.common.conservative_disambiguation = true;
    let mut rp4 = base();
    rp4.rf_read_ports = 4;
    let mut s2x4 = base();
    s2x4.schedulers = 2;
    s2x4.sched_entries = 4;
    let mut regs32 = base();
    regs32.regs = 32;
    vec![
        ("w2", OooConfig::paper_wide(2)),
        ("w4", OooConfig::paper_wide(4)),
        ("w16", OooConfig::paper_wide(16)),
        ("cons", cons),
        ("rp4", rp4),
        ("s2x4", s2x4),
        ("regs32", regs32),
    ]
}

fn dep_configs() -> Vec<(&'static str, DepConfig)> {
    let base = DepConfig::paper_8wide;
    let mut cons = base();
    cons.common.conservative_disambiguation = true;
    let mut f2x4 = base();
    f2x4.fifos = 2;
    f2x4.fifo_entries = 4;
    let mut regs32 = base();
    regs32.regs = 32;
    vec![
        ("w2", DepConfig::paper_wide(2)),
        ("w4", DepConfig::paper_wide(4)),
        ("w16", DepConfig::paper_wide(16)),
        ("cons", cons),
        ("f2x4", f2x4),
        ("regs32", regs32),
    ]
}

fn braid_configs() -> Vec<(&'static str, BraidConfig)> {
    let base = BraidConfig::paper_default;
    let mut cons = base();
    cons.common.conservative_disambiguation = true;
    let mut rp4 = base();
    rp4.ext_read_ports = 4;
    let mut b2x4 = base();
    b2x4.beus = 2;
    b2x4.fifo_entries = 4;
    let mut ext4 = base();
    ext4.external_regs = 4;
    vec![
        ("w2", BraidConfig::paper_wide(2)),
        ("w4", BraidConfig::paper_wide(4)),
        ("w16", BraidConfig::paper_wide(16)),
        ("cons", cons),
        ("rp4", rp4),
        ("b2x4", b2x4),
        ("ext4", ext4),
    ]
}

fn render_run(out: &mut String, label: &str, r: &SimReport) {
    assert_eq!(r.cpi.total(), r.cycles, "{label}: CPI stack must total the cycles");
    let _ = writeln!(
        out,
        "{label} cycles {} stall_window {} stall_regs {} stall_lsq {} stall_alloc_bw {} \
         lsq_wait {} forwarded {}",
        r.cycles,
        r.stall_window,
        r.stall_regs,
        r.stall_lsq,
        r.stall_alloc_bw,
        r.lsq_wait_events,
        r.forwarded_loads,
    );
    let _ = write!(out, "{label} cpi");
    for cause in StallCause::ALL {
        let _ = write!(out, " {} {}", cause.key(), r.cpi.get(cause));
    }
    out.push('\n');
}

fn render_golden(w: &Workload) -> String {
    let mut m = Machine::new(&w.program);
    let trace = m.run(&w.program, w.fuel).unwrap_or_else(|e| panic!("{}: trace: {e}", w.name));
    let t = translate(&w.program, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("{}: translate: {e}", w.name));
    let mut mb = Machine::new(&t.program);
    let braid_trace =
        mb.run(&t.program, w.fuel).unwrap_or_else(|e| panic!("{}: braid trace: {e}", w.name));
    let mut out = String::new();
    let mut check = |label: String, r: SimReport, n: usize| {
        assert_eq!(r.instructions, n as u64, "{}/{label} retires all", w.name);
        render_run(&mut out, &label, &r);
    };
    for (label, cfg) in ooo_configs() {
        let r = OooCore::new(cfg)
            .run(&w.program, &trace)
            .unwrap_or_else(|e| panic!("{}: ooo {label}: {e}", w.name));
        check(format!("ooo {label}"), r, trace.len());
    }
    for (label, cfg) in dep_configs() {
        let r = DepSteerCore::new(cfg)
            .run(&w.program, &trace)
            .unwrap_or_else(|e| panic!("{}: dep {label}: {e}", w.name));
        check(format!("dep {label}"), r, trace.len());
    }
    for (label, cfg) in braid_configs() {
        let r = BraidCore::new(cfg)
            .run(&t.program, &braid_trace)
            .unwrap_or_else(|e| panic!("{}: braid {label}: {e}", w.name));
        check(format!("braid {label}"), r, braid_trace.len());
    }
    out
}

#[test]
fn kernels_match_their_core_config_goldens() {
    let update = std::env::var("BRAID_UPDATE_GOLDEN").is_ok_and(|v| v == "1");
    let dir = golden_dir();
    if update {
        fs::create_dir_all(&dir).expect("create tests/golden/core_configs");
    }
    let mut failures = Vec::new();
    for w in kernel_suite().into_iter().filter(|w| KERNELS.contains(&w.name.as_str())) {
        let current = render_golden(&w);
        let path = dir.join(format!("{}.golden", w.name));
        if update {
            fs::write(&path, &current).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            continue;
        }
        let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "{}: {e}\n(regenerate with BRAID_UPDATE_GOLDEN=1 cargo test --test core_configs)",
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
    assert!(failures.is_empty(), "core config goldens drifted:\n{}", failures.join("\n"));
}
