//! The experiment implementations, one per paper table/figure.

use braid_core::config::{BraidConfig, CommonConfig, DepConfig, InOrderConfig, OooConfig};
use braid_core::cores::BraidCore;
use braid_core::processor::{run_full, trace_program, CoreConfig};
use braid_core::profile::ValueProfile;
use braid_core::report::SimReport;
use braid_core::{NoopObserver, Trace};
use braid_sweep::{run_sweep, CoreModel, SweepRun, SweepSpec};

use crate::table::Table;
use crate::{geomean, paper, Prepared};

fn perfect_common() -> CommonConfig {
    CommonConfig::paper_8wide().perfect()
}

fn braid_cfg() -> BraidConfig {
    BraidConfig::paper_default()
}

/// Full-tier timing of `p` on `core`, streamed through [`run_full`]: the
/// braid core runs the translation, every other core the original program.
fn run(p: &Prepared, core: CoreConfig) -> SimReport {
    let program = if core.is_braid() { &p.translation.program } else { &p.workload.program };
    run_full(program, &core, p.workload.fuel, &mut NoopObserver)
        .unwrap_or_else(|e| panic!("{}:{}: {e}", p.workload.name, core.name()))
}

fn run_braid_with(p: &Prepared, cfg: &BraidConfig) -> SimReport {
    run(p, CoreConfig::Braid(cfg.clone()))
}

fn run_ooo_with(p: &Prepared, cfg: &OooConfig) -> SimReport {
    run(p, CoreConfig::Ooo(cfg.clone()))
}

/// The committed trace of `program`, for the experiments that read one
/// directly; callers drop it before tracing the next workload.
fn trace_of(p: &Prepared, program: &braid_isa::Program) -> Trace {
    trace_program(program, p.workload.fuel)
        .unwrap_or_else(|e| panic!("{}: functional run failed: {e}", p.workload.name))
}

/// Table 1: braids per basic block (measured vs paper, plus the
/// excluding-singles column).
pub fn tab1(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Table 1: braids per basic block",
        &["bench", "measured", "excl-singles", "paper"],
    );
    for p in suite {
        let s = &p.translation.stats;
        let reference = paper::TABLE1
            .iter()
            .find(|(n, _)| *n == p.workload.name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        t.push(
            &p.workload.name,
            vec![s.braids_per_block.mean(), s.braids_per_block_excl.mean(), reference],
        );
    }
    t.push_mean("average");
    t
}

/// Table 2: braid size and width.
pub fn tab2(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Table 2: braid size and width",
        &["bench", "size", "size-excl", "width", "width-excl", "paper-size"],
    );
    for p in suite {
        let s = &p.translation.stats;
        let reference = paper::TABLE2_SIZE
            .iter()
            .find(|(n, _)| *n == p.workload.name)
            .map(|(_, v)| *v)
            .unwrap_or(f64::NAN);
        t.push(
            &p.workload.name,
            vec![s.size.mean(), s.size_excl.mean(), s.width.mean(), s.width_excl.mean(), reference],
        );
    }
    t.push_mean("average");
    t
}

/// Table 3: braid internal values, external inputs and outputs.
pub fn tab3(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Table 3: braid inputs and outputs",
        &["bench", "internals", "ext-in", "ext-out", "p-int", "p-in", "p-out"],
    );
    for p in suite {
        let s = &p.translation.stats;
        let (pi, pin, pout) = paper::TABLE3
            .iter()
            .find(|(n, ..)| *n == p.workload.name)
            .map(|&(_, a, b, c)| (a, b, c))
            .unwrap_or((f64::NAN, f64::NAN, f64::NAN));
        t.push(
            &p.workload.name,
            vec![s.internals.mean(), s.ext_inputs.mean(), s.ext_outputs.mean(), pi, pin, pout],
        );
    }
    t.push_mean("average");
    t
}

/// §1 characterization: value fanout and lifetime (dynamic).
pub fn chars(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Value characterization (paper: once>=0.70, <=2 ~0.90, dead ~0.04, life32 ~0.80)",
        &["bench", "read-once", "read<=2", "dead", "life<=32"],
    );
    for p in suite {
        let trace = trace_of(p, &p.workload.program);
        let vp = ValueProfile::measure(&p.workload.program, &trace);
        t.push(
            &p.workload.name,
            vec![vp.read_once(), vp.read_at_most_twice(), vp.dead(), vp.lifetime_within(32)],
        );
    }
    t.push_mean("average");
    t
}

/// §3.1 split rates: braids split for the internal working set (~2%) and
/// for ordering (<1%), plus single-instruction braid shares.
pub fn splits(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Braid splits and singles (paper: ws ~2%, order <1%, singles 20% of insts, 56% br/nop)",
        &["bench", "ws-split", "ord-split", "single-insts", "single-brnop"],
    );
    for p in suite {
        let s = &p.translation.stats;
        let total = s.total_braids.max(1) as f64;
        t.push(
            &p.workload.name,
            vec![
                s.working_set_splits as f64 / total,
                s.order_splits as f64 / total,
                s.single_inst_fraction(),
                if s.single_insts == 0 {
                    0.0
                } else {
                    s.single_branch_or_nop as f64 / s.single_insts as f64
                },
            ],
        );
    }
    t.push_mean("average");
    t
}

/// Figure 1: 8- and 16-wide OOO speedup over 4-wide with a perfect front
/// end and perfect caches.
pub fn fig1(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Figure 1: potential of wider issue (perfect BP + caches; paper avg 1.44 / 1.83)",
        &["bench", "8-wide", "16-wide"],
    );
    for p in suite {
        let ipc = |width: u32| {
            let mut cfg = OooConfig::paper_wide(width);
            cfg.common = cfg.common.perfect();
            run_ooo_with(p, &cfg).ipc()
        };
        let (w4, w8, w16) = (ipc(4), ipc(8), ipc(16));
        t.push(&p.workload.name, vec![w8 / w4, w16 / w4]);
    }
    let g8 = geomean(t.rows.iter().map(|r| r.values[0]));
    let g16 = geomean(t.rows.iter().map(|r| r.values[1]));
    t.push("average", vec![g8, g16]);
    t
}

/// Figure 5: conventional OOO vs in-flight register count (paper: 32 →
/// −8%, 16 → −21%).
pub fn fig5(suite: &[Prepared]) -> Table {
    let sweep = [256u32, 64, 32, 16, 8];
    let headers: Vec<String> = sweep.iter().map(|r| format!("r{r}")).collect();
    let mut t = Table::new(
        "Figure 5: OOO performance vs registers (normalized to 256)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = {
            let cfg = OooConfig::paper_8wide();
            run_ooo_with(p, &cfg).ipc()
        };
        let values = sweep
            .iter()
            .map(|&regs| {
                let mut cfg = OooConfig::paper_8wide();
                cfg.regs = regs;
                run_ooo_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 6: braid machine vs external register file entries (paper: 8 ≈
/// full, drop at ≤4).
pub fn fig6(suite: &[Prepared]) -> Table {
    let sweep = [64u32, 32, 16, 8, 4, 2, 1];
    let headers: Vec<String> = sweep.iter().map(|r| format!("e{r}")).collect();
    let mut t = Table::new(
        "Figure 6: braid performance vs external registers (normalized to 64)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = {
            let mut cfg = braid_cfg();
            cfg.external_regs = 64;
            run_braid_with(p, &cfg).ipc()
        };
        let values = sweep
            .iter()
            .map(|&regs| {
                let mut cfg = braid_cfg();
                cfg.external_regs = regs;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 7: braid machine vs external register file ports (paper: 6R/3W
/// within 0.5% of 16R/8W).
pub fn fig7(suite: &[Prepared]) -> Table {
    let sweep = [(16u32, 8u32), (8, 4), (6, 3), (4, 2)];
    let headers: Vec<String> = sweep.iter().map(|(r, w)| format!("{r}R/{w}W")).collect();
    let mut t = Table::new(
        "Figure 7: braid performance vs external RF ports (normalized to 16R/8W)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = {
            let mut cfg = braid_cfg();
            cfg.ext_read_ports = 16;
            cfg.ext_write_ports = 8;
            run_braid_with(p, &cfg).ipc()
        };
        let values = sweep
            .iter()
            .map(|&(r, w)| {
                let mut cfg = braid_cfg();
                cfg.ext_read_ports = r;
                cfg.ext_write_ports = w;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 8: braid machine vs bypass bandwidth (paper: 2/cycle within 1%).
pub fn fig8(suite: &[Prepared]) -> Table {
    let sweep = [8u32, 4, 2, 1];
    let headers: Vec<String> = sweep.iter().map(|b| format!("b{b}")).collect();
    let mut t = Table::new(
        "Figure 8: braid performance vs bypass paths (normalized to 8/cycle)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = {
            let mut cfg = braid_cfg();
            cfg.bypass_per_cycle = 8;
            run_braid_with(p, &cfg).ipc()
        };
        let values = sweep
            .iter()
            .map(|&b| {
                let mut cfg = braid_cfg();
                cfg.bypass_per_cycle = b;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

fn ooo_8wide_baseline(p: &Prepared) -> f64 {
    run_ooo_with(p, &OooConfig::paper_8wide()).ipc()
}

/// Figure 9: braid machine vs number of BEUs, normalized to the 8-wide
/// conventional OOO machine.
pub fn fig9(suite: &[Prepared]) -> Table {
    let sweep = [1u32, 2, 4, 8, 16];
    let headers: Vec<String> = sweep.iter().map(|b| format!("beu{b}")).collect();
    let mut t = Table::new(
        "Figure 9: braid performance vs BEUs (normalized to 8-wide OOO)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = ooo_8wide_baseline(p);
        let values = sweep
            .iter()
            .map(|&b| {
                let mut cfg = braid_cfg();
                cfg.beus = b;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 10: braid machine vs FIFO queue entries (paper: 32 suffice).
pub fn fig10(suite: &[Prepared]) -> Table {
    let sweep = [4u32, 8, 16, 32, 64];
    let headers: Vec<String> = sweep.iter().map(|b| format!("q{b}")).collect();
    let mut t = Table::new(
        "Figure 10: braid performance vs FIFO entries (normalized to 8-wide OOO)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = ooo_8wide_baseline(p);
        let values = sweep
            .iter()
            .map(|&q| {
                let mut cfg = braid_cfg();
                cfg.fifo_entries = q;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 11: braid machine vs scheduling window size (paper: steep 1→2,
/// plateau after).
pub fn fig11(suite: &[Prepared]) -> Table {
    let sweep = [1u32, 2, 4, 8];
    let headers: Vec<String> = sweep.iter().map(|w| format!("w{w}")).collect();
    let mut t = Table::new(
        "Figure 11: braid performance vs scheduling window (normalized to 8-wide OOO)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = ooo_8wide_baseline(p);
        let values = sweep
            .iter()
            .map(|&w| {
                let mut cfg = braid_cfg();
                cfg.window_size = w;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 12: scheduling window and FU count swept together.
pub fn fig12(suite: &[Prepared]) -> Table {
    let sweep = [1u32, 2, 4, 8];
    let headers: Vec<String> = sweep.iter().map(|w| format!("w{w}f{w}")).collect();
    let mut t = Table::new(
        "Figure 12: braid performance vs window = FUs (normalized to 8-wide OOO)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = ooo_8wide_baseline(p);
        let values = sweep
            .iter()
            .map(|&w| {
                let mut cfg = braid_cfg();
                cfg.window_size = w;
                cfg.fus_per_beu = w;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// The machine widths of Figure 13.
const WIDTHS: [u32; 3] = [4, 8, 16];

/// Runs `spec`'s grid over the suite's workloads on every host core. Sweep
/// points name their workload, so each is regenerated at [`crate::scale`].
fn suite_sweep(mut spec: SweepSpec, suite: &[Prepared]) -> SweepRun {
    spec.workloads = suite.iter().map(|p| p.workload.name.clone()).collect();
    spec.scale = crate::scale();
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    run_sweep(&spec, threads, None, false).expect("no snapshot I/O involved")
}

/// The width sweep behind [`fig13`] and [`widthsweep`]: every suite
/// workload on all four cores at each of [`WIDTHS`]. Per workload, one
/// `[f64; 4]` of IPCs per width, cores in [`CoreModel::ALL`] order.
fn width_sweep(suite: &[Prepared]) -> Vec<Vec<[f64; 4]>> {
    let mut spec = SweepSpec::new("widthsweep");
    spec.widths = WIDTHS.to_vec();
    let run = suite_sweep(spec, suite);
    // Outcomes arrive in expansion order: workload, core, width. Regroup
    // into one row per workload, width-major.
    run.outcomes
        .chunks(CoreModel::ALL.len() * WIDTHS.len())
        .map(|points| {
            let mut row = vec![[0.0; 4]; WIDTHS.len()];
            for (i, o) in points.iter().enumerate() {
                let s = o
                    .stats
                    .as_ref()
                    .unwrap_or_else(|e| panic!("{}: sweep point failed: {e}", o.point.key()));
                row[i % WIDTHS.len()][i / WIDTHS.len()] = s.ipc();
            }
            row
        })
        .collect()
}

/// Figure 13: the four paradigms at 4-, 8- and 16-wide, normalized to the
/// 8-wide conventional OOO machine. Read from the width sweep.
pub fn fig13(suite: &[Prepared]) -> Table {
    let mut headers = vec!["bench".to_string()];
    for w in WIDTHS {
        for core in ["io", "dep", "braid", "ooo"] {
            headers.push(format!("{core}{w}"));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Figure 13: in-order / dep / braid / OOO at 4, 8, 16-wide (normalized to 8-wide OOO)",
        &header_refs,
    );
    for (p, ipc) in suite.iter().zip(width_sweep(suite)) {
        let base = ipc[1][2]; // 8-wide OOO
        let values = ipc
            .iter()
            .flat_map(|&[io, dep, ooo, braid]| [io, dep, braid, ooo].map(|v| v / base))
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 14: equal functional units — 4 BEUs × 2 FUs vs 8 BEUs × 1 FU,
/// normalized to the default 8 BEUs × 2 FUs.
pub fn fig14(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Figure 14: equal FU budget (normalized to 8 BEUs x 2 FUs)",
        &["bench", "4beu-2fu", "8beu-1fu"],
    );
    for p in suite {
        let base = run_braid_with(p, &braid_cfg()).ipc();
        let mut cfg42 = braid_cfg();
        cfg42.beus = 4;
        let mut cfg81 = braid_cfg();
        cfg81.fus_per_beu = 1;
        t.push(
            &p.workload.name,
            vec![
                run_braid_with(p, &cfg42).ipc() / base,
                run_braid_with(p, &cfg81).ipc() / base,
            ],
        );
    }
    t.push_mean("average");
    t
}

/// §5.1: the 4-stage-shorter pipeline (19- vs 23-cycle misprediction
/// penalty) gains ~2.19% on average.
pub fn pipeline(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Pipeline shortening: braid with 19- vs 23-cycle penalty (paper gain ~2.19%)",
        &["bench", "speedup", "ext-vals/cycle"],
    );
    for p in suite {
        let short = run_braid_with(p, &braid_cfg());
        let mut long_cfg = braid_cfg();
        long_cfg.common.mispredict_penalty = 23;
        let long = run_braid_with(p, &long_cfg);
        t.push(
            &p.workload.name,
            vec![short.ipc() / long.ipc(), short.external_values_per_cycle],
        );
    }
    t.push_mean("average");
    t
}

/// Perfect-frontend 8-wide IPC of every paradigm on one prepared workload.
fn paradigm_ipcs(p: &Prepared) -> [f64; 4] {
    let mut io_cfg = InOrderConfig::paper_8wide();
    io_cfg.common = perfect_common();
    io_cfg.common.mispredict_penalty = 19;
    let mut dep_cfg = DepConfig::paper_8wide();
    dep_cfg.common = perfect_common();
    let mut braid_config = braid_cfg();
    braid_config.common = perfect_common();
    braid_config.common.mispredict_penalty = 19;
    let mut ooo_cfg = OooConfig::paper_8wide();
    ooo_cfg.common = perfect_common();
    [
        CoreConfig::InOrder(io_cfg),
        CoreConfig::Dep(dep_cfg),
        CoreConfig::Braid(braid_config),
        CoreConfig::Ooo(ooo_cfg),
    ]
    .map(|core| run(p, core).ipc())
}

/// Ablation (paper §5.2 future direction): BEU clustering with slower
/// cross-cluster value synchronization, normalized to the flat machine.
pub fn clusters(suite: &[Prepared]) -> Table {
    let sweep = [(1u32, 0u64), (2, 2), (4, 2), (4, 4)];
    let headers: Vec<String> =
        sweep.iter().map(|(c, d)| format!("c{c}d{d}")).collect();
    let mut t = Table::new(
        "Clustering ablation: braid clusters x inter-cluster delay (normalized to flat)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let base = run_braid_with(p, &braid_cfg()).ipc();
        let values = sweep
            .iter()
            .map(|&(c, d)| {
                let mut cfg = braid_cfg();
                cfg.clusters = c;
                cfg.inter_cluster_delay = d;
                run_braid_with(p, &cfg).ipc() / base
            })
            .collect();
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Ablation (paper §3.4): exception cost in the braid machine's
/// single-BEU in-order exception mode, at one exception per 2000
/// instructions with a 200-cycle handler.
pub fn exceptions(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Exception-mode ablation: slowdown with exceptions every 2000 insts (200-cycle handler)",
        &["bench", "slowdown", "taken"],
    );
    for p in suite {
        let trace = trace_of(p, &p.translation.program);
        let core = BraidCore::new(braid_cfg());
        let clean = core.run(&p.translation.program, &trace).expect("runs");
        let points: Vec<u64> = (0..trace.len() as u64).step_by(2000).skip(1).collect();
        let exc = core
            .run_with_exceptions(&p.translation.program, &trace, &points, 200)
            .expect("runs");
        t.push(
            &p.workload.name,
            vec![exc.cycles as f64 / clean.cycles as f64, exc.exceptions_taken as f64],
        );
    }
    t.push_mean("average");
    t
}

/// Ablation: conservative memory disambiguation (loads wait for every
/// older store's address generation) vs the default perfect
/// memory-dependence prediction, for both the braid and OOO machines.
pub fn disambiguation(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Disambiguation ablation: conservative LSQ relative to speculative",
        &["bench", "braid", "ooo"],
    );
    for p in suite {
        let braid_spec = run_braid_with(p, &braid_cfg()).ipc();
        let mut bc = braid_cfg();
        bc.common.conservative_disambiguation = true;
        let braid_cons = run_braid_with(p, &bc).ipc();
        let ooo_spec = run_ooo_with(p, &OooConfig::paper_8wide()).ipc();
        let mut oc = OooConfig::paper_8wide();
        oc.common.conservative_disambiguation = true;
        let ooo_cons = run_ooo_with(p, &oc).ipc();
        t.push(&p.workload.name, vec![braid_cons / braid_spec, ooo_cons / ooo_spec]);
    }
    t.push_mean("average");
    t
}

/// Predictor comparison: the paper's perceptron vs classic gshare vs
/// perfect prediction, on both the braid and OOO machines (IPC normalized
/// to the perceptron).
pub fn predictors(suite: &[Prepared]) -> Table {
    use braid_core::config::PredictorKind;
    let mut t = Table::new(
        "Predictor comparison (normalized to the paper's perceptron)",
        &["bench", "b-gshare", "b-perfect", "o-gshare", "o-perfect", "perc-acc"],
    );
    for p in suite {
        let braid_base = run_braid_with(p, &braid_cfg());
        let mut bg = braid_cfg();
        bg.common.predictor = PredictorKind::Gshare;
        let mut bp = braid_cfg();
        bp.common.perfect_branch_predictor = true;
        let ooo_base = run_ooo_with(p, &OooConfig::paper_8wide()).ipc();
        let mut og = OooConfig::paper_8wide();
        og.common.predictor = PredictorKind::Gshare;
        let mut op = OooConfig::paper_8wide();
        op.common.perfect_branch_predictor = true;
        t.push(
            &p.workload.name,
            vec![
                run_braid_with(p, &bg).ipc() / braid_base.ipc(),
                run_braid_with(p, &bp).ipc() / braid_base.ipc(),
                run_ooo_with(p, &og).ipc() / ooo_base,
                run_ooo_with(p, &op).ipc() / ooo_base,
                braid_base.branch_accuracy.rate(),
            ],
        );
    }
    t.push_mean("average");
    t
}

/// Ablation: finite miss-handling registers (MSHRs) bound memory-level
/// parallelism; the default model is unlimited.
pub fn mshrs(suite: &[Prepared]) -> Table {
    let sweep = [0u32, 16, 4, 1];
    let headers: Vec<String> = sweep
        .iter()
        .map(|&m| if m == 0 { "inf".to_string() } else { format!("m{m}") })
        .collect();
    let mut t = Table::new(
        "MSHR ablation: braid and OOO vs outstanding-miss limit (normalized to unlimited)",
        &std::iter::once("bench")
            .chain(headers.iter().map(|s| s.as_str()))
            .chain(["ooo-m4"])
            .collect::<Vec<_>>(),
    );
    for p in suite {
        let braid_base = run_braid_with(p, &braid_cfg()).ipc();
        let mut values: Vec<f64> = sweep
            .iter()
            .map(|&m| {
                let mut cfg = braid_cfg();
                cfg.common.mem.mshrs = m;
                run_braid_with(p, &cfg).ipc() / braid_base
            })
            .collect();
        let ooo_base = run_ooo_with(p, &OooConfig::paper_8wide()).ipc();
        let mut oc = OooConfig::paper_8wide();
        oc.common.mem.mshrs = 4;
        values.push(run_ooo_with(p, &oc).ipc() / ooo_base);
        t.push(&p.workload.name, values);
    }
    t.push_mean("average");
    t
}

/// Figure 13 with a perfect front end and perfect caches: isolates the
/// execution-core comparison from memory and prediction effects (the
/// regime where the paper's "within 9%" claim reproduces directly).
pub fn fig13perfect(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Figure 13 (perfect front end + caches): braid vs OOO at 8-wide",
        &["bench", "io", "dep", "braid", "ooo", "braid/ooo"],
    );
    for p in suite {
        let [io, dep, braid, ooo] = paradigm_ipcs(p);
        t.push(&p.workload.name, vec![io, dep, braid, ooo, braid / ooo]);
    }
    t.push_mean("average");
    t
}

/// The width sweep behind [`fig13`], unnormalized: absolute IPC of every
/// core at 4, 8 and 16-wide.
pub fn widthsweep(suite: &[Prepared]) -> Table {
    let mut headers = vec!["bench".to_string()];
    for w in WIDTHS {
        for core in CoreModel::ALL {
            headers.push(format!("{core}{w}"));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "Width sweep (parallel engine): absolute IPC at 4, 8, 16-wide",
        &header_refs,
    );
    for (p, ipc) in suite.iter().zip(width_sweep(suite)) {
        t.push(&p.workload.name, ipc.concat());
    }
    t.push_mean("average");
    t
}

/// Two-tier execution model: sampled-IPC accuracy and host-throughput
/// speedups over the 8 hand-written kernels × 4 cores. Per row: exact IPC
/// (full tier), estimated IPC (sampled tier at the default schedule,
/// whose dense phase covers every kernel), signed relative error in
/// percent, and the functional and sampled tiers' host-throughput
/// speedups over the full simulation.
///
/// The functional tier reports no IPC at all — its column is purely the
/// host-side speedup that makes fast-forwarding worthwhile. The sampled
/// tier's speedup is below 1 on these tiny kernels (they finish inside
/// the dense phase, timed wall to wall, trading speed for accuracy); it
/// materializes once runs pass the dense threshold and sample sparsely.
pub fn sampled() -> Table {
    use braid_core::processor::{run_tier, CoreConfig, TierReport};
    use braid_core::{SamplingConfig, Tier};

    let cores = [
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ];
    let sampling = SamplingConfig { lockstep: false, ..SamplingConfig::default() };
    let mut t = Table::new(
        "Sampled tier: estimated vs exact IPC and host speedups (default window)",
        &["kernel:core", "exact-ipc", "est-ipc", "err%", "func-x", "samp-x"],
    );
    for w in braid_workloads::kernel_suite() {
        for core in &cores {
            let run = |tier| {
                run_tier(&w.program, core, tier, w.fuel, &sampling)
                    .unwrap_or_else(|e| panic!("{}:{}: {tier} tier failed: {e}", w.name, core.name()))
            };
            let full = run(Tier::Full);
            let func = run(Tier::Func);
            let samp = run(Tier::Sampled);
            let TierReport::Full(exact) = &full else { unreachable!("full tier") };
            let est_ipc = samp.ipc().unwrap_or(0.0);
            t.push(
                format!("{}:{}", w.name, core.name()),
                vec![
                    exact.ipc(),
                    est_ipc,
                    100.0 * (est_ipc / exact.ipc() - 1.0),
                    full.host_nanos() as f64 / func.host_nanos().max(1) as f64,
                    full.host_nanos() as f64 / samp.host_nanos().max(1) as f64,
                ],
            );
        }
    }
    t.push_mean("average");
    t
}

/// `braidc -O` evaluation: the sound static bound, the canonical
/// partition's simulated cycles, the partition-search winner's cycles, the
/// cycles recovered by the search, and the static prediction error
/// (simulated over bound) on every hand-written kernel plus the
/// communication-dominated compiled loop nests (`ln_chains_*`), whose
/// serialized canonical braids give the search non-tied rows.
pub fn opt() -> Table {
    use braid_analyze::{search, SearchConfig};

    let mut t = Table::new(
        "braidc -O: static bound vs canonical vs searched partition (braid core)",
        &["kernel", "bound", "canonical", "optimized", "recovered%", "pred-err%"],
    );
    let mut suite = braid_workloads::kernel_suite();
    suite.extend(braid_workloads::loopnest_opt_suite());
    for w in suite {
        let cfg = SearchConfig { fuel: w.fuel, ..SearchConfig::default() };
        let out = search(&w.program, &braid_cfg(), &cfg)
            .unwrap_or_else(|e| panic!("{}: search failed: {e}", w.name));
        let winner = out.winner().simulated_cycles.expect("winner is simulated") as f64;
        let canonical = out.canonical_cycles as f64;
        let bound = out.bound_cycles as f64;
        t.push(
            w.name.clone(),
            vec![
                bound,
                canonical,
                winner,
                100.0 * out.cycles_recovered() as f64 / canonical.max(1.0),
                100.0 * (winner / bound.max(1.0) - 1.0),
            ],
        );
    }
    t.push_mean("average");
    t
}

/// The workload frontier: every curated compiled loop nest (`ln_*`,
/// braid-lang sources through the `braidc` pipeline) run full-tier on all
/// four cores. Columns are per-core IPC plus how much of the out-of-order
/// core's performance the braid core retains — the paper's headline
/// question asked of compiler-generated code instead of hand-written
/// kernels.
pub fn frontier() -> Table {
    use braid_core::processor::{run_tier, CoreConfig, TierReport};
    use braid_core::{SamplingConfig, Tier};

    let cores = [
        CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreConfig::Braid(BraidConfig::paper_default()),
    ];
    let sampling = SamplingConfig::default();
    let mut t = Table::new(
        "Workload frontier: compiled loop nests on all four cores (full tier)",
        &["nest", "insts", "in-ipc", "dep-ipc", "ooo-ipc", "braid-ipc", "braid/ooo%"],
    );
    for w in braid_workloads::loopnest_suite() {
        let mut insts = 0.0;
        let mut ipc = Vec::with_capacity(cores.len());
        for core in &cores {
            let rep = run_tier(&w.program, core, Tier::Full, w.fuel, &sampling)
                .unwrap_or_else(|e| panic!("{}:{}: full tier failed: {e}", w.name, core.name()));
            let TierReport::Full(exact) = &rep else { unreachable!("full tier") };
            if ipc.is_empty() {
                // The untranslated dynamic count; braid translation
                // changes the static program, not the work.
                insts = exact.instructions as f64;
            }
            ipc.push(exact.ipc());
        }
        let (ooo_ipc, braid_ipc) = (ipc[2], ipc[3]);
        let mut row = vec![insts];
        row.extend(ipc.iter().copied());
        row.push(100.0 * braid_ipc / ooo_ipc.max(f64::MIN_POSITIVE));
        t.push(w.name.clone(), row);
    }
    t.push_mean("average");
    t
}

/// CPI-stack breakdown: where every cycle goes on each paradigm,
/// aggregated across the whole suite through the parallel sweep engine
/// (`braid_sweep::cpi_by_core`). Each column is one stall cause as a
/// percentage of total cycles; rows sum to 100 because the engine charges
/// every cycle to exactly one cause.
pub fn cpistack(suite: &[Prepared]) -> Table {
    use braid_core::StallCause;
    use braid_sweep::cpi_by_core;

    let run = suite_sweep(SweepSpec::new("cpistack"), suite);

    let mut headers = vec!["core".to_string()];
    headers.extend(StallCause::ALL.iter().map(|c| c.key().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "CPI stack: percent of cycles charged to each cause, whole suite",
        &header_refs,
    );
    for (core, stack) in cpi_by_core(&run) {
        let values =
            StallCause::ALL.iter().map(|&c| 100.0 * stack.fraction(c)).collect();
        t.push(core.name(), values);
    }
    t
}
