//! The experiment implementations, one per paper table/figure.
//!
//! Every timed suite figure is a view over one report grid: `grid` times
//! each (workload, config) cell of a figure, and the figure's columns read
//! their values off those reports. A cell is timed once per process: every
//! figure that asks for it again reads the report already made.

use std::collections::{HashMap, HashSet};
use std::sync::{LazyLock, Mutex};

use braid_core::config::{BraidConfig, OooConfig};
use braid_core::cores::BraidCore;
use braid_core::processor::{run_full, CoreConfig};
use braid_core::profile::ValueProfile;
use braid_core::report::SimReport;
use braid_core::{CpiStack, FuncStream, NoopObserver};
use braid_isa::{container, Program};
use braid_sweep::digest::fnv1a64;
use braid_sweep::pool::run_indexed;
use braid_sweep::CoreModel;

use crate::table::Table;
use crate::{geomean, paper, Prepared};

/// The paper's braid machine with `edit` applied.
fn braid(edit: impl FnOnce(&mut BraidConfig)) -> CoreConfig {
    let mut cfg = BraidConfig::paper_default();
    edit(&mut cfg);
    CoreConfig::Braid(cfg)
}

/// The paper's 8-wide out-of-order machine with `edit` applied.
fn ooo(edit: impl FnOnce(&mut OooConfig)) -> CoreConfig {
    let mut cfg = OooConfig::paper_8wide();
    edit(&mut cfg);
    CoreConfig::Ooo(cfg)
}

/// Full-tier timing of `p` on `core`, streamed through [`run_full`]: the
/// braid core runs the translation, every other core the original program.
fn run(p: &Prepared, core: &CoreConfig) -> SimReport {
    let program = if core.is_braid() { &p.translation.program } else { &p.workload.program };
    run_full(program, core, p.workload.fuel, &mut NoopObserver)
        .unwrap_or_else(|e| panic!("{}:{}: {e}", p.workload.name, core.name()))
}

/// What identifies a timed cell: a digest of the executed program's
/// container, its fuel, and the core config's full rendering. Content, not
/// the workload name, so one workload at two scales is two cells.
type CellKey = (u64, u64, String);

/// Every cell [`grid`] has timed in this process.
static TIMED: LazyLock<Mutex<HashMap<CellKey, SimReport>>> = LazyLock::new(Mutex::default);

/// The keys of timing `p` on each of `configs`.
fn cell_keys(p: &Prepared, configs: &[CoreConfig]) -> Vec<CellKey> {
    let digest = |program: &Program| {
        let bytes = container::to_bytes(program)
            .unwrap_or_else(|e| panic!("{}: container encoding failed: {e}", p.workload.name));
        fnv1a64(&bytes)
    };
    let (original, translated) = (digest(&p.workload.program), digest(&p.translation.program));
    configs
        .iter()
        .map(|c| {
            (if c.is_braid() { translated } else { original }, p.workload.fuel, format!("{c:?}"))
        })
        .collect()
}

/// The report of every suite workload under every config: `grid(suite,
/// configs)[w][c]` is `suite[w]` timed on `configs[c]`. Each cell is timed
/// once per process, however many configs and figures ask for it. The
/// cells not timed yet run on every host core through the sweep pool,
/// which returns them in input order, so the grid does not depend on the
/// thread count.
fn grid(suite: &[Prepared], configs: &[CoreConfig]) -> Vec<Vec<SimReport>> {
    let keys: Vec<Vec<CellKey>> = suite.iter().map(|p| cell_keys(p, configs)).collect();
    let mut timed = TIMED.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let mut queued = HashSet::new();
    let mut todo: Vec<(&CellKey, &Prepared, &CoreConfig)> = Vec::new();
    for (p, row) in suite.iter().zip(&keys) {
        for (key, core) in row.iter().zip(configs) {
            if !timed.contains_key(key) && queued.insert(key) {
                todo.push((key, p, core));
            }
        }
    }
    let threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let reports = run_indexed(threads, todo.clone(), |_, (_, p, core)| run(p, core));
    for ((key, ..), report) in todo.into_iter().zip(reports) {
        timed.insert(key.clone(), report);
    }
    keys.iter().map(|row| row.iter().map(|key| timed[key].clone()).collect()).collect()
}

/// Reads one data column's value off a workload's reports.
type Column = Box<dyn Fn(&[SimReport]) -> f64>;

/// A suite figure as a view over [`grid`]: one row per workload, each
/// data column read off that workload's reports.
#[derive(Default)]
struct Figure {
    headers: Vec<String>,
    configs: Vec<CoreConfig>,
    columns: Vec<Column>,
}

impl Figure {
    /// A column of `read` applied to the report under `core`.
    fn column(&mut self, header: impl Into<String>, core: CoreConfig, read: fn(&SimReport) -> f64) {
        let c = self.configs.len();
        self.configs.push(core);
        self.headers.push(header.into());
        self.columns.push(Box::new(move |r| read(&r[c])));
    }

    /// A column of IPC under `core` ÷ IPC under `base`.
    fn ratio(&mut self, header: impl Into<String>, core: CoreConfig, base: &CoreConfig) {
        let c = self.configs.len();
        self.configs.extend([core, base.clone()]);
        self.headers.push(header.into());
        self.columns.push(Box::new(move |r| r[c].ipc() / r[c + 1].ipc()));
    }

    /// Times the grid over `suite` and fills one row per workload.
    fn rows(self, title: &str, suite: &[Prepared]) -> Table {
        let headers: Vec<&str> =
            std::iter::once("bench").chain(self.headers.iter().map(String::as_str)).collect();
        let mut t = Table::new(title, &headers);
        for (p, reports) in suite.iter().zip(grid(suite, &self.configs)) {
            t.push(&p.workload.name, self.columns.iter().map(|read| read(&reports)).collect());
        }
        t
    }

    /// [`Figure::rows`] plus the arithmetic-mean row.
    fn table(self, title: &str, suite: &[Prepared]) -> Table {
        let mut t = self.rows(title, suite);
        t.push_mean("average");
        t
    }
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
        let program = &p.workload.program;
        let vp = FuncStream::read(program, p.workload.fuel, |s| ValueProfile::measure(program, s))
            .unwrap_or_else(|e| panic!("{}: functional run failed: {e}", p.workload.name));
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
    let wide = |width| CoreModel::Ooo.paper_config(width, true);
    let mut f = Figure::default();
    f.ratio("8-wide", wide(8), &wide(4));
    f.ratio("16-wide", wide(16), &wide(4));
    let title = "Figure 1: potential of wider issue (perfect BP + caches; paper avg 1.44 / 1.83)";
    let mut t = f.rows(title, suite);
    let g8 = geomean(t.rows.iter().map(|r| r.values[0]));
    let g16 = geomean(t.rows.iter().map(|r| r.values[1]));
    t.push("average", vec![g8, g16]);
    t
}

/// Figure 5: conventional OOO vs in-flight register count (paper: 32 →
/// −8%, 16 → −21%).
pub fn fig5(suite: &[Prepared]) -> Table {
    let base = ooo(|_| {});
    let mut f = Figure::default();
    for regs in [256u32, 64, 32, 16, 8] {
        f.ratio(format!("r{regs}"), ooo(|c| c.regs = regs), &base);
    }
    f.table("Figure 5: OOO performance vs registers (normalized to 256)", suite)
}

/// Figure 6: braid machine vs external register file entries (paper: 8 ≈
/// full, drop at ≤4).
pub fn fig6(suite: &[Prepared]) -> Table {
    let base = braid(|c| c.external_regs = 64);
    let mut f = Figure::default();
    for regs in [64u32, 32, 16, 8, 4, 2, 1] {
        f.ratio(format!("e{regs}"), braid(|c| c.external_regs = regs), &base);
    }
    f.table("Figure 6: braid performance vs external registers (normalized to 64)", suite)
}

/// Figure 7: braid machine vs external register file ports (paper: 6R/3W
/// within 0.5% of 16R/8W).
pub fn fig7(suite: &[Prepared]) -> Table {
    let ports = |r, w| {
        braid(|c| {
            c.ext_read_ports = r;
            c.ext_write_ports = w;
        })
    };
    let base = ports(16, 8);
    let mut f = Figure::default();
    for (r, w) in [(16u32, 8u32), (8, 4), (6, 3), (4, 2)] {
        f.ratio(format!("{r}R/{w}W"), ports(r, w), &base);
    }
    f.table("Figure 7: braid performance vs external RF ports (normalized to 16R/8W)", suite)
}

/// Figure 8: braid machine vs bypass bandwidth (paper: 2/cycle within 1%).
pub fn fig8(suite: &[Prepared]) -> Table {
    let base = braid(|c| c.bypass_per_cycle = 8);
    let mut f = Figure::default();
    for b in [8u32, 4, 2, 1] {
        f.ratio(format!("b{b}"), braid(|c| c.bypass_per_cycle = b), &base);
    }
    f.table("Figure 8: braid performance vs bypass paths (normalized to 8/cycle)", suite)
}

/// Figure 9: braid machine vs number of BEUs, normalized to the 8-wide
/// conventional OOO machine.
pub fn fig9(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for b in [1u32, 2, 4, 8, 16] {
        f.ratio(format!("beu{b}"), braid(|c| c.beus = b), &ooo(|_| {}));
    }
    f.table("Figure 9: braid performance vs BEUs (normalized to 8-wide OOO)", suite)
}

/// Figure 10: braid machine vs FIFO queue entries (paper: 32 suffice).
pub fn fig10(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for q in [4u32, 8, 16, 32, 64] {
        f.ratio(format!("q{q}"), braid(|c| c.fifo_entries = q), &ooo(|_| {}));
    }
    f.table("Figure 10: braid performance vs FIFO entries (normalized to 8-wide OOO)", suite)
}

/// Figure 11: braid machine vs scheduling window size (paper: steep 1→2,
/// plateau after).
pub fn fig11(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for w in [1u32, 2, 4, 8] {
        f.ratio(format!("w{w}"), braid(|c| c.window_size = w), &ooo(|_| {}));
    }
    f.table("Figure 11: braid performance vs scheduling window (normalized to 8-wide OOO)", suite)
}

/// Figure 12: scheduling window and FU count swept together.
pub fn fig12(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for w in [1u32, 2, 4, 8] {
        let core = braid(|c| {
            c.window_size = w;
            c.fus_per_beu = w;
        });
        f.ratio(format!("w{w}f{w}"), core, &ooo(|_| {}));
    }
    f.table("Figure 12: braid performance vs window = FUs (normalized to 8-wide OOO)", suite)
}

/// The machine widths of Figure 13.
const WIDTHS: [u32; 3] = [4, 8, 16];

/// Figure 13: the four paradigms at 4-, 8- and 16-wide, normalized to the
/// 8-wide conventional OOO machine.
pub fn fig13(suite: &[Prepared]) -> Table {
    use CoreModel::{Braid, DepSteer, InOrder, Ooo};
    let base = Ooo.paper_config(8, false);
    let mut f = Figure::default();
    for w in WIDTHS {
        for (label, core) in [("io", InOrder), ("dep", DepSteer), ("braid", Braid), ("ooo", Ooo)] {
            f.ratio(format!("{label}{w}"), core.paper_config(w, false), &base);
        }
    }
    f.table(
        "Figure 13: in-order / dep / braid / OOO at 4, 8, 16-wide (normalized to 8-wide OOO)",
        suite,
    )
}

/// Figure 14: equal functional units — 4 BEUs × 2 FUs vs 8 BEUs × 1 FU,
/// normalized to the default 8 BEUs × 2 FUs.
pub fn fig14(suite: &[Prepared]) -> Table {
    let base = braid(|_| {});
    let mut f = Figure::default();
    f.ratio("4beu-2fu", braid(|c| c.beus = 4), &base);
    f.ratio("8beu-1fu", braid(|c| c.fus_per_beu = 1), &base);
    f.table("Figure 14: equal FU budget (normalized to 8 BEUs x 2 FUs)", suite)
}

/// §5.1: the 4-stage-shorter pipeline (19- vs 23-cycle misprediction
/// penalty) gains ~2.19% on average.
pub fn pipeline(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    f.ratio("speedup", braid(|_| {}), &braid(|c| c.common.mispredict_penalty = 23));
    f.column("ext-vals/cycle", braid(|_| {}), |r| r.external_values_per_cycle);
    f.table("Pipeline shortening: braid with 19- vs 23-cycle penalty (paper gain ~2.19%)", suite)
}

/// Ablation (paper §5.2 future direction): BEU clustering with slower
/// cross-cluster value synchronization, normalized to the flat machine.
pub fn clusters(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for (clusters, delay) in [(1u32, 0u64), (2, 2), (4, 2), (4, 4)] {
        let core = braid(|c| {
            c.clusters = clusters;
            c.inter_cluster_delay = delay;
        });
        f.ratio(format!("c{clusters}d{delay}"), core, &braid(|_| {}));
    }
    f.table("Clustering ablation: braid clusters x inter-cluster delay (normalized to flat)", suite)
}

/// Ablation (paper §3.4): exception cost in the braid machine's
/// single-BEU in-order exception mode, at one exception per 2000
/// instructions with a 200-cycle handler.
pub fn exceptions(suite: &[Prepared]) -> Table {
    let mut t = Table::new(
        "Exception-mode ablation: slowdown with exceptions every 2000 insts (200-cycle handler)",
        &["bench", "slowdown", "taken"],
    );
    let core = BraidCore::new(BraidConfig::paper_default());
    for (p, clean) in suite.iter().zip(grid(suite, &[braid(|_| {})])) {
        let clean = &clean[0];
        let program = &p.translation.program;
        let points: Vec<u64> = (0..clean.instructions).step_by(2000).skip(1).collect();
        let exc = FuncStream::read(program, p.workload.fuel, |s| {
            core.run_with_exceptions(program, s, &points, 200)
        })
        .unwrap_or_else(|e| panic!("{}: functional run failed: {e}", p.workload.name))
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
    let mut f = Figure::default();
    f.ratio("braid", braid(|c| c.common.conservative_disambiguation = true), &braid(|_| {}));
    f.ratio("ooo", ooo(|c| c.common.conservative_disambiguation = true), &ooo(|_| {}));
    f.table("Disambiguation ablation: conservative LSQ relative to speculative", suite)
}

/// Predictor comparison: the paper's perceptron vs classic gshare vs
/// perfect prediction, on both the braid and OOO machines (IPC normalized
/// to the perceptron).
pub fn predictors(suite: &[Prepared]) -> Table {
    use braid_core::config::PredictorKind;
    let mut f = Figure::default();
    f.ratio("b-gshare", braid(|c| c.common.predictor = PredictorKind::Gshare), &braid(|_| {}));
    f.ratio("b-perfect", braid(|c| c.common.perfect_branch_predictor = true), &braid(|_| {}));
    f.ratio("o-gshare", ooo(|c| c.common.predictor = PredictorKind::Gshare), &ooo(|_| {}));
    f.ratio("o-perfect", ooo(|c| c.common.perfect_branch_predictor = true), &ooo(|_| {}));
    f.column("perc-acc", braid(|_| {}), |r| r.branch_accuracy.rate());
    f.table("Predictor comparison (normalized to the paper's perceptron)", suite)
}

/// Ablation: finite miss-handling registers (MSHRs) bound memory-level
/// parallelism; the default model is unlimited.
pub fn mshrs(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for m in [0u32, 16, 4, 1] {
        let header = if m == 0 { "inf".to_string() } else { format!("m{m}") };
        f.ratio(header, braid(|c| c.common.mem.mshrs = m), &braid(|_| {}));
    }
    f.ratio("ooo-m4", ooo(|c| c.common.mem.mshrs = 4), &ooo(|_| {}));
    f.table(
        "MSHR ablation: braid and OOO vs outstanding-miss limit (normalized to unlimited)",
        suite,
    )
}

/// Figure 13 with a perfect front end and perfect caches: isolates the
/// execution-core comparison from memory and prediction effects (the
/// regime where the paper's "within 9%" claim reproduces directly).
pub fn fig13perfect(suite: &[Prepared]) -> Table {
    let [io, dep, ooo8, braid8] = CoreModel::ALL.map(|m| m.paper_config(8, true));
    let mut f = Figure::default();
    f.column("io", io, SimReport::ipc);
    f.column("dep", dep, SimReport::ipc);
    f.column("braid", braid8.clone(), SimReport::ipc);
    f.column("ooo", ooo8.clone(), SimReport::ipc);
    f.ratio("braid/ooo", braid8, &ooo8);
    f.table("Figure 13 (perfect front end + caches): braid vs OOO at 8-wide", suite)
}

/// The configurations behind [`fig13`], unnormalized: absolute IPC of
/// every core at 4, 8 and 16-wide.
pub fn widthsweep(suite: &[Prepared]) -> Table {
    let mut f = Figure::default();
    for w in WIDTHS {
        for core in CoreModel::ALL {
            f.column(format!("{core}{w}"), core.paper_config(w, false), SimReport::ipc);
        }
    }
    f.table("Width sweep (parallel engine): absolute IPC at 4, 8, 16-wide", suite)
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
    use braid_core::processor::{run_tier, TierReport};
    use braid_core::{SamplingConfig, Tier};

    let cores = CoreModel::ALL.map(|m| m.paper_config(8, false));
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
        let out = search(&w.program, &BraidConfig::paper_default(), &cfg)
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
    use braid_core::processor::{run_tier, TierReport};
    use braid_core::{SamplingConfig, Tier};

    let cores = CoreModel::ALL.map(|m| m.paper_config(8, false));
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

/// CPI-stack breakdown: where every cycle goes on each paradigm, summed
/// over the whole suite. Each column is one stall cause as a percentage
/// of total cycles; rows sum to 100 because the engine charges every cycle
/// to exactly one cause.
pub fn cpistack(suite: &[Prepared]) -> Table {
    use braid_core::StallCause;

    let cores = CoreModel::ALL.map(|m| m.paper_config(8, false));
    let reports = grid(suite, &cores);

    let mut headers = vec!["core".to_string()];
    headers.extend(StallCause::ALL.iter().map(|c| c.key().to_string()));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(
        "CPI stack: percent of cycles charged to each cause, whole suite",
        &header_refs,
    );
    for (c, core) in cores.iter().enumerate() {
        let mut stack = CpiStack::new();
        for row in &reports {
            stack.merge(&row[c].cpi);
        }
        let values =
            StallCause::ALL.iter().map(|&cause| 100.0 * stack.fraction(cause)).collect();
        t.push(core.name(), values);
    }
    t
}
