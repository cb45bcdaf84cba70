//! The simulator workloads: `sim-long`, `sim-sampled` and `sim-suite`.
//!
//! Every simulation runs in a fresh single-threaded child process (the
//! `cell`, `sweep` and `walk` subcommands), so each peak-RSS reading
//! belongs to one run and no run inherits another's heap. The parent
//! times set-up, spawns the children round after round until the run's
//! time is up, and checks every output.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;
use std::time::{Duration, Instant};

use braid_check::CheckConfig;
use braid_compiler::{translate, TranslatorConfig};
use braid_core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
use braid_core::cores::{BraidCore, DepSteerCore, InOrderCore, OooCore};
use braid_core::func::{FastMachine, FuncTable};
use braid_core::{
    run_tier, trace_program, CoreConfig, SamplingConfig, SimReport, Tier, TierReport, Trace,
    TraceEntry,
};
use braid_isa::Program;
use braid_prng::Rng;
use braid_sweep::json::{self, Json};
use braid_sweep::{aggregate, run_sweep, CoreModel, SweepSpec};

use crate::layers::Layers;
use crate::procfs::vm_hwm_kb;
use crate::report::{Fnv, RunResult};
use crate::span::{Span, Tracer};
use crate::stats::median;

/// Instruction budget of every simulation; the programs halt long before.
const FUEL: u64 = 50_000_000;
/// Worker threads of the `sim-suite` sweep (the host has two cores).
pub const SWEEP_THREADS: usize = 2;
/// Host time of one slice of back-to-back set-ups, run before the first
/// round and after each untraced round; `setup_s` is the median over the
/// slices of each slice's fastest set-up. A single set-up takes about a
/// millisecond, so one reading is mostly timer, cache and neighbour noise,
/// and the shared host's speed drifts within seconds, so the slices are
/// spread over the whole run rather than taken at once.
const SETUP_SLICE: Duration = Duration::from_millis(30);

/// The checked-in loop nests, with `@Kn@` placeholders for the seeded
/// array-initialisation constants.
const NESTS: [(&str, &str); 2] = [
    ("accum", include_str!("../workloads/accum.bl")),
    ("stream", include_str!("../workloads/stream.bl")),
];

/// Which simulator workload a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Both nests, full tier, four cores.
    Long,
    /// Both nests, sampled tier on four cores plus the functional tier.
    Sampled,
    /// The 26-program synthetic suite on four cores through the sweep pool.
    Suite,
}

/// The source of nest `name` with its constants drawn from `seed`.
///
/// # Panics
///
/// On an unknown nest name (the names are this module's constants).
pub fn nest_source(name: &str, seed: u64) -> String {
    let (_, template) = NESTS
        .iter()
        .find(|(n, _)| *n == name)
        .expect("nest names are fixed constants");
    let mut rng = Rng::seed_from_u64(seed ^ braid_sweep::digest::fnv1a64(name.as_bytes()));
    let mut src = template.to_string();
    for k in 1..=3 {
        src = src.replace(
            &format!("@K{k}@"),
            &(rng.next_u64() % (1 << 20) + 1).to_string(),
        );
    }
    src
}

/// The suite's program names in profile order, and its scale jittered
/// within ±1% by the seed: the programs' iteration counts change while the
/// amount of work a run does stays nearly constant. The grid order stays
/// fixed, since it decides which programs share the pool at once and so
/// the sweep's peak memory.
pub fn suite_inputs(seed: u64) -> (Vec<String>, f64) {
    let names = braid_workloads::PROFILES
        .iter()
        .map(|p| p.name.to_string())
        .collect();
    let scale = 0.99 + 0.02 * Rng::seed_from_u64(seed).next_f64();
    (names, scale)
}

fn core_config(core: CoreModel) -> CoreConfig {
    match core {
        CoreModel::InOrder => CoreConfig::InOrder(InOrderConfig::paper_8wide()),
        CoreModel::DepSteer => CoreConfig::Dep(DepConfig::paper_8wide()),
        CoreModel::Ooo => CoreConfig::Ooo(OooConfig::paper_8wide()),
        CoreModel::Braid => CoreConfig::Braid(BraidConfig::paper_default()),
    }
}

/// Times `trace` on a fresh paper-configured core.
fn run_core(core: CoreModel, program: &Program, trace: &Trace) -> Result<SimReport, String> {
    let r = match core {
        CoreModel::InOrder => InOrderCore::new(InOrderConfig::paper_8wide()).run(program, trace),
        CoreModel::DepSteer => DepSteerCore::new(DepConfig::paper_8wide()).run(program, trace),
        CoreModel::Ooo => OooCore::new(OooConfig::paper_8wide()).run(program, trace),
        CoreModel::Braid => BraidCore::new(BraidConfig::paper_default()).run(program, trace),
    };
    r.map_err(|e| e.to_string())
}

/// Translates and vets `program` for the braid core, the way the tier
/// driver does, recording one span per layer.
fn translate_checked(tr: &mut Tracer, program: &Program) -> Result<Program, String> {
    let tconfig = TranslatorConfig {
        self_check: false,
        ..TranslatorConfig::default()
    };
    let t = tr
        .span("compiler.translate", || translate(program, &tconfig))
        .map_err(|e| e.to_string())?;
    let config = CheckConfig {
        max_internal_regs: tconfig.max_internal_regs,
    };
    let report = tr.span("check.check", || t.check(program, &config));
    if report.has_errors() {
        return Err(format!("braid contract violated: {report}"));
    }
    Ok(t.program)
}

/// Full-tier simulation of `program` on `core`, one span per layer.
fn traced_full(
    tr: &mut Tracer,
    program: &Program,
    core: CoreModel,
) -> Result<(SimReport, usize), String> {
    let translated = match core {
        CoreModel::Braid => Some(translate_checked(tr, program)?),
        _ => None,
    };
    let program = translated.as_ref().unwrap_or(program);
    let trace = tr
        .span("core.functional.trace", || trace_program(program, FUEL))
        .map_err(|e| e.to_string())?;
    let name = format!("core.cores.{}", core.name());
    let report = tr.span(&name, || run_core(core, program, &trace))?;
    tr.span("obs.report", || braid_obs::report_json(&report).compact());
    Ok((report, trace.entries.len()))
}

// ---------------------------------------------------------------- children --

fn int(v: u64) -> Json {
    Json::Int(v)
}

fn elapsed_ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Body of the `cell` child: one nest on one core at one tier. Returns
/// the line the child prints.
///
/// # Errors
///
/// Returns any compile or simulation failure as text.
pub fn cell(
    tier: Tier,
    nest: &str,
    core: CoreModel,
    seed: u64,
    traced: bool,
) -> Result<Json, String> {
    let mut tr = Tracer::new(traced);
    let root = tr.enter("cell");
    let src = nest_source(nest, seed);
    let program = tr
        .span("lang.compile", || braid_lang::compile(nest, &src))
        .map_err(|r| r.to_string())?
        .program;
    let sampling = SamplingConfig {
        lockstep: false,
        ..SamplingConfig::default()
    };
    let mut out = Vec::new();
    if tier == Tier::Full && traced {
        let (report, entries) = traced_full(&mut tr, &program, core)?;
        out.push(("insts", int(report.instructions)));
        out.push(("cycles", int(report.cycles)));
        out.push(("trace_entries", int(entries as u64)));
    } else {
        let span = format!("core.{}", tier.name());
        let cfg = core_config(core);
        let rep = tr
            .span(&span, || run_tier(&program, &cfg, tier, FUEL, &sampling))
            .map_err(|e| e.to_string())?;
        out.push(("insts", int(rep.instructions())));
        match &rep {
            TierReport::Full(r) => {
                tr.span("obs.report", || braid_obs::report_json(r).compact());
                out.push(("cycles", int(r.cycles)));
            }
            TierReport::Sampled(r) => {
                out.push(("cycles", int(r.est_cycles)));
                out.push(("func_ns", int(r.func_host_nanos)));
                out.push(("timing_ns", int(r.timing_host_nanos)));
                out.push(("timed_insts", int(r.timed_insts)));
            }
            TierReport::Func(r) => out.push(("digest", int(r.digest))),
        }
    }
    tr.exit(root);
    out.push(("rss_kb", int(vm_hwm_kb("self").unwrap_or(0))));
    Ok(child_json(out, tr))
}

fn child_json(fields: Vec<(&str, Json)>, tr: Tracer) -> Json {
    let mut doc: Vec<(String, Json)> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let spans = tr.into_spans().iter().map(Span::to_json).collect();
    doc.push(("spans".into(), Json::Arr(spans)));
    Json::Obj(doc)
}

/// One grid point's result as the children report it.
fn point_json(workload: &str, core: CoreModel, insts: u64, cycles: u64) -> Json {
    Json::Arr(vec![
        Json::Str(workload.into()),
        Json::Str(core.name().into()),
        int(insts),
        int(cycles),
    ])
}

/// Body of the `sweep` child: the whole suite grid through
/// [`run_sweep`] on [`SWEEP_THREADS`] threads.
///
/// # Errors
///
/// Returns a sweep-level failure as text (per-point failures are counted
/// in the output instead).
pub fn sweep(seed: u64) -> Result<Json, String> {
    let (names, scale) = suite_inputs(seed);
    let mut spec = SweepSpec::new("braid-perf");
    spec.workloads = names;
    spec.scale = scale;
    let t0 = Instant::now();
    let run = run_sweep(&spec, SWEEP_THREADS, None, false).map_err(|e| e.to_string())?;
    let wall_ns = elapsed_ns(t0);
    let mut points = Vec::new();
    let mut errors = Vec::new();
    let (mut busy, mut straggler) = (0u64, 0u64);
    for o in &run.outcomes {
        match &o.stats {
            Ok(s) => {
                points.push(point_json(
                    &o.point.workload,
                    o.point.core,
                    s.instructions,
                    s.cycles,
                ));
                busy += s.host_nanos;
                straggler = straggler.max(s.host_nanos);
            }
            Err(e) => errors.push(Json::Str(format!("{}: {e}", o.point.key()))),
        }
    }
    let agg = braid_sweep::digest::fnv1a64(aggregate(&run).compact().as_bytes());
    let fields = vec![
        ("points", Json::Arr(points)),
        ("errors", Json::Arr(errors)),
        ("aggregate_digest", int(agg)),
        ("busy_ns", int(busy)),
        ("straggler_ns", int(straggler)),
        ("wall_ns", int(wall_ns)),
        ("rss_kb", int(vm_hwm_kb("self").unwrap_or(0))),
    ];
    Ok(child_json(fields, Tracer::new(false)))
}

/// Body of the `walk` child: the suite grid one point at a time on this
/// thread, so that spans do not interleave.
///
/// # Errors
///
/// Returns the first failing point as text.
pub fn walk(seed: u64, traced: bool) -> Result<Json, String> {
    let (names, scale) = suite_inputs(seed);
    let mut tr = Tracer::new(traced);
    let root = tr.enter("walk");
    let mut points = Vec::new();
    for name in &names {
        for core in CoreModel::ALL {
            let w = tr
                .span("workloads.generate", || {
                    braid_workloads::by_name(name, scale)
                })
                .ok_or_else(|| format!("unknown workload {name}"))?;
            let (report, _) = traced_full(&mut tr, &w.program, core)?;
            points.push(point_json(name, core, report.instructions, report.cycles));
        }
    }
    tr.exit(root);
    let fields = vec![
        ("points", Json::Arr(points)),
        ("rss_kb", int(vm_hwm_kb("self").unwrap_or(0))),
    ];
    Ok(child_json(fields, tr))
}

// ------------------------------------------------------------------ parent --

/// What the parent reads back from one child.
#[derive(Debug, Default)]
struct ChildOut {
    /// Parent-side wall time from spawn to exit.
    wall_ns: u64,
    doc: Option<Json>,
    spans: Vec<Span>,
}

impl ChildOut {
    fn u64(&self, key: &str) -> u64 {
        self.doc
            .as_ref()
            .and_then(|d| d.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    }

    fn points(&self) -> Vec<(String, String, u64, u64)> {
        let Some(arr) = self
            .doc
            .as_ref()
            .and_then(|d| d.get("points"))
            .and_then(Json::as_arr)
        else {
            return Vec::new();
        };
        arr.iter()
            .filter_map(|p| {
                let p = p.as_arr()?;
                Some((
                    p.first()?.as_str()?.to_string(),
                    p.get(1)?.as_str()?.to_string(),
                    p.get(2)?.as_u64()?,
                    p.get(3)?.as_u64()?,
                ))
            })
            .collect()
    }
}

/// Runs `exe args…` to completion and parses the last line it printed.
fn spawn(exe: &Path, args: &[String]) -> Result<ChildOut, String> {
    let t0 = Instant::now();
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let wall_ns = elapsed_ns(t0);
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        let stderr = String::from_utf8_lossy(&out.stderr);
        return Err(format!(
            "{} exited with {}: {}",
            args.join(" "),
            out.status,
            stderr.trim()
        ));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let doc = json::parse(last).map_err(|e| format!("{}: bad output: {e}", args.join(" ")))?;
    let spans = doc
        .get("spans")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(Span::from_json)
        .collect();
    Ok(ChildOut {
        wall_ns,
        doc: Some(doc),
        spans,
    })
}

/// One child invocation of a round.
#[derive(Debug, Clone)]
struct Cell {
    tier: Tier,
    nest: &'static str,
    core: CoreModel,
}

impl Cell {
    fn label(&self) -> String {
        format!("{}:{}:{}", self.tier.name(), self.nest, self.core.name())
    }

    fn args(&self, seed: u64, traced: bool) -> Vec<String> {
        [
            "cell",
            "--tier",
            self.tier.name(),
            "--nest",
            self.nest,
            "--core",
            self.core.name(),
            "--seed",
            &seed.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ]
        .map(String::from)
        .to_vec()
    }
}

fn cells(tier: Tier) -> Vec<Cell> {
    let mut v = Vec::new();
    for (nest, _) in NESTS {
        for core in CoreModel::ALL {
            v.push(Cell { tier, nest, core });
        }
    }
    if tier == Tier::Sampled {
        // The functional tier never times anything; the core only picks
        // whether the program is translated, and ooo runs it as-is.
        for (nest, _) in NESTS {
            v.push(Cell {
                tier: Tier::Func,
                nest,
                core: CoreModel::Ooo,
            });
        }
    }
    v
}

/// Instructions the functional tier executes, per program name: what
/// every core must retire.
type Reference = BTreeMap<String, u64>;

/// Prepares every program a workload runs: compile or generate,
/// translate, check. This is the set-up `setup_s` times.
fn prepare(workload: SimWorkload, seed: u64) -> Result<Vec<(String, Program, Program)>, String> {
    let mut tr = Tracer::new(false);
    let programs: Vec<(String, Program)> = match workload {
        SimWorkload::Long | SimWorkload::Sampled => NESTS
            .iter()
            .map(|(n, _)| {
                let c = braid_lang::compile(n, &nest_source(n, seed)).map_err(|r| r.to_string())?;
                Ok((n.to_string(), c.program))
            })
            .collect::<Result<_, String>>()?,
        SimWorkload::Suite => {
            let (names, scale) = suite_inputs(seed);
            names
                .iter()
                .map(|n| {
                    let w = braid_workloads::by_name(n, scale)
                        .ok_or(format!("unknown workload {n}"))?;
                    Ok((n.clone(), w.program))
                })
                .collect::<Result<_, String>>()?
        }
    };
    programs
        .into_iter()
        .map(|(n, p)| {
            let t = translate_checked(&mut tr, &p)?;
            Ok((n, p, t))
        })
        .collect()
}

/// Executes `program` on the functional tier and returns the instructions
/// it retired with a digest of its final memory. Translation may rename
/// registers, so memory is the state the original and the translated
/// program must agree on.
fn func_state(program: &Program) -> Result<(u64, u64), String> {
    let table = FuncTable::new(program);
    let mut m = FastMachine::new(program, &table);
    m.run(FUEL).map_err(|e| e.to_string())?;
    let snap = m.snapshot();
    let mut fnv = Fnv::default();
    for (page, bytes) in &snap.pages {
        fnv.add(*page);
        bytes
            .chunks(8)
            .for_each(|w| fnv.add(u64::from_le_bytes(w.try_into().expect("8-byte chunk"))));
    }
    Ok((snap.retired, fnv.finish()))
}

/// Runs [`prepare`] back to back for [`SETUP_SLICE`], at least once,
/// appends the fastest time to `times` and returns the last preparation.
fn time_prepare(
    workload: SimWorkload,
    seed: u64,
    times: &mut Vec<f64>,
) -> Result<Vec<(String, Program, Program)>, String> {
    let start = Instant::now();
    let mut fastest = f64::INFINITY;
    loop {
        let t0 = Instant::now();
        let programs = prepare(workload, seed)?;
        fastest = fastest.min(t0.elapsed().as_secs_f64());
        if start.elapsed() >= SETUP_SLICE {
            times.push(fastest);
            return Ok(programs);
        }
    }
}

/// Times a first slice of [`prepare`] and checks that every translated
/// program ends with the same memory as its original.
fn setup(
    workload: SimWorkload,
    seed: u64,
    r: &mut RunResult,
) -> Result<(Vec<f64>, Reference), String> {
    let mut times = Vec::new();
    let programs = time_prepare(workload, seed, &mut times)?;
    let mut insts = BTreeMap::new();
    for (name, original, translated) in &programs {
        let (n, mem) = func_state(original)?;
        r.attempted += 1;
        if func_state(translated)? != (n, mem) {
            r.fail(format!("{name}: translated program ends in another state"));
        }
        insts.insert(name.clone(), n);
    }
    Ok((times, insts))
}

/// Checks a child's instruction counts against the functional tier.
fn check_insts(r: &mut RunResult, reference: &Reference, what: &str, name: &str, insts: u64) {
    if reference.get(name) != Some(&insts) {
        r.fail(format!(
            "{what}: retired {insts} instructions, run_func executed {:?}",
            reference.get(name)
        ));
    }
}

/// Runs `seconds` worth of rounds of `workload` and fills in the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
///
/// # Errors
///
/// Returns a set-up failure, which leaves nothing to measure.
pub fn run(
    workload: SimWorkload,
    seed: u64,
    seconds: u64,
    traced: bool,
    exe: &Path,
) -> Result<RunResult, String> {
    let mut r = RunResult::default();
    let (mut setup_times, reference) = setup(workload, seed, &mut r)?;
    let mut layers = Layers::default();
    let mut digest: Option<u64> = None;
    let mut aggregate: Option<u64> = None;
    let mut rounds: Vec<(bool, f64)> = Vec::new();
    // Wall time of every untraced child, by kind (cell label or `sweep`).
    let mut per_kind: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut rss_kb: Vec<f64> = Vec::new();
    // A traced run alternates untraced and traced rounds, so the tracing
    // overhead compares rounds run under the same host conditions. The
    // suite's traced run opens with one pool sweep for the pool metrics and
    // then alternates walks.
    let first = usize::from(traced && workload == SimWorkload::Suite);
    let min_rounds = if traced { first + 2 } else { 1 };
    let start = Instant::now();
    while rounds.len() < min_rounds || start.elapsed().as_secs() < seconds {
        let round_traced = traced && rounds.len() >= first && (rounds.len() - first) % 2 == 1;
        let t0 = Instant::now();
        let mut outs: Vec<(Option<Cell>, ChildOut)> = Vec::new();
        match workload {
            SimWorkload::Long | SimWorkload::Sampled => {
                let tier = if workload == SimWorkload::Long {
                    Tier::Full
                } else {
                    Tier::Sampled
                };
                for c in cells(tier) {
                    r.attempted += 1;
                    match spawn(exe, &c.args(seed, round_traced)) {
                        Ok(o) => {
                            check_insts(&mut r, &reference, &c.label(), c.nest, o.u64("insts"));
                            outs.push((Some(c), o));
                        }
                        Err(e) => r.fail(e),
                    }
                }
            }
            SimWorkload::Suite => {
                r.attempted += 1;
                let sub = if traced && rounds.len() >= first {
                    "walk"
                } else {
                    "sweep"
                };
                let args = [
                    sub,
                    "--seed",
                    &seed.to_string(),
                    "--trace",
                    if round_traced { "1" } else { "0" },
                ]
                .map(String::from);
                match spawn(exe, &args) {
                    Ok(o) => {
                        check_suite(&mut r, &reference, &o);
                        outs.push((None, o));
                    }
                    Err(e) => r.fail(e),
                }
            }
        }
        let wall = t0.elapsed().as_secs_f64();
        // Simulated cycles never depend on host time: every round of a run
        // must reproduce the first round's counts exactly.
        let mut fnv = Fnv::default();
        for (_, o) in &outs {
            o.points().iter().for_each(|p| fnv.add(p.3));
            fnv.add(o.u64("cycles"));
        }
        if outs.len() == expected_outs(workload) {
            match digest {
                None => digest = Some(fnv.finish()),
                Some(d) if d != fnv.finish() => {
                    r.fail("simulated cycles differ between rounds".into())
                }
                Some(_) => {}
            }
        }
        for (c, o) in &outs {
            rss_kb.push(o.u64("rss_kb") as f64);
            let agg = o
                .doc
                .as_ref()
                .and_then(|d| d.get("aggregate_digest")?.as_u64());
            if let Some(agg) = agg {
                if *aggregate.get_or_insert(agg) != agg {
                    r.fail("sweep aggregates differ between rounds".into());
                }
            }
            if !traced {
                let kind = c.as_ref().map_or("sweep".to_string(), Cell::label);
                per_kind
                    .entry(kind)
                    .or_default()
                    .push(o.wall_ns as f64 / 1e6);
            }
            if let Some(doc) = &o.doc {
                layers.absorb(
                    c.as_ref().map(|c| (c.tier, c.nest, c.core)),
                    doc,
                    &o.spans,
                    o.wall_ns,
                );
            }
        }
        rounds.push((round_traced, wall));
        if !traced {
            time_prepare(workload, seed, &mut setup_times)?;
        }
    }
    r.sim_stats_digest = digest;
    if traced {
        if workload == SimWorkload::Sampled {
            ipc_error(&mut r, &mut layers, seed, exe);
        }
        let walls = |on: bool| -> Vec<f64> {
            rounds[first..]
                .iter()
                .filter(|x| x.0 == on)
                .map(|x| x.1)
                .collect()
        };
        let traced_rounds = walls(true);
        if let (Some(b), Some(t)) = (median(&walls(false)), median(&traced_rounds)) {
            layers.set(
                "bench.trace_overhead_pct",
                (t / b - 1.0) * 100.0,
                traced_rounds.len(),
            );
        }
        layers.finish(&mut r);
    } else {
        // One round rebuilt from each child kind's fastest run. The same
        // deterministic cell runs up to 1.5x slower while the shared host
        // is busy, with no steal time to show for it. Across runs a
        // kind's median followed those episodes, while its fastest run,
        // the one least disturbed, moved about half as much.
        let round_ms: f64 = per_kind
            .values()
            .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
            .sum();
        r.push(
            "setup_s",
            median(&setup_times).unwrap_or(0.0),
            "s",
            setup_times.len(),
        );
        r.push("op_ms", round_ms, "ms", rounds.len());
        let peak = rss_kb.iter().copied().fold(0.0, f64::max) / 1024.0;
        r.push("peak_rss_mb", peak, "MB", rss_kb.len());
    }
    Ok(r)
}

fn expected_outs(workload: SimWorkload) -> usize {
    match workload {
        SimWorkload::Long => cells(Tier::Full).len(),
        SimWorkload::Sampled => cells(Tier::Sampled).len(),
        SimWorkload::Suite => 1,
    }
}

/// The suite checks: no failed point, every core retires what the
/// functional tier executes, and the sweep aggregate is byte-identical
/// across rounds.
fn check_suite(r: &mut RunResult, reference: &Reference, o: &ChildOut) {
    if let Some(errs) = o
        .doc
        .as_ref()
        .and_then(|d| d.get("errors"))
        .and_then(Json::as_arr)
    {
        for e in errs {
            r.fail(format!("sweep point failed: {}", e.as_str().unwrap_or("?")));
        }
    }
    let points = o.points();
    if points.len() != reference.len() * CoreModel::ALL.len() {
        r.fail(format!("sweep returned {} points", points.len()));
    }
    for (w, core, insts, _) in &points {
        check_insts(r, reference, &format!("suite:{w}:{core}"), w, *insts);
    }
}

/// Runs the sampled cells' full-tier twins once, untimed, and records the
/// sampled tier's worst relative IPC error against them.
fn ipc_error(r: &mut RunResult, layers: &mut Layers, seed: u64, exe: &Path) {
    let mut worst: Option<f64> = None;
    for c in cells(Tier::Full) {
        let est = layers
            .sampled_cycles
            .get(&c.label().replacen("full", "sampled", 1))
            .copied();
        match (spawn(exe, &c.args(seed, false)), est) {
            (Ok(o), Some(est)) => {
                let exact = o.u64("cycles") as f64;
                // IPC = insts / cycles, so the IPC error is exact/est − 1.
                let err = (exact / est as f64 - 1.0).abs() * 100.0;
                worst = Some(worst.map_or(err, |w: f64| w.max(err)));
            }
            (Err(e), _) => r.fail(e),
            (Ok(_), None) => {}
        }
    }
    if let Some(w) = worst {
        layers.set("core.sampled.ipc_err_pct", w, cells(Tier::Full).len());
    }
}

/// TraceEntry bytes per dynamic instruction in the materialized trace.
pub const TRACE_ENTRY_BYTES: usize = std::mem::size_of::<TraceEntry>();
