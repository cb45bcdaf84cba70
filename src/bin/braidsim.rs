//! `braidsim` — run a BRISC program (or a suite benchmark) on any of the
//! four execution-core models.
//!
//! ```text
//! braidsim <core> <file.s | file.bl | @benchmark> [--width N] [--perfect] [--fuel N]
//!          [--tier full|func|sampled] [--sample-period N] [--sample-warmup N]
//!          [--sample-len N] [--lockstep] [--source]
//!          [--report-json] [--cpi-stack] [--pipeview FILE] [--metrics FILE]
//! braidsim sweep [--workloads a,b] [--cores c,d] [--widths ...] [--beus ...]
//!                [--fifos ...] [--windows ...] [--bypasses ...] [--tiers t1,t2] [--scale F]
//!                [--perfect] [--threads N] [--name NAME] [--out FILE]
//!                [--resume]
//! braidsim trace-record <file.s | file.bl | @benchmark> <out.btrace>
//!                       [--fuel N] [--jsonl]
//! braidsim trace-replay <file.btrace | file.jsonl> [--cores a,b,c] [--width N]
//!                       [--report-json]
//! braidsim check-kanata <file.kanata>
//!
//! cores: ooo | braid | dep | inorder | all
//! ```
//!
//! Examples:
//!
//! ```text
//! braidsim all my_kernel.s
//! braidsim braid @gcc --perfect
//! braidsim ooo @mgrid --width 16
//! braidsim braid @fig2_life --cpi-stack --pipeview life.kanata
//! braidsim ooo @dot_product --metrics dot.json --report-json
//! braidsim sweep --workloads gcc,mcf --widths 4,8,16 --threads 8
//! ```
//!
//! Execution tiers (`--tier`): `full` (default) is exact cycle-level
//! simulation; `func` runs the fast functional interpreter only (no
//! timing — prints host throughput and the architectural state digest);
//! `sampled` fast-forwards functionally and times sampled intervals,
//! reporting extrapolated IPC and CPI. The first two `--sample-period`s
//! (default 32768, so 64K instructions) are timed window after window;
//! after that one `--sample-warmup` + `--sample-len` window (default
//! 512 + 3584) is timed per period and the rest is extrapolated, with a
//! 95% confidence interval on the estimate.
//! `--lockstep` compares the fast interpreter against the reference at
//! every interval boundary (always on in debug builds).
//! `--pipeview`/`--metrics` need `--tier full`. A malformed number in any
//! numeric flag, or a zero period or length on the sampled tier, is a
//! usage error (exit 2).
//!
//! Observability flags: `--report-json` prints the full `SimReport` as
//! deterministic JSON (host wall-clock time excluded); `--cpi-stack`
//! prints the per-cause cycle breakdown; `--pipeview` writes a
//! Konata-compatible pipeline log; `--metrics` writes occupancy, hotspot
//! and CPI metrics as JSON. `--pipeview`/`--metrics` attach an event
//! collector, so they require a single core (not `all`). `check-kanata`
//! validates a pipeline log with the in-repo format checker.
//!
//! The `sweep` subcommand expands the axes into a (workload × core ×
//! config) grid, shards it across a work-stealing thread pool, snapshots
//! partial results to `results/<name>.partial.json` after every point, and
//! writes the deterministic aggregate to `results/<name>.json` (the same
//! bytes for any `--threads`). `--resume` reuses a matching snapshot.
//!
//! Workloads can be braid-lang source (`.bl` extension, or any path with
//! `--source`), compiled on the fly, and the registered `ln_*` loop-nest
//! family resolves through `@name` like any benchmark. `trace-record`
//! captures a self-contained trace file (framed binary by default,
//! `--jsonl` for JSON-lines); `trace-replay` drives it through the four
//! timing cores and prints the canonical cycle digest — byte-identical
//! across replays of the same file.

use std::fs;
use std::io;
use std::process::ExitCode;

use braid::core::func::run_func;
use braid::core::processor::{run_full, run_tier, translate_checked, CoreConfig, RunError, TierReport};
use braid::core::report::SimReport;
use braid::core::{NoopObserver, SamplingConfig, Tier};
use braid::isa::asm::assemble;
use braid::isa::Program;
use braid::obs::{
    check_kanata, metrics_json, report_json, tier_json, write_kanata, PipelineObserver,
};
use braid::sweep::{CoreModel, MAX_BEUS, MAX_WIDTH, MAX_WINDOW};
use braid::tracein::{
    cycle_digest_of, replay_braid, verify, ReplayError, TraceError, TraceFile, TraceReader,
};
use braid::workloads::MAX_SCALE;

struct Options {
    width: u32,
    perfect: bool,
    fuel: u64,
    tier: Tier,
    sampling: SamplingConfig,
    report_json: bool,
    cpi_stack: bool,
    pipeview: Option<String>,
    metrics: Option<String>,
    source: bool,
}

impl Options {
    /// Whether an event collector must be attached to the run.
    fn observe(&self) -> bool {
        self.pipeview.is_some() || self.metrics.is_some()
    }
}

fn usage() -> ExitCode {
    eprintln!("usage: braidsim <ooo|braid|dep|inorder|all> <file.s | file.bl | @benchmark> [--width N] [--perfect] [--fuel N]");
    eprintln!("                [--tier full|func|sampled] [--sample-period N] [--sample-warmup N] [--sample-len N] [--lockstep]");
    eprintln!("                [--source] [--report-json] [--cpi-stack] [--pipeview FILE] [--metrics FILE]");
    eprintln!("       braidsim sweep [--workloads a,b] [--cores c,d] [--widths ...] [--beus ...]");
    eprintln!("                      [--fifos ...] [--windows ...] [--bypasses ...] [--tiers t1,t2] [--scale F]");
    eprintln!("                      [--perfect] [--threads N] [--name NAME] [--out FILE] [--resume]");
    eprintln!("       braidsim trace-record <file.s | file.bl | @benchmark> <out.btrace> [--fuel N] [--jsonl]");
    eprintln!("       braidsim trace-replay <file.btrace | file.jsonl> [--cores a,b,c] [--width N] [--report-json]");
    eprintln!("       braidsim check-kanata <file.kanata>");
    eprintln!("exit codes: 0 clean, 1 findings/failure, 2 usage error");
    ExitCode::from(2)
}

/// Parses the value of a numeric flag; a malformed value is a usage
/// error, never a silent default.
fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, ExitCode> {
    value.parse().map_err(|_| {
        eprintln!("braidsim: {flag}: bad value {value:?}");
        usage()
    })
}

/// Parses the value of a flag that sizes the simulated machine; a value
/// above `max` is a usage error, refused before a core allocates for it.
fn parse_size(flag: &str, value: &str, max: u32) -> Result<u32, ExitCode> {
    let n: u32 = parse_num(flag, value)?;
    if n > max {
        eprintln!("braidsim: {flag}: {n} exceeds the maximum {max}");
        return Err(usage());
    }
    Ok(n)
}

/// The `check-kanata` subcommand: validate a pipeline-viewer log.
fn run_check_kanata(args: &[String]) -> ExitCode {
    let [path] = args else {
        eprintln!("braidsim: check-kanata takes exactly one file");
        return usage();
    };
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("braidsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match check_kanata(&text) {
        Ok(s) => {
            println!(
                "{path}: ok — {} records ({} retired, {} flushed) over {} cycles",
                s.records, s.retired, s.flushed, s.cycles
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("braidsim: {path}: invalid kanata log: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Emits whatever observability outputs were requested for one finished
/// core run. `program` is the program the core actually executed (the
/// translated one for the braid machine), so viewer labels and hotspot
/// disassembly line up with the events.
fn emit_outputs(
    core_key: &str,
    program: &Program,
    rep: &SimReport,
    obs: &PipelineObserver,
    opts: &Options,
) -> Result<(), String> {
    if opts.report_json {
        println!("{}", report_json(rep));
    }
    if opts.cpi_stack {
        print!("{}", rep.cpi);
    }
    if let Some(path) = &opts.pipeview {
        let log = write_kanata(program, obs);
        fs::write(path, &log).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path} ({} pipeline records)", obs.records().len());
    }
    if let Some(path) = &opts.metrics {
        let doc = metrics_json(program, core_key, rep, obs);
        fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Reports one core's result and emits observability outputs; returns
/// `false` on failure.
fn finish_core(
    label: &str,
    core_key: &str,
    program: &Program,
    result: Result<SimReport, RunError>,
    obs: &PipelineObserver,
    opts: &Options,
) -> bool {
    match result {
        Ok(rep) => {
            report(label, &rep);
            if let Err(e) = emit_outputs(core_key, program, &rep, obs, opts) {
                eprintln!("braidsim: {e}");
                return false;
            }
            true
        }
        Err(RunError::Sim(e)) => {
            eprintln!("braidsim: {label} simulation failed:\n{e}");
            false
        }
        Err(RunError::Exec(e)) => {
            eprintln!("braidsim: {label} functional run failed: {e}");
            false
        }
        Err(RunError::Translate(e)) => {
            eprintln!("braidsim: translation failed: {e}");
            false
        }
        // The braid machine refuses contract-violating programs outright;
        // a corrupted translation must never reach the timing model.
        Err(RunError::Check(check)) => {
            eprintln!("braidsim: refusing ill-formed braid program:\n{check}");
            false
        }
        Err(e) => {
            eprintln!("braidsim: {label} failed: {e}");
            false
        }
    }
}

fn load_program(spec: &str, force_source: bool) -> Result<(Program, u64), String> {
    if let Some(name) = spec.strip_prefix('@') {
        let w = braid::workloads::by_name_any(name, 1.0)
            .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        Ok((w.program, w.fuel))
    } else if !force_source && spec.ends_with(".brisc") {
        let bytes = fs::read(spec).map_err(|e| format!("{spec}: {e}"))?;
        let mut p = braid::isa::container::from_bytes(&bytes).map_err(|e| format!("{spec}: {e}"))?;
        p.name = spec.to_string();
        Ok((p, 50_000_000))
    } else if force_source || spec.ends_with(".bl") {
        let source = fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        let name = std::path::Path::new(spec)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("program");
        let out = braid::lang::compile(name, &source)
            .map_err(|r| format!("{spec}:\n{}", r.render_with_source(&source)))?;
        Ok((out.program, 50_000_000))
    } else {
        let source = fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        let mut p = assemble(&source).map_err(|e| format!("{spec}: {e}"))?;
        p.name = spec.to_string();
        Ok((p, 50_000_000))
    }
}

/// The `trace-record` subcommand: functionally execute a workload and
/// write a self-contained trace file (framed binary, or JSON-lines with
/// `--jsonl`).
fn run_trace_record(args: &[String]) -> ExitCode {
    let mut fuel: u64 = 0;
    let mut jsonl = false;
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--jsonl" => jsonl = true,
            "--fuel" if i + 1 < args.len() => {
                i += 1;
                fuel = match parse_num("--fuel", &args[i]) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
            }
            a if !a.starts_with("--") => positional.push(&args[i]),
            other => {
                eprintln!("braidsim: trace-record: unknown option {other}");
                return usage();
            }
        }
        i += 1;
    }
    let [spec, out_path] = positional.as_slice() else {
        eprintln!("braidsim: trace-record takes a workload and an output file");
        return usage();
    };
    let (program, default_fuel) = match load_program(spec, false) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("braidsim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fuel = if fuel > 0 { fuel } else { default_fuel };
    let written = TraceFile::record(&program, fuel).and_then(|file| {
        let out = io::BufWriter::new(fs::File::create(out_path)?);
        let digest = if jsonl {
            file.write_jsonl(out)?;
            file.write_binary(io::sink())?
        } else {
            file.write_binary(out)?
        };
        Ok((file, digest))
    });
    match written {
        Ok((file, d)) => {
            println!("wrote {out_path}: {} dynamic instructions, trace digest {d}", file.entries)
        }
        Err(TraceError::Io(e)) => {
            eprintln!("braidsim: {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("braidsim: trace-record: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// The `trace-replay` subcommand: drive a recorded trace through the
/// timing cores and print the canonical cycle digest.
fn run_trace_replay(args: &[String]) -> ExitCode {
    let mut width: u32 = 8;
    let mut report_json = false;
    let mut core_names: Vec<String> =
        ["inorder", "dep", "ooo", "braid"].map(String::from).to_vec();
    let mut positional: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--report-json" => report_json = true,
            "--width" if i + 1 < args.len() => {
                i += 1;
                width = match parse_size("--width", &args[i], MAX_WIDTH) {
                    Ok(v) => v,
                    Err(code) => return code,
                };
            }
            "--cores" if i + 1 < args.len() => {
                i += 1;
                core_names = args[i].split(',').map(String::from).collect();
            }
            a if !a.starts_with("--") => positional.push(&args[i]),
            other => {
                eprintln!("braidsim: trace-replay: unknown option {other}");
                return usage();
            }
        }
        i += 1;
    }
    let [path] = positional.as_slice() else {
        eprintln!("braidsim: trace-replay takes exactly one trace file");
        return usage();
    };
    // One streaming pass checks the frame and every entry before anything
    // is printed or timed; each trace-driven core then reads the file
    // again. Input that cannot be reopened (a pipe) is read into memory.
    let held = match fs::metadata(path) {
        Ok(meta) if meta.is_file() => None,
        _ => match fs::read(path) {
            Ok(bytes) => Some(bytes),
            Err(e) => {
                eprintln!("braidsim: {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
    };
    let open = || -> io::Result<Box<dyn Input + '_>> {
        Ok(match &held {
            Some(bytes) => Box::new(io::Cursor::new(bytes.as_slice())),
            None => Box::new(io::BufReader::new(fs::File::open(path)?)),
        })
    };
    let (file, trace_digest) = match open().map_err(TraceError::Io).and_then(verify) {
        Ok(checked) => checked,
        Err(e) => {
            eprintln!("braidsim: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{}: {} dynamic instructions (recorded under fuel {})",
        file.name, file.entries, file.fuel
    );
    let mut cores = Vec::new();
    for name in &core_names {
        match paper_core(name, width, false) {
            Some(c) => cores.push(c),
            None => {
                eprintln!("braidsim: trace-replay: unknown core {name:?}");
                return usage();
            }
        }
    }
    let mut reports: Vec<(&str, SimReport)> = Vec::with_capacity(cores.len());
    for core in &cores {
        let replayed = if core.is_braid() {
            replay_braid(&file, core)
        } else {
            open().map_err(ReplayError::from).and_then(|f| TraceReader::new(f)?.replay(core))
        };
        match replayed {
            Ok(rep) => {
                if report_json {
                    println!(
                        "{{\"core\":\"{}\",\"cycles\":{},\"instructions\":{}}}",
                        core.name(),
                        rep.cycles,
                        rep.instructions
                    );
                } else {
                    report(core.name(), &rep);
                }
                reports.push((core.name(), rep));
            }
            Err(e) => {
                eprintln!("braidsim: trace-replay: {} failed: {e}", core.name());
                return ExitCode::FAILURE;
            }
        }
    }
    let borrowed: Vec<(&str, &SimReport)> = reports.iter().map(|(n, r)| (*n, r)).collect();
    println!("cycle digest: {}", cycle_digest_of(&trace_digest, &borrowed));
    ExitCode::SUCCESS
}

/// A trace file `trace-replay` reads: a file on disk or bytes in memory.
trait Input: io::BufRead + io::Seek {}
impl<T: io::BufRead + io::Seek> Input for T {}

fn report(label: &str, r: &SimReport) {
    println!("--- {label} ---");
    println!("{r}");
}

/// Parses a comma-separated numeric axis like `4,8,16` whose values may
/// not exceed `max`.
fn parse_axis(flag: &str, value: &str, max: u32) -> Result<Vec<u32>, String> {
    value
        .split(',')
        .filter(|s| !s.is_empty())
        .map(|s| match s.parse::<u32>() {
            Ok(n) if n <= max => Ok(n),
            Ok(n) => Err(format!("{flag}: {n} exceeds the maximum {max}")),
            Err(_) => Err(format!("{flag}: bad value {s:?}")),
        })
        .collect()
}

/// The `sweep` subcommand: expand, shard, aggregate, report.
fn run_sweep_cmd(args: &[String]) -> ExitCode {
    use braid::sweep::{aggregate, run_sweep, write_json, CoreModel, Json, SweepSpec};

    let mut spec = SweepSpec::new("sweep");
    // A small kernel grid by default: 4 workloads × 4 cores = 16 points.
    spec.workloads =
        ["fig2_life", "dot_product", "stencil", "pointer_chase"].map(String::from).to_vec();
    let mut threads = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut out: Option<String> = None;
    let mut resume = false;

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let r: Result<(), String> = match flag {
            "--perfect" => {
                spec.perfect = true;
                Ok(())
            }
            "--resume" => {
                resume = true;
                Ok(())
            }
            "--widths" | "--beus" | "--fifos" | "--windows" | "--bypasses" | "--workloads"
            | "--cores" | "--tiers" | "--scale" | "--threads" | "--name" | "--out" => {
                i += 1;
                match (flag, args.get(i)) {
                    (_, None) => Err(format!("{flag} needs a value")),
                    ("--widths", Some(v)) => {
                        parse_axis(flag, v, MAX_WIDTH).map(|a| spec.widths = a)
                    }
                    ("--beus", Some(v)) => parse_axis(flag, v, MAX_BEUS).map(|a| spec.beus = a),
                    ("--fifos", Some(v)) => {
                        parse_axis(flag, v, u32::MAX).map(|a| spec.fifo_depths = a)
                    }
                    ("--windows", Some(v)) => {
                        parse_axis(flag, v, MAX_WINDOW).map(|a| spec.windows = a)
                    }
                    ("--bypasses", Some(v)) => {
                        parse_axis(flag, v, u32::MAX).map(|a| spec.bypasses = a)
                    }
                    ("--workloads", Some(v)) => {
                        spec.workloads = v.split(',').map(String::from).collect();
                        Ok(())
                    }
                    ("--cores", Some(v)) => v
                        .split(',')
                        .map(|s| {
                            CoreModel::parse(s).ok_or_else(|| format!("unknown core {s:?}"))
                        })
                        .collect::<Result<Vec<_>, _>>()
                        .map(|cores| spec.cores = cores),
                    ("--tiers", Some(v)) => v
                        .split(',')
                        .map(|s| Tier::parse(s).ok_or_else(|| format!("unknown tier {s:?}")))
                        .collect::<Result<Vec<_>, _>>()
                        .map(|tiers| spec.tiers = tiers),
                    ("--scale", Some(v)) => match v.parse::<f64>() {
                        Ok(s) if s > 0.0 && s <= MAX_SCALE => {
                            spec.scale = s;
                            Ok(())
                        }
                        _ => Err(format!("--scale: {v:?} is not in (0, {MAX_SCALE}]")),
                    },
                    ("--threads", Some(v)) => v
                        .parse()
                        .map(|t: usize| threads = t.max(1))
                        .map_err(|_| format!("--threads: bad value {v:?}")),
                    ("--name", Some(v)) => {
                        spec.name = v.clone();
                        Ok(())
                    }
                    (_, Some(v)) => {
                        out = Some(v.clone());
                        Ok(())
                    }
                }
            }
            other => Err(format!("unknown option {other}")),
        };
        if let Err(e) = r {
            eprintln!("braidsim: sweep: {e}");
            return usage();
        }
        i += 1;
    }

    let points = spec.expand();
    if points.is_empty() {
        eprintln!("braidsim: sweep: the grid is empty (no workloads or cores)");
        return ExitCode::FAILURE;
    }
    let out = out.unwrap_or_else(|| format!("results/{}.json", spec.name));
    let partial = std::path::PathBuf::from(format!("results/{}.partial.json", spec.name));
    println!(
        "sweep `{}`: {} grid points on {} threads (digest {})",
        spec.name,
        points.len(),
        threads,
        spec.digest()
    );

    let run = match run_sweep(&spec, threads, Some(&partial), resume) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("braidsim: sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(w) = &run.snapshot_error {
        eprintln!("braidsim: sweep: warning: snapshot writes failed: {w}");
    }

    let mut failures = 0usize;
    for o in &run.outcomes {
        match &o.stats {
            Ok(s) => println!("  [{:3}] {:<40} ipc {:.3}", o.point.index, o.point.key(), s.ipc()),
            Err(e) => {
                failures += 1;
                println!("  [{:3}] {:<40} ERROR {e}", o.point.index, o.point.key());
            }
        }
    }
    let doc = aggregate(&run);
    if let Some(Json::Obj(fields)) = doc.get("summary").cloned() {
        for (k, v) in fields {
            if let Json::Float(x) = v {
                println!("  {k}: {x:.3}");
            }
        }
    }
    println!(
        "{} points ({} reused) in {:.2}s, {:.2} Mcycles/s aggregate",
        run.outcomes.len(),
        run.reused,
        run.host_nanos as f64 / 1e9,
        run.cycles_per_sec() / 1e6
    );
    // Per-point host timing: straggler and imbalance diagnostics. Stdout
    // only — host time never enters the aggregate file.
    println!("timing {}", braid::trace::sweep_timing(&run).compact());
    if let Err(e) = write_json(std::path::Path::new(&out), &doc) {
        eprintln!("braidsim: sweep: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    let _ = std::fs::remove_file(&partial);
    if failures > 0 {
        eprintln!("braidsim: sweep: {failures} point(s) failed");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// The cores `braidsim all` runs, in output order, with their report labels.
const CLI_CORES: [(CoreModel, &str); 4] = [
    (CoreModel::Ooo, "out-of-order"),
    (CoreModel::DepSteer, "dependence-steering"),
    (CoreModel::InOrder, "in-order"),
    (CoreModel::Braid, "braid"),
];

/// The paper configuration of the core the CLI calls `name` (exactly a
/// [`CoreModel::name`], never a parse alias) at `width`.
fn paper_core(name: &str, width: u32, perfect: bool) -> Option<CoreConfig> {
    let model = CoreModel::ALL.into_iter().find(|m| m.name() == name)?;
    Some(model.paper_config(width, perfect))
}

/// Runs the functional or sampled tier over the selected core(s).
fn run_tiered(core: &str, program: &Program, fuel: u64, opts: &Options) -> ExitCode {
    // The functional tier has no timing core at all, so without braid
    // translation in play every selection runs the same interpreter once.
    let models: Vec<CoreModel> = match core {
        "all" if opts.tier == Tier::Func => vec![CoreModel::InOrder, CoreModel::Braid],
        "all" => CLI_CORES.iter().map(|&(m, _)| m).collect(),
        _ => CoreModel::ALL.into_iter().filter(|m| m.name() == core).collect(),
    };
    for model in models {
        let name = model.name();
        let cfg = model.paper_config(opts.width, opts.perfect);
        match run_tier(program, &cfg, opts.tier, fuel, &opts.sampling) {
            Ok(rep) => {
                println!("--- {name} ({} tier) ---", opts.tier);
                match &rep {
                    TierReport::Full(r) => println!("{r}"),
                    TierReport::Func(r) => println!("{r}"),
                    TierReport::Sampled(r) => {
                        println!("{r}");
                        if opts.cpi_stack {
                            print!("{}", r.cpi);
                        }
                    }
                }
                if opts.report_json {
                    println!("{}", tier_json(("core", name), opts.tier, &rep).compact());
                }
            }
            Err(e) => {
                eprintln!("braidsim: {name} ({} tier) failed: {e}", opts.tier);
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--version") {
        println!("braidsim {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("sweep") {
        return run_sweep_cmd(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("check-kanata") {
        return run_check_kanata(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-record") {
        return run_trace_record(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("trace-replay") {
        return run_trace_replay(&args[1..]);
    }
    if args.len() < 2 {
        return usage();
    }
    let core = args[0].as_str();
    let spec = args[1].as_str();
    let mut opts = Options {
        width: 8,
        perfect: false,
        fuel: 0,
        tier: Tier::Full,
        sampling: SamplingConfig::default(),
        report_json: false,
        cpi_stack: false,
        pipeview: None,
        metrics: None,
        source: false,
    };
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--perfect" => opts.perfect = true,
            "--source" => opts.source = true,
            "--report-json" => opts.report_json = true,
            "--cpi-stack" => opts.cpi_stack = true,
            "--lockstep" => opts.sampling.lockstep = true,
            "--tier" if i + 1 < args.len() => {
                i += 1;
                match Tier::parse(&args[i]) {
                    Some(t) => opts.tier = t,
                    None => {
                        eprintln!("braidsim: unknown tier {:?}", args[i]);
                        return usage();
                    }
                }
            }
            flag @ ("--width" | "--fuel" | "--sample-period" | "--sample-warmup" | "--sample-len")
                if i + 1 < args.len() =>
            {
                i += 1;
                let v = &args[i];
                let s = &mut opts.sampling;
                let parsed = match flag {
                    "--width" => parse_size(flag, v, MAX_WIDTH).map(|n| opts.width = n),
                    "--fuel" => parse_num(flag, v).map(|n| opts.fuel = n),
                    "--sample-period" => parse_num(flag, v).map(|n| s.period = n),
                    "--sample-warmup" => parse_num(flag, v).map(|n| s.warmup = n),
                    _ => parse_num(flag, v).map(|n| s.sample = n),
                };
                if let Err(code) = parsed {
                    return code;
                }
            }
            "--pipeview" if i + 1 < args.len() => {
                i += 1;
                opts.pipeview = Some(args[i].clone());
            }
            "--metrics" if i + 1 < args.len() => {
                i += 1;
                opts.metrics = Some(args[i].clone());
            }
            other => {
                eprintln!("braidsim: unknown option {other}");
                return usage();
            }
        }
        i += 1;
    }
    // Exactly a `CoreModel::name` or `all`: the parse aliases stay refused.
    if core != "all" && !CoreModel::ALL.iter().any(|m| m.name() == core) {
        eprintln!("braidsim: unknown core {core:?}");
        return usage();
    }
    if opts.observe() && core == "all" {
        eprintln!("braidsim: --pipeview/--metrics need a single core, not `all`");
        return usage();
    }
    // Only the sampled tier reads the sampling knobs.
    if opts.tier == Tier::Sampled {
        if let Err(e) = opts.sampling.validate() {
            eprintln!("braidsim: {e}");
            return usage();
        }
    }

    let (program, default_fuel) = match load_program(spec, opts.source) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("braidsim: {e}");
            return ExitCode::FAILURE;
        }
    };
    let fuel = if opts.fuel > 0 { opts.fuel } else { default_fuel };

    if opts.tier != Tier::Full {
        if opts.observe() {
            eprintln!("braidsim: --pipeview/--metrics need --tier full");
            return usage();
        }
        return run_tiered(core, &program, fuel, &opts);
    }

    // Every core streams its own trace, so this pass only counts (and
    // surfaces an execution error before any core output).
    let insts = match run_func(&program, fuel) {
        Ok(r) => r.instructions,
        Err(e) => {
            eprintln!("braidsim: functional run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}: {} dynamic instructions", program.name, insts);

    for (model, label) in CLI_CORES {
        if core != model.name() && core != "all" {
            continue;
        }
        let cfg = model.paper_config(opts.width, opts.perfect);
        let mut obs = PipelineObserver::new();
        // The braid core times the translated program, and the pipeline
        // view and metrics must resolve against that program too.
        let ok = match cfg.is_braid().then(|| translate_checked(&program)).transpose() {
            Err(e) => finish_core(label, model.name(), &program, Err(e), &obs, &opts),
            Ok(translation) => {
                let ran = translation.as_ref().map_or(&program, |t| &t.program);
                let result = if opts.observe() {
                    run_full(ran, &cfg, fuel, &mut obs)
                } else {
                    run_full(ran, &cfg, fuel, &mut NoopObserver)
                };
                finish_core(label, model.name(), ran, result, &obs, &opts)
            }
        };
        if !ok {
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
