//! `braidc` — the braid binary-translation tool.
//!
//! ```text
//! braidc translate <prog>         annotate + reorder, print braid assembly
//! braidc inspect   <prog>         print braids with S/T/I/E bits and stats
//! braidc encode    <prog>         print the 64-bit encodings
//! braidc stats     <prog>         print Tables 1-3 statistics only
//! braidc check     <prog> [--json] [--deny-warnings]
//!                                 verify the braid contract statically
//! braidc bound     <prog> [--json] [--verify] [--deny-warnings]
//!                                 static cycle lower bounds + PB findings
//!                                 per core; --verify simulates each core
//!                                 and confirms bound <= cycles
//! braidc -O        <prog> [--json] [--emit <file>]
//!                                 search alternative braid partitions,
//!                                 confirm by simulation, report the winner
//! braidc dot|viz   <prog> [--check] [--metrics <file.json>]
//!                                 Graphviz dataflow graph, braids colored;
//!                                 --check highlights diagnostic findings,
//!                                 --metrics annotates nodes with hotspot
//!                                 stall cycles from a `braidsim --metrics`
//!                                 export
//! braidc assemble  <file.s> <out.brisc>   write a binary container
//! braidc build     <file.bl> [--emit <out.brisc>] [--json] [--deny-warnings]
//!                                 compile braid-lang source, run the braid
//!                                 translator over it, and write an
//!                                 annotated container that passes
//!                                 `braid-check` clean by construction
//! ```
//!
//! `<prog>` is assembly, a `.brisc` binary, braid-lang source (`.bl`), or
//! `@name` for a workload from the benchmark suite (including the
//! compiled `ln_*` loop-nest family). Annotated inputs (any braid bits
//! set) are checked as-is; unannotated inputs are translated first and
//! the full translation (including reordering legality and descriptor
//! metadata) is checked.
//!
//! Exit codes (shared by all braid binaries): `0` clean, `1` findings or
//! failure, `2` usage error.

use std::fs;
use std::process::ExitCode;

use braid::check::{CheckConfig, CheckReport};
use braid::compiler::{translate, TranslatorConfig};
use braid::isa::asm::{assemble, disassemble};
use braid::isa::encode;
use braid::isa::Program;

fn usage() -> ExitCode {
    eprintln!(
        "usage: braidc <translate|inspect|encode|stats> <prog>\n       \
         braidc check <prog> [--json] [--deny-warnings]\n       \
         braidc bound <prog> [--json] [--verify] [--deny-warnings]\n       \
         braidc -O <prog> [--json] [--emit <file>]\n       \
         braidc dot|viz <prog> [--check] [--metrics <file.json>]\n       \
         braidc assemble <file.s> <out.brisc>\n       \
         braidc build <file.bl> [--emit <out.brisc>] [--json] [--deny-warnings]\n       \
         (<prog> = file.s | file.brisc | file.bl | @benchmark)\n\
         exit codes: 0 clean, 1 findings/failure, 2 usage error"
    );
    ExitCode::from(2)
}

fn load(spec: &str) -> Result<Program, String> {
    if let Some(name) = spec.strip_prefix('@') {
        let w = braid::workloads::by_name_any(name, 1.0)
            .ok_or_else(|| format!("unknown benchmark {name:?}"))?;
        Ok(w.program)
    } else if spec.ends_with(".brisc") {
        let bytes = fs::read(spec).map_err(|e| format!("{spec}: {e}"))?;
        braid::isa::container::from_bytes(&bytes).map_err(|e| format!("{spec}: {e}"))
    } else if spec.ends_with(".bl") {
        let source = fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        let out = braid::lang::compile(bl_name(spec), &source)
            .map_err(|r| format!("{spec}:\n{}", r.render_with_source(&source)))?;
        Ok(out.program)
    } else {
        let source = fs::read_to_string(spec).map_err(|e| format!("{spec}: {e}"))?;
        assemble(&source).map_err(|e| format!("{spec}: {e}"))
    }
}

/// Program name for a braid-lang source path: the file stem.
fn bl_name(path: &str) -> &str {
    std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("program")
}

/// The `build` subcommand: braid-lang source → annotated `.brisc`
/// container that passes `braid-check` clean by construction.
fn run_build(path: &str, flags: &[&str], emit_path: Option<&str>) -> ExitCode {
    let source = match fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("braidc: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out = match braid::lang::compile_annotated(bl_name(path), &source) {
        Ok(out) => out,
        Err(report) => {
            if flags.contains(&"--json") {
                println!("{}", report.to_json());
            } else {
                eprint!("{}", report.render_with_source(&source));
            }
            return ExitCode::FAILURE;
        }
    };
    if flags.contains(&"--json") {
        println!("{}", out.report.to_json());
    } else if !out.report.is_clean() {
        eprintln!("{}", out.report.render_with_source(&source));
    }
    let check = braid::check::check_program(&out.program, &CheckConfig::default());
    if check.has_errors() {
        // compile_annotated re-checks the translation, so this cannot
        // fire; belt-and-braces for the "clean by construction" contract.
        eprintln!("braidc: internal error: built container is not check-clean:\n{check}");
        return ExitCode::FAILURE;
    }
    if let Some(emit) = emit_path {
        let bytes = match braid::isa::container::to_bytes(&out.program) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("braidc: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = fs::write(emit, bytes) {
            eprintln!("braidc: {emit}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {emit} ({} instructions, check-clean)", out.program.len());
    } else {
        print!("{}", disassemble(&out.program));
    }
    if flags.contains(&"--deny-warnings") && !out.report.is_clean() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Whether any braid annotation deviates from the unannotated default —
/// i.e. the program has already been translated (or hand-annotated).
fn is_annotated(p: &Program) -> bool {
    p.insts
        .iter()
        .any(|i| !i.braid.start || i.braid.t[0] || i.braid.t[1] || i.braid.internal)
}

/// Checks `program`: annotated inputs directly, unannotated inputs through
/// the translator (checking the full translation against the input).
/// Returns the report and the program the report's spans refer to.
fn check_any(program: &Program) -> Result<(CheckReport, Program), String> {
    if is_annotated(program) {
        Ok((braid::check::check_program(program, &CheckConfig::default()), program.clone()))
    } else {
        let t = translate(program, &TranslatorConfig { self_check: false, ..Default::default() })
            .map_err(|e| format!("translation failed: {e}"))?;
        let report = t.check(program, &CheckConfig::default());
        Ok((report, t.program))
    }
}

/// Reads a `braidsim --metrics` export: the core it ran on and the
/// hotspot marks (`idx` → "N cyc") for dataflow-graph annotation.
fn load_hotspots(path: &str) -> Result<(String, Vec<(u32, String)>), String> {
    use braid::sweep::Json;
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = braid::sweep::json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let core = doc.get("core").and_then(Json::as_str).unwrap_or("").to_string();
    let arr = doc
        .get("hotspots")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `hotspots` array (not a --metrics export?)"))?;
    let marks = arr
        .iter()
        .filter_map(|h| {
            let idx = h.get("idx").and_then(Json::as_u64)?;
            let cycles = h.get("head_stall_cycles").and_then(Json::as_u64)?;
            Some((idx as u32, format!("{cycles} cyc")))
        })
        .collect();
    Ok((core, marks))
}

/// The paper's four core models at their default 8-wide configurations.
fn paper_cores() -> Vec<braid::core::CoreConfig> {
    braid::sweep::CoreModel::ALL.iter().map(|m| m.paper_config(8, false)).collect()
}

fn main() -> ExitCode {
    let mut all: Vec<String> = std::env::args().skip(1).collect();
    if all.iter().any(|a| a == "--version") {
        println!("braidc {}", env!("CARGO_PKG_VERSION"));
        return ExitCode::SUCCESS;
    }
    // `--metrics` takes a value; pull the pair out before the boolean-flag
    // scan below.
    let mut metrics_path: Option<String> = None;
    if let Some(i) = all.iter().position(|a| a == "--metrics") {
        if i + 1 >= all.len() {
            eprintln!("braidc: --metrics needs a file");
            return usage();
        }
        metrics_path = Some(all.remove(i + 1));
        all.remove(i);
    }
    let mut emit_path: Option<String> = None;
    if let Some(i) = all.iter().position(|a| a == "--emit") {
        if i + 1 >= all.len() {
            eprintln!("braidc: --emit needs a file");
            return usage();
        }
        emit_path = Some(all.remove(i + 1));
        all.remove(i);
    }
    let flags: Vec<&str> =
        all.iter().filter(|a| a.starts_with("--")).map(String::as_str).collect();
    let args: Vec<&String> = all.iter().filter(|a| !a.starts_with("--")).collect();
    if let Some(unknown) = flags
        .iter()
        .find(|f| !["--json", "--deny-warnings", "--check", "--verify"].contains(*f))
    {
        eprintln!("braidc: unknown option {unknown}");
        return usage();
    }

    if args.len() == 3 && args[0] == "assemble" {
        let program = match load(args[1]) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("braidc: {e}");
                return ExitCode::FAILURE;
            }
        };
        let bytes = match braid::isa::container::to_bytes(&program) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("braidc: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Err(e) = fs::write(args[2], bytes) {
            eprintln!("braidc: {}: {e}", args[2]);
            return ExitCode::FAILURE;
        }
        println!("wrote {} ({} instructions)", args[2], program.len());
        return ExitCode::SUCCESS;
    }
    if args.len() == 2 && args[0] == "build" {
        return run_build(args[1], &flags, emit_path.as_deref());
    }
    let [cmd, path] = args.as_slice() else { return usage() };
    let program = match load(path) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("braidc: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd.as_str() {
        "translate" | "inspect" | "stats" => {
            let t = match translate(&program, &TranslatorConfig::default()) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("braidc: translation failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match cmd.as_str() {
                "translate" => print!("{}", disassemble(&t.program)),
                "stats" => println!("{}", t.stats),
                _ => {
                    println!("{} braids over {} instructions", t.braids.len(), t.program.len());
                    println!("{}\n", t.stats);
                    for (i, d) in t.braids.iter().enumerate() {
                        println!("braid {i} (block {}, {} insts, {} internals):", d.block, d.len, d.internals);
                        for idx in d.start..d.start + d.len {
                            let inst = &t.program.insts[idx as usize];
                            let b = inst.braid;
                            println!(
                                "  {:>5}  {}{}{}{}{}  {}",
                                idx,
                                if b.start { 'S' } else { '.' },
                                if b.t[0] { 'T' } else { '.' },
                                if b.t[1] { 'T' } else { '.' },
                                if b.internal { 'I' } else { '.' },
                                if b.external { 'E' } else { '.' },
                                inst
                            );
                        }
                    }
                }
            }
        }
        "bound" => {
            use braid::analyze::{analyze, AnalyzeConfig};
            use braid::core::{run_tier, SamplingConfig, Tier, TierReport};
            let cores = paper_cores();
            let config = AnalyzeConfig::default();
            let report = match analyze(&program, &cores, &config) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("braidc: analysis failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if flags.contains(&"--json") {
                println!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            if flags.contains(&"--verify") {
                // Soundness check: simulate each core at the full tier and
                // confirm predicted <= simulated. The braid core's bound is
                // taken over the same canonical translation run_tier vets.
                let sampling = SamplingConfig::default();
                for core in &cores {
                    let sim = if core.is_braid() && braid::analyze::is_annotated(&program) {
                        braid::core::run_full(&program, core, config.fuel, &mut braid::core::NoopObserver)
                            .map(|r| r.cycles)
                    } else {
                        run_tier(&program, core, Tier::Full, config.fuel, &sampling).map(|r| {
                            match r {
                                TierReport::Full(r) => r.cycles,
                                _ => unreachable!("full tier returns a full report"),
                            }
                        })
                    };
                    let cycles = match sim {
                        Ok(c) => c,
                        Err(e) => {
                            eprintln!("braidc: {} simulation failed: {e}", core.name());
                            return ExitCode::FAILURE;
                        }
                    };
                    let bound = report
                        .bounds
                        .iter()
                        .find(|b| b.core == core.name())
                        .map(|b| b.cycles())
                        .unwrap_or(0);
                    if bound > cycles {
                        eprintln!(
                            "braidc: UNSOUND: {} bound {bound} > simulated {cycles}",
                            core.name()
                        );
                        return ExitCode::FAILURE;
                    }
                    println!("{}: sound ({bound} <= {cycles})", core.name());
                }
            }
            if flags.contains(&"--deny-warnings") && report.warnings() > 0 {
                return ExitCode::FAILURE;
            }
        }
        "-O" => {
            use braid::analyze::{search, SearchConfig};
            let out = match search(&program, &braid::core::BraidConfig::paper_default(), &SearchConfig::default())
            {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("braidc: partition search failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if flags.contains(&"--json") {
                let mut s = String::from("{\"candidates\":[");
                for (i, c) in out.candidates.iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    s.push_str("{\"name\":");
                    braid::check::json_string(&mut s, &c.name);
                    s.push_str(&format!(
                        ",\"score\":{},\"check_clean\":{},\"cycles\":{}}}",
                        c.static_score,
                        c.check_clean,
                        c.simulated_cycles.map_or("null".to_string(), |v| v.to_string()),
                    ));
                }
                s.push_str("],\"winner\":");
                braid::check::json_string(&mut s, &out.winner().name);
                s.push_str(&format!(
                    ",\"canonical_cycles\":{},\"bound_cycles\":{},\"recovered\":{}}}",
                    out.canonical_cycles,
                    out.bound_cycles,
                    out.cycles_recovered(),
                ));
                println!("{s}");
            } else {
                println!("{:<14} {:>8} {:>6} {:>10}", "candidate", "score", "check", "cycles");
                for c in &out.candidates {
                    println!(
                        "{:<14} {:>8} {:>6} {:>10}",
                        c.name,
                        c.static_score,
                        if c.check_clean { "ok" } else { "FAIL" },
                        c.simulated_cycles.map_or("-".to_string(), |v| v.to_string()),
                    );
                }
                println!(
                    "winner: {} ({} cycles, canonical {}, bound {}, recovered {})",
                    out.winner().name,
                    out.winner().simulated_cycles.unwrap_or(0),
                    out.canonical_cycles,
                    out.bound_cycles,
                    out.cycles_recovered(),
                );
            }
            if let Some(path) = &emit_path {
                // Assembly text drops braid annotations; emit the binary
                // container (which keeps them) for `.brisc` paths.
                let winner_prog = &out.winner().translation.program;
                let write_result = if path.ends_with(".brisc") {
                    match braid::isa::container::to_bytes(winner_prog) {
                        Ok(bytes) => fs::write(path, bytes),
                        Err(e) => {
                            eprintln!("braidc: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                } else {
                    fs::write(path, disassemble(winner_prog))
                };
                if let Err(e) = write_result {
                    eprintln!("braidc: {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("wrote {path} ({})", out.winner().name);
            }
        }
        "check" => {
            let (report, _) = match check_any(&program) {
                Ok(x) => x,
                Err(e) => {
                    eprintln!("braidc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            if flags.contains(&"--json") {
                println!("{}", report.to_json());
            } else {
                println!("{report}");
            }
            if report.has_errors() || (flags.contains(&"--deny-warnings") && !report.is_clean()) {
                return ExitCode::FAILURE;
            }
        }
        "dot" | "viz" => {
            let config = TranslatorConfig::default();
            let mut marks: Vec<(u32, String)> = Vec::new();
            let mut target = program.clone();
            let mut errors = None;
            if flags.contains(&"--check") {
                let (report, checked) = match check_any(&program) {
                    Ok(x) => x,
                    Err(e) => {
                        eprintln!("braidc: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                marks.extend(
                    report.diagnostics.iter().map(|d| (d.span.start, d.code.to_string())),
                );
                target = checked;
                if report.has_errors() {
                    errors = Some(report);
                }
            }
            if let Some(mpath) = &metrics_path {
                let (core, hot) = match load_hotspots(mpath) {
                    Ok(x) => x,
                    Err(e) => {
                        eprintln!("braidc: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                // Braid-machine hotspot indices refer to the *translated*
                // program; mirror the run's translation so they line up.
                if core == "braid" && !is_annotated(&target) {
                    target = match translate(&target, &TranslatorConfig::default()) {
                        Ok(t) => t.program,
                        Err(e) => {
                            eprintln!("braidc: translation failed: {e}");
                            return ExitCode::FAILURE;
                        }
                    };
                }
                marks.extend(hot);
            }
            if marks.is_empty() && metrics_path.is_none() && !flags.contains(&"--check") {
                print!("{}", braid::compiler::viz::program_to_dot(&program, &config));
            } else {
                print!(
                    "{}",
                    braid::compiler::viz::program_to_dot_highlight(&target, &config, &marks)
                );
            }
            if let Some(report) = errors {
                eprintln!("{report}");
            }
        }
        "encode" => {
            for (i, inst) in program.insts.iter().enumerate() {
                match encode(inst) {
                    Ok(w) => println!("{i:>5}  {w}  {inst}"),
                    Err(e) => {
                        eprintln!("braidc: instruction {i}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        _ => return usage(),
    }
    ExitCode::SUCCESS
}
