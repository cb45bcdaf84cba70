//! braid-bound: whole-program static performance analysis for annotated
//! BRISC, and the partition search behind `braidc -O`.
//!
//! The paper's central claim is that braid structure — dataflow components,
//! the 8-entry internal register file, external-communication edges —
//! determines achievable ILP. That makes performance largely *statically
//! predictable*: this crate computes, per core model, a **sound cycle lower
//! bound** (`predicted ≤ simulated`, always — see [`bound`]) plus the
//! structural profiles that explain it (critical paths, internal-register
//! pressure, external-communication cost), and reports them with stable
//! `PB1xx` codes in text and JSON.
//!
//! Layering:
//!
//! * [`framework`] — a reusable forward/backward dataflow solver over
//!   [`braid_compiler::cfg`] blocks, hosting the reachability and
//!   external-liveness passes.
//! * [`passes`] — structural passes (critical path, pressure,
//!   communication) built on the compiler's def-use chains.
//! * [`bound`] — the sound per-core cycle lower bound.
//! * [`report`] — `PB1xx` findings and renderers.
//! * [`search`] — the `braidc -O` partition search: enumerate candidate
//!   braid cuts, prune by static score, validate with `braid_check`,
//!   confirm survivors by simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bound;
pub mod framework;
pub mod passes;
pub mod report;
pub mod search;

use braid_check::Blocks;
use braid_compiler::cfg::Cfg;
use braid_compiler::{translate, TranslatorConfig};
use braid_core::trace::for_each_entry;
use braid_core::{CoreConfig, FuncStream, RunError};
use braid_isa::Program;

use bound::BoundWalk;

pub use bound::{cycle_bound, CycleBound};
pub use report::{AnalysisReport, Finding, Level, PbCode};
pub use search::{search, Candidate, SearchConfig, SearchOutcome};

/// Knobs of [`analyze`].
#[derive(Debug, Clone, Copy)]
pub struct AnalyzeConfig {
    /// Functional-execution budget for the committed stream the bounds are
    /// computed over.
    pub fuel: u64,
    /// Internal register file capacity the pressure profile is taken
    /// against (the hardware's 8 by default).
    pub max_internal_regs: u32,
}

impl Default for AnalyzeConfig {
    fn default() -> AnalyzeConfig {
        AnalyzeConfig { fuel: 10_000_000, max_internal_regs: 8 }
    }
}

/// Whether `program` already carries braid annotations (any deviation from
/// the unannotated every-instruction-is-its-own-braid state).
pub fn is_annotated(program: &Program) -> bool {
    program.insts.iter().any(|i| {
        !i.braid.start
            || i.braid.internal
            || i.braid.t[0]
            || i.braid.t[1]
            || i.braid.external != i.opcode.has_dest()
    })
}

/// Analyzes `program` for every core in `cores`: computes the sound cycle
/// lower bound per core and the structural findings of the annotated form.
///
/// The braid core executes the *translated* program, so its bound is taken
/// over the translation's own committed stream; every other core is
/// bounded over the original program's. Each stream is walked once, from
/// the fast interpreter, and never held. If `program` is already
/// annotated it is used as-is for both structure and the braid core.
///
/// # Errors
///
/// Propagates functional-execution failures (e.g. out of fuel) and, when a
/// braid core is requested, translation/check failures.
pub fn analyze(
    program: &Program,
    cores: &[CoreConfig],
    config: &AnalyzeConfig,
) -> Result<AnalysisReport, RunError> {
    let mut report = AnalysisReport::new(program.name.clone());

    // The annotated form: the program itself when already annotated, else
    // the canonical translation (when it succeeds — plain programs can be
    // analyzed for non-braid cores even when translation is impossible).
    let annotated: Option<Program> = if is_annotated(program) {
        Some(program.clone())
    } else {
        translate(program, &TranslatorConfig { self_check: false, ..Default::default() })
            .ok()
            .map(|t| t.program)
    };

    // Per-core bounds: PB101 + PB106. Each executed program's stream is
    // walked once, however many cores are bounded over it.
    let mut plain_walk = None;
    let mut annot_walk = None;
    for core in cores {
        let (exec, walk) = if core.is_braid() {
            let Some(a) = annotated.as_ref() else {
                // Surface the translation failure the braid core would hit.
                translate(program, &TranslatorConfig { self_check: false, ..Default::default() })?;
                unreachable!("translate failed above");
            };
            (a, &mut annot_walk)
        } else {
            (program, &mut plain_walk)
        };
        if walk.is_none() {
            let mut w = BoundWalk::default();
            FuncStream::read(exec, config.fuel, |s| for_each_entry(s, |e| w.observe(exec, e)))?;
            *walk = Some(w);
        }
        let b = walk.as_ref().expect("walked above").bound(core);
        report.push(
            Finding::new(
                PbCode::Pb101CycleBound,
                format!(
                    "sound cycle lower bound {} over {} committed instructions \
                     (width {}, issue {}, lsq {}, dependence {})",
                    b.cycles(),
                    b.insts,
                    b.width_bound,
                    b.issue_bound,
                    b.lsq_bound,
                    b.dep_bound
                ),
            )
            .on_core(core.name()),
        );
        report.push(
            Finding::new(
                PbCode::Pb106Limiter,
                format!("program is {}-limited on this core", b.limiter()),
            )
            .on_core(core.name()),
        );
        report.bounds.push(b);
    }

    // Structural findings over the annotated form.
    if let Some(a) = annotated.as_ref() {
        structural_findings(a, cores, config, &mut report);
    }
    Ok(report)
}

fn structural_findings(
    annotated: &Program,
    cores: &[CoreConfig],
    config: &AnalyzeConfig,
    report: &mut AnalysisReport,
) {
    use braid_check::Span;

    let cfg = Cfg::build(annotated);
    let blocks = Blocks::build(annotated);
    let reach = framework::reachable_blocks(annotated, &cfg);

    // PB102: per-block critical paths (reachable blocks only).
    for bp in passes::critical_paths(annotated, &cfg) {
        if !reach.get(bp.block).copied().unwrap_or(true) || bp.cp_cycles == 0 {
            continue;
        }
        report.push(
            Finding::new(
                PbCode::Pb102CriticalPath,
                format!(
                    "critical path {} cycles over {} instructions (ends at inst {})",
                    bp.cp_cycles,
                    bp.end - bp.start,
                    bp.tail
                ),
            )
            .with_span(Span::range(bp.start, bp.end))
            .in_block(bp.block as u32),
        );
    }

    // PB103: braids with no internal-file headroom.
    for bp in passes::pressure_profile(annotated, &blocks, config.max_internal_regs) {
        if !reach.get(bp.extent.block).copied().unwrap_or(true) {
            continue;
        }
        if bp.peak >= bp.capacity && bp.capacity > 0 {
            report.push(
                Finding::new(
                    PbCode::Pb103PressureAtCapacity,
                    format!(
                        "braid holds {} simultaneously-live internal values — at the \
                         {}-entry internal file capacity, one more forces a split",
                        bp.peak, bp.capacity
                    ),
                )
                .with_span(Span::range(bp.extent.start, bp.extent.end))
                .in_block(bp.extent.block as u32),
            );
        }
    }

    // PB104/PB105 need the external-liveness fixpoint.
    let live = framework::solve(annotated, &cfg, &framework::ExtLiveness);
    let comm = passes::communication(annotated, &cfg, &blocks, &live.exit);
    let braid_cfg = cores.iter().find_map(|c| match c {
        CoreConfig::Braid(b) => Some(b),
        _ => None,
    });
    for c in &comm {
        if !reach.get(c.block).copied().unwrap_or(true) {
            continue;
        }
        if let Some(bc) = braid_cfg {
            // The external file can deliver `ext_read_ports` values per
            // cycle; if the block's external reads cannot fit in its
            // width-bound minimum cycles, communication serializes issue.
            let blk = &cfg.blocks[c.block];
            let min_cycles = (blk.len() as u64).div_ceil(bc.common.width.max(1) as u64);
            if (c.ext_reads as u64) > min_cycles * bc.ext_read_ports as u64 {
                report.push(
                    Finding::new(
                        PbCode::Pb104CommunicationHeavy,
                        format!(
                            "{} external reads exceed {} read ports x {} min cycles — \
                             external communication serializes braid issue",
                            c.ext_reads, bc.ext_read_ports, min_cycles
                        ),
                    )
                    .with_span(Span::range(blk.start, blk.end))
                    .in_block(c.block as u32),
                );
            }
        }
        if c.unread_ext_writes > 0 {
            report.push(
                Finding::new(
                    PbCode::Pb105UnreadExternalWrite,
                    format!(
                        "{} external write(s) whose value is never read through the \
                         external file — wasted external bandwidth",
                        c.unread_ext_writes
                    ),
                )
                .in_block(c.block as u32),
            );
        }
    }
}
