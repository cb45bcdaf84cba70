//! The `braidc -O` partition search: braid partitioning as an optimization
//! problem.
//!
//! The canonical translator emits one partition (maximal dataflow
//! components, split only when the internal working set overflows). This
//! module enumerates a family of alternative cuts — tighter working-set
//! splits and chain-length-limited braids — prunes them with a static
//! communication score, validates every survivor with `braid_check`, and
//! confirms the finalists by actually simulating them on the braid core.
//! The canonical partition always reaches simulation, so the winner's
//! cycle count is never worse than the canonical translator's.
//!
//! The **sound bound** ([`crate::bound`]) is partition-invariant: every
//! candidate is a legal block-local reordering of the same dataflow, so
//! its dependence chains and instruction counts are identical. What a
//! partition changes is *communication* — which values ride the internal
//! file versus the external ports. The static score is therefore the sound
//! bound plus an execution-weighted serialization estimate (documented as
//! a heuristic: the bound stays sound, the score is just a ranking).

use braid_check::CheckConfig;
use braid_compiler::{translate, Translation, TranslatorConfig};
use braid_core::trace::{for_each_entry, TraceEntry};
use braid_core::{run_full, BraidConfig, CoreConfig, FuncStream, NoopObserver, RunError};
use braid_isa::Program;

use crate::bound::BoundWalk;
use crate::framework::{self, ExtLiveness};
use crate::passes;

/// Knobs of [`search`].
#[derive(Debug, Clone, Copy)]
pub struct SearchConfig {
    /// Functional-execution budget for tracing and simulation.
    pub fuel: u64,
    /// Hardware internal register file capacity (candidates may *translate*
    /// with a tighter split threshold, but all are checked against this).
    pub hw_internal_regs: u32,
    /// How many top-scored candidates to confirm by simulation (the
    /// canonical partition is always confirmed in addition).
    pub simulate_top: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig { fuel: 10_000_000, hw_internal_regs: 8, simulate_top: 3 }
    }
}

/// One candidate partition.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Short stable name (`canonical`, `wset4`, `len8`, ...).
    pub name: String,
    /// The translator configuration that produced it.
    pub tconfig: TranslatorConfig,
    /// The translation.
    pub translation: Translation,
    /// Execution-weighted static score (lower is better; the sound bound
    /// plus the communication-serialization estimate).
    pub static_score: u64,
    /// Whether the candidate passed `braid_check` against the hardware
    /// capacity (candidates that do not are never simulated).
    pub check_clean: bool,
    /// Simulated cycles on the braid core, for confirmed candidates.
    pub simulated_cycles: Option<u64>,
}

/// The outcome of a partition search.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Every enumerated candidate, sorted by static score (ascending).
    pub candidates: Vec<Candidate>,
    /// Index of the winning candidate in `candidates` (always simulated;
    /// minimal simulated cycles, ties broken toward the canonical).
    pub winner: usize,
    /// Simulated cycles of the canonical partition.
    pub canonical_cycles: u64,
    /// The partition-invariant sound cycle lower bound on the braid core.
    pub bound_cycles: u64,
}

impl SearchOutcome {
    /// The winning candidate.
    pub fn winner(&self) -> &Candidate {
        &self.candidates[self.winner]
    }

    /// Cycles recovered by the winner relative to the canonical partition.
    pub fn cycles_recovered(&self) -> u64 {
        self.canonical_cycles
            .saturating_sub(self.winner().simulated_cycles.unwrap_or(self.canonical_cycles))
    }
}

/// The candidate family: the canonical cut plus tighter working-set splits
/// and chain-length-limited braids.
pub fn candidate_grid(hw_internal_regs: u32) -> Vec<(String, TranslatorConfig)> {
    let base = TranslatorConfig {
        max_internal_regs: hw_internal_regs,
        max_braid_len: 0,
        self_check: false,
    };
    let mut grid = vec![("canonical".to_string(), base)];
    for wset in [hw_internal_regs / 2, 3 * hw_internal_regs / 4] {
        if wset > 0 && wset < hw_internal_regs {
            grid.push((format!("wset{wset}"), TranslatorConfig { max_internal_regs: wset, ..base }));
        }
    }
    for len in [4u32, 8, 16] {
        grid.push((format!("len{len}"), TranslatorConfig { max_braid_len: len, ..base }));
    }
    grid.push((
        format!("wset{}-len8", 3 * hw_internal_regs / 4),
        TranslatorConfig {
            max_internal_regs: (3 * hw_internal_regs / 4).max(1),
            max_braid_len: 8,
            ..base
        },
    ));
    grid
}

/// Static communication-serialization estimate for one candidate, weighted
/// by per-block execution counts from the committed stream: for each block
/// visit, cycles the external read ports need beyond the width-bound
/// minimum, plus a small braid-dispatch term. A ranking heuristic, not a
/// bound.
fn comm_penalty(program: &Program, braid: &BraidConfig, block_visits: &[u64]) -> u64 {
    let cfg = braid_compiler::cfg::Cfg::build(program);
    let blocks = braid_check::Blocks::build(program);
    let live = framework::solve(program, &cfg, &ExtLiveness);
    let comm = passes::communication(program, &cfg, &blocks, &live.exit);
    let width = braid.common.width.max(1) as u64;
    let rd = braid.ext_read_ports.max(1) as u64;
    let wr = braid.ext_write_ports.max(1) as u64;
    let mut penalty = 0u64;
    for c in &comm {
        let visits = block_visits.get(c.block).copied().unwrap_or(0);
        if visits == 0 {
            continue;
        }
        let len = cfg.blocks[c.block].len() as u64;
        let min_cycles = len.div_ceil(width).max(1);
        let read_cycles = (c.ext_reads as u64).div_ceil(rd);
        let write_cycles = (c.ext_writes as u64).div_ceil(wr);
        let ser = read_cycles.max(write_cycles).saturating_sub(min_cycles);
        penalty += visits * ser;
    }
    penalty
}

/// One walk of `program`'s committed stream: its per-block visit counts and
/// its bound walk. Candidates are block-local permutations of each other,
/// so counts computed on one partition apply to all (block boundaries are
/// identical).
fn walk_canonical(program: &Program, fuel: u64) -> Result<(Vec<u64>, BoundWalk), RunError> {
    let cfg = braid_compiler::cfg::Cfg::build(program);
    let mut visits = vec![0u64; cfg.len()];
    let mut prev_block = usize::MAX;
    let mut bound = BoundWalk::default();
    let visit = |e: &TraceEntry| {
        bound.observe(program, e);
        let Some(&b) = cfg.block_of.get(e.idx as usize) else { return };
        if b != prev_block {
            if let Some(v) = visits.get_mut(b) {
                *v += 1;
            }
        }
        prev_block = b;
    };
    FuncStream::read(program, fuel, |s| for_each_entry(s, visit))?;
    Ok((visits, bound))
}

/// Runs the partition search for `program` on `braid` (see the module
/// docs for the pipeline).
///
/// # Errors
///
/// Propagates translation failure of the canonical partition, functional
/// execution failure, and simulation failure of confirmed candidates.
pub fn search(
    program: &Program,
    braid: &BraidConfig,
    config: &SearchConfig,
) -> Result<SearchOutcome, RunError> {
    let core = CoreConfig::Braid(braid.clone());
    let check_cfg = CheckConfig { max_internal_regs: config.hw_internal_regs };

    // Canonical first: its translation must succeed (that error is the
    // caller's problem) and its stream prices the candidates.
    let canonical_cfg = candidate_grid(config.hw_internal_regs)[0].1;
    let canonical = translate(program, &canonical_cfg)?;
    let (visits, walk) = walk_canonical(&canonical.program, config.fuel)?;
    let bound_cycles = walk.bound(&core).cycles();

    let mut candidates: Vec<Candidate> = Vec::new();
    for (name, tconfig) in candidate_grid(config.hw_internal_regs) {
        let translation = match translate(program, &tconfig) {
            Ok(t) => t,
            Err(_) => continue, // canonical already succeeded; skip odd knobs
        };
        let check_clean = !translation.check(program, &check_cfg).has_errors();
        let static_score =
            bound_cycles + comm_penalty(&translation.program, braid, &visits);
        candidates.push(Candidate {
            name,
            tconfig,
            translation,
            static_score,
            check_clean,
            simulated_cycles: None,
        });
    }
    candidates.sort_by(|a, b| {
        a.static_score.cmp(&b.static_score).then_with(|| a.name.cmp(&b.name))
    });

    // Confirm the canonical plus the top-scored check-clean survivors.
    let mut to_simulate: Vec<usize> = Vec::new();
    if let Some(canon) = candidates.iter().position(|c| c.name == "canonical") {
        to_simulate.push(canon);
    }
    for (i, c) in candidates.iter().enumerate() {
        if to_simulate.len() > config.simulate_top {
            break;
        }
        if c.check_clean && !to_simulate.contains(&i) {
            to_simulate.push(i);
        }
    }
    for &i in &to_simulate {
        let sim =
            run_full(&candidates[i].translation.program, &core, config.fuel, &mut NoopObserver)?;
        candidates[i].simulated_cycles = Some(sim.cycles);
    }

    let canonical_cycles = candidates
        .iter()
        .find(|c| c.name == "canonical")
        .and_then(|c| c.simulated_cycles)
        .expect("canonical is always simulated");
    // Winner: minimum simulated cycles; the canonical wins ties.
    let winner = to_simulate
        .iter()
        .copied()
        .min_by_key(|&i| {
            (candidates[i].simulated_cycles.unwrap_or(u64::MAX), candidates[i].name != "canonical")
        })
        .expect("at least the canonical is simulated");
    Ok(SearchOutcome { candidates, winner, canonical_cycles, bound_cycles })
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_isa::asm::assemble;

    const KERNEL: &str = r#"
        addi r0, #100, r1
    loop:
        mulq r1, r1, r2
        addq r2, r1, r3
        addq r3, r2, r4
        stq  r4, 0(r9) @stack:1
        subi r1, #1, r1
        bne  r1, loop
        halt
    "#;

    #[test]
    fn grid_contains_canonical_and_variants() {
        let grid = candidate_grid(8);
        assert_eq!(grid[0].0, "canonical");
        assert!(grid.iter().any(|(n, _)| n == "len8"));
        assert!(grid.iter().any(|(n, _)| n == "wset4"));
        assert!(grid.len() >= 6);
    }

    #[test]
    fn search_winner_never_loses_to_canonical() {
        let p = assemble(KERNEL).unwrap();
        let cfg = SearchConfig { fuel: 100_000, ..Default::default() };
        let out = search(&p, &BraidConfig::paper_default(), &cfg).unwrap();
        let w = out.winner();
        assert!(w.check_clean);
        let wc = w.simulated_cycles.unwrap();
        assert!(wc <= out.canonical_cycles, "winner {wc} > canonical {}", out.canonical_cycles);
        // The sound bound holds for the winner too.
        assert!(out.bound_cycles <= wc, "bound {} > winner {wc}", out.bound_cycles);
    }

    #[test]
    fn chain_length_candidates_stay_check_clean() {
        let p = assemble(KERNEL).unwrap();
        for (name, tconfig) in candidate_grid(8) {
            let t = translate(&p, &tconfig).unwrap();
            let rep = t.check(&p, &CheckConfig { max_internal_regs: 8 });
            assert!(!rep.has_errors(), "{name}: {rep}");
        }
    }
}
