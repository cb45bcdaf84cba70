//! The sound cycle lower bound: `predicted ≤ simulated`, always.
//!
//! The bound is the maximum of independent resource and dependence limits,
//! each provable against the shared timing engine:
//!
//! * **Retire width** — every core retires at most `width` instructions per
//!   cycle and none on cycle zero, so `ceil(n / width)` cycles are needed
//!   to retire `n` instructions.
//! * **Issue slots** — a core cannot begin executing more than its
//!   functional-unit count per cycle (`beus * fus_per_beu` on the braid
//!   core), so `ceil(n / slots)` is a floor as well.
//! * **LSQ occupancy** — every memory instruction holds a load/store-queue
//!   entry over at least one full cycle and the queue never exceeds its
//!   capacity, so `ceil(n_mem / lsq_entries)` cycles are needed.
//! * **Dependence chains** — the engine never lets a consumer issue before
//!   `producer_issue + latency(producer)` for every dependence it enforces
//!   (register sources, and a conditional move's implicit old-destination
//!   read), and real completion is never earlier than that (write-port and
//!   bypass contention only push it later, loads pay at least one extra
//!   cache cycle over their unit address-generation latency). Walking the
//!   committed trace with those minimum latencies therefore yields a sound
//!   chain bound. Stores contribute only their address dependence: the
//!   engine explicitly skips the value dependence at issue, and nothing
//!   chains through a store's (nonexistent) destination.
//!
//! Constraints the engines *do* enforce but the model ignores — branch
//!   mispredictions, memory ordering, finite windows, port conflicts — only
//!   ever delay the simulated machine, so ignoring them preserves
//!   `bound ≤ simulated` (it just loosens the bound).

use braid_core::trace::{for_each_entry, TraceEntry, TraceSource};
use braid_core::CoreConfig;
use braid_isa::Program;

/// A per-core sound cycle lower bound, with each contributing limit kept
/// separate so reports can attribute *why* the program cannot go faster.
#[derive(Debug, Clone)]
pub struct CycleBound {
    /// Core the bound was computed for (`inorder`/`dep`/`ooo`/`braid`).
    pub core: String,
    /// Committed instructions in the analyzed trace.
    pub insts: u64,
    /// Committed memory instructions (loads + stores).
    pub mem_insts: u64,
    /// `ceil(insts / width)`: the retire-bandwidth floor.
    pub width_bound: u64,
    /// `ceil(insts / issue slots)`: the execution-bandwidth floor.
    pub issue_bound: u64,
    /// `ceil(mem_insts / lsq_entries)`: the memory-queue occupancy floor.
    pub lsq_bound: u64,
    /// The longest engine-enforced dependence chain through the trace,
    /// weighted by minimum execution latencies.
    pub dep_bound: u64,
}

impl CycleBound {
    /// The bound itself: the largest of the component floors (never zero —
    /// the engines report at least one cycle).
    pub fn cycles(&self) -> u64 {
        self.width_bound.max(self.issue_bound).max(self.lsq_bound).max(self.dep_bound).max(1)
    }

    /// Which component limits the program on this core.
    pub fn limiter(&self) -> &'static str {
        let c = self.cycles();
        // Dependence dominance is the interesting diagnosis; report it
        // whenever it ties a resource floor.
        if self.dep_bound == c {
            "dependence"
        } else if self.width_bound == c {
            "width"
        } else if self.issue_bound == c {
            "issue"
        } else {
            "lsq"
        }
    }
}

fn ceil_div(n: u64, d: u64) -> u64 {
    if d == 0 {
        0
    } else {
        n.div_ceil(d)
    }
}

/// The part of every core's bound that one walk of a committed stream
/// yields: the instruction and memory-instruction counts and the longest
/// dependence chain. None of them depends on the core (every engine
/// charges an opcode its own latency), so one walk bounds every core.
#[derive(Debug, Clone)]
pub(crate) struct BoundWalk {
    insts: u64,
    mem_insts: u64,
    dep_bound: u64,
    /// `reg_time[r]`: the earliest cycle the engine could make `r`'s
    /// current value visible to consumers.
    reg_time: [u64; 64],
}

impl Default for BoundWalk {
    fn default() -> BoundWalk {
        BoundWalk { insts: 0, mem_insts: 0, dep_bound: 0, reg_time: [0; 64] }
    }
}

impl BoundWalk {
    /// Folds the next committed entry of `program`'s stream.
    pub(crate) fn observe(&mut self, program: &Program, e: &TraceEntry) {
        self.insts += 1;
        let Some(inst) = program.insts.get(e.idx as usize) else { return };
        let op = inst.opcode;
        if op.is_load() || op.is_store() {
            self.mem_insts += 1;
        }
        let mut ready = 0u64;
        for (slot, r) in inst.src_regs().enumerate() {
            // The engine never waits on a store's value operand at issue
            // (it is only needed at retirement, by which time it is ready).
            if op.is_store() && slot == 0 {
                continue;
            }
            if !r.is_zero() {
                ready = ready.max(self.reg_time[r.index() as usize]);
            }
        }
        if op.reads_dest() {
            if let Some(d) = inst.dest.filter(|r| !r.is_zero()) {
                ready = ready.max(self.reg_time[d.index() as usize]);
            }
        }
        let avail = ready + op.latency();
        self.dep_bound = self.dep_bound.max(avail);
        if let Some(d) = inst.written_reg().filter(|r| !r.is_zero()) {
            self.reg_time[d.index() as usize] = avail;
        }
    }

    /// The sound cycle lower bound of the stream walked so far on `core`.
    pub(crate) fn bound(&self, core: &CoreConfig) -> CycleBound {
        CycleBound {
            core: core.name().to_string(),
            insts: self.insts,
            mem_insts: self.mem_insts,
            width_bound: ceil_div(self.insts, core.width() as u64),
            issue_bound: ceil_div(self.insts, core.issue_slots() as u64),
            lsq_bound: ceil_div(self.mem_insts, core.lsq_entries() as u64),
            dep_bound: self.dep_bound,
        }
    }
}

/// Computes the sound cycle lower bound for running the committed stream
/// of `program` that `source` supplies on `core`. The stream must come
/// from the program the core would execute (for the braid core, the
/// *translated* program).
pub fn cycle_bound(
    program: &Program,
    core: &CoreConfig,
    source: &mut dyn TraceSource,
) -> CycleBound {
    let mut walk = BoundWalk::default();
    for_each_entry(source, |e| walk.observe(program, e));
    walk.bound(core)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_core::{
        run_tier, trace_program, BraidConfig, DepConfig, InOrderConfig, OooConfig, SamplingConfig,
        Tier, TierReport,
    };
    use braid_isa::asm::assemble;

    fn paper_cores() -> Vec<CoreConfig> {
        vec![
            CoreConfig::InOrder(InOrderConfig::paper_8wide()),
            CoreConfig::Dep(DepConfig::paper_8wide()),
            CoreConfig::Ooo(OooConfig::paper_8wide()),
            CoreConfig::Braid(BraidConfig::paper_default()),
        ]
    }

    #[test]
    fn serial_divide_chain_is_dependence_bound() {
        // 4 dependent divides: dep bound ≥ 4 * 20 even at width 8.
        let p = assemble(
            "divq r1, r2, r3\ndivq r3, r2, r3\ndivq r3, r2, r3\ndivq r3, r2, r3\nhalt",
        )
        .unwrap();
        let trace = trace_program(&p, 1000).unwrap();
        let core = CoreConfig::Ooo(OooConfig::paper_8wide());
        let b = cycle_bound(&p, &core, &mut trace.entries.as_slice());
        assert_eq!(b.dep_bound, 80);
        assert_eq!(b.limiter(), "dependence");
        assert!(b.cycles() >= 80);
    }

    #[test]
    fn wide_independent_block_is_width_bound() {
        let mut src = String::new();
        for i in 0..64 {
            src.push_str(&format!("addi r0, #{i}, r{}\n", 1 + (i % 8)));
        }
        src.push_str("halt\n");
        let p = assemble(&src).unwrap();
        let trace = trace_program(&p, 1000).unwrap();
        let core = CoreConfig::Ooo(OooConfig::paper_8wide());
        let b = cycle_bound(&p, &core, &mut trace.entries.as_slice());
        assert_eq!(b.width_bound, 65u64.div_ceil(8));
        assert!(b.cycles() >= b.width_bound);
    }

    #[test]
    fn bound_is_sound_on_a_hand_kernel_for_all_cores() {
        let p = assemble(
            r#"
                addi r0, #200, r1
            loop:
                mulq r1, r1, r2
                addq r2, r1, r3
                stq  r3, 0(r9) @stack:1
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        )
        .unwrap();
        for core in paper_cores() {
            let rep = run_tier(&p, &core, Tier::Full, 100_000, &SamplingConfig::default())
                .unwrap();
            let TierReport::Full(sim) = rep else { panic!("full tier expected") };
            // Bound what the core actually executed.
            let executed = if core.is_braid() {
                braid_compiler::translate(&p, &braid_compiler::TranslatorConfig::default())
                    .unwrap()
                    .program
            } else {
                p.clone()
            };
            let trace = trace_program(&executed, 100_000).unwrap();
            let b = cycle_bound(&executed, &core, &mut trace.entries.as_slice());
            assert!(
                b.cycles() <= sim.cycles,
                "{}: bound {} > simulated {}",
                core.name(),
                b.cycles(),
                sim.cycles
            );
            // And it is not vacuous: within 100x of reality on this loop.
            assert!(b.cycles() * 100 >= sim.cycles, "{}: bound too loose", core.name());
        }
    }
}
