//! FIFO dependence-based steering (Palacharla, Jouppi & Smith), the "dep"
//! baseline of the paper's Figure 13.
//!
//! At dispatch, an instruction is steered to the FIFO whose *tail* is one
//! of its producers (so dependence chains line up in a FIFO); otherwise to
//! an empty FIFO; otherwise dispatch stalls. Issue examines only FIFO
//! heads — out of order across FIFOs, in order within each. The paper cites
//! this as "a simple and implementable algorithm with a design complexity
//! comparable to braids", but the steering decisions happen at run time,
//! whereas braids are identified by the compiler.

use std::collections::VecDeque;

use braid_isa::Program;
use braid_uarch::cache::MemoryHierarchy;

use crate::config::DepConfig;
use crate::cores::common::{Bandwidth, Engine};
use crate::error::SimError;
use crate::obs::{NoopObserver, Observer};
use crate::report::SimReport;
use crate::trace::{Trace, TraceSource};

/// The dependence-steering timing model.
#[derive(Debug, Clone)]
pub struct DepSteerCore {
    config: DepConfig,
}

impl DepSteerCore {
    /// Creates the core with `config`.
    pub fn new(config: DepConfig) -> DepSteerCore {
        DepSteerCore { config }
    }

    /// Simulates `trace` of `program`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an impossible machine description,
    /// [`SimError::Livelock`] (with a FIFO dump) if the pipeline stops
    /// retiring.
    pub fn run(&self, program: &Program, trace: &Trace) -> Result<SimReport, SimError> {
        self.run_inner(program, &mut trace.entries.as_slice(), &mut NoopObserver, None)
    }

    /// The simulation loop over any [`TraceSource`]: the public entry
    /// points pass a materialized trace, the full tier streams. `warm`
    /// replaces the cold caches with the hierarchy functional warming
    /// built (sampled windows).
    pub(crate) fn run_inner<O: Observer>(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
        obs: &mut O,
        warm: Option<MemoryHierarchy>,
    ) -> Result<SimReport, SimError> {
        let cfg = &self.config;
        cfg.validate()?;
        let mut eng = Engine::new(program, source, &cfg.common, 0, obs, warm);
        let mut fifos: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.fifos as usize];
        // In-flight register-buffer entries held. An entry frees at the
        // retirement of its holder and is reusable in the same cycle, so a
        // count is all the buffer needs.
        let mut regs_held: u32 = 0;
        let mut bypass = Bandwidth::new(cfg.bypass_per_cycle);
        let mut wr_ports = Bandwidth::new(cfg.common.width);

        while !eng.finished() {
            eng.retire_phase(|eng, seq| {
                regs_held -= eng.slot(seq).holds_reg as u32;
            });

            // Issue from FIFO heads only.
            let mut fus_left = cfg.fus.min(cfg.common.width);
            #[allow(clippy::needless_range_loop)] // fifos[f] is mutated inside
            for f in 0..fifos.len() {
                if fus_left == 0 {
                    break;
                }
                let Some(&seq) = fifos[f].front() else { continue };
                if !eng.deps_ready(seq) {
                    continue;
                }
                let ok = eng.issue(seq, |_, complete| {
                    if bypass.try_reserve(complete) {
                        complete
                    } else {
                        wr_ports.reserve_first_free(complete) + 2
                    }
                });
                if ok {
                    fifos[f].pop_front();
                    fus_left -= 1;
                }
            }

            // Dispatch with dependence-based steering.
            let mut dispatched = 0;
            while dispatched < cfg.common.width {
                let Some(f) = eng.queue.front().copied() else { break };
                if !eng.admit(&f) {
                    break;
                }
                let deps = eng.peek_deps(&f);
                // Preferred FIFO: one whose tail produces an operand.
                let mut target: Option<usize> = None;
                for (i, q) in fifos.iter().enumerate() {
                    if let Some(&tail) = q.back() {
                        if deps.contains(&tail) && q.len() < cfg.fifo_entries as usize {
                            target = Some(i);
                            break;
                        }
                    }
                }
                if target.is_none() {
                    target = fifos.iter().position(|q| q.is_empty());
                }
                let Some(target) = target else {
                    // No producer tail and no empty FIFO: the steering
                    // heuristic stalls (its key weakness).
                    eng.report.stall_window += 1;
                    break;
                };
                let has_dest = eng.program.insts[f.idx as usize].written_reg().is_some();
                if has_dest && regs_held >= cfg.regs {
                    eng.report.stall_regs += 1;
                    break;
                }
                eng.queue.pop_front();
                let seq = eng.dispatch_slot(&f, target as u32);
                eng.slot_mut(seq).holds_reg = has_dest;
                regs_held += has_dest as u32;
                fifos[target].push_back(seq);
                dispatched += 1;
            }

            eng.fetch_phase();
            bypass.gc(eng.cycle.saturating_sub(64));
            wr_ports.gc(eng.cycle.saturating_sub(64));
            if O::ENABLED {
                for (i, q) in fifos.iter().enumerate() {
                    eng.obs.unit_occupancy(i as u32, q.len() as u32);
                }
            }
            if !eng.advance() {
                let dump: Vec<String> = fifos
                    .iter()
                    .enumerate()
                    .map(|(f, q)| eng.describe_queue(&format!("fifo{f}"), &mut q.iter().copied()))
                    .collect();
                return Err(eng.livelock("dep", dump));
            }
        }
        Ok(eng.finish(64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::cores::ooo::OooCore;
    use crate::config::OooConfig;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;

    fn trace_of(src: &str) -> (braid_isa::Program, Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 1_000_000).unwrap();
        (p, t)
    }

    fn perfect_config() -> DepConfig {
        let mut c = DepConfig::paper_8wide();
        c.common = CommonConfig::paper_8wide().perfect();
        c
    }

    #[test]
    fn retires_everything() {
        let (p, t) = trace_of(
            "addi r0, #50, r1\nloop: addq r2, r1, r2\nsubi r1, #1, r1\nbne r1, loop\nhalt",
        );
        let r = DepSteerCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
    }

    #[test]
    fn chains_line_up_in_fifos() {
        // Two independent chains: steering keeps each in its own FIFO, so
        // both heads issue every cycle.
        let (p, t) = trace_of(
            r#"
                addi r0, #300, r1
            loop:
                addq r2, r2, r2
                addq r3, r3, r3
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let r = DepSteerCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r.ipc() > 1.5, "ipc {}", r.ipc());
    }

    #[test]
    fn port_reservations_stay_bounded_on_long_runs() {
        // A one-value bypass sends most results through the write ports,
        // one map entry per busy cycle unless the map is collected.
        let (p, t) = trace_of(
            r#"
                addi r0, #20000, r1
            loop:
                addq r2, r2, r2
                addq r3, r3, r3
                addq r4, r4, r4
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut narrow = perfect_config();
        narrow.bypass_per_cycle = 1;
        crate::cores::common::PEAK_BOOKED_CYCLES.with(|p| p.set(0));
        let r = DepSteerCore::new(narrow).run(&p, &t).expect("runs");
        assert!(r.cycles > 20_000, "long enough to overflow an uncollected map");
        let peak = crate::cores::common::PEAK_BOOKED_CYCLES.with(|p| p.get());
        assert!(peak <= 4096 + 256, "a port map grew to {peak} booked cycles");
    }

    #[test]
    fn dep_is_at_most_ooo() {
        let (p, t) = trace_of(
            r#"
                addi r0, #300, r1
            loop:
                addq r2, r1, r3
                addq r3, r1, r4
                addq r2, r1, r5
                mulq r5, r4, r6
                stq  r6, 0(r9)
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let dep = DepSteerCore::new(perfect_config()).run(&p, &t).expect("runs");
        let mut ooo_cfg = OooConfig::paper_8wide();
        ooo_cfg.common = CommonConfig::paper_8wide().perfect();
        let ooo = OooCore::new(ooo_cfg).run(&p, &t).expect("runs");
        assert!(dep.ipc() <= ooo.ipc() * 1.05, "dep {} vs ooo {}", dep.ipc(), ooo.ipc());
    }
}
