//! The in-order baseline of the paper's Figure 13.
//!
//! A scoreboarded in-order machine: a single instruction queue whose head
//! `width` entries issue strictly in order (stop at the first not-ready
//! instruction), with full bypassing and no renaming.

use std::collections::VecDeque;

use braid_isa::Program;
use braid_uarch::cache::MemoryHierarchy;

use crate::config::InOrderConfig;
use crate::cores::common::Engine;
use crate::error::SimError;
use crate::obs::{NoopObserver, Observer};
use crate::report::SimReport;
use crate::trace::{Trace, TraceSource};

/// The in-order timing model.
#[derive(Debug, Clone)]
pub struct InOrderCore {
    config: InOrderConfig,
}

impl InOrderCore {
    /// Creates the core with `config`.
    pub fn new(config: InOrderConfig) -> InOrderCore {
        InOrderCore { config }
    }

    /// Simulates `trace` of `program`.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an impossible machine description,
    /// [`SimError::Livelock`] if the pipeline stops retiring.
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
        let mut queue: VecDeque<u64> = VecDeque::new();

        while !eng.finished() {
            eng.retire_phase(|_, _| {});

            // Strict in-order issue of up to `width` instructions.
            let mut fus_left = cfg.fus.min(cfg.common.width);
            while fus_left > 0 {
                let Some(&seq) = queue.front() else { break };
                if !eng.deps_ready(seq) {
                    break;
                }
                // Full bypass: values are visible at completion.
                if !eng.issue(seq, |_, complete| complete) {
                    break;
                }
                queue.pop_front();
                fus_left -= 1;
            }

            // Dispatch (decode) into the issue queue.
            let mut dispatched = 0;
            while dispatched < cfg.common.width {
                let Some(f) = eng.queue.front().copied() else { break };
                if !eng.admit(&f) {
                    break;
                }
                eng.queue.pop_front();
                let seq = eng.dispatch_slot(&f, 0);
                queue.push_back(seq);
                dispatched += 1;
            }

            eng.fetch_phase();
            if O::ENABLED {
                eng.obs.unit_occupancy(0, queue.len() as u32);
            }
            if !eng.advance() {
                let dump = vec![eng.describe_queue("queue", &mut queue.iter().copied())];
                return Err(eng.livelock("inorder", dump));
            }
        }
        Ok(eng.finish(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommonConfig, OooConfig};
    use crate::cores::ooo::OooCore;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;

    fn trace_of(src: &str) -> (braid_isa::Program, Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 1_000_000).unwrap();
        (p, t)
    }

    fn perfect_config() -> InOrderConfig {
        let mut c = InOrderConfig::paper_8wide();
        c.common = CommonConfig::paper_8wide().perfect();
        c.common.mispredict_penalty = 19;
        c.common.window = 64;
        c
    }

    #[test]
    fn retires_everything_in_order() {
        let (p, t) = trace_of(
            "addi r0, #50, r1\nloop: addq r2, r1, r2\nsubi r1, #1, r1\nbne r1, loop\nhalt",
        );
        let r = InOrderCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
    }

    #[test]
    fn long_latency_stalls_everything_behind() {
        // A multiply feeding nothing still blocks younger independent adds
        // only until it issues — but a *load miss* at the head blocks
        // issue of everything younger until it completes.
        let (p, t) = trace_of(
            r#"
                addi r0, #64, r1
            loop:
                slli r1, #8, r3
                ldq  r4, 0(r3)
                addi r5, #1, r5
                addi r6, #1, r6
                addi r7, #1, r7
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut real = perfect_config();
        real.common.mem = braid_uarch::cache::MemoryHierarchyConfig::default();
        let io = InOrderCore::new(real.clone()).run(&p, &t).expect("runs");
        let mut ooo_cfg = OooConfig::paper_8wide();
        ooo_cfg.common = real.common.clone();
        ooo_cfg.common.mispredict_penalty = 23;
        let ooo = OooCore::new(ooo_cfg).run(&p, &t).expect("runs");
        assert!(
            io.ipc() < ooo.ipc(),
            "in-order {} must trail out-of-order {}",
            io.ipc(),
            ooo.ipc()
        );
    }

    #[test]
    fn wide_inorder_issues_parallel_work() {
        let (p, t) = trace_of(
            r#"
                addi r0, #300, r1
            loop:
                addi r2, #1, r2
                addi r3, #1, r3
                addi r4, #1, r4
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let r = InOrderCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r.ipc() > 2.0, "independent ops issue together: {}", r.ipc());
    }
}
