//! The conventional out-of-order core (paper Table 4, middle block).
//!
//! 8-wide allocate/rename into 8 distributed 32-entry out-of-order
//! schedulers, each feeding one general-purpose functional unit; a 256-entry
//! in-flight register buffer (16R/8W) freed at retirement; a 3-level bypass
//! network moving 8 values per cycle; minimum 23-cycle misprediction
//! penalty.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use braid_isa::Program;
use braid_uarch::cache::MemoryHierarchy;

use crate::config::OooConfig;
use crate::cores::common::{Bandwidth, Engine, NONE};
use crate::error::SimError;
use crate::obs::{NoopObserver, Observer};
use crate::report::SimReport;
use crate::trace::{Trace, TraceSource};

/// The out-of-order timing model.
#[derive(Debug, Clone)]
pub struct OooCore {
    config: OooConfig,
}

impl OooCore {
    /// Creates the core with `config`.
    pub fn new(config: OooConfig) -> OooCore {
        OooCore { config }
    }

    /// Simulates `trace` of `program`, returning the run statistics.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an impossible machine description,
    /// [`SimError::Livelock`] (with a scheduler dump) if the pipeline
    /// stops retiring.
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
        // Entries per scheduler; each entry's scheduler is its slot tag.
        let mut occupancy: Vec<u32> = vec![0; cfg.schedulers as usize];
        // In-flight register-buffer entries held. An entry frees at the
        // retirement of its holder and is reusable in the same cycle, so a
        // count is all the buffer needs.
        let mut regs_held: u32 = 0;
        let mut bypass = Bandwidth::new(cfg.bypass_per_cycle);
        let mut wr_ports = Bandwidth::new(cfg.rf_write_ports);
        let mut wakeup = Wakeup::new(cfg.common.window);

        while !eng.finished() {
            // Retire: free the in-flight register buffer entry.
            eng.retire_phase(|eng, seq| {
                regs_held -= eng.slot(seq).holds_reg as u32;
            });

            // Select/issue: oldest-ready-first across the distributed
            // scheduler windows, bounded by the functional units and the
            // register-file read ports (an aggressive global select, as the
            // paper's "very aggressive conventional" machine warrants).
            // Entries a port or the LSQ turns back stay ready and retry.
            wakeup.collect(&eng);
            let mut reads_left = cfg.rf_read_ports;
            let mut fus_left = cfg.fus;
            wakeup.ready.retain(|&seq| {
                if fus_left == 0 {
                    return true;
                }
                let srcs = eng.op(seq).num_srcs as u32;
                if srcs > reads_left {
                    return true;
                }
                debug_assert_eq!(eng.slot(seq).avail_at, NONE, "seq {seq} issues once");
                let ok = eng.issue(seq, |_, complete| {
                    if bypass.try_reserve(complete) {
                        complete
                    } else {
                        wr_ports.reserve_first_free(complete) + 2
                    }
                });
                if ok {
                    reads_left -= srcs;
                    fus_left -= 1;
                    occupancy[eng.slot(seq).tag as usize] -= 1;
                    wakeup.issued.push(seq);
                }
                !ok
            });
            wakeup.wake_issued(&eng);

            // Dispatch up to `width` instructions into the least-occupied
            // schedulers, allocating register-buffer entries.
            let mut dispatched = 0;
            while dispatched < cfg.common.width {
                let Some(f) = eng.queue.front().copied() else { break };
                if !eng.admit(&f) {
                    break;
                }
                let has_dest = eng.program.insts[f.idx as usize].written_reg().is_some();
                if has_dest && regs_held >= cfg.regs {
                    eng.report.stall_regs += 1;
                    break;
                }
                // Config validation guarantees at least one scheduler; the
                // first least-occupied one wins a tie.
                let (sched, len) = occupancy
                    .iter()
                    .copied()
                    .enumerate()
                    .min_by_key(|&(_, n)| n)
                    .unwrap_or((0, u32::MAX));
                if len >= cfg.sched_entries {
                    eng.report.stall_window += 1;
                    break;
                }
                eng.queue.pop_front();
                let seq = eng.dispatch_slot(&f, sched as u32);
                eng.slot_mut(seq).holds_reg = has_dest;
                regs_held += has_dest as u32;
                occupancy[sched] += 1;
                wakeup.file(&eng, seq);
                dispatched += 1;
            }

            eng.fetch_phase();
            bypass.gc(eng.cycle.saturating_sub(64));
            wr_ports.gc(eng.cycle.saturating_sub(64));
            if O::ENABLED {
                for (s, &n) in occupancy.iter().enumerate() {
                    eng.obs.unit_occupancy(s as u32, n);
                }
            }
            if !eng.advance() {
                let dump: Vec<String> = (0..occupancy.len())
                    .map(|s| {
                        let mut entries = (eng.head..eng.next_dispatch).filter(|&seq| {
                            let slot = eng.slot(seq);
                            !slot.issued && slot.tag == s as u32
                        });
                        eng.describe_queue(&format!("sched{s}"), &mut entries)
                    })
                    .collect();
                return Err(eng.livelock("ooo", dump));
            }
        }
        // A conventional checkpoint saves the full architectural register
        // map (64 registers).
        Ok(eng.finish(64))
    }
}

/// Event-driven wakeup for the scheduler entries: an entry is examined
/// only once the producers it issues on have issued, instead of polling
/// every entry every cycle.
///
/// An entry whose producers have all issued waits in `pending` keyed by
/// the cycle its last operand becomes visible; one with an unissued
/// producer is parked on that producer's waiter list and refiled when it
/// issues. This is exact because this core sets a slot's `avail_at` once,
/// at issue, and never rolls the window back (no
/// [`Engine::squash_to_head`]), so the cycle an entry becomes ready is
/// fixed by the time its last producer issues.
#[derive(Debug)]
struct Wakeup {
    /// Entries whose producers have all issued, keyed by (ready cycle,
    /// seq).
    pending: BinaryHeap<Reverse<(u64, u64)>>,
    /// Ready entries not yet issued, sorted by seq (select order).
    ready: Vec<u64>,
    /// Entries issued this cycle, whose waiters are refiled after select.
    issued: Vec<u64>,
    /// Head of each in-flight producer's waiter list, indexed by
    /// `seq & mask` ([`NONE`] = empty).
    waiters: Vec<u64>,
    /// Next entry in the waiter list an in-flight entry is parked on,
    /// indexed by `seq & mask`.
    next_waiter: Vec<u64>,
    /// Window-sized index mask: the in-flight sequence numbers are
    /// distinct modulo `mask + 1`.
    mask: u64,
}

impl Wakeup {
    fn new(window: usize) -> Wakeup {
        let len = window.next_power_of_two();
        Wakeup {
            pending: BinaryHeap::new(),
            ready: Vec::new(),
            issued: Vec::new(),
            waiters: vec![NONE; len],
            next_waiter: vec![NONE; len],
            mask: len as u64 - 1,
        }
    }

    /// Files dispatched entry `seq`: parked on its first unissued producer,
    /// or pending until its last operand is visible. The operands are the
    /// ones [`Engine::deps_ready`] checks.
    fn file<O: Observer>(&mut self, eng: &Engine<'_, O>, seq: u64) {
        let skip_value = eng.op(seq).is_store();
        let mut ready_at = 0;
        for (i, &d) in eng.slot(seq).deps.iter().enumerate() {
            if (skip_value && i == 0) || d == NONE {
                continue;
            }
            let avail = eng.producer_avail(d);
            if avail == NONE {
                let list = &mut self.waiters[(d & self.mask) as usize];
                self.next_waiter[(seq & self.mask) as usize] = *list;
                *list = seq;
                return;
            }
            ready_at = ready_at.max(avail);
        }
        self.pending.push(Reverse((ready_at, seq)));
    }

    /// Refiles the waiters of every entry issued this cycle. Runs after
    /// select, so none of them can issue in their producer's cycle.
    fn wake_issued<O: Observer>(&mut self, eng: &Engine<'_, O>) {
        while let Some(producer) = self.issued.pop() {
            debug_assert_ne!(eng.slot(producer).avail_at, NONE);
            let list = &mut self.waiters[(producer & self.mask) as usize];
            let mut w = std::mem::replace(list, NONE);
            while w != NONE {
                let next = self.next_waiter[(w & self.mask) as usize];
                self.file(eng, w);
                w = next;
            }
        }
    }

    /// Moves the entries whose operands are visible by the current cycle
    /// into the ready list.
    fn collect<O: Observer>(&mut self, eng: &Engine<'_, O>) {
        let before = self.ready.len();
        while let Some(&Reverse((at, seq))) = self.pending.peek() {
            if at > eng.cycle {
                break;
            }
            self.pending.pop();
            self.ready.push(seq);
        }
        if self.ready.len() > before {
            self.ready.sort_unstable();
        }
        debug_assert!(self.ready.iter().all(|&seq| eng.deps_ready(seq)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;

    fn trace_of(src: &str) -> (braid_isa::Program, Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 1_000_000).unwrap();
        (p, t)
    }

    fn perfect_config() -> OooConfig {
        let mut c = OooConfig::paper_8wide();
        c.common = CommonConfig::paper_8wide().perfect();
        c
    }

    #[test]
    fn retires_every_instruction() {
        let (p, t) = trace_of(
            "addi r0, #20, r1\nloop: subi r1, #1, r1\naddq r2, r1, r2\nbne r1, loop\nhalt",
        );
        let r = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
        assert!(r.ipc() > 0.5, "ipc {}", r.ipc());
    }

    #[test]
    fn zero_read_ports_trip_the_watchdog() {
        let (p, t) = trace_of(
            "addi r0, #20, r1\nloop: subi r1, #1, r1\naddq r2, r1, r2\nbne r1, loop\nhalt",
        );
        let mut starved = perfect_config();
        starved.rf_read_ports = 0;
        starved.common.watchdog_cycles = 500;
        match OooCore::new(starved).run(&p, &t) {
            Err(SimError::Livelock(report)) => {
                assert_eq!(report.core, "ooo");
                assert!(report.cycle >= 500);
                // Nothing issues, so dispatch round-robins the first 62
                // instructions over the least-occupied schedulers.
                let expected = [
                    "sched0: 8 entries, head seq 0 (inst 0 `addi r0, #20, r1`) issued=false deps-waiting=[]",
                    "sched1: 8 entries, head seq 1 (inst 1 `subi r1, #1, r1`) issued=false deps-waiting=[0]",
                    "sched2: 8 entries, head seq 2 (inst 2 `addq r2, r1, r2`) issued=false deps-waiting=[1]",
                    "sched3: 8 entries, head seq 3 (inst 3 `bne r1, 1`) issued=false deps-waiting=[1]",
                    "sched4: 8 entries, head seq 4 (inst 1 `subi r1, #1, r1`) issued=false deps-waiting=[1]",
                    "sched5: 7 entries, head seq 5 (inst 2 `addq r2, r1, r2`) issued=false deps-waiting=[2, 4]",
                    "sched6: 7 entries, head seq 6 (inst 3 `bne r1, 1`) issued=false deps-waiting=[4]",
                    "sched7: 7 entries, head seq 7 (inst 1 `subi r1, #1, r1`) issued=false deps-waiting=[4]",
                ];
                assert_eq!(report.queues, expected);
                assert_eq!((report.head, report.in_flight), (0, 62));
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn impossible_config_is_rejected() {
        let (p, t) = trace_of("halt");
        let mut bad = perfect_config();
        bad.schedulers = 0;
        assert!(matches!(OooCore::new(bad).run(&p, &t), Err(SimError::Config(_))));
    }

    #[test]
    fn independent_work_reaches_high_ipc() {
        // 8 independent chains: should sustain several instructions per
        // cycle on the 8-wide machine.
        let mut src = String::new();
        src.push_str("addi r0, #200, r1\nloop:\n");
        for i in 2..10 {
            src.push_str(&format!("addi r{i}, #1, r{i}\n"));
        }
        src.push_str("subi r1, #1, r1\nbne r1, loop\nhalt");
        let (p, t) = trace_of(&src);
        let r = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r.ipc() > 3.0, "ipc {}", r.ipc());
    }

    #[test]
    fn dependent_chain_limits_ipc() {
        let (p, t) = trace_of(
            "addi r0, #500, r1\nloop: addq r2, r2, r2\nsubi r1, #1, r1\nbne r1, loop\nhalt",
        );
        let r = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        // The r2 chain serializes one addq per cycle; with the subi and bne
        // in parallel IPC can approach 3 but not exceed it by much.
        assert!(r.ipc() <= 3.2, "ipc {}", r.ipc());
    }

    #[test]
    fn fewer_registers_hurt() {
        let mut src = String::from("addi r0, #300, r1\nouter:\n");
        // A long-latency chain that keeps many values in flight.
        for i in 2..18 {
            src.push_str(&format!("mulq r{i}, r1, r{i}\n"));
        }
        src.push_str("subi r1, #1, r1\nbne r1, outer\nhalt");
        let (p, t) = trace_of(&src);
        let big = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        let mut small_cfg = perfect_config();
        small_cfg.regs = 8;
        let small = OooCore::new(small_cfg).run(&p, &t).expect("runs");
        assert!(
            small.ipc() < big.ipc() * 0.8,
            "8 regs {} vs 256 regs {}",
            small.ipc(),
            big.ipc()
        );
        assert!(small.stall_regs > 0);
    }

    #[test]
    fn store_load_forwarding_works() {
        let (p, t) = trace_of(
            r#"
                addi r0, #0x1000, r9
                addi r0, #100, r1
            loop:
                stq  r1, 0(r9)
                ldq  r2, 0(r9)
                addq r2, r2, r3
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let r = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        // Most iterations forward; a few loads issue after their store
        // retired and read the cache instead.
        assert!(r.forwarded_loads >= 50, "forwards: {}", r.forwarded_loads);
    }

    #[test]
    fn cache_misses_show_up_in_cycles() {
        // Walk 64KiB of data twice: cold misses dominate the first pass.
        let (p, t) = trace_of(
            r#"
                addi r0, #0, r1
                addi r0, #2048, r2
            loop:
                slli r2, #5, r3
                ldq  r4, 0(r3)
                addq r5, r4, r5
                subi r2, #1, r2
                bne  r2, loop
                halt
            "#,
        );
        let mut real = perfect_config();
        real.common.mem = braid_uarch::cache::MemoryHierarchyConfig::default();
        let with_misses = OooCore::new(real).run(&p, &t).expect("runs");
        let perfect = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(with_misses.cycles > perfect.cycles * 2);
        assert!(with_misses.l1d.misses() > 1000);
    }

    #[test]
    fn mispredictions_cost_cycles() {
        // A data-dependent unpredictable-ish branch pattern via xorshift.
        let (p, t) = trace_of(
            r#"
                addi r0, #1, r7
                addi r0, #500, r1
            loop:
                slli r7, #13, r3
                xor  r7, r3, r7
                srli r7, #7, r3
                xor  r7, r3, r7
                andi r7, #1, r4
                beq  r4, skip
                addi r5, #1, r5
            skip:
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut real_bp = perfect_config();
        real_bp.common.perfect_branch_predictor = false;
        let r1 = OooCore::new(real_bp).run(&p, &t).expect("runs");
        let r2 = OooCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r1.branch_accuracy.misses() > 20, "{}", r1.branch_accuracy);
        assert!(r1.cycles > r2.cycles, "mispredicts must cost time");
        assert!(r1.mispredict_stall_cycles > 0);
    }
}
