//! The braid microarchitecture (paper §3.3, Table 4 bottom block).
//!
//! Braids arrive from the front end in order (the `S` bit marks
//! boundaries); the distribute stage sends each braid, whole, to the braid
//! execution unit (BEU) with the most free FIFO space — no dependence-based
//! steering is needed because the compiler already grouped dependent
//! instructions. Each BEU is a 32-entry FIFO whose head `window_size`
//! entries form a strict in-order scheduler feeding 2 functional units, an
//! 8-entry internal register file (4R/2W), and a busy-bit view of the
//! 8-entry external register file (6R/3W). Only external values travel on
//! the 1-level, 2-value/cycle bypass network. Internal values live and die
//! inside the BEU.
//!
//! External register file entries are claimed when an `E`-destination
//! instruction issues and recycle once the value has drained to the
//! architectural backing file; recovery state lives in checkpoints, which
//! in this machine exclude internal values.

use std::collections::{BTreeSet, VecDeque};

use braid_isa::Program;
use braid_uarch::cache::MemoryHierarchy;

use crate::config::BraidConfig;
use crate::cores::common::{Bandwidth, Engine, RegPool};
use crate::error::SimError;
use crate::obs::{NoopObserver, Observer};
use crate::report::SimReport;
use crate::trace::{Trace, TraceSource};

/// How many cycles after completion an external value occupies its external
/// register file entry while draining to the backing file. The backing-file
/// write rides the bypass broadcast, so the entry recycles at completion —
/// with ~2 external values produced per cycle, live for a couple of cycles,
/// the paper's 8 entries suffice (Figure 6).
const DRAIN_CYCLES: u64 = 0;

/// The braid-microarchitecture timing model.
#[derive(Debug, Clone)]
pub struct BraidCore {
    config: BraidConfig,
}

impl BraidCore {
    /// Creates the core with `config`.
    pub fn new(config: BraidConfig) -> BraidCore {
        BraidCore { config }
    }

    /// Simulates `trace` of a braid-annotated `program`.
    ///
    /// The program should come from the braid translator; an unannotated
    /// program still runs (every instruction is a single-instruction braid
    /// with external operands) but gains nothing.
    ///
    /// # Errors
    ///
    /// [`SimError::Config`] for an impossible machine description,
    /// [`SimError::Livelock`] (with a BEU FIFO dump) if the pipeline stops
    /// retiring.
    pub fn run(&self, program: &Program, trace: &Trace) -> Result<SimReport, SimError> {
        self.run_inner(program, &mut trace.entries.as_slice(), &[], 0, &mut NoopObserver, None)
    }

    /// Simulates the stream `source` supplies, raising an exception at each
    /// dynamic sequence number in `exceptions` (paper §3.4): the machine
    /// rolls back to the checkpoint, disables all but one BEU, re-executes
    /// strictly in order until the excepting instruction retires, charges
    /// `handler_latency` cycles for the handler, and resumes normal mode.
    /// An exception past the end of the stream is never raised.
    ///
    /// # Errors
    ///
    /// As for [`BraidCore::run`].
    pub fn run_with_exceptions(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
        exceptions: &[u64],
        handler_latency: u64,
    ) -> Result<SimReport, SimError> {
        self.run_inner(program, source, exceptions, handler_latency, &mut NoopObserver, None)
    }

    /// The simulation loop over any [`TraceSource`]: the public entry
    /// points pass a materialized trace, the full tier streams. `warm`
    /// replaces the cold caches with the hierarchy functional warming
    /// built (sampled windows).
    pub(crate) fn run_inner<O: Observer>(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
        exceptions: &[u64],
        handler_latency: u64,
        obs: &mut O,
        warm: Option<MemoryHierarchy>,
    ) -> Result<SimReport, SimError> {
        let cfg = &self.config;
        cfg.validate()?;
        // A cross-cluster consumer reads its producer's slot up to
        // `inter_cluster_delay` cycles after the producer retired.
        let clusters = cfg.clusters.max(1);
        let reach = if clusters > 1 { cfg.inter_cluster_delay } else { 0 };
        let mut eng = Engine::new(program, source, &cfg.common, reach, obs, warm);
        let mut fifos: Vec<VecDeque<u64>> = vec![VecDeque::new(); cfg.beus as usize];
        let mut ext_pool = RegPool::new(cfg.external_regs);
        let mut bypass = Bandwidth::new(cfg.bypass_per_cycle);
        let mut ext_wr = Bandwidth::new(cfg.ext_write_ports);
        let mut int_wr: Vec<Bandwidth> =
            (0..cfg.beus).map(|_| Bandwidth::new(cfg.internal_write_ports)).collect();
        // The BEU currently receiving the in-flight braid from distribute.
        let mut current_beu: usize = 0;
        // Cluster geometry (paper §5.2): BEU b belongs to cluster
        // b / beus_per_cluster; cross-cluster external values pay a delay.
        let beus_per_cluster = cfg.beus.div_ceil(clusters).max(1);
        let cluster_of = |beu: u32| beu / beus_per_cluster;
        // Exception machinery (paper §3.4).
        let mut pending_exceptions: BTreeSet<u64> = exceptions.iter().copied().collect();
        let mut exception_mode: Option<u64> = None;
        let mut dispatch_stalled_until: u64 = 0;
        let mut exceptions_taken: u64 = 0;

        while !eng.finished() {
            eng.retire_phase(|_, _| {});

            // Leave exception mode once the excepting instruction retires;
            // the handler then runs for `handler_latency` cycles.
            if let Some(e) = exception_mode {
                if eng.head > e {
                    exception_mode = None;
                    dispatch_stalled_until = eng.cycle + handler_latency;
                }
            }

            // A point past the end of the stream can never be raised: drop
            // it once the source runs dry, so the scan below stops with it.
            if eng.frontend.exhausted()
                && pending_exceptions.last().is_some_and(|&e| e >= eng.frontend.produced())
            {
                pending_exceptions.split_off(&eng.frontend.produced());
            }

            // Raise any pending exception whose instruction reached an
            // issue window: roll back to the checkpoint and enter the
            // single-BEU in-order mode.
            let mut raise: Option<u64> = None;
            if exception_mode.is_none() && !pending_exceptions.is_empty() {
                'scan: for fifo in &fifos {
                    for &seq in fifo.iter().take(cfg.window_size as usize) {
                        if pending_exceptions.contains(&seq) {
                            raise = Some(seq);
                            break 'scan;
                        }
                    }
                }
            }
            if let Some(e) = raise {
                pending_exceptions.remove(&e);
                exceptions_taken += 1;
                exception_mode = Some(e);
                for fifo in &mut fifos {
                    fifo.clear();
                }
                eng.squash_to_head();
            }

            // Issue: each BEU examines the head `window_size` FIFO entries
            // for readiness (paper §3.3: "only the instructions in these
            // two entries are examined for readiness"); ready entries issue
            // oldest-first up to the BEU's functional units. Instructions
            // enter the window strictly in order.
            let mut ext_reads_left = cfg.ext_read_ports;
            #[allow(clippy::needless_range_loop)] // fifos[b] is mutated inside
            for b in 0..fifos.len() {
                let mut issued = 0u32;
                let mut int_reads_left = cfg.internal_read_ports;
                let mut widx = 0usize;
                while issued < cfg.fus_per_beu && widx < cfg.window_size as usize {
                    let Some(&seq) = fifos[b].get(widx).copied().as_ref() else { break };
                    debug_assert_eq!(eng.slot(seq).tag, b as u32, "slot in its BEU");
                    let ready = if clusters <= 1 {
                        eng.deps_ready(seq)
                    } else {
                        // Cross-cluster operands arrive late (paper §5.2).
                        let skip_value = eng.op(seq).is_store();
                        eng.slot(seq).deps.iter().enumerate().all(|(i, &d)| {
                            if (skip_value && i == 0) || d == crate::cores::common::NONE {
                                return true;
                            }
                            // A reused slot means the producer retired
                            // more than `reach` cycles ago: visible
                            // everywhere by now.
                            let Some(p) = eng.producer(d) else { return true };
                            if p.avail_at == crate::cores::common::NONE {
                                return false;
                            }
                            let extra = if p.tag != u32::MAX
                                && cluster_of(p.tag) != cluster_of(b as u32)
                            {
                                cfg.inter_cluster_delay
                            } else {
                                0
                            };
                            p.avail_at + extra <= eng.cycle
                        })
                    };
                    if !ready {
                        widx += 1;
                        continue;
                    }
                    let d = *eng.op(seq);
                    // Register-file read ports: internal per BEU, external
                    // global (the busy-bit vector tracks availability; the
                    // ports bound bandwidth).
                    let mut int_reads = 0u32;
                    let mut ext_reads = 0u32;
                    for (slot, &r) in d.srcs.iter().enumerate() {
                        if r == crate::predecode::NO_REG {
                            continue;
                        }
                        if d.is_t(slot) {
                            int_reads += 1;
                        } else {
                            ext_reads += 1;
                        }
                    }
                    if int_reads > int_reads_left || ext_reads > ext_reads_left {
                        widx += 1;
                        continue;
                    }
                    let writes_external = d.is_external();
                    let writes_internal = d.is_internal();
                    let beu = b;
                    let mut ext_delay = false;
                    let ok = eng.issue(seq, |_, complete| {
                        if writes_external {
                            // External results drain over the bypass network
                            // or through the external register file ports...
                            let t = if bypass.try_reserve(complete) {
                                complete
                            } else {
                                ext_wr.reserve_first_free(complete) + 2
                            };
                            // ...and stage through an external register
                            // file entry at writeback until the backing
                            // file absorbs them; a full file delays the
                            // value (Figure 6's sweep).
                            let start = ext_pool.alloc_earliest(t, 1 + DRAIN_CYCLES);
                            ext_delay = start > t;
                            start
                        } else if writes_internal {
                            // Internal results go straight to the BEU's
                            // internal register file.
                            int_wr[beu].reserve_first_free(complete)
                        } else {
                            complete
                        }
                    });
                    if ext_delay {
                        eng.report.stall_regs += 1;
                    }
                    if !ok {
                        // A load blocked on an older store; other window
                        // entries may still issue (the LSQ enforces memory
                        // order).
                        widx += 1;
                        continue;
                    }
                    fifos[b].remove(widx);
                    int_reads_left -= int_reads;
                    ext_reads_left -= ext_reads;
                    issued += 1;
                }
            }

            // Distribute: braids flow whole to the chosen BEU; a braid too
            // long for the remaining FIFO space stalls distribution (the
            // paper's Figure 10 effect). In exception mode everything goes
            // to BEU 0, making the machine strictly in-order; after the
            // excepting instruction retires, dispatch waits out the
            // handler.
            let mut dispatched = if eng.cycle < dispatch_stalled_until { cfg.common.width } else { 0 };
            let mut ext_allocs_left = cfg.alloc_ext_per_cycle;
            let mut renames_left = cfg.rename_src_per_cycle;
            while dispatched < cfg.common.width {
                let Some(f) = eng.queue.front().copied() else { break };
                if !eng.admit(&f) {
                    break;
                }
                let d = *eng.code.op(f.idx);
                // Allocation/rename bandwidth is consumed only by external
                // operands (paper §5.1).
                let ext_dest = d.is_external() as u32;
                let ext_srcs = d
                    .srcs
                    .iter()
                    .enumerate()
                    .filter(|&(slot, &r)| r != crate::predecode::NO_REG && !d.is_t(slot))
                    .count() as u32;
                if ext_dest > ext_allocs_left || ext_srcs > renames_left {
                    eng.report.stall_alloc_bw += 1;
                    break;
                }
                if exception_mode.is_some() {
                    current_beu = 0;
                } else if eng.program.insts[f.idx as usize].braid.start {
                    // Choose the BEU with the most free space (config
                    // validation guarantees at least one exists).
                    current_beu =
                        (0..fifos.len()).min_by_key(|&b| fifos[b].len()).unwrap_or(0);
                }
                if fifos[current_beu].len() >= cfg.fifo_entries as usize {
                    eng.report.stall_window += 1;
                    break;
                }
                eng.queue.pop_front();
                let seq = eng.dispatch_slot(&f, current_beu as u32);
                fifos[current_beu].push_back(seq);
                ext_allocs_left -= ext_dest;
                renames_left -= ext_srcs;
                dispatched += 1;
            }

            eng.fetch_phase();
            bypass.gc(eng.cycle.saturating_sub(64));
            ext_wr.gc(eng.cycle.saturating_sub(64));
            for w in &mut int_wr {
                w.gc(eng.cycle.saturating_sub(64));
            }
            if O::ENABLED {
                for (b, fifo) in fifos.iter().enumerate() {
                    eng.obs.unit_occupancy(b as u32, fifo.len() as u32);
                }
            }
            if !eng.advance() {
                let dump: Vec<String> = fifos
                    .iter()
                    .enumerate()
                    .map(|(b, fifo)| {
                        eng.describe_queue(&format!("beu{b}"), &mut fifo.iter().copied())
                    })
                    .chain(exception_mode.map(|e| format!("exception mode on seq {e}")))
                    .collect();
                return Err(eng.livelock("braid", dump));
            }
        }
        // Braid checkpoints save only external state (paper §3.4): the
        // external register file, not the internal files.
        let mut report = eng.finish(cfg.external_regs as u64);
        report.exceptions_taken = exceptions_taken;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::functional::Machine;
    use braid_compiler::{translate, TranslatorConfig};
    use braid_isa::asm::assemble;

    fn braid_trace(src: &str) -> (braid_isa::Program, Trace) {
        let p = assemble(src).unwrap();
        let t = translate(&p, &TranslatorConfig::default()).unwrap();
        let mut m = Machine::new(&t.program);
        let trace = m.run(&t.program, 1_000_000).unwrap();
        (t.program, trace)
    }

    fn perfect_config() -> BraidConfig {
        let mut c = BraidConfig::paper_default();
        c.common = CommonConfig::paper_8wide().perfect();
        c.common.mispredict_penalty = 19;
        c
    }

    const PARALLEL_LOOP: &str = r#"
        addi r0, #200, r1
    loop:
        addq r2, r1, r2
        addq r3, r1, r3
        addq r4, r1, r4
        addq r5, r1, r5
        subi r1, #1, r1
        bne  r1, loop
        halt
    "#;

    #[test]
    fn retires_everything() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let r = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
        assert!(r.ipc() > 1.0, "ipc {}", r.ipc());
    }

    #[test]
    fn zero_allocation_bandwidth_trips_the_watchdog() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let mut starved = perfect_config();
        starved.alloc_ext_per_cycle = 0;
        starved.common.watchdog_cycles = 500;
        match BraidCore::new(starved).run(&p, &t) {
            Err(SimError::Livelock(report)) => {
                assert_eq!(report.core, "braid");
                assert_eq!(report.watchdog_cycles, 500);
                let text = report.to_string();
                assert!(text.contains("livelock"), "{text}");
                assert!(!report.queues.is_empty(), "dump must list the BEU FIFOs");
            }
            other => panic!("expected livelock, got {other:?}"),
        }
    }

    #[test]
    fn impossible_config_is_rejected() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let mut bad = perfect_config();
        bad.beus = 0;
        assert!(matches!(BraidCore::new(bad).run(&p, &t), Err(SimError::Config(_))));
    }

    #[test]
    fn more_beus_help_parallel_braids() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let mut one = perfect_config();
        one.beus = 1;
        let r1 = BraidCore::new(one).run(&p, &t).expect("runs");
        let r8 = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(
            r8.ipc() > r1.ipc() * 1.3,
            "8 BEUs {} vs 1 BEU {}",
            r8.ipc(),
            r1.ipc()
        );
    }

    #[test]
    fn tiny_external_file_throttles() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let mut small = perfect_config();
        small.external_regs = 1;
        let r1 = BraidCore::new(small).run(&p, &t).expect("runs");
        let r8 = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r1.stall_regs > 0);
        assert!(r1.ipc() < r8.ipc(), "1 ext reg {} vs 8 {}", r1.ipc(), r8.ipc());
    }

    #[test]
    fn window_of_two_beats_window_of_one() {
        // Braids with two independent heads profit from a 2-entry window.
        let (p, t) = braid_trace(
            r#"
                addi r0, #300, r1
            loop:
                addq r2, r1, r3
                addq r2, r1, r4
                addq r3, r4, r2
                stq  r2, 0(r9)
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut w1 = perfect_config();
        w1.window_size = 1;
        let r1 = BraidCore::new(w1).run(&p, &t).expect("runs");
        let r2 = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        // Second-order issue-ordering effects can shave fractions of a
        // percent; the wider window must never *lose* materially.
        assert!(r2.ipc() >= r1.ipc() * 0.99, "w2 {} vs w1 {}", r2.ipc(), r1.ipc());
    }

    #[test]
    fn internal_values_skip_the_bypass_network() {
        // A long internal chain: external traffic stays low even with a
        // 1-value/cycle bypass.
        let (p, t) = braid_trace(
            r#"
                addi r0, #200, r1
            loop:
                addq r1, r1, r2
                addq r2, r1, r2
                addq r2, r1, r2
                addq r2, r1, r2
                stq  r2, 0(r9)
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut narrow = perfect_config();
        narrow.bypass_per_cycle = 1;
        let r_narrow = BraidCore::new(narrow).run(&p, &t).expect("runs");
        let r_full = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        let loss = 1.0 - r_narrow.ipc() / r_full.ipc();
        assert!(loss < 0.10, "narrow bypass costs {:.1}% with internal chains", loss * 100.0);
        assert!(r_full.external_values_per_cycle < 3.0);
    }

    #[test]
    fn long_braids_need_fifo_depth() {
        // One braid of ~24 dependent instructions: a 4-entry FIFO stalls
        // distribution (paper Figure 10).
        let mut body = String::from("addi r0, #100, r1\nloop:\n");
        body.push_str("addq r1, r1, r2\n");
        for _ in 0..22 {
            body.push_str("addq r2, r1, r2\n");
        }
        body.push_str("stq r2, 0(r9)\nsubi r1, #1, r1\nbne r1, loop\nhalt");
        let (p, t) = braid_trace(&body);
        let mut small = perfect_config();
        small.fifo_entries = 4;
        let r4 = BraidCore::new(small).run(&p, &t).expect("runs");
        let r32 = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        assert!(r4.ipc() <= r32.ipc());
        assert!(r4.stall_window > 0, "distribution stalled on FIFO space");
    }

    #[test]
    fn port_reservations_stay_bounded_on_long_runs() {
        // One BEU: every internal write books that BEU's write port, one
        // map entry per busy cycle unless the map is collected.
        let (p, t) = braid_trace(
            r#"
                addi r0, #20000, r1
            loop:
                addq r1, r1, r2
                addq r2, r1, r2
                addq r2, r1, r2
                stq  r2, 0(r9)
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        let mut one = perfect_config();
        one.beus = 1;
        crate::cores::common::PEAK_BOOKED_CYCLES.with(|p| p.set(0));
        let r = BraidCore::new(one).run(&p, &t).expect("runs");
        assert!(r.cycles > 20_000, "long enough to overflow an uncollected map");
        let peak = crate::cores::common::PEAK_BOOKED_CYCLES.with(|p| p.get());
        assert!(peak <= 4096 + 256, "a port map grew to {peak} booked cycles");
    }

    #[test]
    fn checkpoints_are_smaller_than_conventional() {
        let (p, t) = braid_trace(PARALLEL_LOOP);
        let r = BraidCore::new(perfect_config()).run(&p, &t).expect("runs");
        let branches = 200;
        assert_eq!(r.checkpoint_words, branches * 8);
    }
}

#[cfg(test)]
mod exception_tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::functional::Machine;
    use braid_compiler::{translate, TranslatorConfig};
    use braid_isa::asm::assemble;

    fn braid_trace(src: &str) -> (braid_isa::Program, Trace) {
        let p = assemble(src).unwrap();
        let t = translate(&p, &TranslatorConfig::default()).unwrap();
        let mut m = Machine::new(&t.program);
        let trace = m.run(&t.program, 1_000_000).unwrap();
        (t.program, trace)
    }

    fn perfect_config() -> BraidConfig {
        let mut c = BraidConfig::paper_default();
        c.common = CommonConfig::paper_8wide().perfect();
        c.common.mispredict_penalty = 19;
        c
    }

    const LOOP: &str = r#"
        addi r0, #300, r1
    loop:
        addq r2, r1, r2
        addq r3, r1, r3
        addq r4, r1, r4
        subi r1, #1, r1
        bne  r1, loop
        halt
    "#;

    #[test]
    fn exceptions_still_retire_everything() {
        let (p, t) = braid_trace(LOOP);
        let core = BraidCore::new(perfect_config());
        let r = core
            .run_with_exceptions(&p, &mut t.entries.as_slice(), &[100, 500, 900], 200)
            .expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
        assert_eq!(r.exceptions_taken, 3);
    }

    #[test]
    fn exceptions_cost_cycles() {
        let (p, t) = braid_trace(LOOP);
        let core = BraidCore::new(perfect_config());
        let clean = core.run(&p, &t).expect("runs");
        let excepted = core
            .run_with_exceptions(&p, &mut t.entries.as_slice(), &[300, 600], 500)
            .expect("runs");
        assert!(
            excepted.cycles > clean.cycles + 800,
            "two 500-cycle handlers plus in-order episodes: {} vs {}",
            excepted.cycles,
            clean.cycles
        );
        assert_eq!(excepted.exceptions_taken, 2);
    }

    #[test]
    fn out_of_range_exceptions_are_ignored() {
        let (p, t) = braid_trace(LOOP);
        let core = BraidCore::new(perfect_config());
        let r = core
            .run_with_exceptions(&p, &mut t.entries.as_slice(), &[u64::MAX - 1], 100)
            .expect("runs");
        assert_eq!(r.exceptions_taken, 0);
        assert_eq!(r.instructions, t.len() as u64);
    }

    #[test]
    fn paper_simplicity_over_speed() {
        // §3.4: "simplicity was chosen over speed" — an exception-heavy run
        // on the braid machine costs real time even with a free handler.
        let (p, t) = braid_trace(LOOP);
        let core = BraidCore::new(perfect_config());
        let clean = core.run(&p, &t).expect("runs");
        let every: Vec<u64> = (0..t.len() as u64).step_by(200).collect();
        let r = core
            .run_with_exceptions(&p, &mut t.entries.as_slice(), &every, 0)
            .expect("runs");
        assert_eq!(r.instructions, t.len() as u64);
        assert!(r.cycles > clean.cycles, "{} vs {}", r.cycles, clean.cycles);
    }
}

#[cfg(test)]
mod cluster_tests {
    use super::*;
    use crate::config::CommonConfig;
    use crate::functional::Machine;
    use braid_compiler::{translate, TranslatorConfig};
    use braid_isa::asm::assemble;

    #[test]
    fn clustering_trades_latency_for_wiring() {
        // Chains that communicate across braids through external values:
        // cross-cluster synchronization costs cycles (paper §5.2).
        let src = r#"
            addi r0, #500, r1
        loop:
            addq r2, r1, r2
            addq r2, r3, r3
            addq r3, r4, r4
            addq r4, r5, r5
            subi r1, #1, r1
            bne  r1, loop
            halt
        "#;
        let p = assemble(src).unwrap();
        let t = translate(&p, &TranslatorConfig::default()).unwrap();
        let mut m = Machine::new(&t.program);
        let trace = m.run(&t.program, 1_000_000).unwrap();

        let mut flat = BraidConfig::paper_default();
        flat.common = CommonConfig::paper_8wide().perfect();
        flat.common.mispredict_penalty = 19;
        let mut clustered = flat.clone();
        clustered.clusters = 4;
        clustered.inter_cluster_delay = 4;

        let rf = BraidCore::new(flat).run(&t.program, &trace).expect("runs");
        let rc = BraidCore::new(clustered).run(&t.program, &trace).expect("runs");
        assert_eq!(rf.instructions, rc.instructions);
        assert!(
            rc.ipc() <= rf.ipc(),
            "cross-cluster delays cannot speed things up: {} vs {}",
            rc.ipc(),
            rf.ipc()
        );
    }

    #[test]
    fn single_cluster_is_identical_to_flat() {
        let p = assemble("addi r0, #50, r1\nloop: addq r2, r1, r2\nsubi r1, #1, r1\nbne r1, loop\nhalt").unwrap();
        let t = translate(&p, &TranslatorConfig::default()).unwrap();
        let mut m = Machine::new(&t.program);
        let trace = m.run(&t.program, 100_000).unwrap();
        let mut a = BraidConfig::paper_default();
        a.common = CommonConfig::paper_8wide().perfect();
        let mut b = a.clone();
        b.clusters = 1;
        b.inter_cluster_delay = 99;
        let ra = BraidCore::new(a).run(&t.program, &trace).expect("runs");
        let rb = BraidCore::new(b).run(&t.program, &trace).expect("runs");
        assert_eq!(ra.cycles, rb.cycles);
    }
}
