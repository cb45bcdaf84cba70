//! The shared aggressive front end (paper Table 4, common parameters).
//!
//! Fetches up to `width` instructions per cycle, crossing up to 3 branches,
//! through the L1 instruction cache, with perceptron (or perfect) branch
//! prediction and a return-address stack. A mispredicted control transfer
//! stops fetch; the owning core calls [`Frontend::resolve_branch`] when the
//! branch executes, and fetch resumes after the configured misprediction
//! penalty (23 cycles conventional, 19 in the braid machine).

use braid_isa::{Opcode, Program};
use braid_uarch::branch::{
    BranchPredictor, BranchTargetBuffer, GsharePredictor, PerceptronPredictor, PerfectPredictor,
    ReturnAddressStack,
};

use crate::config::PredictorKind;
use braid_uarch::cache::{Access, MemoryHierarchy};
use braid_uarch::stats::Ratio;

use crate::config::CommonConfig;
use crate::trace::{TraceEntry, TraceSource};

/// Base address of the simulated text segment (instruction fetch
/// addresses), chosen away from workload data.
pub const TEXT_BASE: u64 = 0x4000_0000;

/// Bytes per instruction in the simulated text segment.
pub const INST_BYTES: u64 = 8;

/// Entries pulled from the trace source per refill of the fetch window
/// (1.5 MiB of entries). Large enough that a short program is produced
/// whole by the first refill, so its producer can release the functional
/// state before timing starts.
const REFILL_CHUNK: usize = 1 << 16;

/// Why fetch is currently not delivering instructions (CPI attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchGap {
    /// Fetch can deliver (or the stall reason has expired).
    None,
    /// Blocked on an unresolved misprediction, refilling after one, or
    /// recovering from a rewind / BTB bubble.
    Mispredict,
    /// Waiting for an instruction-cache miss to return.
    ICache,
    /// The stream is exhausted; nothing left to fetch.
    Done,
}

/// One fetched dynamic instruction handed to the core.
#[derive(Debug, Clone, Copy)]
pub struct Fetched {
    /// Dynamic sequence number (position in the trace).
    pub seq: u64,
    /// Static instruction index.
    pub idx: u32,
    /// Memory effective address (from the trace), `0` for non-memory.
    pub addr: u64,
    /// Whether this control transfer was mispredicted at fetch.
    pub mispredicted: bool,
}

/// The fetch engine.
///
/// Fetch reads the committed stream through a window of entries
/// `[base, base + window.len())`, refilled from the source in chunks. The
/// window keeps every entry from the oldest unretired instruction on (see
/// [`Frontend::release`]), so a checkpoint [`Frontend::rewind`] to that
/// instruction always finds its entries. Invariant: `pos < base +
/// window.len()` unless the source is exhausted, which makes
/// [`Frontend::done`] exact.
pub struct Frontend<'a> {
    program: &'a Program,
    source: &'a mut dyn TraceSource,
    /// The buffered part of the stream, starting at sequence `base`.
    window: Vec<TraceEntry>,
    /// Sequence number of `window[0]`.
    base: u64,
    /// Entries below this sequence number are never fetched again.
    keep_from: u64,
    /// The source returned nothing on its last refill.
    exhausted: bool,
    /// Sequence number of the next entry to fetch.
    pos: u64,
    /// Fetch may not proceed before this cycle (misprediction refill or
    /// I-cache miss).
    resume_at: u64,
    /// Sequence number of the unresolved mispredicted branch gating fetch.
    blocked_on: Option<u64>,
    penalty: u64,
    width: u32,
    max_branches: u32,
    perfect: bool,
    predictor: Box<dyn BranchPredictor>,
    oracle: PerfectPredictor,
    ras: ReturnAddressStack,
    btb: Option<BranchTargetBuffer>,
    mispredict_stall_from: u64,
    /// Cycles spent stalled on misprediction refills.
    pub mispredict_stall_cycles: u64,
    /// Why `resume_at` is in the future (CPI attribution).
    resume_reason: FetchGap,
}

impl<'a> Frontend<'a> {
    /// Creates a front end over the committed stream of `program` that
    /// `source` supplies.
    pub fn new(
        program: &'a Program,
        source: &'a mut dyn TraceSource,
        config: &CommonConfig,
    ) -> Frontend<'a> {
        let mut fe = Frontend {
            program,
            source,
            window: Vec::new(),
            base: 0,
            keep_from: 0,
            exhausted: false,
            pos: 0,
            resume_at: 0,
            blocked_on: None,
            penalty: config.mispredict_penalty,
            width: config.width,
            max_branches: config.max_branches_per_cycle,
            perfect: config.perfect_branch_predictor,
            predictor: match config.predictor {
                PredictorKind::Perceptron => {
                    Box::new(PerceptronPredictor::paper_default()) as Box<dyn BranchPredictor>
                }
                PredictorKind::Gshare => Box::new(GsharePredictor::classic_4k()),
            },
            oracle: PerfectPredictor::new(),
            ras: ReturnAddressStack::new(32),
            btb: if config.btb_entries > 0 && !config.perfect_branch_predictor {
                Some(BranchTargetBuffer::new(config.btb_entries))
            } else {
                None
            },
            mispredict_stall_from: 0,
            mispredict_stall_cycles: 0,
            resume_reason: FetchGap::None,
        };
        fe.refill();
        fe
    }

    /// One past the last sequence number pulled from the source so far.
    pub fn produced(&self) -> u64 {
        self.base + self.window.len() as u64
    }

    /// Whether the source has ended: [`Frontend::produced`] is then the
    /// length of the whole stream.
    pub fn exhausted(&self) -> bool {
        self.exhausted
    }

    /// Whether the source has ended and every entry it produced has been
    /// fetched.
    pub fn done(&self) -> bool {
        self.exhausted && self.pos >= self.produced()
    }

    /// Lets the window drop entries below `seq` (the oldest unretired
    /// instruction) at its next refill.
    pub fn release(&mut self, seq: u64) {
        self.keep_from = seq;
    }

    /// Drops released entries and pulls the next chunk from the source.
    fn refill(&mut self) {
        let dropped = self.keep_from.min(self.pos) - self.base;
        self.window.drain(..dropped as usize);
        self.base += dropped;
        let before = self.window.len();
        self.source.fill(&mut self.window, REFILL_CHUNK);
        self.exhausted = self.window.len() == before;
    }

    /// The earliest cycle at which fetch could make progress again.
    pub fn next_event(&self) -> Option<u64> {
        if self.done() || self.blocked_on.is_some() {
            None
        } else {
            Some(self.resume_at)
        }
    }

    /// Rewinds fetch to trace position `pos` (checkpoint recovery), which
    /// must not lie below the last [`Frontend::release`]. The predictor
    /// state is kept — replayed branches train twice, a minor artifact of
    /// trace-driven replay.
    pub fn rewind(&mut self, pos: u64, cycle: u64) {
        debug_assert!(pos >= self.keep_from, "rewind below the released window");
        self.pos = pos;
        self.blocked_on = None;
        self.resume_at = self.resume_at.max(cycle);
        self.resume_reason = FetchGap::Mispredict;
    }

    /// Why fetch is not delivering at `cycle` ([`FetchGap::None`] when it
    /// can, or when the last recorded reason has expired).
    pub fn stall_kind(&self, cycle: u64) -> FetchGap {
        if self.blocked_on.is_some() {
            FetchGap::Mispredict
        } else if self.done() {
            FetchGap::Done
        } else if cycle < self.resume_at {
            self.resume_reason
        } else {
            FetchGap::None
        }
    }

    /// Notifies the front end that the mispredicted branch `seq` resolved
    /// at `cycle`; fetch resumes after the misprediction penalty.
    pub fn resolve_branch(&mut self, seq: u64, cycle: u64) {
        if self.blocked_on == Some(seq) {
            self.blocked_on = None;
            self.resume_at = self.resume_at.max(cycle + self.penalty);
            self.resume_reason = FetchGap::Mispredict;
            self.mispredict_stall_cycles +=
                self.resume_at.saturating_sub(self.mispredict_stall_from);
        }
    }

    /// Conditional-branch prediction accuracy so far.
    pub fn branch_accuracy(&self) -> Ratio {
        if self.perfect {
            self.oracle.accuracy()
        } else {
            self.predictor.accuracy()
        }
    }

    /// Return-target prediction accuracy so far.
    pub fn ras_accuracy(&self) -> Ratio {
        self.ras.accuracy()
    }

    /// Fetches up to `room` instructions in `cycle` (bounded by the fetch
    /// width, the 3-branch limit, I-cache misses, and mispredictions),
    /// allocating a fresh buffer. Prefer [`Frontend::fetch_into`] on hot
    /// paths.
    pub fn fetch(&mut self, cycle: u64, mem: &mut MemoryHierarchy, room: usize) -> Vec<Fetched> {
        let mut out = Vec::new();
        self.fetch_into(cycle, mem, room, &mut out);
        out
    }

    /// Like [`Frontend::fetch`], but appends into the caller-owned `out`
    /// buffer (cleared first) so the per-cycle loop allocates nothing.
    pub fn fetch_into(
        &mut self,
        cycle: u64,
        mem: &mut MemoryHierarchy,
        room: usize,
        out: &mut Vec<Fetched>,
    ) {
        out.clear();
        if cycle < self.resume_at || self.blocked_on.is_some() {
            return;
        }
        let l1i_latency = mem.config().l1i.latency;
        let mut branches = 0;
        while out.len() < room.min(self.width as usize) && self.pos < self.produced() {
            let entry = self.window[(self.pos - self.base) as usize];
            let inst = &self.program.insts[entry.idx as usize];
            // Instruction cache: a miss delays the rest of fetch.
            let lat = mem.access(Access::Fetch, TEXT_BASE + entry.idx as u64 * INST_BYTES);
            if lat > l1i_latency {
                self.resume_at = cycle + (lat - l1i_latency);
                self.resume_reason = FetchGap::ICache;
                // The missing instruction itself is fetched when the line
                // arrives.
                break;
            }
            let mut mispredicted = false;
            let op = inst.opcode;
            if op.is_branch() {
                if branches >= self.max_branches {
                    break;
                }
                branches += 1;
                if op.is_cond_branch() {
                    let pc = entry.idx as u64;
                    let (pred, actual) = if self.perfect {
                        self.oracle.set_oracle(entry.taken);
                        (self.oracle.predict(pc), entry.taken)
                    } else {
                        (self.predictor.predict(pc), entry.taken)
                    };
                    if self.perfect {
                        self.oracle.update(pc, actual, pred);
                    } else {
                        self.predictor.update(pc, actual, pred);
                    }
                    mispredicted = pred != actual;
                } else if op == Opcode::Call {
                    self.ras.push(entry.idx as u64 + 1);
                } else if op == Opcode::Ret {
                    let predicted = self.ras.pop_predict();
                    let correct = predicted == Some(entry.next_idx as u64);
                    self.ras.record(correct);
                    mispredicted = !correct;
                }
            }
            // A taken direct transfer needs its target from the BTB on the
            // same cycle; a BTB miss ends the group with a refetch bubble.
            let mut btb_bubble = false;
            if let Some(btb) = self.btb.as_mut() {
                if entry.taken && !op.is_indirect() && op.is_branch() {
                    let hit = btb.predict(entry.idx as u64) == Some(entry.next_idx as u64);
                    btb.update(entry.idx as u64, entry.next_idx as u64);
                    if !hit && !mispredicted {
                        btb_bubble = true;
                    }
                }
            }
            out.push(Fetched {
                seq: self.pos,
                idx: entry.idx,
                addr: entry.addr,
                mispredicted,
            });
            self.pos += 1;
            if self.pos == self.produced() && !self.exhausted {
                self.refill();
            }
            if btb_bubble {
                self.resume_at = self.resume_at.max(cycle + 2);
                self.resume_reason = FetchGap::Mispredict;
                break;
            }
            if mispredicted {
                // Fetch is down the wrong path from here; stall until the
                // core resolves this branch.
                self.blocked_on = Some(self.pos - 1);
                self.mispredict_stall_from = cycle + 1;
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;
    use braid_uarch::cache::MemoryHierarchyConfig;

    fn setup(src: &str) -> (braid_isa::Program, crate::trace::Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn straight_line_fetches_width_per_cycle() {
        let (p, t) = setup("nop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nnop\nhalt");
        let cfg = CommonConfig::paper_8wide().perfect();
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let g1 = fe.fetch(0, &mut mem, 64);
        assert_eq!(g1.len(), 8);
        let g2 = fe.fetch(1, &mut mem, 64);
        assert_eq!(g2.len(), 2);
        assert!(fe.done());
    }

    #[test]
    fn perfect_mode_never_mispredicts() {
        let (p, t) = setup(
            "addi r0, #50, r1\nloop: subi r1, #1, r1\nbne r1, loop\nhalt",
        );
        let cfg = CommonConfig::paper_8wide().perfect();
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let mut cycle = 0;
        let mut fetched = 0;
        while !fe.done() {
            let g = fe.fetch(cycle, &mut mem, 64);
            for f in &g {
                assert!(!f.mispredicted);
            }
            fetched += g.len();
            cycle += 1;
        }
        assert_eq!(fetched, t.len());
        assert_eq!(fe.branch_accuracy().rate(), 1.0);
    }

    #[test]
    fn branch_limit_caps_group() {
        // 5 taken branches in a row: at most 3 per fetch group.
        let (p, t) = setup(
            "br a\na: br b\nb: br c\nc: br d\nd: br e\ne: halt",
        );
        let cfg = CommonConfig::paper_8wide().perfect();
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let g = fe.fetch(0, &mut mem, 64);
        assert_eq!(g.len(), 3, "three branches max per cycle");
    }

    #[test]
    fn misprediction_blocks_until_resolution() {
        // One loop iteration: the perceptron predictor starts cold and the
        // final not-taken bne is mispredicted after warmup on taken.
        let (p, t) = setup(
            "addi r0, #64, r1\nloop: subi r1, #1, r1\nbne r1, loop\nhalt",
        );
        let mut cfg = CommonConfig::paper_8wide();
        cfg.perfect_branch_predictor = false;
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let mut cycle = 0;
        let mut got = Vec::new();
        let mut resolved_pending: Option<(u64, u64)> = None;
        while !fe.done() && cycle < 10_000 {
            if let Some((seq, at)) = resolved_pending {
                if cycle >= at {
                    fe.resolve_branch(seq, cycle);
                    resolved_pending = None;
                }
            }
            let g = fe.fetch(cycle, &mut mem, 64);
            for f in &g {
                if f.mispredicted {
                    resolved_pending = Some((f.seq, cycle + 3));
                }
            }
            got.extend(g);
            cycle += 1;
        }
        assert_eq!(got.len(), t.len(), "everything fetched eventually");
        assert!(fe.branch_accuracy().misses() >= 1);
        assert!(fe.mispredict_stall_cycles >= 19);
    }

    #[test]
    fn ras_predicts_returns() {
        let (p, t) = setup(
            r#"
                call f, r31
                call f, r31
                halt
            f:  ret r31
            "#,
        );
        let cfg = CommonConfig::paper_8wide().perfect();
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::perfect());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let mut cycle = 0;
        while !fe.done() && cycle < 100 {
            for f in fe.fetch(cycle, &mut mem, 64) {
                assert!(!f.mispredicted, "RAS covers matched call/ret");
            }
            cycle += 1;
        }
        assert_eq!(fe.ras_accuracy().rate(), 1.0);
    }

    #[test]
    fn icache_miss_delays_fetch() {
        let (p, t) = setup("nop\nnop\nhalt");
        let cfg = CommonConfig::paper_8wide().perfect();
        // Real (cold) caches: first access misses to memory.
        let mut mem = MemoryHierarchy::new(MemoryHierarchyConfig::default());
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        assert!(fe.fetch(0, &mut mem, 64).is_empty(), "cold I-cache miss");
        let resume = fe.next_event().unwrap();
        assert!(resume > 300, "miss to memory takes ~400 cycles");
        assert!(fe.fetch(resume - 1, &mut mem, 64).is_empty());
        assert_eq!(fe.fetch(resume, &mut mem, 64).len(), 3);
    }
}

#[cfg(test)]
mod btb_gshare_tests {
    use super::*;
    use crate::config::PredictorKind;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;
    use braid_uarch::cache::MemoryHierarchyConfig;

    fn setup(src: &str) -> (braid_isa::Program, crate::trace::Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 100_000).unwrap();
        (p, t)
    }

    #[test]
    fn btb_cold_miss_bubbles_then_hits() {
        let (p, t) = setup("addi r0, #20, r1\nloop: subi r1, #1, r1\nbne r1, loop\nhalt");
        let mut cfg = CommonConfig::paper_8wide();
        cfg.perfect_branch_predictor = false;
        cfg.mem = MemoryHierarchyConfig::perfect();
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let mut mem = braid_uarch::cache::MemoryHierarchy::new(cfg.mem);
        let mut cycle = 0;
        let mut pending: Option<(u64, u64)> = None;
        let mut fetched = 0;
        while !fe.done() && cycle < 10_000 {
            if let Some((seq, at)) = pending {
                if cycle >= at {
                    fe.resolve_branch(seq, cycle);
                    pending = None;
                }
            }
            for f in fe.fetch(cycle, &mut mem, 64) {
                fetched += 1;
                if f.mispredicted {
                    pending = Some((f.seq, cycle + 3));
                }
            }
            cycle += 1;
        }
        assert_eq!(fetched, t.len(), "everything fetched despite BTB bubbles");
    }

    #[test]
    fn gshare_frontend_runs() {
        let (p, t) = setup("addi r0, #500, r1\nloop: subi r1, #1, r1\nbne r1, loop\nhalt");
        let mut cfg = CommonConfig::paper_8wide();
        cfg.perfect_branch_predictor = false;
        cfg.predictor = PredictorKind::Gshare;
        cfg.mem = MemoryHierarchyConfig::perfect();
        let mut src = t.entries.as_slice();
        let mut fe = Frontend::new(&p, &mut src, &cfg);
        let mut mem = braid_uarch::cache::MemoryHierarchy::new(cfg.mem);
        let mut cycle = 0;
        let mut pending: Option<(u64, u64)> = None;
        while !fe.done() && cycle < 10_000 {
            if let Some((seq, at)) = pending {
                if cycle >= at {
                    fe.resolve_branch(seq, cycle);
                    pending = None;
                }
            }
            for f in fe.fetch(cycle, &mut mem, 64) {
                if f.mispredicted {
                    pending = Some((f.seq, cycle + 3));
                }
            }
            cycle += 1;
        }
        assert!(fe.done());
        assert!(fe.branch_accuracy().rate() > 0.8, "{}", fe.branch_accuracy());
    }
}
