//! Machinery shared by all execution-core models.

use std::collections::VecDeque;

use braid_isa::{Inst, Program};
use braid_uarch::cache::{Access, MemoryHierarchy};
use braid_uarch::lsq::{LoadStoreQueue, LsqOutcome};

use crate::config::CommonConfig;
use crate::error::{LivelockReport, SimError};
use crate::frontend::{FetchGap, Fetched, Frontend};
use crate::obs::{NoopObserver, Observer, StallCause};
use crate::predecode::{DecodedOp, PreDecoded, NO_REG};
use crate::report::SimReport;
use crate::trace::TraceSource;

/// Default for [`CommonConfig::watchdog_cycles`]: the longest legitimate
/// retirement gap is a few hundred cycles (a memory-latency chain plus a
/// misprediction repair), so twenty thousand quiet cycles mean livelock.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 20_000;

/// Sentinel for "no producer / not yet known".
pub const NONE: u64 = u64::MAX;

/// Per-dynamic-instruction timing state.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// Static instruction index.
    pub idx: u32,
    /// Effective address for memory operations.
    pub addr: u64,
    /// Whether fetch mispredicted this control transfer.
    pub mispredicted: bool,
    /// Producer sequence numbers (sources + implicit cmov read).
    pub deps: [u64; 3],
    /// Cycle the result becomes visible to consumers ([`NONE`] until known).
    pub avail_at: u64,
    /// Cycle the instruction may retire ([`NONE`] until known).
    pub done_at: u64,
    /// Pipeline state flags.
    pub dispatched: bool,
    /// The instruction has left its scheduler/FIFO.
    pub issued: bool,
    /// Core-specific tag (scheduler id, BEU id, FIFO id, ...).
    pub tag: u32,
    /// The instruction holds an in-flight register-buffer entry, freed at
    /// retirement.
    pub holds_reg: bool,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            idx: 0,
            addr: 0,
            mispredicted: false,
            deps: [NONE; 3],
            avail_at: NONE,
            done_at: NONE,
            dispatched: false,
            issued: false,
            tag: u32::MAX,
            holds_reg: false,
        }
    }
}

/// Per-cycle bandwidth with reservations into the future (bypass slots,
/// register-file ports).
///
/// Grants are counted in a ring based at the collection horizon: `used[i]`
/// is cycle `base + i`. Every reservation is at or after the current
/// cycle, which never falls below the horizon, so the ring spans only the
/// collected margin plus the furthest reservation ahead.
#[derive(Debug, Clone)]
pub struct Bandwidth {
    per_cycle: u32,
    used: VecDeque<u32>,
    base: u64,
}

impl Bandwidth {
    /// Creates a resource offering `per_cycle` grants each cycle.
    ///
    /// # Panics
    ///
    /// Panics if `per_cycle` is zero.
    pub fn new(per_cycle: u32) -> Bandwidth {
        assert!(per_cycle > 0, "bandwidth must be positive");
        Bandwidth { per_cycle, used: VecDeque::new(), base: 0 }
    }

    /// Reserves one grant in exactly `cycle` (at or after the last
    /// [`Bandwidth::gc`] horizon); `false` when saturated.
    pub fn try_reserve(&mut self, cycle: u64) -> bool {
        debug_assert!(cycle >= self.base, "reservation at {cycle} below horizon {}", self.base);
        let i = cycle.saturating_sub(self.base) as usize;
        if i >= self.used.len() {
            self.used.resize(i + 1, 0);
        }
        let u = &mut self.used[i];
        let granted = *u < self.per_cycle;
        if granted {
            *u += 1;
        }
        #[cfg(test)]
        PEAK_BOOKED_CYCLES.with(|p| p.set(p.get().max(self.used.len())));
        granted
    }

    /// Reserves a grant in the first cycle `>= from` with capacity.
    pub fn reserve_first_free(&mut self, from: u64) -> u64 {
        let mut c = from;
        while !self.try_reserve(c) {
            c += 1;
        }
        c
    }

    /// Drops bookkeeping for cycles before `before`, which becomes the
    /// horizon: later reservations must be at or after it.
    pub fn gc(&mut self, before: u64) {
        if before > self.base {
            let n = (before - self.base).min(self.used.len() as u64) as usize;
            self.used.drain(..n);
            self.base = before;
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Longest reservation ring any [`Bandwidth`] on this thread has held —
    /// lets tests prove every core collects its ports.
    pub(crate) static PEAK_BOOKED_CYCLES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Timing-slot ring length for `config`: the in-flight window, the fetch
/// queue (`4 × width`), and a margin of `width × (reach + 1)` retired
/// producers, where `reach` is how many cycles after retirement a core may
/// still read a producer's slot. Depends on the configuration only, never
/// on run length.
pub fn ring_len(config: &CommonConfig, reach: u64) -> usize {
    let width = config.width as u64;
    (config.window as u64 + 4 * width + width * (reach + 1)).next_power_of_two() as usize
}

/// A pool of value-buffer entries booked for fixed spans (the braid
/// external register file) with per-entry release times.
#[derive(Debug, Clone)]
pub struct RegPool {
    /// Cycle at which each slot frees (`0` = free now).
    slots: Vec<u64>,
}

impl RegPool {
    /// Creates a pool of `n` entries, all free.
    pub fn new(n: u32) -> RegPool {
        RegPool { slots: vec![0; n as usize] }
    }

    /// Books the earliest available slot at or after `from`, holding it for
    /// `hold` cycles; returns the cycle at which the slot was granted.
    /// An empty pool (rejected by config validation) grants immediately.
    pub fn alloc_earliest(&mut self, from: u64, hold: u64) -> u64 {
        let Some((i, &free_at)) = self.slots.iter().enumerate().min_by_key(|&(_, &t)| t) else {
            return from;
        };
        let start = from.max(free_at);
        self.slots[i] = start + hold;
        start
    }
}

/// What the memory system says about a load that wants to issue.
pub enum LoadGate {
    /// May access the cache.
    Go,
    /// Value forwarded from a store; no cache access.
    Forward,
    /// Blocked behind an older store.
    Wait,
}

/// Snapshot of the stall-event counters at the last time step, so the CPI
/// attribution can tell which stalls happened *this* cycle.
#[derive(Debug, Clone, Copy, Default)]
struct StallMark {
    window: u64,
    regs: u64,
    lsq: u64,
    alloc_bw: u64,
    lsq_wait: u64,
}

/// The common simulation frame: front end, memory system, in-flight window
/// and retirement. Each core drives this with its own dispatch/issue logic.
///
/// Timing state lives in a power-of-two ring of [`Slot`]s indexed by
/// `seq & mask` (see [`ring_len`]), so memory is bounded by the
/// configuration whatever the run length. A slot is reused once its
/// instruction has retired and the sequence number `ring_len` above it is
/// dispatched; reads of a retired producer go through
/// [`Engine::producer_avail`] or [`Engine::producer`], which never return a
/// reused slot's contents.
///
/// Generic over an [`Observer`]: the default [`NoopObserver`] monomorphizes
/// every event hook away, so uninstrumented runs pay nothing.
pub struct Engine<'a, O: Observer = NoopObserver> {
    /// The simulated program.
    pub program: &'a Program,
    /// Predecoded static instructions (the hot-path instruction cache,
    /// keyed by static index — see [`crate::predecode`]).
    pub code: PreDecoded,
    /// Fetch engine (owns the window over the committed stream).
    pub frontend: Frontend<'a>,
    /// Cache hierarchy.
    pub mem: MemoryHierarchy,
    /// Load-store queue.
    pub lsq: LoadStoreQueue,
    /// Timing-slot ring, indexed by `seq & mask`.
    slots: Vec<Slot>,
    mask: u64,
    /// Oldest unretired sequence number.
    pub head: u64,
    /// Next sequence number to dispatch.
    pub next_dispatch: u64,
    /// Decoupling buffer between fetch and dispatch.
    pub queue: VecDeque<Fetched>,
    /// Current cycle.
    pub cycle: u64,
    /// Whether any pipeline event happened this cycle.
    pub progress: bool,
    /// Aggregated statistics.
    pub report: SimReport,
    /// Maximum in-flight instructions.
    pub window: usize,
    /// Machine width.
    pub width: u32,
    /// Register writer table for dependence construction.
    last_writer: [u64; 64],
    /// Values produced with an external destination (report statistic).
    pub external_values: u64,
    /// Branches retired (sizes the checkpoint statistic).
    branches: u64,
    /// Stores that issued address generation but whose data producer had
    /// not yet computed its availability time.
    pending_stores: Vec<u64>,
    /// During checkpoint replay, sequence numbers below this were already
    /// dispatched once: their dependence links are reused and the writer
    /// table is not touched.
    replay_until: u64,
    /// Cycle of the most recent retirement, watched by [`Engine::advance`].
    last_retire_cycle: u64,
    /// No-retire-progress threshold before the run aborts as livelocked.
    watchdog_cycles: u64,
    /// Simulated-cycle budget before the run aborts with
    /// [`SimError::Deadline`] (`0` = unlimited).
    deadline_cycles: u64,
    /// Reusable fetch output buffer (no per-cycle allocation).
    fetch_scratch: Vec<Fetched>,
    /// Host wall-clock at construction, for throughput counters.
    started: std::time::Instant,
    /// Pipeline event sink (see [`crate::obs`]).
    pub obs: &'a mut O,
    /// Whether [`Engine::retire_phase`] retired anything this cycle (CPI
    /// attribution; cleared by [`Engine::advance`]).
    retired_this_cycle: bool,
    /// Stall counters as of the previous time step (CPI attribution).
    stall_mark: StallMark,
}

impl<'a, O: Observer> Engine<'a, O> {
    /// Builds the frame for the committed stream of `program` that `source`
    /// supplies, under `config`, sending pipeline events to `obs`. `reach`
    /// is how many cycles after retirement the core may still read a
    /// producer's slot (see [`ring_len`]). `warm`, when given, stands in
    /// for the cold caches (a sampled window's warmed checkpoint).
    pub fn new(
        program: &'a Program,
        source: &'a mut dyn TraceSource,
        config: &CommonConfig,
        reach: u64,
        obs: &'a mut O,
        warm: Option<MemoryHierarchy>,
    ) -> Engine<'a, O> {
        // Started before the front end pulls its first chunk, so host time
        // covers trace production as well as timing.
        let started = std::time::Instant::now();
        let ring = ring_len(config, reach);
        Engine {
            program,
            code: PreDecoded::new(program),
            frontend: Frontend::new(program, source, config),
            mem: warm.unwrap_or_else(|| MemoryHierarchy::new(config.mem)),
            lsq: {
                let mut lsq = LoadStoreQueue::new(config.lsq_entries);
                lsq.set_conservative(config.conservative_disambiguation);
                lsq
            },
            slots: vec![Slot::default(); ring],
            mask: ring as u64 - 1,
            head: 0,
            next_dispatch: 0,
            queue: VecDeque::new(),
            cycle: 0,
            progress: false,
            report: SimReport::default(),
            window: config.window,
            width: config.width,
            last_writer: [NONE; 64],
            external_values: 0,
            branches: 0,
            pending_stores: Vec::new(),
            replay_until: 0,
            last_retire_cycle: 0,
            watchdog_cycles: if config.watchdog_cycles == 0 {
                DEFAULT_WATCHDOG_CYCLES
            } else {
                config.watchdog_cycles
            },
            deadline_cycles: config.deadline_cycles,
            fetch_scratch: Vec::with_capacity(4 * config.width as usize),
            started,
            obs,
            retired_this_cycle: false,
            stall_mark: StallMark::default(),
        }
    }

    /// The timing slot of in-flight sequence number `seq`.
    #[inline]
    pub fn slot(&self, seq: u64) -> &Slot {
        &self.slots[(seq & self.mask) as usize]
    }

    /// Mutable access to the timing slot of in-flight sequence number `seq`.
    #[inline]
    pub fn slot_mut(&mut self, seq: u64) -> &mut Slot {
        &mut self.slots[(seq & self.mask) as usize]
    }

    /// The slot of producer `d` — in flight, or retired but not yet reused
    /// — or `None` once a younger instruction has taken it over. The ring
    /// margin of [`ring_len`] guarantees that a slot is reused only more
    /// than `reach` cycles after its instruction retired.
    pub fn producer(&self, d: u64) -> Option<&Slot> {
        // Every sequence number below this has been dispatched at least
        // once (checkpoint replay moves `next_dispatch` back, not this).
        let dispatched = self.next_dispatch.max(self.replay_until);
        (d + self.mask + 1 >= dispatched).then(|| self.slot(d))
    }

    /// The cycle producer `d`'s value becomes visible. A producer below
    /// `head` has retired, and retirement implies `avail_at <= done_at <=
    /// cycle`, so its slot is not consulted: it answers 0, "long visible",
    /// which every caller treats exactly as any past cycle.
    #[inline]
    pub fn producer_avail(&self, d: u64) -> u64 {
        if d < self.head {
            0
        } else {
            self.slot(d).avail_at
        }
    }

    /// The static instruction behind sequence number `seq`.
    pub fn inst(&self, seq: u64) -> &'a Inst {
        &self.program.insts[self.slot(seq).idx as usize]
    }

    /// The predecoded form of the instruction behind sequence number `seq`
    /// (the hot-path alternative to [`Engine::inst`]).
    #[inline]
    pub fn op(&self, seq: u64) -> &DecodedOp {
        self.code.op(self.slot(seq).idx)
    }

    /// Instructions currently in flight.
    pub fn in_flight(&self) -> usize {
        (self.next_dispatch - self.head) as usize
    }

    /// Whether the source is exhausted and everything it produced has
    /// retired.
    pub fn finished(&self) -> bool {
        self.frontend.exhausted() && self.head >= self.frontend.produced()
    }

    /// Fills the decoupling buffer from the front end, reusing the
    /// engine-owned scratch buffer (no per-cycle allocation).
    pub fn fetch_phase(&mut self) {
        let room = (4 * self.width as usize).saturating_sub(self.queue.len());
        if room == 0 {
            return;
        }
        self.frontend.release(self.head);
        self.frontend.fetch_into(self.cycle, &mut self.mem, room, &mut self.fetch_scratch);
        if !self.fetch_scratch.is_empty() {
            self.progress = true;
            if O::ENABLED {
                for f in &self.fetch_scratch {
                    self.obs.fetch(f.seq, f.idx, self.cycle);
                }
            }
            self.queue.extend(self.fetch_scratch.drain(..));
        }
    }

    /// Common dispatch admission checks (window and LSQ capacity). Returns
    /// `false` (and counts the stall) when the instruction cannot enter.
    pub fn admit(&mut self, f: &Fetched) -> bool {
        if self.in_flight() >= self.window {
            self.report.stall_window += 1;
            return false;
        }
        if self.code.op(f.idx).is_mem() && !self.lsq.has_space() {
            self.report.stall_lsq += 1;
            return false;
        }
        true
    }

    /// The producer sequence numbers `f` would depend on if dispatched now
    /// (used by dependence-based steering before committing to a FIFO).
    pub fn peek_deps(&self, f: &Fetched) -> [u64; 3] {
        let d = self.code.op(f.idx);
        let mut deps = [NONE; 3];
        for (i, &r) in d.srcs.iter().enumerate() {
            if r != NO_REG {
                deps[i] = self.last_writer[r as usize];
            }
        }
        if d.reads_dest != NO_REG {
            deps[2] = self.last_writer[d.reads_dest as usize];
        }
        deps
    }

    /// Records the dispatch of `f`: builds its dependence links, inserts
    /// the LSQ entry, and advances the window tail. Returns the sequence
    /// number.
    ///
    /// During checkpoint replay the previously-computed dependence links
    /// are reused (program order fixes them) and the writer table is left
    /// alone, so post-replay dispatches see consistent producers.
    pub fn dispatch_slot(&mut self, f: &Fetched, tag: u32) -> u64 {
        let seq = f.seq;
        debug_assert_eq!(seq, self.next_dispatch, "in-order dispatch");
        let d = *self.code.op(f.idx);
        let replaying = seq < self.replay_until;
        let deps = if replaying {
            self.slot(seq).deps
        } else {
            let mut deps = [NONE; 3];
            for (i, &r) in d.srcs.iter().enumerate() {
                if r != NO_REG {
                    deps[i] = self.last_writer[r as usize];
                }
            }
            if d.reads_dest != NO_REG {
                deps[2] = self.last_writer[d.reads_dest as usize];
            }
            if d.dest != NO_REG {
                self.last_writer[d.dest as usize] = seq;
            }
            deps
        };
        if d.is_mem() {
            self.lsq.insert(seq, d.is_store(), f.addr, d.mem_bytes as u64);
        }
        *self.slot_mut(seq) = Slot {
            idx: f.idx,
            addr: f.addr,
            mispredicted: f.mispredicted,
            deps,
            tag,
            dispatched: true,
            ..Slot::default()
        };
        self.next_dispatch += 1;
        self.progress = true;
        if O::ENABLED {
            self.obs.dispatch(seq, f.idx, tag, self.cycle);
        }
        seq
    }

    /// Checkpoint rollback: squashes every unretired instruction, rewinds
    /// fetch to the oldest unretired sequence number, and marks the
    /// squashed range for dependence-link replay.
    pub fn squash_to_head(&mut self) {
        for seq in self.head..self.next_dispatch {
            let s = self.slot_mut(seq);
            s.dispatched = false;
            s.issued = false;
            s.avail_at = NONE;
            s.done_at = NONE;
            s.tag = u32::MAX;
            s.holds_reg = false;
        }
        self.replay_until = self.replay_until.max(self.next_dispatch);
        self.next_dispatch = self.head;
        self.lsq.flush();
        self.pending_stores.clear();
        self.queue.clear();
        self.frontend.rewind(self.head, self.cycle + 1);
        self.progress = true;
        if O::ENABLED {
            self.obs.squash(self.cycle);
        }
    }

    /// Whether every register producer `seq` needs *to issue* has its value
    /// available. Stores issue at address generation: only the base (and
    /// the implicit cmov read) gate issue; the data may arrive later.
    pub fn deps_ready(&self, seq: u64) -> bool {
        let skip_value = self.op(seq).is_store();
        self.slot(seq).deps.iter().enumerate().all(|(i, &d)| {
            (skip_value && i == 0) || d == NONE || self.producer_avail(d) <= self.cycle
        })
    }

    /// Memory-ordering gate for a load about to issue.
    pub fn load_gate(&self, seq: u64) -> LoadGate {
        let s = self.slot(seq);
        let bytes = self.code.op(s.idx).mem_bytes as u64;
        match self.lsq.load_outcome(seq, s.addr, bytes, self.cycle) {
            LsqOutcome::Ready => LoadGate::Go,
            LsqOutcome::Forwarded { .. } => LoadGate::Forward,
            LsqOutcome::WaitOn { .. } => LoadGate::Wait,
        }
    }

    /// Issues `seq` at the current cycle and computes its completion.
    ///
    /// `ext_avail` maps the raw completion cycle to the cycle consumers see
    /// the value (bypass/port modelling, supplied by the core).
    ///
    /// Returns `false` if the instruction is a load that must wait on the
    /// LSQ (nothing is recorded in that case).
    pub fn issue(&mut self, seq: u64, ext_avail: impl FnOnce(&mut Self, u64) -> u64) -> bool {
        let op = *self.op(seq);
        let cycle = self.cycle;
        let (avail, done) = if op.is_load() {
            let lat = match self.load_gate(seq) {
                LoadGate::Wait => {
                    self.report.lsq_wait_events += 1;
                    return false;
                }
                LoadGate::Forward => {
                    self.report.forwarded_loads += 1;
                    2
                }
                LoadGate::Go => {
                    let addr = self.slot(seq).addr;
                    1 + self.mem.access_at(Access::Load, addr, cycle)
                }
            };
            let complete = cycle + lat;
            let avail = ext_avail(self, complete);
            (avail, avail)
        } else if op.is_store() {
            // Address generation issues as soon as the base is ready; the
            // data arrives when the value producer completes.
            let addr = self.slot(seq).addr;
            let bytes = op.mem_bytes as u64;
            self.lsq.set_address(seq, addr, bytes);
            let agen_done = cycle + 1;
            let value_dep = self.slot(seq).deps[0];
            let data_at = if value_dep == NONE {
                agen_done
            } else {
                let avail = self.producer_avail(value_dep);
                if avail == NONE {
                    // Producer not issued yet: finalize later.
                    self.pending_stores.push(seq);
                    NONE
                } else {
                    agen_done.max(avail)
                }
            };
            if data_at != NONE {
                self.lsq.set_data_at(seq, data_at);
            }
            (agen_done, data_at.max(agen_done))
        } else {
            let complete = cycle + op.latency as u64;
            let avail = if op.has_dest() {
                ext_avail(self, complete)
            } else {
                complete
            };
            (avail, avail.max(complete))
        };
        let s = self.slot_mut(seq);
        s.issued = true;
        s.avail_at = avail;
        s.done_at = done;
        let mispredicted = s.mispredicted;
        if O::ENABLED {
            self.obs.issue(seq, cycle, avail, done);
        }
        if op.is_branch() {
            let resolve = cycle + 1;
            if mispredicted {
                self.frontend.resolve_branch(seq, resolve);
            }
        }
        if op.is_external() {
            self.external_values += 1;
        }
        self.progress = true;
        true
    }

    /// Finalizes stores whose data producers have computed availability.
    pub fn resolve_pending_stores(&mut self) {
        let mut resolved = false;
        let slots = &mut self.slots;
        let mask = self.mask;
        let head = self.head;
        let lsq = &mut self.lsq;
        let obs = &mut *self.obs;
        self.pending_stores.retain(|&seq| {
            let value_dep = slots[(seq & mask) as usize].deps[0];
            debug_assert_ne!(value_dep, NONE);
            // The producer issued after the store and is resolved here, at
            // the first retire phase after it issued — before it can
            // retire, so its slot is live.
            debug_assert!(value_dep >= head, "pending store outlived its producer");
            let avail = slots[(value_dep & mask) as usize].avail_at;
            if avail == NONE {
                return true;
            }
            let store = &mut slots[(seq & mask) as usize];
            let data_at = store.avail_at.max(avail);
            store.done_at = data_at;
            lsq.set_data_at(seq, data_at);
            if O::ENABLED {
                obs.store_data(seq, data_at);
            }
            resolved = true;
            false
        });
        if resolved {
            self.progress = true;
        }
    }

    /// Retires completed instructions in order, up to the machine width.
    /// `on_retire` runs per retired sequence number (for core-specific
    /// resource frees).
    pub fn retire_phase(&mut self, mut on_retire: impl FnMut(&mut Engine<'a, O>, u64)) {
        self.resolve_pending_stores();
        let mut n = 0;
        while n < self.width && self.head < self.next_dispatch {
            let seq = self.head;
            let s = self.slot(seq);
            debug_assert!(s.dispatched, "retiring an undispatched slot");
            if !s.issued || s.done_at > self.cycle {
                break;
            }
            let addr = s.addr;
            let op = *self.code.op(s.idx);
            if op.is_branch() {
                self.branches += 1;
            }
            if op.is_mem() {
                if op.is_store() {
                    self.mem.access(Access::Store, addr);
                }
                self.lsq.retire(seq);
            }
            on_retire(self, seq);
            if O::ENABLED {
                self.obs.retire(seq, self.cycle);
            }
            self.head += 1;
            self.report.instructions += 1;
            self.last_retire_cycle = self.cycle;
            self.retired_this_cycle = true;
            n += 1;
            self.progress = true;
        }
    }

    /// Classifies the cycle that just ended (CPI attribution; see
    /// [`crate::obs`] for the priority rules). Returns the cause and the
    /// static index of the oldest in-flight instruction (`u32::MAX` for an
    /// empty window) for hotspot profiles.
    fn classify_cycle(&self) -> (StallCause, u32) {
        let in_flight = self.head < self.next_dispatch;
        let head_idx = if in_flight { self.slot(self.head).idx } else { u32::MAX };
        if self.retired_this_cycle {
            return (StallCause::Base, head_idx);
        }
        // Oldest-first: a load miss holding retirement outranks the
        // secondary dispatch pressure it causes.
        if in_flight {
            let s = self.slot(self.head);
            if s.issued && s.done_at > self.cycle && self.code.op(s.idx).is_load() {
                return (StallCause::DCache, head_idx);
            }
        }
        let r = &self.report;
        let m = &self.stall_mark;
        let cause = if r.lsq_wait_events > m.lsq_wait || r.stall_lsq > m.lsq {
            StallCause::Lsq
        } else if r.stall_regs > m.regs {
            StallCause::Regs
        } else if r.stall_window > m.window {
            StallCause::WindowFull
        } else if r.stall_alloc_bw > m.alloc_bw {
            StallCause::AllocBw
        } else if in_flight {
            // Executing a non-load at the head, or serialized behind
            // scheduler order / dependence chains.
            StallCause::BeuSerial
        } else {
            match self.frontend.stall_kind(self.cycle) {
                FetchGap::Mispredict => StallCause::MispredictRefill,
                FetchGap::ICache => StallCause::ICache,
                // Dispatch gated without a counted stall (exception
                // handler episodes) while fetched work waits.
                FetchGap::None | FetchGap::Done if !self.queue.is_empty() => {
                    StallCause::BeuSerial
                }
                FetchGap::None | FetchGap::Done => StallCause::EmptyFrontend,
            }
        };
        (cause, head_idx)
    }

    /// Advances time: one cycle after progress, otherwise straight to the
    /// next known event. Every cycle stepped over is attributed to exactly
    /// one [`StallCause`] in the report's CPI stack (an event-free span
    /// inherits the classification of its opening cycle — nothing changes
    /// mid-span, or it would have been progress). Returns `false` when the
    /// no-retire-progress watchdog trips — the caller should abort with
    /// [`Engine::livelock`], attaching its scheduler-state dump.
    pub fn advance(&mut self) -> bool {
        // Classify before moving time: the span inherits the state of its
        // opening cycle (`done_at > cycle` comparisons must not see the
        // fast-forwarded clock).
        let (cause, head_idx) = self.classify_cycle();
        let from = self.cycle;
        if self.progress {
            self.cycle += 1;
        } else {
            let mut next = NONE;
            for seq in self.head..self.next_dispatch {
                let s = self.slot(seq);
                if s.issued {
                    if s.avail_at > self.cycle {
                        next = next.min(s.avail_at);
                    }
                    if s.done_at > self.cycle {
                        next = next.min(s.done_at);
                    }
                }
            }
            if let Some(t) = self.frontend.next_event() {
                if t > self.cycle {
                    next = next.min(t);
                }
            }
            self.cycle = if next == NONE { self.cycle + 1 } else { next };
        }
        self.report.cpi.add(cause, self.cycle - from);
        if O::ENABLED {
            self.obs.cycle_cause(from, self.cycle - from, cause, head_idx);
            self.obs.lsq_occupancy(self.lsq.len() as u32);
        }
        self.retired_this_cycle = false;
        self.stall_mark = StallMark {
            window: self.report.stall_window,
            regs: self.report.stall_regs,
            lsq: self.report.stall_lsq,
            alloc_bw: self.report.stall_alloc_bw,
            lsq_wait: self.report.lsq_wait_events,
        };
        self.progress = false;
        !self.deadline_elapsed() && self.cycle - self.last_retire_cycle <= self.watchdog_cycles
    }

    /// Whether the simulated-cycle deadline (if any) has elapsed.
    fn deadline_elapsed(&self) -> bool {
        self.deadline_cycles > 0 && self.cycle >= self.deadline_cycles
    }

    /// Builds the abort error after [`Engine::advance`] returned `false`:
    /// a [`SimError::Deadline`] when the cycle budget elapsed, otherwise a
    /// [`SimError::Livelock`]. `queues` is the core's own view of its stuck
    /// schedulers (BEU FIFO contents, busy bits, ...) — the engine cannot
    /// see it.
    pub fn livelock(&self, core: &'static str, queues: Vec<String>) -> SimError {
        if self.deadline_elapsed() {
            return SimError::Deadline {
                cycle: self.cycle,
                deadline_cycles: self.deadline_cycles,
                retired: self.report.instructions,
            };
        }
        SimError::Livelock(Box::new(LivelockReport {
            core,
            cycle: self.cycle,
            last_retire_cycle: self.last_retire_cycle,
            watchdog_cycles: self.watchdog_cycles,
            retired: self.report.instructions,
            head: self.head,
            in_flight: self.in_flight() as u64,
            fetch_queue: self.queue.len(),
            queues,
        }))
    }

    /// One dump line for a scheduler/FIFO: occupancy plus the head entry's
    /// identity and why it has not issued.
    pub fn describe_queue(&self, name: &str, entries: &mut dyn Iterator<Item = u64>) -> String {
        let seqs: Vec<u64> = entries.collect();
        match seqs.first() {
            None => format!("{name}: empty"),
            Some(&head) => {
                let s = self.slot(head);
                let waiting: Vec<u64> = s
                    .deps
                    .iter()
                    .copied()
                    .filter(|&d| d != NONE && self.producer_avail(d) > self.cycle)
                    .collect();
                format!(
                    "{name}: {} entries, head seq {head} (inst {} `{}`) issued={} deps-waiting={waiting:?}",
                    seqs.len(),
                    s.idx,
                    self.inst(head),
                    s.issued,
                )
            }
        }
    }

    /// Finalizes the report after the run loop ends.
    pub fn finish(mut self, checkpoint_words_per_branch: u64) -> SimReport {
        self.report.cycles = self.cycle.max(1);
        // The attribution loop charged exactly `cycle` cycles; an empty
        // trace (cycle 0 clamped to 1) leaves a residue, charged to the
        // empty front end so the stack still sums to `cycles`.
        let attributed = self.report.cpi.total();
        debug_assert!(attributed == self.cycle, "CPI stack {attributed} != cycle {}", self.cycle);
        if attributed < self.report.cycles {
            self.report.cpi.add(StallCause::EmptyFrontend, self.report.cycles - attributed);
        }
        self.report.host_nanos = self.started.elapsed().as_nanos() as u64;
        self.report.retire_slots = self.report.cycles * self.width as u64;
        self.report.branch_accuracy = self.frontend.branch_accuracy();
        self.report.ras_accuracy = self.frontend.ras_accuracy();
        let (l1i, l1d, l2) = self.mem.stats();
        self.report.l1i = l1i.hits;
        self.report.l1d = l1d.hits;
        self.report.l2 = l2.hits;
        self.report.mispredict_stall_cycles = self.frontend.mispredict_stall_cycles;
        self.report.external_values_per_cycle =
            self.external_values as f64 / self.report.cycles as f64;
        self.report.checkpoint_words = self.branches * checkpoint_words_per_branch;
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_defaults() {
        let s = Slot::default();
        assert!(!s.dispatched && !s.issued);
        assert_eq!(s.tag, u32::MAX);
        assert!(!s.holds_reg);
        assert_eq!(s.avail_at, NONE);
    }

    #[test]
    fn bandwidth_reservations() {
        let mut b = Bandwidth::new(2);
        assert!(b.try_reserve(5));
        assert!(b.try_reserve(5));
        assert!(!b.try_reserve(5));
        assert!(b.try_reserve(6));
        assert_eq!(b.reserve_first_free(5), 6, "cycle 5 full, 6 has one left");
        assert_eq!(b.reserve_first_free(5), 7);
        b.gc(100);
        assert!(b.used.is_empty(), "everything before the horizon is dropped");
    }

    #[test]
    fn bandwidth_reservation_far_ahead_survives_gc() {
        let mut b = Bandwidth::new(1);
        assert!(b.try_reserve(1500));
        assert_eq!(b.used.len(), 1501);
        b.gc(1400);
        assert_eq!(b.used.len(), 101, "only the horizon onwards is kept");
        assert!(!b.try_reserve(1500), "the far reservation is still booked");
        assert_eq!(b.reserve_first_free(1500), 1501);
        b.gc(2000);
        assert!(b.used.is_empty());
        assert!(b.try_reserve(1500 + 600));
    }

    #[test]
    fn bandwidth_reservation_at_the_horizon() {
        let mut b = Bandwidth::new(2);
        assert!(b.try_reserve(10));
        b.gc(10);
        assert!(b.try_reserve(10), "the horizon cycle keeps its count");
        assert!(!b.try_reserve(10));
        b.gc(11);
        assert!(b.try_reserve(11));
        assert!(b.try_reserve(11));
        assert!(!b.try_reserve(11));
    }

    #[test]
    fn bandwidth_ring_is_bounded_by_the_reservation_distance() {
        // Each cycle books up to `reach` cycles ahead and collects 64
        // behind, as the cores do: the ring spans the 64 collected cycles,
        // the current one and `reach` ahead, however long the run.
        let reach = 300u64;
        let mut b = Bandwidth::new(2);
        let mut longest = 0;
        for cycle in 0..1_000_000u64 {
            b.reserve_first_free(cycle + cycle * 7919 % (reach - 2));
            b.gc(cycle.saturating_sub(64));
            longest = longest.max(b.used.len());
        }
        assert!(longest as u64 <= 64 + 1 + reach, "ring grew to {longest}");
    }

    #[test]
    fn ring_length_depends_on_the_config_only() {
        use crate::trace::TraceEntry;
        let program = braid_isa::asm::assemble("nop\nhalt").expect("assembles");
        let nop = TraceEntry { idx: 0, next_idx: 1, addr: 0, taken: false };
        let config = CommonConfig::paper_8wide();
        let ring = |n: usize| {
            let entries = vec![nop; n];
            let mut source = entries.as_slice();
            let mut obs = NoopObserver;
            let eng = Engine::new(&program, &mut source, &config, 4, &mut obs, None);
            eng.slots.len()
        };
        assert_eq!(ring(10), ring(100_000));
        assert_eq!(ring(10), ring_len(&config, 4));
        assert!(ring_len(&config, 4).is_power_of_two());
        assert!(ring_len(&config, 4) >= config.window + 4 * 8 + 8 * 5);
    }

    #[test]
    fn regpool_books_the_earliest_free_slot() {
        let mut p = RegPool::new(2);
        assert_eq!(p.alloc_earliest(10, 5), 10);
        assert_eq!(p.alloc_earliest(10, 5), 10);
        assert_eq!(p.alloc_earliest(10, 5), 15, "both slots held until 15");
        assert_eq!(p.alloc_earliest(30, 5), 30);
    }
}
