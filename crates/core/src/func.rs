//! Two-tier execution: a fast functional interpreter and sampled timing.
//!
//! Full cycle-level simulation interrogates every dynamic instruction many
//! times per cycle; the functional tier here retires the same instruction
//! stream with **no pipeline structures at all**, dispatching straight over
//! the per-program [`PreDecoded`] table plus a small side table of
//! immediates and branch targets ([`FuncTable`]). Execution is basic-block
//! batched: control flow is only examined at block terminators, so the
//! straight-line interior of a block runs in a tight loop with no pc or
//! halt checks. The target (asserted in `tests/functional_tier.rs`) is
//! ≥10× the instruction throughput of the in-order timing core.
//!
//! Its memory is hybrid dense/sparse: addresses below 64 MiB live in one
//! flat vector, higher ones in the golden model's paged [`Memory`], where
//! a word within one 4 KiB page costs one page lookup and one copy. The
//! synthetic suite's arrays sit at 256 MiB and up, so their loads and
//! stores take the sparse path (DESIGN.md §13).
//!
//! On top of the fast interpreter sits the **sampled-timing driver**
//! (reached through [`run_tier`](crate::processor::run_tier)): fast-forward
//! functionally — warming a memory hierarchy architecturally as every
//! instruction retires — and for every sampling period record a trace
//! window (warm-up + sample), replay it on the real timing core from the
//! warmed checkpoint, and count its measured cycles directly. Only the
//! *untimed* remainder of a period is extrapolated, and there warm-up
//! exclusion is exact under deterministic simulation: the window is timed
//! twice — warm-up prefix alone, then warm-up + sample — and the
//! extrapolation rate is the marginal `(full − prefix) / sample`, free of
//! cold-pipeline bias.
//!
//! The driver is a two-stage pipeline (SMARTS, Wunderlich et al., ISCA
//! 2003, with TurboSMARTS-style live points, Wenisch et al., SIGMETRICS
//! 2005, kept in memory). One scoped helper thread executes, warms and
//! follows the interval schedule; it hands each window over with its own
//! checkpoint of the warm hierarchy, then the interval's length once the
//! fast-forward ends. The calling thread times the windows and folds the
//! intervals into the estimate in order, so the report and the error
//! returned are those of a sequential run. The queue between the stages
//! holds two messages, and timed checkpoints and window buffers go back
//! to the producer to be refilled, so memory stays bounded by the
//! configuration. There is one helper and no knob: the two stages already
//! keep a 2-core host busy, and a second timing worker measured no faster
//! while it raised peak memory (DESIGN.md §13).
//!
//! The schedule has two phases. Intervals that start within the first
//! two periods time back-to-back windows, so short programs
//! (every kernel and `ln_*` nest) are measured wall to wall and only
//! window-boundary effects (pipeline fill/drain, replay-order cache
//! divergence) remain, bounded well under the 5% error budget asserted in
//! `tests/functional_tier.rs`. After that point each period times one
//! window and extrapolates the rest, and the report carries a 95%
//! confidence interval on the extrapolated cycles
//! ([`SampledReport::ci95_cycles`]).
//!
//! Correctness is locked down in layers:
//!
//! * [`ArchSnapshot`] captures the architectural state (registers, memory
//!   deltas as non-zero pages, pc, retired count) of either executor, so
//!   differential tests compare the two byte for byte.
//! * In debug builds (or with [`SamplingConfig::lockstep`] set) the
//!   sampled driver steps the reference interpreter — the same golden
//!   model `braid-verify`'s oracle wraps — alongside the fast one and
//!   compares snapshots at every interval boundary, panicking with a
//!   field-level diff on the first divergence.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::fmt;
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use braid_isa::{Opcode, Program, Reg};
use braid_uarch::cache::{Access, MemoryHierarchy, MemoryHierarchyConfig};

use crate::error::SimError;
use crate::frontend::{INST_BYTES, TEXT_BASE};
use crate::functional::{ExecError, Machine, Memory, PAGE_SIZE};
use crate::obs::{CpiStack, NoopObserver, StallCause};
use crate::predecode::{DecodedOp, PreDecoded, NO_REG};
use crate::processor::{CoreConfig, RunError};
use crate::report::SimReport;
use crate::trace::TraceEntry;

// ---------------------------------------------------------------- tiers --

/// Execution tier: how much timing fidelity a run pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Tier {
    /// Full cycle-level timing simulation over the whole trace.
    #[default]
    Full,
    /// Functional execution only — no timing, maximum host throughput.
    Func,
    /// Functional fast-forward with timing over sampled intervals;
    /// IPC and the CPI stack are extrapolated estimates.
    Sampled,
}

impl Tier {
    /// Every tier, in canonical order.
    pub const ALL: [Tier; 3] = [Tier::Full, Tier::Func, Tier::Sampled];

    /// Stable machine-readable name (CLI flags, protocol fields, digests).
    pub fn name(self) -> &'static str {
        match self {
            Tier::Full => "full",
            Tier::Func => "func",
            Tier::Sampled => "sampled",
        }
    }

    /// Parses a tier name as accepted by `--tier` and the braidd protocol.
    pub fn parse(s: &str) -> Option<Tier> {
        Tier::ALL.into_iter().find(|t| t.name() == s)
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

// ------------------------------------------------------------- sampling --

/// Knobs of the sampled-timing tier.
///
/// Execution is divided into intervals. At the start of each interval the
/// driver records [`SamplingConfig::warmup`] + [`SamplingConfig::sample`]
/// instructions of trace (each window extended to the next braid boundary
/// so the braid core never sees a trace that starts or stops mid-braid),
/// times them on the real core, and fast-forwards the remainder of the
/// interval functionally, extrapolating its cycles.
///
/// Interval length follows a two-phase schedule ([`SamplingConfig::period_at`]):
///
/// * **Dense phase.** An interval that starts within the first
///   `2 × period` instructions is exactly one window long, so windows run
///   back to back and nothing is extrapolated. Program start-up (init
///   loops, cold caches, the first pass over the data) is where a sparse
///   sample is least representative, and every short program stays
///   measured wall to wall (64K instructions at the defaults).
/// * **Sparse phase.** From then on an interval is
///   [`SamplingConfig::period`] instructions: one timed window, the rest
///   fast-forwarded with functional warming and extrapolated at the
///   window's marginal post-warm-up rate. The defaults time 4K of every
///   32K instructions (12.5%).
///
/// A period no longer than the window times every instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SamplingConfig {
    /// Instructions per sparse-phase interval (timed window + untimed
    /// remainder).
    pub period: u64,
    /// Timed warm-up instructions at the window start. Their cycles are
    /// excluded from the extrapolation rate used for the untimed rest of
    /// the period (they carry the window's pipeline-fill cost), but they
    /// do count toward the measured window itself.
    pub warmup: u64,
    /// Timed instructions whose cycles set the extrapolation rate.
    pub sample: u64,
    /// Step the reference interpreter in lockstep and compare
    /// [`ArchSnapshot`]s at every interval boundary (defaults to on in
    /// debug builds). Purely a validation aid — never changes results.
    pub lockstep: bool,
}

/// Length of the sampled tier's dense phase, in periods: intervals that
/// start before `DENSE_PERIODS × period` are timed back to back.
const DENSE_PERIODS: u64 = 2;

impl Default for SamplingConfig {
    fn default() -> SamplingConfig {
        SamplingConfig {
            period: 32_768,
            warmup: 512,
            sample: 3_584,
            lockstep: cfg!(debug_assertions),
        }
    }
}

impl SamplingConfig {
    /// Rejects degenerate configurations (zero period or sample).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] with the offending knob.
    pub fn validate(&self) -> Result<(), SimError> {
        if self.period == 0 {
            return Err(SimError::Config("sampling period must be at least 1".into()));
        }
        if self.sample == 0 {
            return Err(SimError::Config("sample length must be at least 1".into()));
        }
        Ok(())
    }

    /// Length of the interval that starts at dynamic instruction `start`:
    /// one window (warm-up + sample) in the dense phase — the first two
    /// periods — and `period` after.
    pub fn period_at(&self, start: u64) -> u64 {
        if start < self.period.saturating_mul(DENSE_PERIODS) {
            self.warmup.saturating_add(self.sample)
        } else {
            self.period
        }
    }

    /// Stable key fragment for cache digests: every knob that changes
    /// sampled results (lockstep never does, so it is excluded). The `d2`
    /// tag names the two-phase schedule, so results cached under the
    /// earlier one-phase schedule are refused rather than reused.
    pub fn digest_key(&self) -> String {
        format!("sp{}:sw{}:sl{}:d{DENSE_PERIODS}", self.period, self.warmup, self.sample)
    }
}

// ------------------------------------------------------------ snapshots --

/// Architectural state at an instruction boundary: the external register
/// file, memory deltas (every non-zero 4 KiB page), pc and retired count.
///
/// Snapshots are the currency of the differential test layer: the fast
/// interpreter, the reference interpreter and (transitively, through the
/// trace) the timing cores must all agree on them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSnapshot {
    /// Program counter (static instruction index).
    pub pc: u64,
    /// Dynamic instructions retired.
    pub retired: u64,
    /// External register file, indexed by [`Reg::index`].
    pub regs: [u64; 64],
    /// Non-zero memory pages as `(page index, contents)`, sorted.
    pub pages: Vec<(u64, Box<[u8; PAGE_SIZE]>)>,
}

impl ArchSnapshot {
    /// Snapshots the reference interpreter.
    pub fn of_machine(m: &Machine) -> ArchSnapshot {
        ArchSnapshot {
            pc: m.pc(),
            retired: m.executed(),
            regs: *m.regs(),
            pages: m.mem.nonzero_pages(),
        }
    }

    /// FNV-1a digest over the whole snapshot (order-stable, so equal
    /// snapshots always digest equally across hosts).
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.pc.to_le_bytes());
        eat(&self.retired.to_le_bytes());
        for r in self.regs {
            eat(&r.to_le_bytes());
        }
        for (idx, page) in &self.pages {
            eat(&idx.to_le_bytes());
            eat(page.as_slice());
        }
        h
    }

    /// Human-readable first divergence against `other`, or `None` when the
    /// snapshots are byte-identical.
    pub fn divergence(&self, other: &ArchSnapshot) -> Option<String> {
        if self.retired != other.retired {
            return Some(format!("retired {} vs {}", self.retired, other.retired));
        }
        if self.pc != other.pc {
            return Some(format!("pc {} vs {}", self.pc, other.pc));
        }
        for i in 0..64 {
            if self.regs[i] != other.regs[i] {
                return Some(format!(
                    "register index {i}: {:#x} vs {:#x}",
                    self.regs[i], other.regs[i]
                ));
            }
        }
        if self.pages.len() != other.pages.len() {
            return Some(format!(
                "{} non-zero pages vs {}",
                self.pages.len(),
                other.pages.len()
            ));
        }
        for ((ia, pa), (ib, pb)) in self.pages.iter().zip(&other.pages) {
            if ia != ib {
                return Some(format!("page index {ia} vs {ib}"));
            }
            if let Some(off) = (0..PAGE_SIZE).find(|&k| pa[k] != pb[k]) {
                return Some(format!(
                    "memory byte {:#x}: {:#x} vs {:#x}",
                    ia * PAGE_SIZE as u64 + off as u64,
                    pa[off],
                    pb[off]
                ));
            }
        }
        None
    }
}

// ------------------------------------------------------------ fast memory --

/// Flat boundary: addresses below this live in one contiguous vector (one
/// bounds check per access); higher addresses live in the sparse paged
/// [`Memory`] (one page lookup per access within a page). Page-aligned so
/// a page never straddles the boundary. Raising it or moving the
/// synthetic arrays below it would change the addresses the timing cores
/// see, and with them every cycle count.
const LOW_CAP: u64 = 1 << 26; // 64 MiB

/// Hybrid memory for the fast tier: dense low range, sparse high range.
/// Semantics are byte-identical to [`Memory`] (zero-filled, wrapping). A
/// word that straddles `LOW_CAP` or wraps past `u64::MAX` goes byte by
/// byte, since its bytes live in both ranges.
#[derive(Debug, Clone, Default)]
struct FlatMem {
    low: Vec<u8>,
    high: Memory,
}

impl FlatMem {
    #[inline]
    fn read_u8(&self, addr: u64) -> u8 {
        if addr < LOW_CAP {
            self.low.get(addr as usize).copied().unwrap_or(0)
        } else {
            self.high.read_u8(addr)
        }
    }

    #[cold]
    fn grow_low(&mut self, end: usize) {
        let want = end.max(self.low.len().saturating_mul(2)).min(LOW_CAP as usize);
        let want = want.div_ceil(PAGE_SIZE) * PAGE_SIZE;
        self.low.resize(want.max(end), 0);
    }

    #[inline]
    fn write_u8(&mut self, addr: u64, b: u8) {
        if addr < LOW_CAP {
            let a = addr as usize;
            if a >= self.low.len() {
                self.grow_low(a + 1);
            }
            self.low[a] = b;
        } else {
            self.high.write_u8(addr, b);
        }
    }

    /// Reads `N` little-endian bytes (wrapping address space).
    #[inline]
    fn read<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0u8; N];
        if addr <= LOW_CAP - N as u64 {
            let a = addr as usize;
            if a < self.low.len() {
                let take = N.min(self.low.len() - a);
                out[..take].copy_from_slice(&self.low[a..a + take]);
            }
        } else if (LOW_CAP..=u64::MAX - (N as u64 - 1)).contains(&addr) {
            out = self.high.read_bytes(addr);
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    /// Writes `N` little-endian bytes (wrapping address space).
    #[inline]
    fn write<const N: usize>(&mut self, addr: u64, bytes: [u8; N]) {
        if addr <= LOW_CAP - N as u64 {
            let a = addr as usize;
            if a + N > self.low.len() {
                self.grow_low(a + N);
            }
            self.low[a..a + N].copy_from_slice(&bytes);
        } else if (LOW_CAP..=u64::MAX - (N as u64 - 1)).contains(&addr) {
            self.high.write_bytes(addr, &bytes);
        } else {
            for (i, &b) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), b);
            }
        }
    }

    /// Writes `bytes` at `addr` (wrapping address space): one copy when
    /// they fit the flat low range, page by page when they lie wholly in
    /// the sparse high range (the synthetic suite's arrays).
    fn write_slice(&mut self, addr: u64, bytes: &[u8]) {
        match addr.checked_add(bytes.len() as u64) {
            Some(end) if end <= LOW_CAP => {
                let (a, end) = (addr as usize, end as usize);
                if end > self.low.len() {
                    self.grow_low(end);
                }
                self.low[a..end].copy_from_slice(bytes);
            }
            Some(_) if addr >= LOW_CAP => self.high.write_bytes(addr, bytes),
            _ => {
                for (i, &b) in bytes.iter().enumerate() {
                    self.write_u8(addr.wrapping_add(i as u64), b);
                }
            }
        }
    }

    fn nonzero_pages(&self) -> Vec<(u64, Box<[u8; PAGE_SIZE]>)> {
        let mut out: Vec<(u64, Box<[u8; PAGE_SIZE]>)> = Vec::new();
        for (i, chunk) in self.low.chunks(PAGE_SIZE).enumerate() {
            if chunk.iter().any(|&b| b != 0) {
                let mut page = Box::new([0u8; PAGE_SIZE]);
                page[..chunk.len()].copy_from_slice(chunk);
                out.push((i as u64, page));
            }
        }
        out.extend(self.high.nonzero_pages());
        out.sort_by_key(|(i, _)| *i);
        out
    }
}

// ------------------------------------------------------------ func table --

/// What [`PreDecoded`] deliberately leaves out (the timing cores never
/// need values): opcode, sign-extended immediate, encoded branch target
/// and the braid `S` bit.
#[derive(Debug, Clone, Copy)]
struct FuncOp {
    opcode: Opcode,
    imm: u64,
    target: u32,
    start: bool,
}

/// Sentinel for "no encoded target" (mirrors [`ExecError::MissingTarget`]).
const NO_TARGET: u32 = u32::MAX;

/// The fast tier's dispatch table: the shared [`PreDecoded`] table plus
/// execution-only facts per static instruction and precomputed basic-block
/// run lengths. Built once per program, immutable afterwards.
#[derive(Debug, Clone)]
pub struct FuncTable {
    pre: PreDecoded,
    ops: Vec<FuncOp>,
    /// Straight-line instructions from index `i` up to (not including) the
    /// next control transfer or halt — the block-batched inner loop runs
    /// exactly this far with no pc, halt or taken checks.
    run_len: Vec<u32>,
}

impl FuncTable {
    /// Builds the table for `program` (one pass).
    pub fn new(program: &Program) -> FuncTable {
        let pre = PreDecoded::new(program);
        let ops: Vec<FuncOp> = program
            .insts
            .iter()
            .map(|inst| FuncOp {
                opcode: inst.opcode,
                imm: inst.imm as i64 as u64,
                target: inst.target().unwrap_or(NO_TARGET),
                start: inst.braid.start,
            })
            .collect();
        let n = ops.len();
        let mut run_len = vec![0u32; n];
        for i in (0..n).rev() {
            let op = ops[i].opcode;
            if op.is_branch() || op == Opcode::Halt {
                run_len[i] = 0;
            } else if i + 1 < n {
                run_len[i] = run_len[i + 1] + 1;
            } else {
                run_len[i] = 1;
            }
        }
        FuncTable { pre, ops, run_len }
    }

    /// The shared predecode table the interpreter dispatches over.
    pub fn predecoded(&self) -> &PreDecoded {
        &self.pre
    }

    /// Number of static instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

// ---------------------------------------------------------- fast machine --

/// The fast functional interpreter.
///
/// Architecturally equivalent to [`Machine`] — byte-identical final
/// registers, memory and retired counts, the property the differential
/// suite in `tests/functional_tier.rs` pins — but with flat state and
/// block-batched dispatch: generation-stamped arrays instead of a hash map
/// for the braid-internal context, hybrid dense/sparse memory, and no
/// per-instruction control-flow checks inside basic blocks.
#[derive(Debug, Clone)]
pub struct FastMachine<'a> {
    table: &'a FuncTable,
    regs: [u64; 64],
    internal: [u64; 64],
    internal_gen: [u64; 64],
    gen: u64,
    mem: FlatMem,
    pc: u64,
    halted: bool,
    executed: u64,
}

fn reg_of_index(r: u8) -> Reg {
    Reg::all().find(|x| x.index() == r).unwrap_or(Reg::ZERO)
}

impl<'a> FastMachine<'a> {
    /// Creates a machine with `program`'s data segments loaded and the pc
    /// at its entry. `table` must be built from the same program.
    pub fn new(program: &Program, table: &'a FuncTable) -> FastMachine<'a> {
        let mut mem = FlatMem::default();
        for seg in &program.data {
            mem.write_slice(seg.base, &seg.bytes);
        }
        FastMachine {
            table,
            regs: [0; 64],
            internal: [0; 64],
            internal_gen: [0; 64],
            gen: 1,
            mem,
            pc: program.entry as u64,
            halted: false,
            executed: 0,
        }
    }

    /// Whether `halt` has executed.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions executed so far.
    pub fn executed(&self) -> u64 {
        self.executed
    }

    /// The current program counter (instruction index).
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Reads an external (architectural) register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// Snapshots the current architectural state.
    pub fn snapshot(&self) -> ArchSnapshot {
        ArchSnapshot {
            pc: self.pc,
            retired: self.executed,
            regs: self.regs,
            pages: self.mem.nonzero_pages(),
        }
    }

    #[inline]
    fn read_src(&self, idx: u32, r: u8, is_t: bool) -> Result<u64, ExecError> {
        if r == NO_REG {
            return Ok(0);
        }
        let ri = r as usize;
        if is_t {
            if self.internal_gen[ri] == self.gen {
                Ok(self.internal[ri])
            } else {
                Err(ExecError::MissingInternal { idx, reg: reg_of_index(r) })
            }
        } else {
            Ok(self.regs[ri])
        }
    }

    #[inline]
    fn old_dest(&self, r: u8) -> u64 {
        let ri = r as usize;
        if self.internal_gen[ri] == self.gen {
            self.internal[ri]
        } else {
            self.regs[ri]
        }
    }

    /// Executes the instruction at static index `i`, returning
    /// `(next pc, memory address, taken)` exactly as [`Machine::step`]
    /// would record them. Does **not** advance `pc` or `executed`.
    #[inline]
    fn exec_inst(&mut self, i: usize) -> Result<(u64, u64, bool), ExecError> {
        let fo = self.table.ops[i];
        let d = self.table.pre.op(i as u32);
        if fo.start {
            self.gen += 1;
        }
        let idx = i as u32;
        let s0 = self.read_src(idx, d.srcs[0], d.t_bits & 1 != 0)?;
        let s1 = self.read_src(idx, d.srcs[1], d.t_bits & 2 != 0)?;
        let old = if d.reads_dest != NO_REG { self.old_dest(d.reads_dest) } else { 0 };
        let imm = fo.imm;
        let f = |bits: u64| f64::from_bits(bits);
        let b = |x: f64| x.to_bits();

        let pc = i as u64;
        let mut next = pc + 1;
        let mut addr = 0u64;
        let mut taken = false;
        let mut result: Option<u64> = None;
        let target = |pc: u64| -> Result<u64, ExecError> {
            if fo.target == NO_TARGET {
                Err(ExecError::MissingTarget { pc })
            } else {
                Ok(fo.target as u64)
            }
        };

        use Opcode::*;
        match fo.opcode {
            Add => result = Some(s0.wrapping_add(s1)),
            Sub => result = Some(s0.wrapping_sub(s1)),
            Mul => result = Some(s0.wrapping_mul(s1)),
            Div => {
                result = Some(if s1 == 0 {
                    0
                } else {
                    (s0 as i64).wrapping_div(s1 as i64) as u64
                })
            }
            And => result = Some(s0 & s1),
            Or => result = Some(s0 | s1),
            Xor => result = Some(s0 ^ s1),
            Andnot => result = Some(s0 & !s1),
            Sll => result = Some(s0 << (s1 & 63)),
            Srl => result = Some(s0 >> (s1 & 63)),
            Sra => result = Some(((s0 as i64) >> (s1 & 63)) as u64),
            Cmpeq => result = Some((s0 == s1) as u64),
            Cmplt => result = Some(((s0 as i64) < (s1 as i64)) as u64),
            Cmple => result = Some(((s0 as i64) <= (s1 as i64)) as u64),
            Cmpult => result = Some((s0 < s1) as u64),
            Addi | Lda => result = Some(s0.wrapping_add(imm)),
            Subi => result = Some(s0.wrapping_sub(imm)),
            Muli => result = Some(s0.wrapping_mul(imm)),
            Andi => result = Some(s0 & imm),
            Ori => result = Some(s0 | imm),
            Xori => result = Some(s0 ^ imm),
            Slli => result = Some(s0 << (imm & 63)),
            Srli => result = Some(s0 >> (imm & 63)),
            Srai => result = Some(((s0 as i64) >> (imm & 63)) as u64),
            Cmpeqi => result = Some((s0 == imm) as u64),
            Cmplti => result = Some(((s0 as i64) < (imm as i64)) as u64),
            Zapnot => {
                let mut v = 0u64;
                for byte in 0..8 {
                    if imm >> byte & 1 == 1 {
                        v |= s0 & (0xff << (byte * 8));
                    }
                }
                result = Some(v);
            }
            Cmovne => result = Some(if s0 != 0 { s1 } else { old }),
            Cmoveq => result = Some(if s0 == 0 { s1 } else { old }),
            Cmovnei => result = Some(if s0 != 0 { imm } else { old }),
            Fadd => result = Some(b(f(s0) + f(s1))),
            Fsub => result = Some(b(f(s0) - f(s1))),
            Fmul => result = Some(b(f(s0) * f(s1))),
            Fdiv => result = Some(b(f(s0) / f(s1))),
            Fsqrt => result = Some(b(f(s0).sqrt())),
            Fcmpeq => result = Some((f(s0) == f(s1)) as u64),
            Fcmplt => result = Some((f(s0) < f(s1)) as u64),
            Fcmple => result = Some((f(s0) <= f(s1)) as u64),
            Fcmovne => result = Some(if s0 != 0 { s1 } else { old }),
            Cvtif => result = Some(b(s0 as i64 as f64)),
            Cvtfi => result = Some(f(s0) as i64 as u64),
            Ldl => {
                addr = s0.wrapping_add(imm);
                let v = u32::from_le_bytes(self.mem.read::<4>(addr));
                result = Some(v as i32 as i64 as u64);
            }
            Ldq | Fldd => {
                addr = s0.wrapping_add(imm);
                result = Some(u64::from_le_bytes(self.mem.read::<8>(addr)));
            }
            Stl => {
                addr = s1.wrapping_add(imm);
                self.mem.write::<4>(addr, (s0 as u32).to_le_bytes());
            }
            Stq | Fstd => {
                addr = s1.wrapping_add(imm);
                self.mem.write::<8>(addr, s0.to_le_bytes());
            }
            Br => {
                taken = true;
                next = target(pc)?;
            }
            Beq | Bne | Blt | Bge | Ble | Bgt => {
                let v = s0 as i64;
                taken = match fo.opcode {
                    Beq => v == 0,
                    Bne => v != 0,
                    Blt => v < 0,
                    Bge => v >= 0,
                    Ble => v <= 0,
                    _ => v > 0,
                };
                if taken {
                    next = target(pc)?;
                }
            }
            Call => {
                taken = true;
                result = Some(pc + 1);
                next = target(pc)?;
            }
            Ret => {
                taken = true;
                next = s0;
            }
            Nop => {}
            Halt => {
                self.halted = true;
                next = pc;
            }
        }

        if let Some(v) = result {
            let dd = d.dest;
            if dd != NO_REG {
                if d.is_internal() {
                    self.internal[dd as usize] = v;
                    self.internal_gen[dd as usize] = self.gen;
                }
                if d.is_external() {
                    self.regs[dd as usize] = v;
                }
            }
        }
        Ok((next, addr, taken))
    }

    /// Runs until `halt`, `executed == stop`, or an error; trace entries
    /// are recorded only when `RECORD` is set. `fuel` carries the same
    /// semantics as [`Machine::run`]: attempting to execute with the
    /// budget exhausted returns [`ExecError::OutOfFuel`].
    fn run_span<const RECORD: bool, const SINK: bool, S: FnMut(u32, &DecodedOp, u64)>(
        &mut self,
        stop: u64,
        fuel: u64,
        out: &mut Vec<TraceEntry>,
        sink: &mut S,
    ) -> Result<(), ExecError> {
        let len = self.table.ops.len() as u64;
        while !self.halted && self.executed < stop {
            if self.executed >= fuel {
                return Err(ExecError::OutOfFuel);
            }
            if self.pc >= len {
                return Err(ExecError::PcOutOfRange(self.pc));
            }
            let i = self.pc as usize;
            let straight = self.table.run_len[i] as u64;
            if straight > 0 {
                // Basic-block interior: no control flow until the
                // terminator, so no pc/halt checks per instruction.
                let budget = stop.min(fuel) - self.executed;
                let run = straight.min(budget);
                for k in 0..run {
                    let at = i + k as usize;
                    let (_, addr, _) = self.exec_inst(at)?;
                    if SINK {
                        sink(at as u32, self.table.pre.op(at as u32), addr);
                    }
                    if RECORD {
                        out.push(TraceEntry {
                            idx: at as u32,
                            next_idx: at as u32 + 1,
                            addr,
                            taken: false,
                        });
                    }
                }
                self.executed += run;
                self.pc += run;
                continue;
            }
            // Block terminator (branch or halt): full single-step.
            let (next, addr, taken) = self.exec_inst(i)?;
            if SINK {
                sink(i as u32, self.table.pre.op(i as u32), addr);
            }
            if RECORD {
                out.push(TraceEntry { idx: i as u32, next_idx: next as u32, addr, taken });
            }
            self.executed += 1;
            self.pc = next;
        }
        Ok(())
    }

    /// Runs until `halt` or the budget is exhausted.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]; semantics match [`Machine::run`].
    pub fn run(&mut self, max_insts: u64) -> Result<(), ExecError> {
        let mut sink = Vec::new();
        self.run_span::<false, false, _>(u64::MAX, max_insts, &mut sink, &mut no_sink)
    }

    /// Runs until `halt` or `executed == stop` (a pause, not an error),
    /// reporting every executed instruction to `observe` as `(index,
    /// decoded op, effective address)` — the address is 0 for non-memory
    /// instructions. The sampled tier uses this for functional warming
    /// of microarchitectural state.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_until_observed<S: FnMut(u32, &DecodedOp, u64)>(
        &mut self,
        stop: u64,
        fuel: u64,
        observe: &mut S,
    ) -> Result<(), ExecError> {
        let mut sink = Vec::new();
        self.run_span::<false, true, _>(stop, fuel, &mut sink, observe)
    }

    /// Like [`FastMachine::run`], appending every trace entry to `out`.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_recording(
        &mut self,
        max_insts: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), ExecError> {
        self.run_recording_until(u64::MAX, max_insts, out)
    }

    /// Runs until `halt` or `executed == stop`, appending every trace entry
    /// to `out`: successive calls with rising `stop` record the same entries
    /// as one [`FastMachine::run_recording`] pass, chunk by chunk. The
    /// streamed full tier pulls its trace this way.
    ///
    /// # Errors
    ///
    /// See [`ExecError`]. Entries executed before the failing instruction
    /// stay in `out`; the machine must not be resumed after an error.
    pub fn run_recording_until(
        &mut self,
        stop: u64,
        fuel: u64,
        out: &mut Vec<TraceEntry>,
    ) -> Result<(), ExecError> {
        self.run_span::<true, false, _>(stop, fuel, out, &mut no_sink)
    }

    /// Records execution up to `stop`, then keeps recording until the next
    /// braid boundary: the span ends only when the *next* instruction to
    /// execute carries the braid `S` bit (or the machine halts). This keeps
    /// sampled trace windows well-formed for the braid timing core, which
    /// must never replay a window that starts or stops mid-braid.
    /// Unannotated programs have `S` on every instruction, so the
    /// extension is a no-op for them. Every executed instruction is
    /// reported to `observe` as in [`FastMachine::run_until_observed`].
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn run_recording_to_boundary_observed<S: FnMut(u32, &DecodedOp, u64)>(
        &mut self,
        stop: u64,
        fuel: u64,
        out: &mut Vec<TraceEntry>,
        observe: &mut S,
    ) -> Result<(), ExecError> {
        self.run_span::<true, true, _>(stop, fuel, out, observe)?;
        let len = self.table.ops.len() as u64;
        while !self.halted && self.pc < len && !self.table.ops[self.pc as usize].start {
            if self.executed >= fuel {
                return Err(ExecError::OutOfFuel);
            }
            let i = self.pc as usize;
            let (next, addr, taken) = self.exec_inst(i)?;
            observe(i as u32, self.table.pre.op(i as u32), addr);
            out.push(TraceEntry { idx: i as u32, next_idx: next as u32, addr, taken });
            self.executed += 1;
            self.pc = next;
        }
        Ok(())
    }
}

/// The no-op instruction sink (compiled out entirely by the `SINK = false`
/// instantiations of the runners).
fn no_sink(_idx: u32, _op: &DecodedOp, _addr: u64) {}

// ------------------------------------------------------------- reports --

/// Result of a functional-tier run: instruction count, host time and the
/// final-state digest (deterministic, so cached responses can carry it).
#[derive(Debug, Clone, Default)]
pub struct FuncReport {
    /// Dynamic instructions executed.
    pub instructions: u64,
    /// Host wall-clock nanoseconds of the run. **Not deterministic.**
    pub host_nanos: u64,
    /// [`ArchSnapshot::digest`] of the final architectural state.
    pub digest: u64,
}

impl FuncReport {
    /// Host throughput: executed instructions per wall-clock second.
    pub fn insts_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.instructions as f64 * 1e9 / self.host_nanos as f64
        }
    }
}

impl fmt::Display for FuncReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} insts functional-only: host {:.2} Minsts/s, state digest {:016x}",
            self.instructions,
            self.insts_per_sec() / 1e6,
            self.digest
        )
    }
}

/// Result of a sampled-timing run: extrapolated cycles and CPI stack plus
/// the measurement bookkeeping needed to reason about the estimate.
#[derive(Debug, Clone, Default)]
pub struct SampledReport {
    /// Total dynamic instructions (functionally executed — exact).
    pub instructions: u64,
    /// Extrapolated cycles ([`SampledReport::cpi`] totals to exactly this).
    pub est_cycles: u64,
    /// Extrapolated CPI stack (per-interval measured stacks scaled to the
    /// period; `total()` always equals [`SampledReport::est_cycles`]).
    pub cpi: CpiStack,
    /// Sampling intervals taken.
    pub intervals: u64,
    /// Instructions replayed on the timing core (warm-up + sample).
    pub timed_insts: u64,
    /// Timed instructions whose cycles entered the estimate as direct
    /// measurement rather than extrapolation.
    pub measured_insts: u64,
    /// Cycles that entered the estimate as direct measurement; the rest of
    /// [`SampledReport::est_cycles`] is extrapolated.
    pub measured_cycles: u64,
    /// Warm-up prefix cycles timed separately so they could be excluded
    /// from the extrapolation rate (zero when every period was fully
    /// covered by its window and no extrapolation happened).
    pub overhead_cycles: u64,
    /// Half-width of the 95% confidence interval on
    /// [`SampledReport::est_cycles`]: `1.96 · s/√n · Σ tail`, where `s` is
    /// the standard deviation of the marginal CPI over the `n`
    /// extrapolated intervals and `Σ tail` their untimed instructions.
    /// It covers sampling error only — not the bias a window carries from
    /// its boundary effects. `None` when fewer than two intervals were
    /// extrapolated (a fully windowed run has no sampling error).
    pub ci95_cycles: Option<u64>,
    /// Host nanoseconds the producer stage was busy executing, warming
    /// and recording (not blocked on a full queue). It overlaps
    /// [`SampledReport::timing_host_nanos`], so the two need not sum to
    /// the wall time. **Not deterministic.**
    pub func_host_nanos: u64,
    /// Host nanoseconds the timing stage spent in the timing core,
    /// overlapping [`SampledReport::func_host_nanos`]. **Not
    /// deterministic.**
    pub timing_host_nanos: u64,
    /// Host wall-clock nanoseconds of the whole sampled run.
    /// **Not deterministic.**
    pub wall_nanos: u64,
}

impl SampledReport {
    /// Estimated retired instructions per cycle.
    pub fn est_ipc(&self) -> f64 {
        if self.est_cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.est_cycles as f64
        }
    }

    /// Fraction of dynamic instructions replayed on the timing core.
    pub fn coverage(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.timed_insts as f64 / self.instructions as f64
        }
    }

    /// Host wall-clock nanoseconds of the run ([`SampledReport::wall_nanos`]).
    pub fn host_nanos(&self) -> u64 {
        self.wall_nanos
    }

    /// Host throughput over the whole run: instructions per second.
    pub fn insts_per_sec(&self) -> f64 {
        let ns = self.host_nanos();
        if ns == 0 {
            0.0
        } else {
            self.instructions as f64 * 1e9 / ns as f64
        }
    }
}

impl fmt::Display for SampledReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} insts, est {} cycles", self.instructions, self.est_cycles)?;
        if let Some(ci) = self.ci95_cycles {
            write!(f, " ± {ci} (95% CI)")?;
        }
        writeln!(
            f,
            ": est IPC {:.3} ({} intervals, {:.1}% timed)",
            self.est_ipc(),
            self.intervals,
            self.coverage() * 100.0
        )?;
        write!(
            f,
            "  measured {} cycles over {} insts; host {:.2} Minsts/s overall",
            self.measured_cycles,
            self.measured_insts,
            self.insts_per_sec() / 1e6
        )
    }
}

// ------------------------------------------------------------- driver --

/// Runs the functional tier on `program` and reports host throughput and
/// the final-state digest.
///
/// # Errors
///
/// See [`ExecError`].
pub fn run_func(program: &Program, fuel: u64) -> Result<FuncReport, ExecError> {
    let table = FuncTable::new(program);
    let mut m = FastMachine::new(program, &table);
    let t0 = Instant::now();
    m.run(fuel)?;
    let host_nanos = t0.elapsed().as_nanos() as u64;
    Ok(FuncReport { instructions: m.executed(), host_nanos, digest: m.snapshot().digest() })
}

/// Forces `stack` to total exactly `cycles` (deterministically): a deficit
/// is charged to [`StallCause::BeuSerial`] ("in flight, unattributed"), an
/// excess is shaved off the largest buckets first.
fn fit_stack(mut stack: CpiStack, cycles: u64) -> CpiStack {
    let total = stack.total();
    if total < cycles {
        stack.add(StallCause::BeuSerial, cycles - total);
        return stack;
    }
    let mut excess = total - cycles;
    while excess > 0 {
        // Deterministic: largest bucket, ties broken by canonical order.
        let mut best = StallCause::Base;
        let mut best_n = 0u64;
        for (cause, n) in stack.iter() {
            if n > best_n {
                best = cause;
                best_n = n;
            }
        }
        if best_n == 0 {
            break;
        }
        let take = excess.min(best_n);
        let mut rebuilt = CpiStack::new();
        for (cause, n) in stack.iter() {
            rebuilt.add(cause, if cause == best { n - take } else { n });
        }
        stack = rebuilt;
        excess -= take;
    }
    stack
}

/// Distributes `target` cycles across causes proportional to `stack`
/// (whose total must be non-zero) by largest-remainder apportionment,
/// deterministic tie-break by canonical cause order. The result totals
/// exactly `target`.
fn apportion(stack: &CpiStack, target: u64) -> CpiStack {
    let denom = stack.total();
    if denom == 0 {
        let mut out = CpiStack::new();
        out.add(StallCause::Base, target);
        return out;
    }
    let mut quotas = [0u64; crate::obs::NUM_CAUSES];
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(crate::obs::NUM_CAUSES);
    let mut assigned = 0u64;
    for (slot, cause) in StallCause::ALL.into_iter().enumerate() {
        let num = stack.get(cause) as u128 * target as u128;
        let q = (num / denom as u128) as u64;
        quotas[slot] = q;
        assigned += q;
        rems.push((num % denom as u128, slot));
    }
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut left = target.saturating_sub(assigned);
    for &(_, slot) in rems.iter().cycle().take(rems.len() * 2) {
        if left == 0 {
            break;
        }
        quotas[slot] += 1;
        left -= 1;
    }
    // Any still-unassigned remainder (degenerate stacks) goes to the first
    // cause so the invariant holds unconditionally.
    quotas[0] += left;
    let mut out = CpiStack::new();
    for (slot, cause) in StallCause::ALL.into_iter().enumerate() {
        out.add(cause, quotas[slot]);
    }
    out
}

/// Scales a measured interval (cycles + stack over `m_insts` instructions)
/// up to the full period of `period_insts` instructions. The returned
/// stack totals exactly the returned cycle count.
fn extrapolate(
    m_cycles: u64,
    m_insts: u64,
    stack: &CpiStack,
    period_insts: u64,
) -> (u64, CpiStack) {
    if m_insts == 0 || m_cycles == 0 || period_insts == 0 {
        return (0, CpiStack::new());
    }
    let est = ((m_cycles as u128 * period_insts as u128 + m_insts as u128 / 2)
        / m_insts as u128) as u64;
    let est = est.max(1);
    (est, apportion(stack, est))
}

/// SMARTS-style functional warming: every functionally executed
/// instruction — recorded windows and fast-forwarded spans alike —
/// touches a persistent memory hierarchy, I-side at its fetch address and
/// D-side at its effective address. Each timed window replays on a core
/// seeded with the copy checkpointed at its interval start: the cache
/// state a continuous run would have there. Without this, every window
/// would replay on cold caches and re-pay main-memory latency for lines a
/// continuous run keeps resident, inflating the estimate by tens of
/// percent on cache-friendly kernels.
struct Warmer {
    mem: MemoryHierarchy,
    /// L1I line size in bytes.
    fetch_line_bytes: u64,
    /// The L1I line the last warmed fetch touched (`u64::MAX` before any).
    last_fetch_line: u64,
}

impl Warmer {
    fn new(config: MemoryHierarchyConfig) -> Warmer {
        Warmer {
            mem: MemoryHierarchy::new(config),
            fetch_line_bytes: config.l1i.line_bytes,
            last_fetch_line: u64::MAX,
        }
    }

    /// Warms the fetch of the instruction at `pc`, skipping a fetch from
    /// the line the previous one touched. Only fetches touch the L1I, so
    /// that line is still resident and the most recently used in its set:
    /// touching it again would change no replacement order, no later
    /// latency and no statistic.
    fn fetch(&mut self, pc: u64) {
        let line = pc / self.fetch_line_bytes;
        if line != self.last_fetch_line {
            self.last_fetch_line = line;
            self.mem.warm(Access::Fetch, pc);
        }
    }

    /// Warms one executed instruction: its fetch, then its data access.
    fn observe(&mut self, idx: u32, op: &DecodedOp, addr: u64) {
        self.fetch(TEXT_BASE + u64::from(idx) * INST_BYTES);
        if op.is_load() {
            self.mem.warm(Access::Load, addr);
        } else if op.is_store() {
            self.mem.warm(Access::Store, addr);
        }
    }
}

/// What the producer hands the timing thread, in interval order: each
/// interval's window, then its length once the fast-forward is done.
/// Unboxed on purpose: the queue is two slots, and a box would cost the
/// producer an allocation per interval.
#[allow(clippy::large_enum_variant)]
enum Produced {
    Window(Window),
    Length(u64),
}

/// One interval's recorded window, travelling with its own warm-state
/// checkpoint (a TurboSMARTS "live point", kept in memory).
struct Window {
    /// The warmed hierarchy at the interval start.
    mem: MemoryHierarchy,
    /// The warm-up prefix followed by the sample.
    entries: Vec<TraceEntry>,
    /// Length of the warm-up prefix in `entries`.
    warm_insts: usize,
    /// Whether the prefix is timed on its own too: only when part of the
    /// interval goes untimed and both parts are non-empty. Its
    /// subtraction yields the marginal extrapolation rate, and
    /// deterministic replay makes that subtraction exact.
    time_warmup: bool,
}

/// A timed window's buffers, handed back for the producer to refill.
type Spent = (MemoryHierarchy, Vec<TraceEntry>);

/// Messages the queue holds: room for the producer to record and
/// fast-forward the next interval while a window is timed. The stages
/// trade whole intervals, so more depth would only hold more checkpoints.
const QUEUE_DEPTH: usize = 2;

/// The producer's side of a sampled run: the instructions it executed or
/// the error it stopped at, and its busy host time.
struct Production {
    outcome: Result<u64, ExecError>,
    busy_nanos: u64,
}

/// The sampled-timing driver: a two-stage pipeline over `program` on
/// `core`, with interval lengths from [`SamplingConfig::period_at`].
///
/// A scoped helper thread runs the producer ([`produce`]): functional
/// execution, warming and the interval schedule. The calling thread times
/// each window and folds the intervals into the estimate in order
/// ([`time_windows`]), so the report is the one a sequential driver would
/// assemble. Windows contribute their measured cycles directly; any
/// untimed remainder of an interval is extrapolated at the measured
/// post-warm-up marginal rate.
///
/// With [`SamplingConfig::lockstep`] set (the debug default) the reference
/// interpreter runs alongside the producer and [`ArchSnapshot`]s are
/// compared at every interval boundary; a divergence panics with a
/// field-level diff, because it means the fast tier mis-executed an
/// instruction.
///
/// # Errors
///
/// The first failure in sequential order (see [`settle`]):
/// [`RunError::Exec`] from the functional tier (including
/// [`ExecError::OutOfFuel`], exactly as a full-tier run would report it),
/// [`RunError::Sim`] from the timing core or a degenerate `cfg`.
///
/// # Panics
///
/// On lockstep divergence — an implementation bug, never a workload
/// property. The producer's panic is resumed on the calling thread with
/// its message.
pub(crate) fn run_sampled(
    program: &Program,
    core: &CoreConfig,
    fuel: u64,
    cfg: &SamplingConfig,
) -> Result<SampledReport, RunError> {
    cfg.validate()?;
    let t0 = Instant::now();
    let mem = core.common().mem;
    let (queue_tx, queue_rx) = mpsc::sync_channel(QUEUE_DEPTH);
    let (spent_tx, spent_rx) = mpsc::channel();
    let mut est = Estimate::default();
    let (timed, produced) = thread::scope(|s| {
        let producer = s.spawn(move || {
            let mut busy_nanos = 0;
            let outcome = produce(program, fuel, cfg, mem, &queue_tx, &spent_rx, &mut busy_nanos);
            Production { outcome, busy_nanos }
        });
        let timed = time_windows(program, core, &queue_rx, &spent_tx, &mut est);
        // Hang up before joining: a producer blocked on the full queue
        // then fails its send and stops.
        drop(queue_rx);
        (timed, producer.join())
    });
    let (executed, busy_nanos) = settle(timed, produced)?;
    let mut rep = est.finish();
    rep.instructions = executed;
    rep.func_host_nanos = busy_nanos;
    rep.wall_nanos = t0.elapsed().as_nanos() as u64;
    Ok(rep)
}

/// Orders the two stages' outcomes as the sequential driver meets them.
/// A timing error in window `k` wins: the producer only ever fails or
/// panics after it recorded window `k`. Otherwise the producer's outcome
/// stands — its execution error, or its panic resumed here with the
/// original payload. Returns the executed count and the producer's busy
/// nanoseconds.
fn settle(
    timed: Result<(), SimError>,
    produced: thread::Result<Production>,
) -> Result<(u64, u64), RunError> {
    timed?;
    let p = produced.unwrap_or_else(|panic| std::panic::resume_unwind(panic));
    Ok((p.outcome?, p.busy_nanos))
}

/// The producer stage, on the helper thread. For each interval it
/// checkpoints the warm hierarchy, records the window (warm-up + sample,
/// each extended to a braid boundary) and sends it, then fast-forwards
/// the rest of the interval — still warming: those instructions are part
/// of the program's history — and sends the interval's length.
///
/// Checkpoints and window buffers come back through `spent` and are
/// refilled in place, so the steady state allocates nothing. Time blocked
/// on the full queue is not counted in `busy_nanos`.
///
/// Returns the executed count at `halt`, or early once the timing thread
/// hangs up (it has returned an error and wants nothing more).
///
/// # Errors
///
/// The first [`ExecError`] of the fast interpreter or, under lockstep, of
/// the reference.
fn produce(
    program: &Program,
    fuel: u64,
    cfg: &SamplingConfig,
    mem: MemoryHierarchyConfig,
    queue: &mpsc::SyncSender<Produced>,
    spent: &mpsc::Receiver<Spent>,
    busy_nanos: &mut u64,
) -> Result<u64, ExecError> {
    let table = FuncTable::new(program);
    let mut fast = FastMachine::new(program, &table);
    let mut golden = cfg.lockstep.then(|| Machine::new(program));
    let mut warmer = Warmer::new(mem);
    while !fast.halted() {
        let t0 = Instant::now();
        let start = fast.executed();
        let end = start.saturating_add(cfg.period_at(start));
        let (checkpoint, mut entries) = match spent.try_recv() {
            Ok((mut checkpoint, mut entries)) => {
                checkpoint.clone_from(&warmer.mem);
                entries.clear();
                (checkpoint, entries)
            }
            Err(_) => (warmer.mem.clone(), Vec::new()),
        };
        let mut observe = |i: u32, op: &DecodedOp, a: u64| warmer.observe(i, op, a);
        let mut record = |stop: u64, entries: &mut Vec<TraceEntry>| {
            fast.run_recording_to_boundary_observed(stop, fuel, entries, &mut observe)
        };
        record(start + cfg.warmup, &mut entries)?;
        let warm_insts = entries.len();
        record(start + cfg.warmup + cfg.sample, &mut entries)?;
        if entries.is_empty() {
            break;
        }
        let has_tail = !fast.halted() && fast.executed() < end;
        let time_warmup = has_tail && warm_insts > 0 && entries.len() > warm_insts;
        *busy_nanos += t0.elapsed().as_nanos() as u64;
        let window = Window { mem: checkpoint, entries, warm_insts, time_warmup };
        if queue.send(Produced::Window(window)).is_err() {
            break;
        }

        let t1 = Instant::now();
        let mut observe = |i: u32, op: &DecodedOp, a: u64| warmer.observe(i, op, a);
        fast.run_until_observed(end, fuel, &mut observe)?;
        *busy_nanos += t1.elapsed().as_nanos() as u64;

        // Lockstep validation against the reference interpreter (the same
        // golden model braid-verify's oracle is built on).
        if let Some(m) = golden.as_mut() {
            while m.executed() < fast.executed() && !m.halted() {
                m.step(program)?;
            }
            let a = fast.snapshot();
            let b = ArchSnapshot::of_machine(m);
            if let Some(diff) = a.divergence(&b) {
                panic!(
                    "sampled lockstep divergence at instruction {} (fast vs reference): {diff}",
                    fast.executed()
                );
            }
        }
        if queue.send(Produced::Length(fast.executed() - start)).is_err() {
            break;
        }
    }
    Ok(fast.executed())
}

/// The timing stage, on the calling thread: times each window on a fresh
/// `core` seeded from the window's checkpoint — the whole window, then the
/// warm-up prefix alone when asked — hands the buffers back through
/// `spent`, and folds the interval into `est` when its length arrives.
/// Returns when the producer hangs up.
///
/// # Errors
///
/// The first [`SimError`] of the timing core, at once.
fn time_windows(
    program: &Program,
    core: &CoreConfig,
    queue: &mpsc::Receiver<Produced>,
    spent: &mpsc::Sender<Spent>,
    est: &mut Estimate,
) -> Result<(), SimError> {
    let mut timed: Option<Interval> = None;
    for msg in queue {
        match msg {
            Produced::Window(w) => {
                let time = |entries: &[TraceEntry]| {
                    let mut source = entries;
                    core.run_source(program, &mut source, &mut NoopObserver, Some(w.mem.clone()))
                };
                let rf = time(&w.entries)?;
                let rw = if w.time_warmup { Some(time(&w.entries[..w.warm_insts])?) } else { None };
                let rw_nanos = rw.as_ref().map_or(0, |r| r.host_nanos);
                est.rep.timing_host_nanos += rf.host_nanos + rw_nanos;
                timed = Some(Interval {
                    rf,
                    rw,
                    warm_insts: w.warm_insts as u64,
                    samp_insts: (w.entries.len() - w.warm_insts) as u64,
                    period_insts: 0,
                });
                // Fails only when the producer is done and needs no more.
                let _ = spent.send((w.mem, w.entries));
            }
            Produced::Length(period_insts) => {
                if let Some(iv) = timed.take() {
                    est.fold(&Interval { period_insts, ..iv });
                }
            }
        }
    }
    Ok(())
}

/// One sampling interval's timings: the full warm-up+sample window
/// (`rf`), the warm-up prefix alone (`rw`, when both parts were
/// non-empty), and the instruction counts involved.
struct Interval {
    rf: SimReport,
    rw: Option<SimReport>,
    warm_insts: u64,
    samp_insts: u64,
    period_insts: u64,
}

impl Interval {
    /// Instructions the window replayed on the timing core.
    fn timed_insts(&self) -> u64 {
        self.warm_insts + self.samp_insts
    }
}

/// The estimate, folded one interval at a time in interval order.
///
/// Every timed window contributes its measured cycles **directly** —
/// functional cache warming means a window replay is already close to the
/// continuous run's cost for those instructions, and any correction model
/// (fixed per-window overhead, rate fitting) was measured to inject more
/// error than the residual boundary effects it removes. Only the untimed
/// remainder of each period is extrapolated, at the post-warm-up marginal
/// rate `(full − warm-up) / sample` when a warm-up split was timed, else
/// at the window's overall rate. Warm-up cycles are thereby excluded from
/// every extrapolated cycle while still being counted once where they were
/// actually measured.
///
/// The extrapolated intervals' marginal CPIs also give the estimate's
/// confidence interval ([`SampledReport::ci95_cycles`]); they are all
/// that is kept of an interval once it is folded.
#[derive(Default)]
struct Estimate {
    rep: SampledReport,
    /// Marginal CPI of each extrapolated interval, in interval order.
    rates: Vec<f64>,
    /// Untimed instructions of the extrapolated intervals.
    tail_insts: u64,
}

impl Estimate {
    fn fold(&mut self, iv: &Interval) {
        let rep = &mut self.rep;
        let timed = iv.timed_insts();
        // Measured part: counted as-is.
        rep.est_cycles += iv.rf.cycles;
        rep.cpi.merge(&iv.rf.cpi);
        rep.measured_cycles += iv.rf.cycles;
        rep.measured_insts += timed;

        // Untimed remainder: extrapolate, excluding warm-up cycles from
        // the rate when the warm-up prefix was timed separately.
        let tail = iv.period_insts.saturating_sub(timed);
        if tail > 0 {
            let (m_cycles, m_insts, m_stack) = match &iv.rw {
                Some(rw) => {
                    let cycles = iv.rf.cycles.saturating_sub(rw.cycles);
                    let mut stack = CpiStack::new();
                    for (cause, n) in iv.rf.cpi.iter() {
                        stack.add(cause, n.saturating_sub(rw.cpi.get(cause)));
                    }
                    (cycles, iv.samp_insts, fit_stack(stack, cycles))
                }
                None => (iv.rf.cycles, timed, iv.rf.cpi),
            };
            let (est, est_stack) = extrapolate(m_cycles, m_insts, &m_stack, tail);
            rep.est_cycles += est;
            rep.cpi.merge(&est_stack);
            if m_insts > 0 {
                self.rates.push(m_cycles as f64 / m_insts as f64);
                self.tail_insts += tail;
            }
        }
        if let Some(rw) = &iv.rw {
            rep.overhead_cycles += rw.cycles;
        }
        rep.intervals += 1;
        rep.timed_insts += timed;
    }

    fn finish(mut self) -> SampledReport {
        self.rep.ci95_cycles = ci95_cycles(&self.rates, self.tail_insts);
        self.rep
    }
}

/// Half-width of the 95% confidence interval on extrapolated cycles:
/// `1.96 · s/√n · tail_insts`, with `s` the sample standard deviation of
/// the `n` per-interval marginal CPIs in `rates` — the SMARTS estimator
/// (Wunderlich et al., ISCA 2003) applied to the untimed instructions.
/// `None` below two samples, where no variance can be estimated.
fn ci95_cycles(rates: &[f64], tail_insts: u64) -> Option<u64> {
    let n = rates.len();
    if n < 2 {
        return None;
    }
    let mean = rates.iter().sum::<f64>() / n as f64;
    let var = rates.iter().map(|r| (r - mean) * (r - mean)).sum::<f64>() / (n - 1) as f64;
    Some((1.96 * (var / n as f64).sqrt() * tail_insts as f64).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_isa::asm::assemble;

    fn both(src: &str) -> (Machine, ArchSnapshot) {
        let p = assemble(src).expect("assembles");
        let mut m = Machine::new(&p);
        m.run(&p, 1_000_000).expect("reference runs");
        let table = FuncTable::new(&p);
        let mut fm = FastMachine::new(&p, &table);
        fm.run(1_000_000).expect("fast runs");
        (m, fm.snapshot())
    }

    #[test]
    fn fast_matches_reference_on_a_loop() {
        let (m, snap) = both(
            r#"
                addi r0, #10, r1
            loop:
                addq r2, r1, r2
                subi r1, #1, r1
                bne  r1, loop
                stq  r2, 0x40(r0)
                halt
            "#,
        );
        assert_eq!(ArchSnapshot::of_machine(&m), snap);
        assert_eq!(snap.regs[2], 55);
    }

    #[test]
    fn fast_matches_reference_on_memory_and_fp() {
        let (m, snap) = both(
            r#"
                addi r0, #0x1000, r1
                addi r0, #-7, r2
                stq  r2, 0(r1)
                ldq  r3, 0(r1)
                stl  r2, 8(r1)
                ldl  r4, 8(r1)
                addi r0, #9, r5
                cvtqt r5, f1
                sqrtt f1, f2
                addt  f1, f2, f3
                cvttq f3, r6
                halt
            "#,
        );
        assert_eq!(ArchSnapshot::of_machine(&m), snap);
        assert_eq!(snap.regs[6], 12);
    }

    #[test]
    fn fuel_and_pc_errors_match_reference() {
        let p = assemble("loop: br loop\nhalt").expect("assembles");
        let table = FuncTable::new(&p);
        let mut fm = FastMachine::new(&p, &table);
        assert_eq!(fm.run(100).expect_err("must run out"), ExecError::OutOfFuel);
    }

    #[test]
    fn snapshot_digest_is_order_stable() {
        let (_, a) = both("addi r0, #1, r1\nstq r1, 0x2000(r0)\nhalt");
        let (_, b) = both("addi r0, #1, r1\nstq r1, 0x2000(r0)\nhalt");
        assert_eq!(a.digest(), b.digest());
        let (_, c) = both("addi r0, #2, r1\nstq r1, 0x2000(r0)\nhalt");
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn extrapolate_keeps_stack_total_equal_to_cycles() {
        let mut stack = CpiStack::new();
        stack.add(StallCause::Base, 7);
        stack.add(StallCause::DCache, 3);
        let (est, out) = extrapolate(10, 5, &stack, 17);
        assert_eq!(est, 34);
        assert_eq!(out.total(), est);
        let (est0, out0) = extrapolate(0, 0, &stack, 17);
        assert_eq!((est0, out0.total()), (0, 0));
    }

    #[test]
    fn fit_stack_reconciles_both_directions() {
        let mut s = CpiStack::new();
        s.add(StallCause::Base, 5);
        assert_eq!(fit_stack(s, 9).total(), 9);
        let mut s = CpiStack::new();
        s.add(StallCause::Base, 5);
        s.add(StallCause::DCache, 6);
        assert_eq!(fit_stack(s, 4).total(), 4);
    }

    /// A synthetic sparse interval: a 512+1024 window measured at
    /// `warm_cycles` + `samp_cycles`, then `tail` untimed instructions.
    fn sparse_interval(warm_cycles: u64, samp_cycles: u64, tail: u64) -> Interval {
        let report = |cycles: u64| {
            let mut cpi = CpiStack::new();
            cpi.add(StallCause::Base, cycles);
            SimReport { cycles, cpi, ..SimReport::default() }
        };
        Interval {
            rf: report(warm_cycles + samp_cycles),
            rw: Some(report(warm_cycles)),
            warm_insts: 512,
            samp_insts: 1024,
            period_insts: 1536 + tail,
        }
    }

    /// The estimate `ivs` fold into, in order.
    fn estimate(ivs: &[Interval]) -> SampledReport {
        let mut est = Estimate::default();
        for iv in ivs {
            est.fold(iv);
        }
        est.finish()
    }

    #[test]
    fn ci95_follows_the_marginal_cpi_spread() {
        // Marginal CPIs 1.0, 2.0, 3.0: mean 2, s = 1, n = 3, and 3 × 2000
        // tail instructions.
        let ivs = [
            sparse_interval(900, 1024, 2000),
            sparse_interval(900, 2048, 2000),
            sparse_interval(900, 3072, 2000),
        ];
        let rep = estimate(&ivs);
        let want = (1.96 / 3f64.sqrt() * 6000.0).round() as u64;
        assert_eq!(rep.ci95_cycles, Some(want));
        assert_eq!(want, 6790);
        // The tails extrapolate at the marginal rate: 2000 × (1 + 2 + 3).
        assert_eq!(rep.est_cycles, 3 * 900 + 6144 + 12_000);

        // Equal rates: a zero-width interval, still reported.
        let ivs = [sparse_interval(900, 2048, 2000), sparse_interval(700, 2048, 5000)];
        let rep = estimate(&ivs);
        assert_eq!(rep.ci95_cycles, Some(0));
    }

    #[test]
    fn ci95_needs_two_extrapolated_intervals() {
        // One extrapolated interval plus fully windowed ones: no variance.
        let windowed = |cycles| Interval { period_insts: 1536, ..sparse_interval(0, cycles, 0) };
        let ivs = [windowed(3000), windowed(5000), sparse_interval(900, 2048, 2000)];
        let rep = estimate(&ivs);
        assert_eq!(rep.ci95_cycles, None);
        let rep = estimate(&ivs[..2]);
        assert_eq!(rep.ci95_cycles, None);
    }

    /// Skipping a fetch warm from the line the previous fetch warm touched
    /// is invisible: a hierarchy warmed with every access and one warmed
    /// with the skip give the same latency for every later timed access,
    /// and the same statistics.
    #[test]
    fn skipped_fetch_warms_change_no_later_access() {
        // An 8-set L1I over a 32 KB text range, so fetches conflict.
        let cfg = MemoryHierarchyConfig {
            l1i: braid_uarch::CacheConfig { size_bytes: 1024, ways: 2, line_bytes: 64, latency: 3 },
            ..MemoryHierarchyConfig::default()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let text = |r: u64| TEXT_BASE + (r >> 8) % 4096 * INST_BYTES;
        let data = |r: u64| (r >> 20) % (1 << 17) * 8;

        let mut every = MemoryHierarchy::new(cfg);
        let mut skip = Warmer::new(cfg);
        let mut pc = TEXT_BASE;
        let mut skipped = 0;
        for _ in 0..20_000 {
            let r = next();
            pc = if r % 16 == 0 { text(r) } else { pc + INST_BYTES };
            every.warm(Access::Fetch, pc);
            let line = skip.last_fetch_line;
            skip.fetch(pc);
            skipped += u32::from(skip.last_fetch_line == line);
            let kind = [Access::Load, Access::Store][(r % 2) as usize];
            if r % 3 == 0 {
                every.warm(kind, data(r));
                skip.mem.warm(kind, data(r));
            }
        }
        assert!(skipped > 10_000, "most fetches stay on the previous line ({skipped} skipped)");

        for cycle in 0..20_000 {
            let r = next();
            let (kind, addr) = match r % 3 {
                0 => (Access::Fetch, text(r)),
                1 => (Access::Load, data(r)),
                _ => (Access::Store, data(r)),
            };
            let want = every.access_at(kind, addr, cycle);
            assert_eq!(skip.mem.access_at(kind, addr, cycle), want, "access {cycle} at {addr:#x}");
        }
        assert_eq!(format!("{:?}", skip.mem.stats()), format!("{:?}", every.stats()));
    }

    /// The outcome is the first failure the sequential driver would meet.
    #[test]
    fn settle_orders_failures_like_the_sequential_driver() {
        let produced = |outcome| Ok(Production { outcome, busy_nanos: 7 });
        let deadline = || SimError::Deadline { cycle: 9, deadline_cycles: 5, retired: 1 };
        assert!(matches!(settle(Ok(()), produced(Ok(42))), Ok((42, 7))));
        assert!(matches!(
            settle(Ok(()), produced(Err(ExecError::OutOfFuel))),
            Err(RunError::Exec(ExecError::OutOfFuel))
        ));
        // A timing error comes before anything the producer did after
        // recording that window: an execution error or a panic.
        assert!(matches!(
            settle(Err(deadline()), produced(Err(ExecError::OutOfFuel))),
            Err(RunError::Sim(SimError::Deadline { .. }))
        ));
        assert!(matches!(
            settle(Err(deadline()), Err(Box::new("later panic"))),
            Err(RunError::Sim(SimError::Deadline { .. }))
        ));
        // Otherwise the producer's panic reaches the caller, message intact.
        let msg = "sampled lockstep divergence at instruction 3".to_string();
        let payload = std::panic::catch_unwind(|| settle(Ok(()), Err(Box::new(msg.clone()))))
            .expect_err("the panic is resumed");
        assert_eq!(payload.downcast_ref::<String>(), Some(&msg));
    }

    #[test]
    fn schedule_is_dense_for_the_first_two_periods() {
        let cfg = SamplingConfig::default();
        assert_eq!(cfg.period_at(0), 4096);
        assert_eq!(cfg.period_at(65_535), 4096);
        assert_eq!(cfg.period_at(65_536), 32_768);
        let short = SamplingConfig { period: 512, warmup: 32, sample: 128, ..cfg };
        assert_eq!(short.period_at(1023), 160);
        assert_eq!(short.period_at(1024), 512);
        let huge = SamplingConfig { period: u64::MAX, ..SamplingConfig::default() };
        assert_eq!(huge.period_at(u64::MAX - 1), 4096);
    }

    #[test]
    fn tier_names_round_trip() {
        for t in Tier::ALL {
            assert_eq!(Tier::parse(t.name()), Some(t));
        }
        assert_eq!(Tier::parse("nope"), None);
    }
}
