//! The architectural executor.
//!
//! [`Machine`] executes BRISC programs instruction-at-a-time. It is
//! *braid-aware*: when the translator has set the `S`/`T`/`I`/`E` bits, the
//! machine maintains the braid's internal register context alongside the
//! external (architectural) register file, exactly as a single braid
//! execution unit would. Unannotated programs (every instruction its own
//! braid, all values external) execute conventionally.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use braid_isa::{Opcode, Program, Reg};

use crate::trace::{Trace, TraceEntry};

/// Sparse byte-addressable memory backed by 4 KiB pages.
///
/// A read within one page costs one page lookup and one slice copy; a
/// read that straddles a page boundary (or wraps past `u64::MAX`) goes
/// byte by byte. A write costs one lookup and one copy per page it
/// touches, so data segments load page by page. The page map hashes page
/// indices with `PageHasher`; nothing iterates it in map order.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE]>, BuildHasherDefault<PageHasher>>,
}

/// Memory page granularity in bytes (also the [`crate::func::ArchSnapshot`]
/// delta granularity).
pub const PAGE_SIZE: usize = 4096;

const PAGE: usize = PAGE_SIZE;

/// A deterministic hasher for page indices: one folded 64×64→128-bit
/// multiply, so both the low bits (bucket) and the high bits (tag) of the
/// hash depend on every bit of the index. SipHash's flood resistance buys
/// nothing here: the simulated program chooses the addresses, and it is
/// either a built-in workload (all braidd runs) or the local user's own.
#[derive(Debug, Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let p = u128::from(self.0 ^ x) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ (p >> 64) as u64;
    }
}

impl Memory {
    /// Creates empty (zero-filled) memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr / PAGE as u64)) {
            Some(page) => page[(addr % PAGE as u64) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr % PAGE as u64) as usize] = value;
    }

    /// The page holding `addr`, zero-filled on first touch.
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE] {
        self.pages.entry(addr / PAGE as u64).or_insert_with(|| Box::new([0; PAGE]))
    }

    /// Reads `N` little-endian bytes (the address space wraps).
    pub fn read_bytes<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut out = [0; N];
        let off = (addr % PAGE as u64) as usize;
        if off + N <= PAGE {
            if let Some(page) = self.pages.get(&(addr / PAGE as u64)) {
                out.copy_from_slice(&page[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u64));
            }
        }
        out
    }

    /// Writes `bytes` from `addr` up (the address space wraps): one page
    /// lookup and one copy per page the bytes touch.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        let (mut addr, mut rest) = (addr, bytes);
        while !rest.is_empty() {
            let off = (addr % PAGE as u64) as usize;
            let n = rest.len().min(PAGE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            addr = addr.wrapping_add(n as u64);
            rest = &rest[n..];
        }
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Every page holding at least one non-zero byte, as `(page index,
    /// contents)` sorted by page index. Untouched and all-zero pages are
    /// equivalent (both read zero), so this is the canonical memory delta
    /// for architectural state comparison (see [`crate::func::ArchSnapshot`]).
    pub fn nonzero_pages(&self) -> Vec<(u64, Box<[u8; PAGE_SIZE]>)> {
        let mut out: Vec<(u64, Box<[u8; PAGE_SIZE]>)> = self
            .pages
            .iter()
            .filter(|(_, p)| p.iter().any(|&b| b != 0))
            .map(|(&i, p)| (i, p.clone()))
            .collect();
        out.sort_by_key(|(i, _)| *i);
        out
    }
}

/// Errors during architectural execution.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// Control transferred outside the program.
    PcOutOfRange(u64),
    /// A `T`-annotated source found no value in the internal context —
    /// an annotation bug.
    MissingInternal {
        /// Instruction index.
        idx: u32,
        /// The register whose internal value was absent.
        reg: Reg,
    },
    /// The instruction budget was exhausted before `halt`.
    OutOfFuel,
    /// A control-flow instruction carries no encoded target — a malformed
    /// (hand-built or corrupted) program.
    MissingTarget {
        /// The program counter of the offending instruction.
        pc: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} outside program"),
            ExecError::MissingInternal { idx, reg } => {
                write!(f, "instruction {idx}: internal value for {reg} missing")
            }
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted before halt"),
            ExecError::MissingTarget { pc } => {
                write!(f, "control-flow instruction at pc {pc} has no target")
            }
        }
    }
}

impl Error for ExecError {}

/// The architectural machine state.
#[derive(Debug, Clone)]
pub struct Machine {
    /// External (architectural) register file; `regs[0]` stays zero.
    regs: [u64; 64],
    /// The current braid's internal register context, keyed by the
    /// annotated register specifier. Cleared at every braid start.
    internal: HashMap<u8, u64>,
    /// Data memory.
    pub mem: Memory,
    pc: u64,
    halted: bool,
    executed: u64,
}

impl Machine {
    /// Creates a machine with `program`'s data segments loaded and the pc
    /// at its entry.
    pub fn new(program: &Program) -> Machine {
        let mut mem = Memory::new();
        for seg in &program.data {
            mem.write_bytes(seg.base, &seg.bytes);
        }
        Machine {
            regs: [0; 64],
            internal: HashMap::new(),
            mem,
            pc: program.entry as u64,
            halted: false,
            executed: 0,
        }
    }

    /// Reads an external (architectural) register.
    pub fn reg(&self, r: Reg) -> u64 {
        self.regs[r.index() as usize]
    }

    /// The whole external register file, indexed by [`Reg::index`].
    pub fn regs(&self) -> &[u64; 64] {
        &self.regs
    }

    /// Sets an external register (writes to `r0` are discarded).
    pub fn set_reg(&mut self, r: Reg, value: u64) {
        if !r.is_zero() {
            self.regs[r.index() as usize] = value;
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

    fn read_operand(
        &self,
        program: &Program,
        idx: u32,
        slot: usize,
        reg: Reg,
        internal: bool,
    ) -> Result<u64, ExecError> {
        let _ = (program, slot);
        if reg.is_zero() {
            return Ok(0);
        }
        if internal {
            self.internal
                .get(&reg.index())
                .copied()
                .ok_or(ExecError::MissingInternal { idx, reg })
        } else {
            Ok(self.regs[reg.index() as usize])
        }
    }

    fn target_of(&self, inst: &braid_isa::Inst) -> Result<u64, ExecError> {
        inst.target()
            .map(|t| t as u64)
            .ok_or(ExecError::MissingTarget { pc: self.pc })
    }

    /// Executes one instruction, returning its trace entry.
    ///
    /// # Errors
    ///
    /// See [`ExecError`].
    pub fn step(&mut self, program: &Program) -> Result<TraceEntry, ExecError> {
        if self.pc as usize >= program.insts.len() {
            return Err(ExecError::PcOutOfRange(self.pc));
        }
        let idx = self.pc as u32;
        let inst = &program.insts[idx as usize];
        let op = inst.opcode;
        if inst.braid.start {
            self.internal.clear();
        }

        // Operand fetch.
        let mut src = [0u64; 2];
        for (slot, r) in inst.src_regs().enumerate() {
            src[slot] = self.read_operand(program, idx, slot, r, inst.braid.t[slot])?;
        }
        // Conditional moves read the old destination from whichever file
        // the current braid holds it in.
        let old_dest = match (op.reads_dest(), inst.dest) {
            (true, Some(d)) => match self.internal.get(&d.index()) {
                Some(&v) => v,
                None => self.regs[d.index() as usize],
            },
            _ => 0,
        };
        let imm = inst.imm as i64 as u64;
        let f = |bits: u64| f64::from_bits(bits);
        let b = |x: f64| x.to_bits();

        let mut next_pc = self.pc + 1;
        let mut mem_addr = 0u64;
        let mut taken = false;
        let mut result: Option<u64> = None;

        use Opcode::*;
        match op {
            Add => result = Some(src[0].wrapping_add(src[1])),
            Sub => result = Some(src[0].wrapping_sub(src[1])),
            Mul => result = Some(src[0].wrapping_mul(src[1])),
            Div => {
                result = Some(if src[1] == 0 {
                    0
                } else {
                    (src[0] as i64).wrapping_div(src[1] as i64) as u64
                })
            }
            And => result = Some(src[0] & src[1]),
            Or => result = Some(src[0] | src[1]),
            Xor => result = Some(src[0] ^ src[1]),
            Andnot => result = Some(src[0] & !src[1]),
            Sll => result = Some(src[0] << (src[1] & 63)),
            Srl => result = Some(src[0] >> (src[1] & 63)),
            Sra => result = Some(((src[0] as i64) >> (src[1] & 63)) as u64),
            Cmpeq => result = Some((src[0] == src[1]) as u64),
            Cmplt => result = Some(((src[0] as i64) < (src[1] as i64)) as u64),
            Cmple => result = Some(((src[0] as i64) <= (src[1] as i64)) as u64),
            Cmpult => result = Some((src[0] < src[1]) as u64),
            Addi | Lda => result = Some(src[0].wrapping_add(imm)),
            Subi => result = Some(src[0].wrapping_sub(imm)),
            Muli => result = Some(src[0].wrapping_mul(imm)),
            Andi => result = Some(src[0] & imm),
            Ori => result = Some(src[0] | imm),
            Xori => result = Some(src[0] ^ imm),
            Slli => result = Some(src[0] << (imm & 63)),
            Srli => result = Some(src[0] >> (imm & 63)),
            Srai => result = Some(((src[0] as i64) >> (imm & 63)) as u64),
            Cmpeqi => result = Some((src[0] == imm) as u64),
            Cmplti => result = Some(((src[0] as i64) < (imm as i64)) as u64),
            Zapnot => {
                let mut v = 0u64;
                for byte in 0..8 {
                    if imm >> byte & 1 == 1 {
                        v |= src[0] & (0xff << (byte * 8));
                    }
                }
                result = Some(v);
            }
            Cmovne => result = Some(if src[0] != 0 { src[1] } else { old_dest }),
            Cmoveq => result = Some(if src[0] == 0 { src[1] } else { old_dest }),
            Cmovnei => result = Some(if src[0] != 0 { imm } else { old_dest }),
            Fadd => result = Some(b(f(src[0]) + f(src[1]))),
            Fsub => result = Some(b(f(src[0]) - f(src[1]))),
            Fmul => result = Some(b(f(src[0]) * f(src[1]))),
            Fdiv => result = Some(b(f(src[0]) / f(src[1]))),
            Fsqrt => result = Some(b(f(src[0]).sqrt())),
            Fcmpeq => result = Some((f(src[0]) == f(src[1])) as u64),
            Fcmplt => result = Some((f(src[0]) < f(src[1])) as u64),
            Fcmple => result = Some((f(src[0]) <= f(src[1])) as u64),
            Fcmovne => result = Some(if src[0] != 0 { src[1] } else { old_dest }),
            Cvtif => result = Some(b(src[0] as i64 as f64)),
            Cvtfi => result = Some(f(src[0]) as i64 as u64),
            Ldl => {
                mem_addr = src[0].wrapping_add(imm);
                result = Some(self.mem.read_u32(mem_addr) as i32 as i64 as u64);
            }
            Ldq | Fldd => {
                mem_addr = src[0].wrapping_add(imm);
                result = Some(self.mem.read_u64(mem_addr));
            }
            Stl => {
                mem_addr = src[1].wrapping_add(imm);
                self.mem.write_bytes(mem_addr, &(src[0] as u32).to_le_bytes());
            }
            Stq | Fstd => {
                mem_addr = src[1].wrapping_add(imm);
                self.mem.write_u64(mem_addr, src[0]);
            }
            Br => {
                taken = true;
                next_pc = self.target_of(inst)?;
            }
            Beq | Bne | Blt | Bge | Ble | Bgt => {
                let v = src[0] as i64;
                taken = match op {
                    Beq => v == 0,
                    Bne => v != 0,
                    Blt => v < 0,
                    Bge => v >= 0,
                    Ble => v <= 0,
                    _ => v > 0,
                };
                if taken {
                    next_pc = self.target_of(inst)?;
                }
            }
            Call => {
                taken = true;
                result = Some(self.pc + 1);
                next_pc = self.target_of(inst)?;
            }
            Ret => {
                taken = true;
                next_pc = src[0];
            }
            Nop => {}
            Halt => {
                self.halted = true;
                next_pc = self.pc;
            }
        }

        if let (Some(v), Some(d)) = (result, inst.dest) {
            if inst.braid.internal {
                self.internal.insert(d.index(), v);
            }
            if inst.braid.external {
                self.set_reg(d, v);
            }
        }

        self.executed += 1;
        let entry = TraceEntry {
            idx,
            next_idx: next_pc as u32,
            addr: mem_addr,
            taken,
        };
        self.pc = next_pc;
        Ok(entry)
    }

    /// Runs until `halt` or `max_insts` instructions, recording the trace.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfFuel`] if the budget runs out, or any
    /// execution error.
    pub fn run(&mut self, program: &Program, max_insts: u64) -> Result<Trace, ExecError> {
        let mut entries = Vec::new();
        while !self.halted {
            if self.executed >= max_insts {
                return Err(ExecError::OutOfFuel);
            }
            entries.push(self.step(program)?);
        }
        Ok(Trace { entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_compiler::{translate, TranslatorConfig};
    use braid_isa::asm::assemble;

    fn run_program(src: &str) -> (Machine, Trace) {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 100_000).unwrap();
        (m, t)
    }

    fn r(n: u8) -> Reg {
        Reg::int(n).unwrap()
    }

    #[test]
    fn arithmetic_loop_sums() {
        // sum 1..=10
        let (m, t) = run_program(
            r#"
                addi r0, #10, r1
            loop:
                addq r2, r1, r2
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        assert_eq!(m.reg(r(2)), 55);
        assert_eq!(t.entries.len(), 1 + 10 * 3 + 1);
    }

    #[test]
    fn memory_round_trip() {
        let (m, _) = run_program(
            r#"
                addi r0, #0x1000, r1
                addi r0, #-7, r2
                stq  r2, 0(r1)
                ldq  r3, 0(r1)
                stl  r2, 8(r1)
                ldl  r4, 8(r1)
                halt
            "#,
        );
        assert_eq!(m.reg(r(3)) as i64, -7);
        assert_eq!(m.reg(r(4)) as i64, -7, "ldl sign-extends");
    }

    #[test]
    fn data_segments_preloaded() {
        let (m, _) = run_program(
            r#"
                addi r0, #0x2000, r1
                ldq  r2, 0(r1)
                ldq  r3, 8(r1)
                halt
                .data 0x2000 41 1
            "#,
        );
        assert_eq!(m.reg(r(2)), 41);
        assert_eq!(m.reg(r(3)), 1);
    }

    #[test]
    fn floating_point() {
        let (m, _) = run_program(
            r#"
                addi r0, #9, r1
                cvtqt r1, f1
                sqrtt f1, f2
                addt  f1, f2, f3
                cvttq f3, r2
                cmptlt f2, f1, r3
                halt
            "#,
        );
        assert_eq!(m.reg(r(2)), 12, "9.0 + 3.0");
        assert_eq!(m.reg(r(3)), 1, "3.0 < 9.0");
    }

    #[test]
    fn cmov_keeps_old_value() {
        let (m, _) = run_program(
            r#"
                addi r0, #5, r6
                addi r0, #0, r2
                cmovnei r2, #9, r6    ; condition false: r6 stays 5
                addi r0, #1, r3
                cmovnei r3, #9, r7    ; condition true: r7 = 9
                halt
            "#,
        );
        assert_eq!(m.reg(r(6)), 5);
        assert_eq!(m.reg(r(7)), 9);
    }

    #[test]
    fn call_and_ret_flow() {
        let (m, t) = run_program(
            r#"
                call f, r31
                addi r1, #100, r1
                halt
            f:
                addi r0, #1, r1
                ret r31
            "#,
        );
        assert_eq!(m.reg(r(1)), 101);
        // call, f body, ret, add, halt
        assert_eq!(t.entries.len(), 5);
        assert_eq!(t.entries[0].next_idx, 3);
        assert_eq!(t.entries[2].next_idx, 1);
    }

    #[test]
    fn zapnot_masks_bytes() {
        let (m, _) = run_program(
            r#"
                addi r0, #0x1234, r1
                slli r1, #16, r1
                ori  r1, #0x5678, r1
                zapnot r1, #3, r2    ; keep low two bytes
                halt
            "#,
        );
        assert_eq!(m.reg(r(2)), 0x5678);
    }

    #[test]
    fn writes_to_zero_register_discarded() {
        let (m, _) = run_program("addi r0, #7, r0\nhalt");
        assert_eq!(m.reg(Reg::ZERO), 0);
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let p = assemble("loop: br loop\nhalt").unwrap();
        let mut m = Machine::new(&p);
        assert_eq!(m.run(&p, 100).unwrap_err(), ExecError::OutOfFuel);
    }

    /// The key end-to-end property: a braid-translated program computes the
    /// same architectural state as the original.
    #[test]
    fn translation_preserves_semantics() {
        let src = r#"
            start:
                addi r0, #0x1000, r20
                addi r0, #16, r21
                addi r0, #0, r22
            loop:
                addq r17, r4, r10
                addq r16, r4, r11
                ldl  r3, 0(r10)
                addi r5, #1, r5
                ldl  r12, 0(r11)
                cmpeq r21, r5, r7
                andnot r3, r12, r9
                and  r9, r12, r9
                zapnot r9, #15, r9
                addq r22, r9, r22
                stq  r22, 0(r20)
                lda  r4, 4(r4)
                beq  r7, loop
                halt
                .data 0x0 3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3
        "#;
        let p = assemble(src).unwrap();
        let t = translate(&p, &TranslatorConfig::default()).unwrap();

        let mut m1 = Machine::new(&p);
        m1.run(&p, 100_000).unwrap();
        let mut m2 = Machine::new(&t.program);
        m2.run(&t.program, 100_000).unwrap();

        // Dead values (like the loop-exit compare in r7) are legitimately
        // discarded by the braid machine — the paper's internal values never
        // reach the external file. Every *live* output must match.
        for reg in [r(4), r(5), r(20), r(21), r(22)] {
            assert_eq!(m1.reg(reg), m2.reg(reg), "register {reg} differs after translation");
        }
        assert_eq!(m1.mem.read_u64(0x1000), m2.mem.read_u64(0x1000));
        assert_eq!(m1.executed(), m2.executed());
    }
}
