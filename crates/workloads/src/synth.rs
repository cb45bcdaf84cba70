//! The seeded synthetic program generator.
//!
//! Every workload is one hot loop built from a [`WorkloadProfile`]:
//!
//! * a small **prologue block** ended by the loop-exit branch (plus, for
//!   data-dependent addressing, an index-table load; for pointer chasing,
//!   the chase load — a single-instruction braid exactly like mcf's);
//! * `block_bodies` code bodies; a body may be statically guarded by a
//!   data-dependent forward branch whose dynamic predictability follows
//!   the profile's noise (guard values come from a pre-generated table);
//! * each body holding several **operation trees** — near-chains of ALU/FP
//!   operations with load leaves, sunk to a store or an accumulator. After
//!   braid translation each tree is one braid: its temporaries are the
//!   paper's internal values; addresses, parameters and accumulators its
//!   external values (the dashed edges of the paper's Figure 2);
//! * **single-instruction braids**: per-body address advances
//!   (`lda addr, stride(addr)` — consumed by the *next* iteration, the
//!   paper's braid 3), alignment `nop`s, event-counter updates, and the
//!   induction update, matching the paper's ~20%-of-instructions
//!   observation.
//!
//! All randomness is seeded from the benchmark name: the same profile
//! always yields the same program.

use std::collections::HashMap;

use braid_isa::{AliasClass, BraidBits, DataSegment, Inst, Opcode, Program, Reg};
use braid_prng::Rng;

use crate::profiles::{BenchClass, MemPattern, WorkloadProfile};
use crate::Workload;

// Register conventions of generated code.
fn r(n: u8) -> Reg {
    Reg::int(n).expect("static register")
}
fn fr(n: u8) -> Reg {
    Reg::float(n).expect("static register")
}

const COUNTER: u8 = 1; // r1: outer loop counter
const ACCS: [u8; 4] = [2, 8, 9, 23]; // integer accumulators
const FACCS: [u8; 4] = [1, 2, 8, 9]; // f-register accumulators
const CHASE: u8 = 3; // r3: pointer-chase cursor
const INDEX: u8 = 4; // r4: element induction variable
const ANCHOR: u8 = 5; // r5: data-dependent index (Random pattern)
const GUARD: u8 = 6; // r6: guard value
const SCRATCH: u8 = 7; // r7: guard-table address
const CHAIN_T: [u8; 5] = [10, 11, 12, 13, 14]; // chain temporaries
const LEAF_T: u8 = 15; // load-leaf temporary
const ADDR_T: [u8; 6] = [16, 17, 18, 19, 20, 21]; // per-body data addresses
const PARAM: u8 = 22; // loop-invariant parameter
const PARAM2: u8 = 31; // second loop-invariant parameter
const EVENTS: [u8; 2] = [29, 30]; // event counters for single-inst braids
const IDX_BASE: u8 = 24; // index-table base (Random pattern)
const RND_BASE: u8 = 26; // random-access array base (Random pattern)
const OUTER: u8 = 25; // r25: outer (sweep) loop counter
const GUARD_BASE: u8 = 28; // guard-table base
const FPARAM: u8 = 22; // f22: loop-invariant fp parameter

// Data layout: tables low, arrays high (so wandering stores in long runs
// never corrupt the tables).
const GUARD_TABLE: u64 = 0x10_0000;
const CHASE_BASE: u64 = 0x20_0000;
const ARRAYS_BASE: u64 = 0x1000_0000;
const ARRAY_SPACING: u64 = 0x0400_0000; // 64 MiB between arrays
const NODE_BYTES: u64 = 64;

/// Simple label-fixup assembler for the generator.
#[derive(Default)]
struct Asm {
    insts: Vec<Inst>,
    labels: HashMap<String, u32>,
    fixups: Vec<(usize, String)>,
}

impl Asm {
    fn here(&self) -> u32 {
        self.insts.len() as u32
    }
    fn label(&mut self, name: impl Into<String>) {
        let name = name.into();
        let at = self.here();
        assert!(self.labels.insert(name, at).is_none(), "duplicate label");
    }
    fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
    }
    fn branch_to(&mut self, op: Opcode, src: Reg, label: impl Into<String>) {
        self.fixups.push((self.insts.len(), label.into()));
        self.push(Inst::branch(op, src, 0).expect("branch shape"));
    }
    fn br_to(&mut self, label: impl Into<String>) {
        self.fixups.push((self.insts.len(), label.into()));
        self.push(Inst::br(0));
    }
    fn finish(mut self, name: &str, data: Vec<DataSegment>) -> Program {
        for (at, label) in std::mem::take(&mut self.fixups) {
            let target = *self.labels.get(&label).unwrap_or_else(|| panic!("label {label}"));
            self.insts[at].set_target(target);
        }
        let labels = self.labels.iter().map(|(k, &v)| (k.clone(), v)).collect();
        Program { name: name.into(), insts: self.insts, entry: 0, data, labels }
    }
}

fn alui(op: Opcode, s: u8, imm: i32, d: u8) -> Inst {
    Inst::alui(op, r(s), imm, r(d)).expect("generator shapes are valid")
}
fn alu(op: Opcode, a: u8, b: u8, d: u8) -> Inst {
    Inst::alu(op, r(a), r(b), r(d)).expect("generator shapes are valid")
}
fn falu(op: Opcode, a: u8, b: u8, d: u8) -> Inst {
    Inst::alu(op, fr(a), fr(b), fr(d)).expect("generator shapes are valid")
}
fn cvt_to_fp(s: u8, d: u8) -> Inst {
    Inst {
        opcode: Opcode::Cvtif,
        dest: Some(fr(d)),
        srcs: [Some(r(s)), None],
        imm: 0,
        alias: AliasClass::Unknown,
        braid: BraidBits::unannotated(true),
    }
}
/// Materializes a (16-aligned, < 2^35) address constant into `dest`.
fn load_address(asm: &mut Asm, addr: u64, dest: u8) {
    assert_eq!(addr % 16, 0, "address constants are 16-aligned");
    assert!(addr >> 4 <= i32::MAX as u64);
    asm.push(alui(Opcode::Addi, 0, (addr >> 4) as i32, dest));
    asm.push(alui(Opcode::Slli, dest, 4, dest));
}

/// One operation tree: the generator's unit that becomes a braid.
///
/// `addrs` lists the block's live-in address registers (the tree's own
/// body first); loads mostly use the first but sometimes read a sibling
/// array, giving braids the multiple external inputs the paper measures.
#[allow(clippy::too_many_arguments)]
fn emit_tree(
    asm: &mut Asm,
    rng: &mut Rng,
    p: &WorkloadProfile,
    fp: bool,
    ops: u32,
    acc_rotation: usize,
    addrs: &[(u8, AliasClass)],
    store_disp: &mut i32,
) {
    let int_ops = [Opcode::Add, Opcode::Sub, Opcode::Xor, Opcode::And, Opcode::Or, Opcode::Andnot];
    let fp_ops = [Opcode::Fadd, Opcode::Fsub, Opcode::Fmul];
    let (addr_reg, alias) = addrs[0];

    // Chain temporaries currently holding live sub-results.
    let mut chains: Vec<u8> = Vec::new();
    let mut emitted = 0u32;

    let seed_leaf = |asm: &mut Asm, rng: &mut Rng, dest: u8, emitted: &mut u32| {
        if rng.gen_bool(p.load_prob) {
            let (base, alias) = if addrs.len() > 1 && rng.gen_bool(0.4) {
                addrs[rng.gen_range(1..addrs.len())]
            } else {
                addrs[0]
            };
            let disp = rng.gen_range(0..28) * 8;
            let inst = if fp {
                Inst::load(Opcode::Fldd, r(base), disp, fr(dest), alias)
            } else {
                Inst::load(Opcode::Ldq, r(base), disp, r(dest), alias)
            };
            asm.push(inst.expect("load shape"));
        } else if fp {
            asm.push(cvt_to_fp(INDEX, dest));
        } else if rng.gen_bool(0.5) {
            // Two-external leaf: combines the induction variable with the
            // loop-invariant parameter.
            let prm = if rng.gen_bool(0.5) { PARAM } else { PARAM2 };
            asm.push(alu(Opcode::Add, INDEX, prm, dest));
        } else {
            asm.push(alui(Opcode::Addi, INDEX, rng.gen_range(1..64), dest));
        }
        *emitted += 1;
    };

    seed_leaf(asm, rng, CHAIN_T[0], &mut emitted);
    chains.push(CHAIN_T[0]);

    while emitted < ops {
        if chains.len() >= 2 && rng.gen_bool(p.join_prob) {
            // Join two live chains.
            let b = chains.pop().expect("len >= 2");
            let a = *chains.last().expect("len >= 1");
            let op = if fp { fp_ops[rng.gen_range(0..fp_ops.len())] } else { int_ops[rng.gen_range(0..int_ops.len())] };
            asm.push(if fp { falu(op, a, b, a) } else { alu(op, a, b, a) });
            emitted += 1;
        } else if chains.len() < CHAIN_T.len() && rng.gen_bool(p.join_prob) && emitted + 2 <= ops {
            // Start a parallel sub-chain for a later join.
            let t = CHAIN_T[chains.len()];
            seed_leaf(asm, rng, t, &mut emitted);
            chains.push(t);
        } else {
            // Extend the most recent chain.
            let a = *chains.last().expect("non-empty");
            if rng.gen_bool(p.load_prob) && emitted + 2 <= ops {
                seed_leaf(asm, rng, LEAF_T, &mut emitted);
                let op = if fp { fp_ops[rng.gen_range(0..fp_ops.len())] } else { int_ops[rng.gen_range(0..int_ops.len())] };
                asm.push(if fp { falu(op, a, LEAF_T, a) } else { alu(op, a, LEAF_T, a) });
            } else if rng.gen_bool(0.45) {
                // Mix in the loop-invariant parameter (an external input).
                let op = if fp { fp_ops[rng.gen_range(0..fp_ops.len())] } else { int_ops[rng.gen_range(0..int_ops.len())] };
                let prm = if rng.gen_bool(0.5) { PARAM } else { PARAM2 };
                asm.push(if fp { falu(op, a, FPARAM, a) } else { alu(op, a, prm, a) });
            } else if fp {
                asm.push(falu(fp_ops[rng.gen_range(0..fp_ops.len())], a, a, a));
            } else {
                let imm_ops = [Opcode::Addi, Opcode::Xori, Opcode::Subi];
                asm.push(alui(imm_ops[rng.gen_range(0..imm_ops.len())], a, rng.gen_range(1..256), a));
            }
            emitted += 1;
        }
    }

    // Fold remaining parallel chains into the first.
    while chains.len() > 1 {
        let b = chains.pop().expect("len > 1");
        let a = *chains.last().expect("len >= 1");
        asm.push(if fp { falu(Opcode::Fadd, a, b, a) } else { alu(Opcode::Add, a, b, a) });
    }
    let root = chains[0];

    // Sink the root: store it or accumulate it.
    if rng.gen_bool(p.store_prob) {
        let disp = *store_disp;
        *store_disp += 8;
        let inst = if fp {
            Inst::store(Opcode::Fstd, fr(root), r(addr_reg), disp, alias)
        } else {
            Inst::store(Opcode::Stq, r(root), r(addr_reg), disp, alias)
        };
        asm.push(inst.expect("store shape"));
    } else if fp {
        let acc = FACCS[acc_rotation % FACCS.len()];
        asm.push(falu(Opcode::Fadd, acc, root, acc));
    } else {
        let acc = ACCS[acc_rotation % ACCS.len()];
        asm.push(alu(Opcode::Add, acc, root, acc));
    }
}

/// Emits `n` single-instruction braids (alignment nops and independent
/// event-counter updates, as a non-braid-aware compiler leaves behind).
fn emit_singles(asm: &mut Asm, rng: &mut Rng, n: u32, used_events: &mut [bool; 2]) {
    for _ in 0..n {
        let free = (0..EVENTS.len()).find(|&i| !used_events[i]);
        let choice = rng.gen_range(0..10);
        match free {
            Some(i) if choice < 6 => {
                used_events[i] = true;
                asm.push(alui(Opcode::Addi, EVENTS[i], 1, EVENTS[i]));
            }
            // A value computed for an untraversed path: produced but never
            // read (the paper's ~4% dead values). LEAF_T is redefined by
            // the next tree's load before any use.
            _ if choice < 8 => {
                asm.push(alui(Opcode::Addi, INDEX, rng.gen_range(1..64), LEAF_T));
            }
            _ => asm.push(Inst::nop()),
        }
    }
}

fn fnv(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Per-iteration walk stride in bytes for the streaming patterns.
fn stride_bytes(pattern: MemPattern) -> u64 {
    match pattern {
        MemPattern::Stream => 8,
        MemPattern::Strided(k) => 8 * k,
        // Random and PointerChase walk through tables instead.
        MemPattern::Random | MemPattern::PointerChase => 8,
    }
}

/// Generates the workload described by `profile` at dynamic-length `scale`.
pub fn generate(profile: &WorkloadProfile, scale: f64) -> Workload {
    let p = profile;
    assert!(
        p.block_bodies as usize <= ADDR_T.len(),
        "{}: at most {} bodies supported",
        p.name,
        ADDR_T.len()
    );
    let mut rng = Rng::seed_from_u64(fnv(p.name));
    let mut asm = Asm::default();
    let chase = p.pattern == MemPattern::PointerChase;
    let random = p.pattern == MemPattern::Random;
    let guard_entries: u64 = 1024;
    // Random-pattern index mask over the array region (power of two).
    let idx_mask = ((p.footprint / 4).next_power_of_two().clamp(1 << 16, 1 << 21) - 256) & !7;

    // ---- Init block ----
    let array_base = |b: usize| ARRAYS_BASE + b as u64 * ARRAY_SPACING;
    if !random {
        #[allow(clippy::needless_range_loop)] // body indexes both ADDR_T and bases
        for body in 0..p.block_bodies as usize {
            if chase && body == 0 {
                continue; // body 0 addresses through the chase cursor
            }
            load_address(&mut asm, array_base(body) + (body as u64 * 32), ADDR_T[body]);
        }
    }
    load_address(&mut asm, GUARD_TABLE, GUARD_BASE);
    if chase {
        load_address(&mut asm, CHASE_BASE, CHASE);
    }
    if random {
        load_address(&mut asm, array_base(0), RND_BASE);
        load_address(&mut asm, array_base(p.block_bodies as usize), IDX_BASE);
    }
    asm.push(alui(Opcode::Addi, 0, 0, INDEX));
    asm.push(alui(Opcode::Addi, 0, 0x55aa, PARAM));
    asm.push(alui(Opcode::Addi, 0, 0x0ff0, PARAM2));
    if p.fp_frac > 0.0 {
        asm.push(cvt_to_fp(PARAM, FPARAM));
    }
    let outer_patch = asm.here() as usize;
    asm.push(alui(Opcode::Addi, 0, 1, OUTER)); // patched below

    // Static guard decisions.
    let guarded: Vec<bool> = (0..p.block_bodies).map(|_| rng.gen_bool(p.guard_prob)).collect();
    let any_guard = guarded.iter().any(|&g| g);

    // ---- Outer (sweep) loop: rewind the walk so the working set is
    // bounded and revisited, as real kernels sweep their grids. ----
    asm.label("outer_top");
    let outer_start = asm.here();
    if !random {
        #[allow(clippy::needless_range_loop)] // body indexes both ADDR_T and bases
        for body in 0..p.block_bodies as usize {
            if chase && body == 0 {
                continue;
            }
            load_address(&mut asm, array_base(body) + (body as u64 * 32), ADDR_T[body]);
        }
    }
    let counter_patch = asm.here() as usize;
    asm.push(alui(Opcode::Addi, 0, 1, COUNTER)); // patched below

    // ---- Prologue block ----
    asm.label("loop_top");
    let loop_start = asm.here();
    if chase {
        // The chase load: consumed by the next block's trees and by the
        // next iteration — a single-instruction braid, like mcf's.
        asm.push(
            Inst::load(Opcode::Ldq, r(CHASE), 0, r(CHASE), AliasClass::Heap(0))
                .expect("load shape"),
        );
    }
    if random {
        // Data-dependent anchor: a masked index loaded from the index
        // table, rebased onto the data array each iteration.
        asm.push(alui(Opcode::Slli, INDEX, 3, ANCHOR));
        asm.push(alui(Opcode::Andi, ANCHOR, idx_mask as i32, ANCHOR));
        asm.push(alu(Opcode::Add, IDX_BASE, ANCHOR, ANCHOR));
        asm.push(
            Inst::load(Opcode::Ldq, r(ANCHOR), 0, r(ANCHOR), AliasClass::Global(80))
                .expect("load shape"),
        );
        asm.push(alu(Opcode::Add, RND_BASE, ANCHOR, ANCHOR));
    }
    if any_guard {
        let gmask = ((guard_entries - 1) * 8) as i32 & !63;
        asm.push(alui(Opcode::Slli, INDEX, 3, SCRATCH));
        asm.push(alui(Opcode::Andi, SCRATCH, gmask, SCRATCH));
        asm.push(alu(Opcode::Add, GUARD_BASE, SCRATCH, SCRATCH));
    }
    asm.push(alui(Opcode::Subi, COUNTER, 1, COUNTER));
    asm.branch_to(Opcode::Beq, r(COUNTER), "inner_exit");

    // ---- Body blocks ----
    let stride = stride_bytes(p.pattern) as i32;
    #[allow(clippy::needless_range_loop)] // fifos of registers, indexed deliberately
    for body in 0..p.block_bodies as usize {
        let mut used_events = [false; 2];
        if guarded[body] {
            asm.push(
                Inst::load(Opcode::Ldq, r(SCRATCH), body as i32 * 8, r(GUARD), AliasClass::Global(90))
                    .expect("load shape"),
            );
            asm.branch_to(Opcode::Beq, r(GUARD), format!("skip_{body}"));
        }
        let addr_of = |b: usize| -> (u8, AliasClass) {
            if chase && b == 0 {
                (CHASE, AliasClass::Heap(0))
            } else if random {
                (ANCHOR, AliasClass::Global(0))
            } else {
                (ADDR_T[b], AliasClass::Global(b as u16))
            }
        };
        let mut addrs: Vec<(u8, AliasClass)> = vec![addr_of(body)];
        if !random {
            for other in 0..p.block_bodies as usize {
                if other != body {
                    addrs.push(addr_of(other));
                }
            }
        }
        let trees = rng.gen_range(p.trees_per_block.0..=p.trees_per_block.1);
        let singles = rng.gen_range(p.singles_per_block.0..=p.singles_per_block.1);
        // Results land *behind* the walk (like a stencil writing its output
        // plane), so future iterations' loads never depend on them; the
        // pointer-chase body stores into its own node's payload instead.
        let mut store_disp = if chase && body == 0 { 24 } else { -512 };
        let mut singles_left = singles;
        for t in 0..trees {
            if singles_left > 0 && rng.gen_bool(0.5) {
                emit_singles(&mut asm, &mut rng, 1, &mut used_events);
                singles_left -= 1;
            }
            let fp = rng.gen_bool(p.fp_frac);
            let ops = rng.gen_range(p.tree_ops.0..=p.tree_ops.1);
            emit_tree(&mut asm, &mut rng, p, fp, ops, body + t as usize, &addrs, &mut store_disp);
        }
        emit_singles(&mut asm, &mut rng, singles_left, &mut used_events);
        // Advance this body's address — a single-instruction braid whose
        // consumer is the next iteration (the paper's `lda` braid).
        if !(random || (chase && body == 0)) {
            asm.push(alui(Opcode::Lda, ADDR_T[body], stride, ADDR_T[body]));
        }
        if guarded[body] {
            asm.label(format!("skip_{body}"));
        }
    }

    // ---- Induction and back edges ----
    asm.push(alui(Opcode::Lda, INDEX, 1, INDEX));
    asm.br_to("loop_top");
    asm.label("inner_exit");
    asm.push(alui(Opcode::Subi, OUTER, 1, OUTER));
    asm.branch_to(Opcode::Bne, r(OUTER), "outer_top");
    asm.push(Inst::halt());

    // Pick iteration counts from the measured loop-body length: the inner
    // sweep covers a bounded working set (at most a quarter of the run, and
    // at most `footprint/4` bytes per array), the outer loop repeats it.
    let body_len = (asm.here() - loop_start - 3) as u64; // per inner iteration
    let outer_block = (loop_start - outer_start) as u64 + 3;
    let target = (p.dyn_insts as f64 * scale) as u64;
    let total_iters = (target / body_len).max(8);
    // The swept working set is the benchmark's character (its footprint),
    // independent of how long the run is: each array's sweep covers
    // `footprint / 4` bytes (clamped), and the outer loop repeats it.
    let cap_by_foot = (p.footprint / 4).max(4096) / stride_bytes(p.pattern).max(1);
    let inner_iters = cap_by_foot.clamp(64, 8192).min(total_iters);
    let outer_iters = total_iters.div_ceil(inner_iters);
    asm.insts[counter_patch] = alui(Opcode::Addi, 0, inner_iters as i32, COUNTER);
    asm.insts[outer_patch] = alui(Opcode::Addi, 0, outer_iters as i32, OUTER);
    let iters = inner_iters * outer_iters;
    let fuel =
        outer_start as u64 + outer_iters * (outer_block + (inner_iters + 1) * body_len) + 10_000;

    // ---- Data segments (sized from the iteration count) ----
    let mut data = Vec::new();
    let guard_words: Vec<u64> = (0..guard_entries)
        .map(|i| {
            if rng.gen_bool(p.branch_noise) {
                rng.gen_range(0..2u64)
            } else {
                (i % 4 != 0) as u64
            }
        })
        .collect();
    data.push(DataSegment::from_words(GUARD_TABLE, &guard_words));
    if chase {
        let nodes = (p.footprint / NODE_BYTES).clamp(64, 1 << 15);
        let mut perm: Vec<u64> = (0..nodes).collect();
        // Sattolo's algorithm produces a single cycle.
        #[allow(clippy::needless_range_loop)] // Sattolo's algorithm is index-based
        for i in (1..nodes as usize).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        let mut seg = DataSegment::zeroed(CHASE_BASE, (nodes * NODE_BYTES) as usize);
        #[allow(clippy::needless_range_loop)] // i addresses node offsets and perm
        for i in 0..nodes as usize {
            seg.put_word(i * NODE_BYTES as usize, CHASE_BASE + perm[i] * NODE_BYTES);
            seg.put_word(i * NODE_BYTES as usize + 8, i as u64 + 1);
            seg.put_word(i * NODE_BYTES as usize + 16, (i as u64).wrapping_mul(7) + 3);
        }
        data.push(seg);
    }
    // Initialized array contents: cover the walked region (or the index
    // mask for data-dependent addressing), capped to keep generation fast.
    let _ = iters;
    let walked = if random {
        idx_mask + 512
    } else {
        (inner_iters * stride_bytes(p.pattern) + 4096).min(8 << 20)
    };
    let data_bodies: &[usize] = if random { &[0] } else { &[0, 1, 2, 3, 4, 5] };
    for &body in data_bodies.iter().take((p.block_bodies as usize).max(1)) {
        if chase && body == 0 && !random {
            continue;
        }
        let words = (walked / 8) as usize;
        let mut content = Vec::with_capacity(words);
        for i in 0..words {
            if p.class == BenchClass::Float {
                content.push((1.0 + i as f64 * 0.001).to_bits());
            } else {
                content.push(rng.gen_range(1..1_000_000u64));
            }
        }
        data.push(DataSegment::from_words(array_base(body), &content));
    }
    if random {
        // The index table: random 8-aligned offsets under the mask.
        let words = (idx_mask / 8 + 64) as usize;
        let content: Vec<u64> =
            (0..words).map(|_| rng.gen_range(0..idx_mask / 8) * 8).collect();
        data.push(DataSegment::from_words(array_base(p.block_bodies as usize), &content));
    }

    let program = asm.finish(p.name, data);
    debug_assert!(program.validate().is_ok(), "generated program must validate");
    Workload { name: p.name.to_string(), class: p.class, program, fuel }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::PROFILES;

    #[test]
    fn every_benchmark_generates_and_validates() {
        for p in PROFILES {
            let w = generate(p, 0.05);
            w.program.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
            assert!(w.program.insts.len() > 20, "{} too small", p.name);
            assert!(w.fuel > 0);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&PROFILES[0], 0.1);
        let b = generate(&PROFILES[0], 0.1);
        assert_eq!(a.program.insts, b.program.insts);
        assert_eq!(a.program.data, b.program.data);
    }

    #[test]
    fn max_scale_keeps_loop_counters_in_range() {
        for p in PROFILES {
            let w = generate(p, crate::MAX_SCALE);
            // The patched `addi r0, #n, counter` immediates.
            let count = |reg: u8| -> i64 {
                let imms: Vec<i32> = w
                    .program
                    .insts
                    .iter()
                    .filter(|i| i.opcode == Opcode::Addi && i.dest == Some(r(reg)))
                    .filter(|i| i.srcs[0] == Some(r(0)))
                    .map(|i| i.imm)
                    .collect();
                assert_eq!(imms.len(), 1, "{}: one patched counter in r{reg}", p.name);
                assert!(imms[0] > 0, "{}: r{reg} counter {} wrapped", p.name, imms[0]);
                i64::from(imms[0])
            };
            // No loop body is longer than the program, so the two loops
            // must run at least target / program-length iterations.
            let target = (p.dyn_insts as f64 * crate::MAX_SCALE) as i64;
            let floor = target / w.program.insts.len() as i64;
            let iters = count(COUNTER) * count(OUTER);
            assert!(iters >= floor, "{}: {iters} iterations, want >= {floor}", p.name);
            assert!(w.fuel as i64 >= target, "{}: fuel {} under {target}", p.name, w.fuel);
        }
    }

    #[test]
    fn scale_changes_iteration_count_not_code() {
        let small = generate(&PROFILES[3], 0.1);
        let large = generate(&PROFILES[3], 1.0);
        assert_eq!(small.program.insts.len(), large.program.insts.len());
        // Fuel includes a fixed safety margin; the loop portion scales.
        assert!(large.fuel - 10_000 > (small.fuel - 10_000) * 5);
    }

    #[test]
    fn tables_live_below_the_arrays() {
        for p in PROFILES {
            let w = generate(p, 0.05);
            for seg in &w.program.data {
                assert!(seg.base >= GUARD_TABLE);
                assert!(seg.end() < 0x4000_0000, "{}: data below the text base", p.name);
            }
        }
    }

    #[test]
    fn pointer_chase_ring_is_a_cycle() {
        let w = generate(PROFILES.iter().find(|p| p.name == "mcf").unwrap(), 0.05);
        let ring = w
            .program
            .data
            .iter()
            .find(|s| s.base == CHASE_BASE)
            .expect("chase segment");
        let nodes = ring.bytes.len() / NODE_BYTES as usize;
        let read = |i: usize| {
            let off = i * NODE_BYTES as usize;
            u64::from_le_bytes(ring.bytes[off..off + 8].try_into().unwrap())
        };
        let mut seen = vec![false; nodes];
        let mut cur = 0usize;
        for _ in 0..nodes {
            assert!(!seen[cur], "ring revisits node {cur} early");
            seen[cur] = true;
            cur = ((read(cur) - ring.base) / NODE_BYTES) as usize;
        }
        assert_eq!(cur, 0, "ring closes after visiting every node");
    }

    #[test]
    fn streaming_benchmarks_advance_with_lda_singles() {
        let w = generate(PROFILES.iter().find(|p| p.name == "swim").unwrap(), 0.05);
        let ldas = w
            .program
            .insts
            .iter()
            .filter(|i| i.opcode == Opcode::Lda)
            .count();
        // One per body plus the induction update.
        assert!(ldas >= 3, "swim advances its arrays with lda: {ldas}");
    }
}
