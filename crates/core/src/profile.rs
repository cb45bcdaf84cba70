//! Dynamic value characterization (paper §1).
//!
//! The paper motivates braids with two dynamic properties of register
//! values in SPEC CPU2000: **fanout** (over 70% of values are read exactly
//! once, ~90% at most twice, ~4% never) and **lifetime** (about 80% of
//! values are fully consumed within 32 dynamic instructions of their
//! producer). This module measures both over a committed stream.

use braid_isa::Program;
use braid_uarch::stats::Histogram;

use crate::trace::{for_each_entry, TraceSource};

/// Dynamic value fanout and lifetime distributions.
#[derive(Debug, Clone, Default)]
pub struct ValueProfile {
    /// Reads per produced value (dynamic).
    pub fanout: Histogram,
    /// Dynamic instructions from producer to *last* consumer.
    pub lifetime: Histogram,
}

impl ValueProfile {
    /// Profiles every register value produced in the committed stream of
    /// `program` that `source` supplies.
    pub fn measure(program: &Program, source: &mut dyn TraceSource) -> ValueProfile {
        // For each architectural register: (producer position, reads so
        // far, last read position).
        let mut live: [Option<(u64, u64, u64)>; 64] = [None; 64];
        let mut profile = ValueProfile::default();
        let close = |entry: Option<(u64, u64, u64)>, profile: &mut ValueProfile| {
            if let Some((born, reads, last_read)) = entry {
                profile.fanout.record(reads);
                if reads > 0 {
                    profile.lifetime.record(last_read - born);
                }
            }
        };
        let mut pos = 0u64;
        for_each_entry(source, |e| {
            let inst = &program.insts[e.idx as usize];
            for r in inst.read_regs() {
                if r.is_zero() {
                    continue;
                }
                if let Some(v) = live[r.index() as usize].as_mut() {
                    v.1 += 1;
                    v.2 = pos;
                }
            }
            if let Some(d) = inst.written_reg() {
                if !d.is_zero() {
                    close(live[d.index() as usize].take(), &mut profile);
                    live[d.index() as usize] = Some((pos, 0, pos));
                }
            }
            pos += 1;
        });
        for v in live {
            close(v, &mut profile);
        }
        profile
    }

    /// Fraction of values read exactly once (the paper: >70%).
    pub fn read_once(&self) -> f64 {
        if self.fanout.total() == 0 {
            return 0.0;
        }
        self.fanout.count_of(1) as f64 / self.fanout.total() as f64
    }

    /// Fraction of values read at most twice (the paper: ~90%).
    pub fn read_at_most_twice(&self) -> f64 {
        self.fanout.cdf_at(2) - self.dead()
    }

    /// Fraction of values produced but never read (the paper: ~4%).
    pub fn dead(&self) -> f64 {
        if self.fanout.total() == 0 {
            return 0.0;
        }
        self.fanout.count_of(0) as f64 / self.fanout.total() as f64
    }

    /// Fraction of consumed values whose lifetime is at most `n` dynamic
    /// instructions (the paper: ~80% within 32).
    pub fn lifetime_within(&self, n: u64) -> f64 {
        self.lifetime.cdf_at(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::Machine;
    use braid_isa::asm::assemble;

    fn profile_of(src: &str) -> ValueProfile {
        let p = assemble(src).unwrap();
        let mut m = Machine::new(&p);
        let t = m.run(&p, 100_000).unwrap();
        ValueProfile::measure(&p, &mut t.entries.as_slice())
    }

    #[test]
    fn single_use_chain() {
        let pr = profile_of(
            "addi r0, #1, r1\naddq r1, r1, r2\naddq r2, r2, r3\nhalt",
        );
        // r1 read twice (by one inst), r2 read twice, r3 dead.
        assert_eq!(pr.fanout.count_of(2), 2);
        assert_eq!(pr.fanout.count_of(0), 1);
        assert!(pr.dead() > 0.3);
    }

    #[test]
    fn short_lifetimes_in_tight_loop() {
        let pr = profile_of(
            r#"
                addi r0, #100, r1
            loop:
                addq r2, r1, r3
                addq r3, r1, r4
                stq  r4, 0(r9)
                subi r1, #1, r1
                bne  r1, loop
                halt
            "#,
        );
        assert!(pr.lifetime_within(32) > 0.9, "tight loop values die fast");
        assert!(pr.read_once() > 0.3, "read-once fraction {}", pr.read_once());
    }

    #[test]
    fn redefinition_closes_values() {
        let pr = profile_of("addi r0, #1, r1\naddi r0, #2, r1\naddq r1, r1, r2\nhalt");
        // First r1 is dead (redefined unread), second read twice.
        assert_eq!(pr.fanout.count_of(0), 2, "first r1 and r2");
        assert_eq!(pr.fanout.count_of(2), 1);
    }
}
