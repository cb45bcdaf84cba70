//! Per-run simulation statistics.

use std::fmt;

use braid_uarch::stats::Ratio;

use crate::obs::CpiStack;

/// Statistics produced by one timing-simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Total cycles simulated.
    pub cycles: u64,
    /// Dynamic instructions retired.
    pub instructions: u64,
    /// Conditional-branch prediction accuracy.
    pub branch_accuracy: Ratio,
    /// Return-target prediction accuracy.
    pub ras_accuracy: Ratio,
    /// L1 instruction cache hits.
    pub l1i: Ratio,
    /// L1 data cache hits.
    pub l1d: Ratio,
    /// Unified L2 hits.
    pub l2: Ratio,
    /// Loads forwarded from older stores.
    pub forwarded_loads: u64,
    /// Cycles the front end was stalled refilling after a misprediction.
    pub mispredict_stall_cycles: u64,
    /// Dispatch stalls: no free register-buffer / external-register entry.
    pub stall_regs: u64,
    /// Dispatch stalls: no scheduler / FIFO space.
    pub stall_window: u64,
    /// Dispatch stalls: load-store queue full.
    pub stall_lsq: u64,
    /// Load issue attempts rejected by memory-ordering (LSQ) waits.
    pub lsq_wait_events: u64,
    /// Dispatch stalls: allocation/rename bandwidth exhausted.
    pub stall_alloc_bw: u64,
    /// External (register) values produced per cycle — the braid paper's
    /// §5.1 observes ~2/cycle.
    pub external_values_per_cycle: f64,
    /// Checkpoint state words saved (smaller in the braid machine).
    pub checkpoint_words: u64,
    /// Exceptions taken (braid machine: single-BEU in-order episodes).
    pub exceptions_taken: u64,
    /// Host wall-clock nanoseconds the timing run took. On the streamed
    /// full tier this includes producing the trace, which is interleaved
    /// with timing. **Not deterministic** — excluded from sweep
    /// aggregation and golden files.
    pub host_nanos: u64,
    /// Total retirement slots offered (`cycles × width`); with
    /// [`SimReport::instructions`] this gives retire-bandwidth utilization.
    pub retire_slots: u64,
    /// The CPI stack: every cycle attributed to exactly one cause
    /// ([`CpiStack::total`] always equals [`SimReport::cycles`]).
    pub cpi: CpiStack,
}

impl SimReport {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// Speedup of this run over `baseline` (ratio of IPCs).
    pub fn speedup_over(&self, baseline: &SimReport) -> f64 {
        if baseline.ipc() == 0.0 {
            0.0
        } else {
            self.ipc() / baseline.ipc()
        }
    }

    /// Host throughput: simulated cycles per wall-clock second.
    pub fn sim_cycles_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.cycles as f64 * 1e9 / self.host_nanos as f64
        }
    }

    /// Host throughput: retired instructions per wall-clock second.
    pub fn sim_insts_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            0.0
        } else {
            self.instructions as f64 * 1e9 / self.host_nanos as f64
        }
    }

    /// Fraction of retirement slots actually used (`instructions /
    /// (cycles × width)`).
    pub fn retire_slot_utilization(&self) -> f64 {
        if self.retire_slots == 0 {
            0.0
        } else {
            self.instructions as f64 / self.retire_slots as f64
        }
    }

    /// Sum of every stall-event counter (dispatch stalls on registers,
    /// window, LSQ capacity and allocation bandwidth, plus load
    /// memory-ordering waits). These are *events*, not cycles — a single
    /// cycle can record several — so this complements, rather than
    /// duplicates, the per-cycle [`SimReport::cpi`] stack.
    pub fn stall_total(&self) -> u64 {
        self.stall_regs
            + self.stall_window
            + self.stall_lsq
            + self.stall_alloc_bw
            + self.lsq_wait_events
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} insts in {} cycles: IPC {:.3}",
            self.instructions,
            self.cycles,
            self.ipc(),
        )?;
        writeln!(
            f,
            "  branches {}, ras {}, L1I {}, L1D {}, L2 {}",
            self.branch_accuracy, self.ras_accuracy, self.l1i, self.l1d, self.l2
        )?;
        writeln!(
            f,
            "  stalls: regs {} window {} lsq {} alloc {} lsqwait {} (total {}); ext values/cycle {:.2}",
            self.stall_regs,
            self.stall_window,
            self.stall_lsq,
            self.stall_alloc_bw,
            self.lsq_wait_events,
            self.stall_total(),
            self.external_values_per_cycle
        )?;
        writeln!(
            f,
            "  mispredict-stall cycles {}, forwarded loads {}, checkpoint words {}, exceptions {}",
            self.mispredict_stall_cycles,
            self.forwarded_loads,
            self.checkpoint_words,
            self.exceptions_taken
        )?;
        write!(
            f,
            "  host: {:.2} Mcycles/s, {:.2} Minsts/s, retire-slot util {:.1}%",
            self.sim_cycles_per_sec() / 1e6,
            self.sim_insts_per_sec() / 1e6,
            self.retire_slot_utilization() * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_speedup() {
        let a = SimReport { cycles: 100, instructions: 250, ..SimReport::default() };
        let b = SimReport { cycles: 100, instructions: 125, ..SimReport::default() };
        assert!((a.ipc() - 2.5).abs() < 1e-12);
        assert!((a.speedup_over(&b) - 2.0).abs() < 1e-12);
        assert_eq!(SimReport::default().ipc(), 0.0);
        assert_eq!(a.speedup_over(&SimReport::default()), 0.0);
    }

    #[test]
    fn display_mentions_ipc() {
        let a = SimReport { cycles: 10, instructions: 20, ..SimReport::default() };
        assert!(a.to_string().contains("IPC 2.000"));
    }

    #[test]
    fn stall_total_sums_every_counter() {
        let r = SimReport {
            stall_regs: 1,
            stall_window: 2,
            stall_lsq: 4,
            lsq_wait_events: 8,
            stall_alloc_bw: 16,
            ..SimReport::default()
        };
        assert_eq!(r.stall_total(), 31);
        assert_eq!(SimReport::default().stall_total(), 0);
    }

    #[test]
    fn display_prints_every_stall_counter() {
        // Once-omitted fields (mispredict stall cycles, forwarded loads,
        // checkpoint words, exceptions) must all be visible.
        let r = SimReport {
            cycles: 10,
            instructions: 5,
            mispredict_stall_cycles: 111,
            forwarded_loads: 222,
            checkpoint_words: 333,
            exceptions_taken: 444,
            stall_regs: 555,
            stall_window: 666,
            stall_lsq: 777,
            lsq_wait_events: 888,
            stall_alloc_bw: 999,
            ..SimReport::default()
        };
        let text = r.to_string();
        for n in ["111", "222", "333", "444", "555", "666", "777", "888", "999"] {
            assert!(text.contains(n), "missing {n} in {text}");
        }
        assert!(text.contains(&format!("total {}", r.stall_total())), "{text}");
    }
}
