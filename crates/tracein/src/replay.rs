//! Replaying recorded traces through the four timing cores.
//!
//! The conventional cores (`inorder`, `dep`, `ooo`) are trace-driven:
//! [`TraceReader::replay`] times the recorded stream as it decodes it, so
//! a replay never touches the functional executor. The braid core runs the
//! *translated* program, whose instruction indices differ from the
//! recorded original, so [`replay_braid`] translates the embedded program,
//! statically vets the result with the braid-contract checker, and streams
//! it through `run_full` under the file's recorded fuel — exactly what
//! `run_tier` does for a live run, which keeps replayed and live braid
//! cycle counts identical.

use std::io::{self, BufRead, Seek};

use braid_core::processor::{run_full, translate_checked, CoreConfig, RunError};
use braid_core::{NoopObserver, SimReport};
use braid_sweep::digest::ContentDigest;

use crate::error::ReplayError;
use crate::format::{verify, TraceFile, TraceReader};

/// Replays the braid core on the trace whose header is `file`: it
/// re-runs the embedded program's translation under the recorded fuel and
/// reads no entries.
///
/// # Errors
///
/// Propagates translation, braid-contract, functional-execution and
/// timing failures.
pub fn replay_braid(file: &TraceFile, core: &CoreConfig) -> Result<SimReport, ReplayError> {
    let translation = translate_checked(&file.program)?;
    Ok(run_full(&translation.program, core, file.fuel, &mut NoopObserver)?)
}

impl<R: BufRead + Seek> TraceReader<R> {
    /// Times this file's stream on `core`, then finishes reading it: a
    /// problem in the file wins over a timing failure. The braid core runs
    /// [`replay_braid`] once the whole file has checked out; a caller that
    /// has already run [`verify`] calls that directly.
    ///
    /// # Errors
    ///
    /// As for [`TraceReader::finish`], then timing failures (and, for the
    /// braid core, those of [`replay_braid`]).
    pub fn replay(mut self, core: &CoreConfig) -> Result<SimReport, ReplayError> {
        if core.is_braid() {
            let header = self.header().clone();
            self.finish()?;
            return replay_braid(&header, core);
        }
        let program = self.header().program.clone();
        let report = core.run(&program, &mut self);
        self.finish()?;
        Ok(report.map_err(RunError::Sim)?)
    }
}

/// Folds already-replayed per-core reports — plus the trace's own content
/// digest — into the canonical cycle digest. Callers that print the
/// reports as they come (the `trace-replay` CLI, braidd) use this;
/// [`cycle_digest`] is the one-call form.
pub fn cycle_digest_of(trace_digest: &str, reports: &[(&str, &SimReport)]) -> String {
    let mut d = ContentDigest::new().field("trace", trace_digest);
    for (name, r) in reports {
        d = d.field(name, format!("{}c:{}i", r.cycles, r.instructions));
    }
    d.finish()
}

/// Verifies the trace file `open` yields, replays it on every core in
/// `cores` (opening it once more per trace-driven core) and folds the cycle and
/// instruction counts — plus the trace's own content digest — into one
/// canonical digest string. Two replays of the same trace must agree on
/// this byte-for-byte; it is the determinism witness the tier-1 smoke
/// test compares.
///
/// # Errors
///
/// As for [`verify`], [`TraceReader::replay`] and [`replay_braid`], for
/// whichever fails first.
pub fn cycle_digest<R: BufRead + Seek>(
    open: impl Fn() -> io::Result<R>,
    cores: &[CoreConfig],
) -> Result<String, ReplayError> {
    let (header, trace_digest) = verify(open()?)?;
    let mut reports = Vec::with_capacity(cores.len());
    for core in cores {
        let report = if core.is_braid() {
            replay_braid(&header, core)?
        } else {
            TraceReader::new(open()?)?.replay(core)?
        };
        reports.push((core.name(), report));
    }
    let borrowed: Vec<(&str, &SimReport)> = reports.iter().map(|(n, r)| (*n, r)).collect();
    Ok(cycle_digest_of(&trace_digest, &borrowed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
    use braid_isa::asm::assemble;
    use std::io::Cursor;

    fn four_cores() -> Vec<CoreConfig> {
        vec![
            CoreConfig::InOrder(InOrderConfig::paper_8wide()),
            CoreConfig::Dep(DepConfig::paper_8wide()),
            CoreConfig::Ooo(OooConfig::paper_8wide()),
            CoreConfig::Braid(BraidConfig::paper_default()),
        ]
    }

    /// A recorded sample program and its binary trace file.
    fn sample() -> (TraceFile, Vec<u8>) {
        let mut p = assemble(
            r#"
                addi r0, #64, r1
            loop:
                ldq  r2, 0(r3) @global:1
                mulq r2, r2, r4
                addq r4, r5, r5
                addi r3, #8, r3
                subi r1, #1, r1
                bne  r1, loop
                halt
                .data 0x1000 1 2 3 4 5 6 7 8
            "#,
        )
        .unwrap();
        p.name = "replay_sample".into();
        let f = TraceFile::record(&p, 100_000).unwrap();
        let mut bytes = Vec::new();
        f.write_binary(&mut bytes).unwrap();
        (f, bytes)
    }

    #[test]
    fn all_four_cores_replay_a_recorded_trace() {
        let (_, bytes) = sample();
        for core in four_cores() {
            let r = TraceReader::new(Cursor::new(&bytes[..]))
                .unwrap()
                .replay(&core)
                .unwrap_or_else(|e| panic!("{}: {e}", core.name()));
            assert!(r.cycles > 0, "{} must make progress", core.name());
            assert!(r.instructions > 0);
        }
    }

    #[test]
    fn replay_matches_a_live_run() {
        // A replayed trace must produce the same cycle count as running
        // the program live through the one-call pipelines.
        let (f, bytes) = sample();
        for core in four_cores() {
            let reader = TraceReader::new(Cursor::new(&bytes[..])).unwrap();
            let replayed = reader.replay(&core).unwrap();
            let live = braid_core::run_tier(
                &f.program,
                &core,
                braid_core::Tier::Full,
                f.fuel,
                &braid_core::SamplingConfig::default(),
            )
            .unwrap();
            let live_cycles = match live {
                braid_core::processor::TierReport::Full(r) => r.cycles,
                _ => unreachable!("Tier::Full returns Full"),
            };
            assert_eq!(replayed.cycles, live_cycles, "{} replay != live", core.name());
        }
    }

    #[test]
    fn cycle_digest_is_deterministic_across_runs_and_serialization() {
        let (f, bytes) = sample();
        let cores = four_cores();
        let d1 = cycle_digest(|| Ok(Cursor::new(&bytes[..])), &cores).unwrap();
        let d2 = cycle_digest(|| Ok(Cursor::new(&bytes[..])), &cores).unwrap();
        assert_eq!(d1, d2, "two replays of the same file must agree");
        // The JSON-lines form of the same trace must not perturb it.
        let mut text = Vec::new();
        f.write_jsonl(&mut text).unwrap();
        assert_eq!(cycle_digest(|| Ok(Cursor::new(&text[..])), &cores).unwrap(), d1);
        assert_eq!(d1.len(), 16, "canonical 16-hex-digit rendering");
    }
}
