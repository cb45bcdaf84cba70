//! Replaying recorded traces through the four timing cores.
//!
//! The conventional cores (`inorder`, `dep`, `ooo`) are trace-driven:
//! they consume the recorded stream directly, so a replay never touches
//! the functional executor. The braid core runs the *translated* program,
//! whose instruction indices differ from the recorded original, so its
//! replay translates the embedded program, statically vets the result
//! with the braid-contract checker, and streams it through `run_full`
//! under the file's recorded fuel — exactly what `run_tier` does for a
//! live run, which keeps replayed and live braid cycle counts identical.

use braid_core::cores::{DepSteerCore, InOrderCore, OooCore};
use braid_core::processor::{run_full, translate_checked, CoreConfig, RunError};
use braid_core::{NoopObserver, SimReport};
use braid_sweep::digest::ContentDigest;

use crate::error::ReplayError;
use crate::format::TraceFile;

/// Replays `file` on `core`, returning the full timing report.
///
/// # Errors
///
/// Propagates timing-simulation failures; for the braid core also
/// translation, braid-contract and functional-execution failures.
pub fn replay(file: &TraceFile, core: &CoreConfig) -> Result<SimReport, ReplayError> {
    match core {
        CoreConfig::InOrder(c) => {
            Ok(InOrderCore::new(c.clone()).run(&file.program, &file.trace)?)
        }
        CoreConfig::Dep(c) => {
            Ok(DepSteerCore::new(c.clone()).run(&file.program, &file.trace)?)
        }
        CoreConfig::Ooo(c) => Ok(OooCore::new(c.clone()).run(&file.program, &file.trace)?),
        CoreConfig::Braid(_) => {
            let translation = translate_checked(&file.program).map_err(replay_error)?;
            run_full(&translation.program, core, file.fuel, &mut NoopObserver).map_err(replay_error)
        }
        // `CoreConfig` is non-exhaustive; a future kind needs an explicit
        // replay arm before traces can drive it.
        other => Err(ReplayError::UnsupportedCore(other.name().to_string())),
    }
}

/// Maps a braid-core pipeline failure onto its replay variant.
fn replay_error(e: RunError) -> ReplayError {
    match e {
        RunError::Exec(e) => ReplayError::Exec(e),
        RunError::Translate(e) => ReplayError::Translate(e),
        RunError::Check(report) => ReplayError::Check(report),
        RunError::Sim(e) => ReplayError::Sim(e),
        other => unreachable!("unknown pipeline failure: {other}"),
    }
}

/// Folds already-replayed per-core reports — plus the trace's own content
/// digest — into the canonical cycle digest. Callers that need the
/// reports anyway (the `trace-replay` CLI) use this to avoid replaying
/// twice; [`cycle_digest`] is the one-call form.
///
/// # Errors
///
/// Propagates trace-serialization failures from the embedded digest.
pub fn cycle_digest_of(
    file: &TraceFile,
    reports: &[(&str, &SimReport)],
) -> Result<String, ReplayError> {
    let mut d = ContentDigest::new().field("trace", file.digest().map_err(ReplayError::Trace)?);
    for (name, r) in reports {
        d = d.field(name, format!("{}c:{}i", r.cycles, r.instructions));
    }
    Ok(d.finish())
}

/// Replays `file` on every core in `cores` and folds the cycle and
/// instruction counts — plus the trace's own content digest — into one
/// canonical digest string. Two replays of the same trace must agree on
/// this byte-for-byte; it is the determinism witness the tier-1 smoke
/// test and braidd's cache key compare.
///
/// # Errors
///
/// As for [`replay`], for whichever core fails first.
pub fn cycle_digest(file: &TraceFile, cores: &[CoreConfig]) -> Result<String, ReplayError> {
    let mut reports = Vec::with_capacity(cores.len());
    for core in cores {
        reports.push((core.name(), replay(file, core)?));
    }
    let borrowed: Vec<(&str, &SimReport)> =
        reports.iter().map(|(n, r)| (*n, r)).collect();
    cycle_digest_of(file, &borrowed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_core::config::{BraidConfig, DepConfig, InOrderConfig, OooConfig};
    use braid_isa::asm::assemble;

    fn four_cores() -> Vec<CoreConfig> {
        vec![
            CoreConfig::InOrder(InOrderConfig::paper_8wide()),
            CoreConfig::Dep(DepConfig::paper_8wide()),
            CoreConfig::Ooo(OooConfig::paper_8wide()),
            CoreConfig::Braid(BraidConfig::paper_default()),
        ]
    }

    fn sample() -> TraceFile {
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
        TraceFile::record(&p, 100_000).unwrap()
    }

    #[test]
    fn all_four_cores_replay_a_recorded_trace() {
        let f = sample();
        for core in four_cores() {
            let r = replay(&f, &core).unwrap_or_else(|e| panic!("{}: {e}", core.name()));
            assert!(r.cycles > 0, "{} must make progress", core.name());
            assert!(r.instructions > 0);
        }
    }

    #[test]
    fn replay_matches_a_live_run() {
        // A replayed trace must produce the same cycle count as running
        // the program live through the one-call pipelines.
        let f = sample();
        for core in four_cores() {
            let replayed = replay(&f, &core).unwrap();
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
        let f = sample();
        let cores = four_cores();
        let d1 = cycle_digest(&f, &cores).unwrap();
        let d2 = cycle_digest(&f, &cores).unwrap();
        assert_eq!(d1, d2, "two replays of the same file must agree");
        // Round-tripping through the binary form must not perturb it.
        let back = TraceFile::from_binary(&f.to_binary().unwrap()).unwrap();
        assert_eq!(cycle_digest(&back, &cores).unwrap(), d1);
        assert_eq!(d1.len(), 16, "canonical 16-hex-digit rendering");
    }
}
