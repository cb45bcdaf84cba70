//! # braid-workloads: the synthetic SPEC CPU2000-profiled suite
//!
//! The paper evaluates on SPEC CPU2000 binaries compiled for the Alpha with
//! MinneSPEC reduced inputs — neither of which is redistributable here.
//! This crate substitutes a **synthetic suite of 26 workloads carrying the
//! SPEC names**: a deterministic, seeded program generator whose
//! per-benchmark parameters ([`profiles`]) are tuned so the *measured*
//! braid statistics (braids per block, braid size/width, internal/external
//! value counts — the paper's Tables 1–3) approximate the paper's
//! measurements benchmark by benchmark, and whose memory and branch
//! behaviour follows each program's folklore character (mcf chases
//! pointers, mgrid/swim stream large arrays with long dependence chains,
//! crafty and gcc branch unpredictably, ...).
//!
//! Hand-written assembly [`kernels`] (including the paper's Figure 2 gcc
//! life-analysis loop) serve as human-readable anchors.
//!
//! ```
//! use braid_workloads::{suite, Workload};
//!
//! let all: Vec<Workload> = suite(1.0);
//! assert_eq!(all.len(), 26);
//! let gcc = all.iter().find(|w| w.name == "gcc").unwrap();
//! gcc.program.validate()?;
//! # Ok::<(), braid_isa::IsaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod profiles;
pub mod synth;

use braid_isa::Program;

pub use profiles::{BenchClass, WorkloadProfile, PROFILES};

/// A runnable workload: a program plus its instruction budget.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (a SPEC CPU2000 program name, or a kernel name).
    pub name: String,
    /// Whether the benchmark models an integer or floating-point program.
    pub class: BenchClass,
    /// The program.
    pub program: Program,
    /// Instruction budget that comfortably covers the run to `halt`.
    pub fuel: u64,
}

/// The largest `scale` a service should accept for a synthetic workload:
/// about 60M dynamic instructions per program. Generation patches its
/// loop counters into 32-bit immediates and sizes its fuel from the
/// scaled length, so far larger scales overflow rather than run longer.
pub const MAX_SCALE: f64 = 1000.0;

/// Generates the full 26-benchmark suite.
///
/// `scale` multiplies each workload's dynamic instruction count (1.0 ≈
/// 60k dynamic instructions per benchmark; experiments use larger scales
/// for steadier measurements).
pub fn suite(scale: f64) -> Vec<Workload> {
    PROFILES.iter().map(|p| synth::generate(p, scale)).collect()
}

/// Generates one benchmark of the suite by name.
///
/// ```
/// let mcf = braid_workloads::by_name("mcf", 0.1).expect("mcf is in the suite");
/// assert_eq!(mcf.class, braid_workloads::BenchClass::Int);
/// mcf.program.validate()?;
/// # Ok::<(), braid_isa::IsaError>(())
/// ```
pub fn by_name(name: &str, scale: f64) -> Option<Workload> {
    PROFILES.iter().find(|p| p.name == name).map(|p| synth::generate(p, scale))
}

/// The hand-written kernel workloads.
pub fn kernel_suite() -> Vec<Workload> {
    kernels::all()
}

/// The curated compiled loop-nest family (`ln_*` names), built from
/// braid-lang sources by [`braid_lang::loopnest`].
pub fn loopnest_suite() -> Vec<Workload> {
    braid_lang::loopnest::family().iter().map(loopnest_workload).collect()
}

/// The communication-dominated loop-nest variants aimed at the `braidc
/// -O` partition search (`exp opt`): canonical braid formation serializes
/// their independent chains, so a searched partition has real cycles to
/// recover.
pub fn loopnest_opt_suite() -> Vec<Workload> {
    braid_lang::loopnest::opt_family().iter().map(loopnest_workload).collect()
}

fn loopnest_workload(nest: &braid_lang::loopnest::LoopNest) -> Workload {
    Workload {
        name: nest.name.clone(),
        class: BenchClass::Int,
        program: nest.compile().program,
        fuel: nest.fuel,
    }
}

/// Looks a workload up in the synthetic suite first, then among the
/// hand-written kernels (which ignore `scale`), then the compiled
/// loop-nest family (`ln_*` names parse their parameter suffix, so any
/// in-range tiling/unroll point resolves, not just the curated list).
/// This is the single resolver the CLI and the sweep engine share, so
/// `dot_product`, `mcf`, and `ln_saxpy_u4` name workloads the same way
/// everywhere.
pub fn by_name_any(name: &str, scale: f64) -> Option<Workload> {
    by_name(name, scale)
        .or_else(|| kernels::all().into_iter().find(|w| w.name == name))
        .or_else(|| braid_lang::loopnest::by_name(name).map(|n| loopnest_workload(&n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_26_named_benchmarks() {
        let s = suite(0.1);
        assert_eq!(s.len(), 26);
        let ints = s.iter().filter(|w| w.class == BenchClass::Int).count();
        assert_eq!(ints, 12, "12 integer programs as in the paper's tables");
        assert!(s.iter().any(|w| w.name == "mcf"));
        assert!(s.iter().any(|w| w.name == "mgrid"));
    }

    #[test]
    fn by_name_matches_suite() {
        let w = by_name("gzip", 0.1).unwrap();
        assert_eq!(w.name, "gzip");
        assert!(by_name("nonesuch", 0.1).is_none());
    }

    #[test]
    fn loopnests_resolve_like_any_other_workload() {
        let w = by_name_any("ln_saxpy_u4", 1.0).expect("curated family member");
        assert_eq!(w.class, BenchClass::Int);
        w.program.validate().unwrap();
        // Off-list but in-range parameterizations resolve too.
        assert!(by_name_any("ln_chains_c3_u1", 1.0).is_some());
        assert!(by_name_any("ln_nonesuch", 1.0).is_none());
        assert_eq!(loopnest_suite().len(), braid_lang::loopnest::family().len());
    }
}
