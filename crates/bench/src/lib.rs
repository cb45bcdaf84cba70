//! # braid-bench: the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §5 for the experiment index). The `exp` binary drives the
//! experiments; this library holds the shared machinery: table formatting,
//! workload preparation, paper reference values, and the experiment
//! implementations themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod table;

use braid_compiler::{translate, Translation, TranslatorConfig};
use braid_core::func::run_func;
use braid_isa::Program;
use braid_workloads::Workload;

/// The dynamic-length scale factor, from `BRAID_SCALE` (default 1.0 ≈ 60k
/// dynamic instructions per benchmark).
pub fn scale() -> f64 {
    std::env::var("BRAID_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// A workload prepared for simulation: the original program and its braid
/// translation. No trace is kept; every run streams its own.
pub struct Prepared {
    /// The source workload.
    pub workload: Workload,
    /// The braid translation of the program.
    pub translation: Translation,
}

/// Translates a workload once for reuse across configurations.
///
/// # Panics
///
/// Panics if the workload fails to execute or translate, or if the
/// translation changes the dynamic instruction count — suite workloads are
/// expected to be well-formed.
pub fn prepare(workload: Workload) -> Prepared {
    let translation = translate(&workload.program, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("{}: translation failed: {e}", workload.name));
    let executed = |program: &Program| {
        run_func(program, workload.fuel)
            .unwrap_or_else(|e| panic!("{}: functional run failed: {e}", workload.name))
            .instructions
    };
    assert_eq!(
        executed(&workload.program),
        executed(&translation.program),
        "{}: translation changed the dynamic instruction count",
        workload.name
    );
    Prepared { workload, translation }
}

/// Prepares the whole 26-benchmark suite at the given scale.
pub fn prepare_suite(scale: f64) -> Vec<Prepared> {
    braid_workloads::suite(scale).into_iter().map(prepare).collect()
}

/// Geometric mean (the usual average for normalized performance).
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0usize;
    for v in values {
        log_sum += v.max(1e-12).ln();
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / n as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean([1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(std::iter::empty()), 0.0);
    }

    #[test]
    fn prepare_keeps_the_dynamic_count() {
        // `prepare` asserts the translated program executes exactly as
        // many instructions as the original.
        let p = prepare(braid_workloads::by_name("gap", 0.02).unwrap());
        assert!(p.translation.stats.total_braids > 0);
    }
}
