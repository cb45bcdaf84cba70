//! # braid-bench: the experiment harness
//!
//! Regenerates every table and figure of the paper's evaluation (see
//! DESIGN.md §5 for the experiment index). The `exp` binary drives the
//! experiments; this library holds the shared machinery: table formatting,
//! workload/trace caching, paper reference values, and the experiment
//! implementations themselves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod paper;
pub mod table;

use braid_compiler::{translate, Translation, TranslatorConfig};
use braid_core::functional::Machine;
use braid_core::trace::Trace;
use braid_workloads::Workload;

/// The dynamic-length scale factor, from `BRAID_SCALE` (default 1.0 ≈ 60k
/// dynamic instructions per benchmark).
pub fn scale() -> f64 {
    std::env::var("BRAID_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// A workload prepared for simulation: original and braid-translated
/// programs plus their committed traces.
pub struct Prepared {
    /// The source workload.
    pub workload: Workload,
    /// Trace of the original program.
    pub trace: Trace,
    /// The braid translation of the program.
    pub translation: Translation,
    /// Trace of the translated program.
    pub braid_trace: Trace,
}

/// Traces a workload once for reuse across configurations.
///
/// # Panics
///
/// Panics if the workload fails to execute — suite workloads are expected
/// to be well-formed.
pub fn prepare(workload: Workload) -> Prepared {
    let mut m = Machine::new(&workload.program);
    let trace = m
        .run(&workload.program, workload.fuel)
        .unwrap_or_else(|e| panic!("{}: functional run failed: {e}", workload.name));
    let translation = translate(&workload.program, &TranslatorConfig::default())
        .unwrap_or_else(|e| panic!("{}: translation failed: {e}", workload.name));
    let mut m2 = Machine::new(&translation.program);
    let braid_trace = m2
        .run(&translation.program, workload.fuel)
        .unwrap_or_else(|e| panic!("{}: braid functional run failed: {e}", workload.name));
    assert_eq!(
        trace.len(),
        braid_trace.len(),
        "{}: translation changed the dynamic instruction count",
        workload.name
    );
    Prepared { workload, trace, translation, braid_trace }
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
    fn prepare_traces_match() {
        let w = braid_workloads::by_name("gap", 0.02).unwrap();
        let p = prepare(w);
        assert!(!p.trace.is_empty());
        assert_eq!(p.trace.len(), p.braid_trace.len());
    }
}
