//! Cycle-accurate pipeline observability for the braid simulator.
//!
//! `braid-core` defines the zero-cost [`Observer`](braid_core::Observer)
//! trait and the always-on CPI accounting; this crate supplies the heavy
//! collectors and exporters that sit behind it:
//!
//! * [`PipelineObserver`] — records per-dynamic-instruction pipeline
//!   events (fetch / dispatch / issue / complete / retire timestamps, the
//!   execution unit each instruction was steered to, squash outcomes),
//!   per-unit occupancy histograms and per-PC stall hotspots.
//! * [`kanata`] — writes the recorded events as a Konata-compatible
//!   pipeline-viewer log (`Kanata 0004`) and validates such logs with an
//!   in-repo format checker.
//! * [`metrics`] — renders reports, CPI stacks, occupancy histograms and
//!   hotspot profiles as deterministic JSON (via `braid-sweep`'s
//!   dependency-free writer). `SimReport::host_nanos` is deliberately
//!   **never** serialized: it is host wall-clock time and would make
//!   otherwise byte-identical outputs differ between runs.
//!
//! The collectors never perturb timing: the cores call the same engine
//! code whether observed or not, and the CPI stack is computed by the
//! engine itself, so a run with a [`PipelineObserver`] attached produces a
//! `SimReport` identical to an unobserved run (a property test in
//! `tests/cpi_stacks.rs` holds this at 200 random programs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kanata;
pub mod metrics;
pub mod record;

pub use kanata::{check_kanata, write_kanata, KanataSummary};
pub use metrics::{cpi_json, hist_json, metrics_json, report_json, tier_json};
pub use record::{InstRecord, PipelineObserver, NEVER};
