//! # braid-trace: structured tracing and service metrics
//!
//! The cores already account for every simulated cycle: the CPI stack
//! charges each cycle to exactly one [`StallCause`] and asserts the total.
//! This crate applies the same discipline one level up, to the *service*:
//! every microsecond of a served request is charged to exactly one
//! lifetime [`Phase`], and the sum of the phases equals the request's
//! total by construction — the conservation invariant, asserted in debug
//! and pinned by tests.
//!
//! ## Two clock domains
//!
//! A request span carries measurements from two clocks that must never be
//! confused:
//!
//! - **host time** (monotonic [`std::time::Instant`]): where the service
//!   spent its wall-clock — reading, queueing, executing, writing. Host
//!   times differ on every run, so every serialized host-time field name
//!   ends in `_us` and consumers strip them before byte comparisons.
//! - **simulated cycles** (the engine's clock): how much simulated work
//!   the request represented. Deterministic, and safe to digest.
//!
//! ## Pieces
//!
//! - [`RequestSpan`] / [`SpanRecord`] ([`span`]): the per-request phase
//!   timer and its finished, serializable record.
//! - [`Registry`] ([`registry`]): the process-wide metrics aggregation —
//!   per-phase and per-request-class [`braid_uarch::Histogram`]s, named
//!   event counters, and the service counters (requests, errors,
//!   retries, shed, job latency, merged CPI stack), rendered as
//!   deterministic-keyed JSON. braidd keeps no other aggregate.
//! - [`TraceLog`] ([`log`]): an optional JSON-lines span/event export
//!   (braidd's `--trace-log`).
//! - [`TraceHub`] ([`registry`]): the registry and the optional log
//!   behind one handle, which is what the serving stack threads around.
//! - [`sweep_timing`] ([`sweep`]): per-point host timing, straggler, and
//!   imbalance summaries for the sweep engine, built on the same
//!   histogram summaries.
//!
//! [`StallCause`]: braid_uarch
//!
//! Std-only, like the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod log;
pub mod registry;
pub mod span;
pub mod sweep;

pub use log::TraceLog;
pub use registry::{hist_summary_json, Registry, TraceHub};
pub use span::{next_trace_id, Phase, RequestSpan, SpanRecord};
pub use sweep::{point_timing, sweep_timing};
