//! # braid-serve: the deterministic simulation service
//!
//! A TCP daemon ([`Server`]) that runs braid simulations on behalf of
//! remote clients, and a deterministic load generator ([`loadgen`]) that
//! doubles as its correctness harness.
//!
//! The protocol is JSON lines ([`protocol`]): one request object per line
//! in, one response object per line out, matched by client-chosen `id`.
//! Requests dispatch onto the long-lived work-stealing pool
//! ([`braid_sweep::pool::JobPool`]), so a single daemon saturates every
//! core while each connection still receives its responses **in request
//! order** — a per-connection sequence number and a reorder buffer on the
//! writer side restore the order the pool destroys.
//!
//! Results are served from a content-addressed cache ([`cache`]): the key
//! digests the workload's container bytes, the core model, and every
//! config knob, so two requests for the same simulation — from any
//! connection, in any order — produce byte-identical response payloads
//! and the second one costs a hash lookup. Determinism is a *testable
//! property* here: `braid-loadgen --verify` replays the same request mix
//! on a single connection and asserts the responses are byte-identical to
//! the concurrent run's.
//!
//! Overload is explicit, never silent: a full job queue answers
//! `status:"retry"` with a `retry_after_ms` hint — shed **by request
//! class** so cheap introspection survives overload longer than heavy
//! simulation — a full connection table answers the same at accept time,
//! and `shutdown` drains queued work before the daemon exits ([`server`]
//! documents the exact semantics).
//!
//! Every counter the daemon keeps lives in one place, braid-trace's
//! [`braid_trace::Registry`]: request spans and their phases, requests by
//! kind, errors, retries, shed requests, job latency and the merged CPI
//! stack. The `stats` and `metrics` documents render that registry plus
//! the live gauges (pool depth, cache counters, chaos counts).
//!
//! The service is built to survive hostile reality, and to prove it:
//!
//! - the cache ([`cache`]) has an optional crash-safe disk tier — entries
//!   are framed with a length+digest footer, published by atomic rename,
//!   verified on every read, and quarantined when corrupt, so a `kill -9`
//!   mid-write can never serve bad bytes after restart;
//! - a deterministic chaos harness ([`chaos`]) injects torn writes,
//!   dropped connections, stalls, worker panics, disk corruption, and
//!   disk-full failures from a seeded schedule, so every recovery path is
//!   exercisable on demand;
//! - the bundled client ([`client`]) recovers from all of it with bounded
//!   seeded backoff and reconnect-and-replay, which is safe because
//!   content-addressed results make every compute request idempotent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod chaos;
pub mod client;
pub mod loadgen;
pub mod protocol;
pub mod server;

pub use cache::ResultCache;
pub use chaos::{Chaos, ChaosSpec};
pub use client::{Client, ClientConfig, ClientError};
pub use loadgen::{run_loadgen, LoadgenConfig, LoadgenError, LoadgenReport};
pub use protocol::{parse_request, parse_request_traced, ParsedRequest, Request};
pub use server::{Server, ServerConfig};
