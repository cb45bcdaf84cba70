//! # braid-tracein: trace-file recording, ingestion, and replay
//!
//! The workload frontier's second leg: a **documented, versioned trace
//! format** (self-contained — program container plus committed dynamic
//! stream) and a replayer that drives all four timing cores, so workloads
//! can arrive as recorded traces instead of assembly or braid-lang
//! source. Nothing here holds a whole trace: files are written from the
//! fast interpreter's stream and read back as a stream, so memory does
//! not grow with the run length.
//!
//! * [`format`] — the [`TraceFile`] header and its two streamed
//!   serializations: a compact framed binary (crash-safe, the
//!   braidd/cache interchange form) and human-inspectable JSON-lines;
//!   [`TraceReader`], which reads either back as a trace source, and
//!   [`verify`], the one checking pass a file must pass before replay.
//! * [`replay`] — [`TraceReader::replay`] through any [`CoreConfig`]
//!   ([`replay_braid`] for the braid core, which reads no entries), and
//!   [`cycle_digest`], the canonical determinism witness (two replays of
//!   one file must produce byte-identical digests).
//! * [`error`] — structured [`TraceError`]/[`ReplayError`]; hostile bytes
//!   (truncated, flipped, spliced) always surface as typed errors, never
//!   panics.
//!
//! ```
//! use std::io::Cursor;
//!
//! use braid_core::processor::CoreConfig;
//! use braid_core::OooConfig;
//! use braid_isa::asm::assemble;
//! use braid_tracein::{verify, TraceFile, TraceReader};
//!
//! let program = assemble("addi r0, #3, r1\nhalt")?;
//! let recorded = TraceFile::record(&program, 1000)?;
//! let mut bytes = Vec::new();
//! let digest = recorded.write_binary(&mut bytes)?;
//! let (header, checked) = verify(Cursor::new(&bytes))?;
//! assert_eq!((header.entries, checked), (2, digest));
//! let ooo = CoreConfig::Ooo(OooConfig::paper_8wide());
//! let report = TraceReader::new(Cursor::new(&bytes))?.replay(&ooo)?;
//! assert_eq!(report.instructions, 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`CoreConfig`]: braid_core::processor::CoreConfig

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod replay;

pub use error::{ReplayError, TraceError};
pub use format::{verify, TraceFile, TraceReader, FORMAT_VERSION, TRACE_MAGIC};
pub use replay::{cycle_digest, cycle_digest_of, replay_braid};
