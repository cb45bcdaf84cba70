//! Structured errors: every malformed input and every failed replay maps
//! to a typed variant — hostile bytes must never panic the ingestion
//! path.

use std::error::Error;
use std::fmt;

use braid_core::{ExecError, SimError};
use braid_sweep::digest::FrameError;

/// Why a trace file failed to parse, encode, or record.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// The crash-safe frame around the binary payload did not verify
    /// (truncation, bit rot, or a torn write).
    Frame(FrameError),
    /// The payload does not start with the trace magic (or the JSON
    /// header's `format` field is not `braid-trace`).
    BadMagic,
    /// The payload declares a format version this build cannot decode.
    UnknownVersion(u32),
    /// A field is truncated, out of range, inconsistent with the header,
    /// or references an instruction the embedded program does not have.
    Malformed(String),
    /// The embedded `.brisc` program container failed to encode/decode.
    Container(braid_isa::IsaError),
    /// Functional execution failed while recording.
    Exec(ExecError),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Frame(e) => write!(f, "trace frame did not verify: {e}"),
            TraceError::BadMagic => f.write_str("not a braid trace (bad magic)"),
            TraceError::UnknownVersion(v) => {
                write!(f, "unknown trace format version {v} (this build reads version 1)")
            }
            TraceError::Malformed(m) => write!(f, "malformed trace: {m}"),
            TraceError::Container(e) => write!(f, "embedded program container: {e}"),
            TraceError::Exec(e) => write!(f, "recording failed: {e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Frame(e) => Some(e),
            TraceError::Container(e) => Some(e),
            TraceError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

/// Why a replay failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayError {
    /// The trace file itself is unusable.
    Trace(TraceError),
    /// Braid translation of the embedded program failed.
    Translate(braid_compiler::TranslateError),
    /// The translated program failed the static braid-contract check;
    /// the braid core refuses to run it.
    Check(Box<braid_check::CheckReport>),
    /// Functional execution of the translated braid-core program failed.
    Exec(ExecError),
    /// Timing simulation failed (bad config or livelock).
    Sim(SimError),
    /// The core kind has no replay arm (future [`CoreConfig`] variant).
    ///
    /// [`CoreConfig`]: braid_core::processor::CoreConfig
    UnsupportedCore(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "unusable trace: {e}"),
            ReplayError::Translate(e) => write!(f, "braid translation failed: {e}"),
            ReplayError::Check(r) => write!(f, "braid contract violated: {r}"),
            ReplayError::Exec(e) => write!(f, "functional execution failed: {e}"),
            ReplayError::Sim(e) => write!(f, "timing simulation failed: {e}"),
            ReplayError::UnsupportedCore(name) => {
                write!(f, "no replay support for core kind `{name}`")
            }
        }
    }
}

impl Error for ReplayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Translate(e) => Some(e),
            ReplayError::Check(_) => None,
            ReplayError::Exec(e) => Some(e),
            ReplayError::Sim(e) => Some(e),
            ReplayError::UnsupportedCore(_) => None,
        }
    }
}

impl From<SimError> for ReplayError {
    fn from(e: SimError) -> ReplayError {
        ReplayError::Sim(e)
    }
}
