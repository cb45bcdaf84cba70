//! Structured errors: every malformed input and every failed replay maps
//! to a typed variant — hostile bytes must never panic the ingestion
//! path.

use std::error::Error;
use std::{fmt, io};

use braid_core::{ExecError, RunError};
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
    /// Reading or writing the trace failed.
    Io(io::Error),
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
            TraceError::Io(e) => write!(f, "{e}"),
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Frame(e) => Some(e),
            TraceError::Container(e) => Some(e),
            TraceError::Exec(e) => Some(e),
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

/// Why a replay failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReplayError {
    /// The trace file itself is unusable.
    Trace(TraceError),
    /// Translation, the braid-contract check, functional execution or
    /// timing failed, as in a live run.
    Run(RunError),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Trace(e) => write!(f, "unusable trace: {e}"),
            ReplayError::Run(e) => e.fmt(f),
        }
    }
}

impl Error for ReplayError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ReplayError::Trace(e) => Some(e),
            ReplayError::Run(e) => e.source(),
        }
    }
}

impl From<RunError> for ReplayError {
    fn from(e: RunError) -> ReplayError {
        ReplayError::Run(e)
    }
}

impl From<TraceError> for ReplayError {
    fn from(e: TraceError) -> ReplayError {
        ReplayError::Trace(e)
    }
}

impl From<io::Error> for ReplayError {
    fn from(e: io::Error) -> ReplayError {
        ReplayError::Trace(TraceError::Io(e))
    }
}
