//! The versioned trace-file format (binary and JSON-lines).
//!
//! A trace file is **self-contained**: it embeds the program (as a
//! `.brisc` container) alongside the committed dynamic instruction
//! stream, so a replay host needs nothing but the file — no workload
//! registry, no source, no matching binary on disk.
//!
//! # Binary layout (version 1)
//!
//! The payload below is wrapped in [`braid_sweep::digest::frame`], the
//! same crash-safe footer the braidd disk cache uses, so truncation and
//! bit rot are caught structurally before any field is parsed:
//!
//! ```text
//! offset  size  contents
//! 0       8     magic "BRTRACE1"
//! 8       4     format version (u32 LE) — this module writes 1
//! 12      8     recording fuel (u64 LE)
//! 20      4     name length (u32 LE), then that many UTF-8 bytes
//! ...     8     program container length (u64 LE), then the `.brisc` bytes
//! ...     8     entry count (u64 LE)
//! per entry (21 bytes):
//!         4     static instruction index (u32 LE)
//!         4     next dynamic index (u32 LE)
//!         8     effective address (u64 LE, 0 for non-memory ops)
//!         1     taken flag (0 or 1)
//! ```
//!
//! # JSON-lines layout (version 1)
//!
//! Line 1 is a header object:
//!
//! ```text
//! {"format":"braid-trace","version":1,"name":...,"fuel":N,"program":"<hex .brisc>","entries":N}
//! ```
//!
//! followed by one compact array per entry: `[idx,next_idx,addr,taken]`.
//! The JSON form is for inspection and tool interchange; the binary form
//! is ~10× smaller and is what braidd and the caches move around.
//!
//! Bumping the format: increment [`FORMAT_VERSION`], keep decoding old
//! versions, never reuse a version number.

use braid_core::trace::{Trace, TraceEntry};
use braid_isa::{container, Program};
use braid_sweep::digest::{frame, unframe};
use braid_sweep::json::{parse, Json};

use crate::error::TraceError;

/// Magic identifying a braid trace payload.
pub const TRACE_MAGIC: &[u8; 8] = b"BRTRACE1";

/// The format version this module writes.
pub const FORMAT_VERSION: u32 = 1;

/// Size of one packed trace entry in the binary form.
const ENTRY_BYTES: usize = 4 + 4 + 8 + 1;

/// Longest accepted workload name (sanity bound on hostile input).
const MAX_NAME_LEN: usize = 4096;

/// A self-contained recorded trace: the program, the committed dynamic
/// instruction stream, and the fuel it was recorded under.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Workload name carried through recording.
    pub name: String,
    /// Instruction budget the recording ran under (replays reuse it when
    /// a core runs the program itself, e.g. the braid core's translation).
    pub fuel: u64,
    /// The program the trace was recorded from.
    pub program: Program,
    /// The committed dynamic instruction stream.
    pub trace: Trace,
}

impl TraceFile {
    /// Functionally executes `program` for at most `fuel` instructions
    /// and captures the committed stream.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution failures (including running out
    /// of fuel before `halt`).
    pub fn record(program: &Program, fuel: u64) -> Result<TraceFile, TraceError> {
        let mut m = braid_core::Machine::new(program);
        let trace = m.run(program, fuel).map_err(TraceError::Exec)?;
        Ok(TraceFile {
            name: program.name.clone(),
            fuel,
            program: program.clone(),
            trace,
        })
    }

    /// The raw (unframed) binary payload.
    fn payload(&self) -> Result<Vec<u8>, TraceError> {
        let container = container::to_bytes(&self.program).map_err(TraceError::Container)?;
        let mut out = Vec::with_capacity(
            8 + 4 + 8 + 4 + self.name.len() + 8 + container.len() + 8
                + self.trace.entries.len() * ENTRY_BYTES,
        );
        out.extend_from_slice(TRACE_MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.fuel.to_le_bytes());
        out.extend_from_slice(&(self.name.len() as u32).to_le_bytes());
        out.extend_from_slice(self.name.as_bytes());
        out.extend_from_slice(&(container.len() as u64).to_le_bytes());
        out.extend_from_slice(&container);
        out.extend_from_slice(&(self.trace.entries.len() as u64).to_le_bytes());
        for e in &self.trace.entries {
            out.extend_from_slice(&e.idx.to_le_bytes());
            out.extend_from_slice(&e.next_idx.to_le_bytes());
            out.extend_from_slice(&e.addr.to_le_bytes());
            out.push(u8::from(e.taken));
        }
        Ok(out)
    }

    /// Serializes to the framed binary form.
    ///
    /// # Errors
    ///
    /// Propagates program-container encoding failures.
    pub fn to_binary(&self) -> Result<Vec<u8>, TraceError> {
        Ok(frame(&self.payload()?))
    }

    /// The canonical content digest of this trace (16 hex digits over the
    /// binary payload) — the key braidd's content-addressed cache and the
    /// replay smoke tests compare.
    ///
    /// # Errors
    ///
    /// Propagates program-container encoding failures.
    pub fn digest(&self) -> Result<String, TraceError> {
        Ok(braid_sweep::digest::hex(&self.payload()?))
    }

    /// Parses the framed binary form.
    ///
    /// # Errors
    ///
    /// Returns a structured [`TraceError`] for any corruption: a torn
    /// frame, bad magic, unknown version, truncated field, undecodable
    /// program, or an entry referencing an out-of-range instruction.
    /// Never panics, whatever the input bytes.
    pub fn from_binary(bytes: &[u8]) -> Result<TraceFile, TraceError> {
        let payload = unframe(bytes).map_err(TraceError::Frame)?;
        let mut r = Reader { bytes: payload, at: 0 };
        if r.take(8, "magic")? != TRACE_MAGIC {
            return Err(TraceError::BadMagic);
        }
        let version = r.u32("version")?;
        if version != FORMAT_VERSION {
            return Err(TraceError::UnknownVersion(version));
        }
        let fuel = r.u64("fuel")?;
        let name_len = r.u32("name length")? as usize;
        if name_len > MAX_NAME_LEN {
            return Err(TraceError::Malformed(format!(
                "implausible name length {name_len}"
            )));
        }
        let name = std::str::from_utf8(r.take(name_len, "name")?)
            .map_err(|_| TraceError::Malformed("name is not UTF-8".into()))?
            .to_string();
        let container_len = r.u64("container length")?;
        if container_len > payload.len() as u64 {
            return Err(TraceError::Malformed(format!(
                "container length {container_len} exceeds payload"
            )));
        }
        let mut program = container::from_bytes(r.take(container_len as usize, "container")?)
            .map_err(TraceError::Container)?;
        program.name = name.clone();
        let n = r.u64("entry count")?;
        if n > (payload.len() as u64) / ENTRY_BYTES as u64 {
            return Err(TraceError::Malformed(format!(
                "implausible entry count {n}"
            )));
        }
        let mut entries = Vec::with_capacity(n as usize);
        for i in 0..n {
            let idx = r.u32("entry idx")?;
            let next_idx = r.u32("entry next_idx")?;
            let addr = r.u64("entry addr")?;
            let taken = match r.take(1, "entry taken")?[0] {
                0 => false,
                1 => true,
                b => {
                    return Err(TraceError::Malformed(format!(
                        "entry {i}: taken flag must be 0 or 1, got {b}"
                    )))
                }
            };
            entries.push(TraceEntry { idx, next_idx, addr, taken });
        }
        if r.at != payload.len() {
            return Err(TraceError::Malformed(format!(
                "{} trailing bytes after the last entry",
                payload.len() - r.at
            )));
        }
        let file = TraceFile { name, fuel, program, trace: Trace { entries } };
        file.validate()?;
        Ok(file)
    }

    /// Serializes to the JSON-lines form.
    ///
    /// # Errors
    ///
    /// Propagates program-container encoding failures.
    pub fn to_jsonl(&self) -> Result<String, TraceError> {
        let container = container::to_bytes(&self.program).map_err(TraceError::Container)?;
        let header = Json::Obj(vec![
            ("format".into(), Json::Str("braid-trace".into())),
            ("version".into(), Json::Int(u64::from(FORMAT_VERSION))),
            ("name".into(), Json::Str(self.name.clone())),
            ("fuel".into(), Json::Int(self.fuel)),
            ("program".into(), Json::Str(hex_encode(&container))),
            ("entries".into(), Json::Int(self.trace.entries.len() as u64)),
        ]);
        let mut out = header.compact();
        out.push('\n');
        for e in &self.trace.entries {
            let line = Json::Arr(vec![
                Json::Int(u64::from(e.idx)),
                Json::Int(u64::from(e.next_idx)),
                Json::Int(e.addr),
                Json::Bool(e.taken),
            ]);
            out.push_str(&line.compact());
            out.push('\n');
        }
        Ok(out)
    }

    /// Parses the JSON-lines form.
    ///
    /// # Errors
    ///
    /// Returns a structured [`TraceError`] for malformed JSON, a missing
    /// or mistyped header field, an unknown version, an entry-count
    /// mismatch, or an undecodable embedded program. Never panics.
    pub fn from_jsonl(text: &str) -> Result<TraceFile, TraceError> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header_line = lines
            .next()
            .ok_or_else(|| TraceError::Malformed("empty trace file".into()))?;
        let header = parse(header_line)
            .map_err(|e| TraceError::Malformed(format!("header: {e}")))?;
        if header.get("format").and_then(Json::as_str) != Some("braid-trace") {
            return Err(TraceError::BadMagic);
        }
        let version = header
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| TraceError::Malformed("header missing `version`".into()))?;
        if version != u64::from(FORMAT_VERSION) {
            return Err(TraceError::UnknownVersion(version.min(u64::from(u32::MAX)) as u32));
        }
        let name = header
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| TraceError::Malformed("header missing `name`".into()))?
            .to_string();
        let fuel = header
            .get("fuel")
            .and_then(Json::as_u64)
            .ok_or_else(|| TraceError::Malformed("header missing `fuel`".into()))?;
        let hex = header
            .get("program")
            .and_then(Json::as_str)
            .ok_or_else(|| TraceError::Malformed("header missing `program`".into()))?;
        let expected = header
            .get("entries")
            .and_then(Json::as_u64)
            .ok_or_else(|| TraceError::Malformed("header missing `entries`".into()))?;
        let container_bytes = hex_decode(hex)
            .ok_or_else(|| TraceError::Malformed("program hex is malformed".into()))?;
        let mut program =
            container::from_bytes(&container_bytes).map_err(TraceError::Container)?;
        program.name = name.clone();
        let mut entries = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let v = parse(line)
                .map_err(|e| TraceError::Malformed(format!("entry line {}: {e}", lineno + 2)))?;
            let arr = v.as_arr().filter(|a| a.len() == 4).ok_or_else(|| {
                TraceError::Malformed(format!(
                    "entry line {}: expected [idx,next_idx,addr,taken]",
                    lineno + 2
                ))
            })?;
            let field = |i: usize| {
                arr[i].as_u64().ok_or_else(|| {
                    TraceError::Malformed(format!(
                        "entry line {}: field {i} is not an integer",
                        lineno + 2
                    ))
                })
            };
            let idx = u32::try_from(field(0)?)
                .map_err(|_| TraceError::Malformed(format!("entry line {}: idx overflows u32", lineno + 2)))?;
            let next_idx = u32::try_from(field(1)?)
                .map_err(|_| TraceError::Malformed(format!("entry line {}: next_idx overflows u32", lineno + 2)))?;
            let addr = field(2)?;
            let taken = arr[3].as_bool().ok_or_else(|| {
                TraceError::Malformed(format!("entry line {}: taken is not a bool", lineno + 2))
            })?;
            entries.push(TraceEntry { idx, next_idx, addr, taken });
        }
        if entries.len() as u64 != expected {
            return Err(TraceError::Malformed(format!(
                "header promises {expected} entries, found {}",
                entries.len()
            )));
        }
        let file = TraceFile { name, fuel, program, trace: Trace { entries } };
        file.validate()?;
        Ok(file)
    }

    /// Cross-checks the entry stream against the embedded program: every
    /// index must name a real instruction.
    fn validate(&self) -> Result<(), TraceError> {
        let n = self.program.insts.len() as u32;
        for (i, e) in self.trace.entries.iter().enumerate() {
            if e.idx >= n || e.next_idx > n {
                return Err(TraceError::Malformed(format!(
                    "entry {i} references instruction {} of a {n}-instruction program",
                    e.idx.max(e.next_idx)
                )));
            }
        }
        Ok(())
    }
}

/// Lowercase hex of `bytes`.
fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

/// Bounds-checked little-endian reader (mirrors the container's, but
/// reports which field was truncated).
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], TraceError> {
        if self.bytes.len() - self.at < n {
            return Err(TraceError::Malformed(format!("truncated {what}")));
        }
        let s = &self.bytes[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }
    fn u32(&mut self, what: &'static str) -> Result<u32, TraceError> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self, what: &'static str) -> Result<u64, TraceError> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }
}

/// Re-exported so callers matching [`TraceError::Frame`] can name the
/// inner error type without a direct `braid-sweep` dependency.
pub use braid_sweep::digest::FrameError as TraceFrameError;

#[cfg(test)]
mod tests {
    use super::*;
    use braid_isa::asm::assemble;

    fn sample() -> TraceFile {
        let mut p = assemble(
            r#"
                addi r0, #5, r1
            loop:
                ldq  r2, 0(r3) @global:1
                addq r2, r4, r4
                addi r3, #8, r3
                subi r1, #1, r1
                bne  r1, loop
                halt
                .data 0x1000 1 2 3 4 5
            "#,
        )
        .unwrap();
        p.name = "sample".into();
        TraceFile::record(&p, 10_000).unwrap()
    }

    #[test]
    fn binary_round_trips_exactly() {
        let f = sample();
        let bytes = f.to_binary().unwrap();
        let back = TraceFile::from_binary(&bytes).unwrap();
        assert_eq!(back.name, f.name);
        assert_eq!(back.fuel, f.fuel);
        assert_eq!(back.program.insts, f.program.insts);
        assert_eq!(back.trace.entries, f.trace.entries);
        assert_eq!(back.digest().unwrap(), f.digest().unwrap());
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let f = sample();
        let text = f.to_jsonl().unwrap();
        assert!(text.starts_with("{\"format\":\"braid-trace\",\"version\":1,"));
        let back = TraceFile::from_jsonl(&text).unwrap();
        assert_eq!(back.program.insts, f.program.insts);
        assert_eq!(back.trace.entries, f.trace.entries);
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = sample().to_binary().unwrap();
        for cut in 0..bytes.len() {
            assert!(
                TraceFile::from_binary(&bytes[..cut]).is_err(),
                "truncation at {cut} must not parse"
            );
        }
    }

    #[test]
    fn every_byte_flip_is_a_structured_error() {
        // The frame digest catches every flip before field parsing.
        let bytes = sample().to_binary().unwrap();
        for i in (0..bytes.len()).step_by(7) {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x2a;
            assert!(TraceFile::from_binary(&mangled).is_err(), "flip at {i}");
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let f = sample();
        let mut payload = f.payload().unwrap();
        payload[8] = 99; // version
        assert!(matches!(
            TraceFile::from_binary(&frame(&payload)),
            Err(TraceError::UnknownVersion(99))
        ));
        let mut payload = f.payload().unwrap();
        payload[0] = b'X';
        assert!(matches!(
            TraceFile::from_binary(&frame(&payload)),
            Err(TraceError::BadMagic)
        ));
    }

    #[test]
    fn spliced_payloads_are_rejected() {
        // Splice the tail of one payload onto the head of another:
        // re-framed so the frame verifies, the field cross-checks must
        // still reject it.
        let a = sample().payload().unwrap();
        let mut f2 = sample();
        f2.trace.entries.truncate(3);
        let b = f2.payload().unwrap();
        let spliced = [&a[..a.len() / 2], &b[b.len() / 2..]].concat();
        assert!(TraceFile::from_binary(&frame(&spliced)).is_err());
        // Also splice extra entry bytes onto a valid payload.
        let mut grown = a.clone();
        grown.extend_from_slice(&[0u8; 21]);
        assert!(TraceFile::from_binary(&frame(&grown)).is_err());
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        let mut f = sample();
        f.trace.entries[0].idx = 10_000;
        let bytes = f.to_binary().unwrap();
        assert!(matches!(
            TraceFile::from_binary(&bytes),
            Err(TraceError::Malformed(_))
        ));
    }

    #[test]
    fn jsonl_header_mismatches_are_rejected() {
        let f = sample();
        let text = f.to_jsonl().unwrap();
        // Drop an entry line: header count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        assert!(TraceFile::from_jsonl(&lines.join("\n")).is_err());
        // Garbage body line.
        let garbled = text.replacen("[0,", "[oops,", 1);
        assert!(TraceFile::from_jsonl(&garbled).is_err());
        assert!(TraceFile::from_jsonl("").is_err());
        assert!(TraceFile::from_jsonl("{\"format\":\"other\"}\n").is_err());
    }

    #[test]
    fn hex_codec_round_trips() {
        for bytes in [&[][..], &[0u8][..], &[0xde, 0xad, 0xbe, 0xef][..]] {
            assert_eq!(hex_decode(&hex_encode(bytes)).unwrap(), bytes);
        }
        assert!(hex_decode("abc").is_none());
        assert!(hex_decode("zz").is_none());
    }
}
