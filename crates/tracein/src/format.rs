//! The versioned trace-file format (binary and JSON-lines), written and
//! read as a stream.
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
//! per entry (17 bytes):
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
//! The JSON form is for inspection and tool interchange; the binary form,
//! framed and fixed-width, is what braidd and the caches move around.
//!
//! # Streaming
//!
//! Neither side holds the entries. [`TraceFile::record`] counts the
//! committed stream with one functional pass, so the header carries the
//! count ahead of the entries. The writers then stream the entries from
//! the fast interpreter's [`FuncStream`] into any `io::Write`, hashing the
//! payload as they go for the frame footer. [`TraceReader`] decodes a file
//! as a [`TraceSource`]: it checks the footer's magic and length when it
//! opens the file, every entry as it decodes it, and the payload digest
//! at the end. [`verify`] is that one pass over a whole file; nothing read
//! from a file is trusted before it passes.
//!
//! Bumping the format: increment [`FORMAT_VERSION`], keep decoding old
//! versions, never reuse a version number.

use std::io::{self, BufRead, ErrorKind, Read, Seek, SeekFrom, Take, Write};

use braid_core::func::run_func;
use braid_core::trace::{for_each_entry, TraceEntry, TraceSource};
use braid_core::FuncStream;
use braid_isa::{container, Program};
use braid_sweep::digest::{
    check_digest, check_footer, Fnv1a, FrameError, FRAME_FOOTER_LEN, FRAME_MAGIC,
};
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

/// The header of a self-contained recorded trace: the program, the fuel it
/// was recorded under, and the length of its committed stream. The entries
/// are never held: the writers stream them from the fast interpreter and
/// [`TraceReader`] streams them from a file.
#[derive(Debug, Clone)]
pub struct TraceFile {
    /// Workload name carried through recording.
    pub name: String,
    /// Instruction budget the recording ran under (replays reuse it when
    /// a core runs the program itself, e.g. the braid core's translation).
    pub fuel: u64,
    /// The program the trace was recorded from.
    pub program: Program,
    /// Committed dynamic instructions in the stream.
    pub entries: u64,
}

impl TraceFile {
    /// The header of `program`'s trace under `fuel`: one functional pass
    /// counts the committed stream, so the writers can put the count ahead
    /// of the entries.
    ///
    /// # Errors
    ///
    /// Propagates functional-execution failures (including running out
    /// of fuel before `halt`).
    pub fn record(program: &Program, fuel: u64) -> Result<TraceFile, TraceError> {
        let entries = run_func(program, fuel).map_err(TraceError::Exec)?.instructions;
        Ok(TraceFile { name: program.name.clone(), fuel, program: program.clone(), entries })
    }

    /// Streams the framed binary form into `out` — the payload (header and
    /// the entries the fast interpreter produces), then the frame footer —
    /// and returns the trace digest (16 hex digits over the payload), the
    /// key braidd's cache and the replay digests carry. Pass `io::sink()`
    /// for the digest alone.
    ///
    /// # Errors
    ///
    /// Propagates program-container encoding, execution and I/O failures.
    pub fn write_binary(&self, mut out: impl Write) -> Result<String, TraceError> {
        let mut hash = Fnv1a::default();
        let len = FuncStream::read(&self.program, self.fuel, |s| {
            self.write_payload(s, &mut out, &mut hash)
        })
        .map_err(TraceError::Exec)??;
        out.write_all(FRAME_MAGIC)?;
        out.write_all(&len.to_le_bytes())?;
        out.write_all(hash.hex().as_bytes())?;
        out.flush()?;
        Ok(hash.hex())
    }

    /// Streams the JSON-lines form into `out`.
    ///
    /// # Errors
    ///
    /// Propagates program-container encoding, execution and I/O failures.
    pub fn write_jsonl(&self, mut out: impl Write) -> Result<(), TraceError> {
        let container = container::to_bytes(&self.program).map_err(TraceError::Container)?;
        let header = Json::Obj(vec![
            ("format".into(), Json::Str("braid-trace".into())),
            ("version".into(), Json::Int(u64::from(FORMAT_VERSION))),
            ("name".into(), Json::Str(self.name.clone())),
            ("fuel".into(), Json::Int(self.fuel)),
            ("program".into(), Json::Str(hex_encode(&container))),
            ("entries".into(), Json::Int(self.entries)),
        ]);
        writeln!(out, "{}", header.compact())?;
        let mut written = Ok(());
        FuncStream::read(&self.program, self.fuel, |s| {
            for_each_entry(s, |e| {
                if written.is_ok() {
                    written = writeln!(out, "[{},{},{},{}]", e.idx, e.next_idx, e.addr, e.taken);
                }
            })
        })
        .map_err(TraceError::Exec)?;
        written?;
        Ok(out.flush()?)
    }

    /// Writes the raw (unframed) binary payload of this header and the
    /// entries `source` supplies into `out`, digesting it into `hash`;
    /// returns the payload's length.
    fn write_payload(
        &self,
        source: &mut dyn TraceSource,
        out: &mut impl Write,
        hash: &mut Fnv1a,
    ) -> Result<u64, TraceError> {
        let container = container::to_bytes(&self.program).map_err(TraceError::Container)?;
        let mut len = 0;
        let mut write = |bytes: &[u8]| {
            hash.update(bytes);
            len += bytes.len() as u64;
            out.write_all(bytes)
        };
        write(TRACE_MAGIC)?;
        write(&FORMAT_VERSION.to_le_bytes())?;
        write(&self.fuel.to_le_bytes())?;
        write(&(self.name.len() as u32).to_le_bytes())?;
        write(self.name.as_bytes())?;
        write(&(container.len() as u64).to_le_bytes())?;
        write(&container)?;
        write(&self.entries.to_le_bytes())?;
        let mut written = Ok(());
        for_each_entry(source, |e| {
            let mut b = [0u8; ENTRY_BYTES];
            b[..4].copy_from_slice(&e.idx.to_le_bytes());
            b[4..8].copy_from_slice(&e.next_idx.to_le_bytes());
            b[8..16].copy_from_slice(&e.addr.to_le_bytes());
            b[16] = u8::from(e.taken);
            if written.is_ok() {
                written = write(&b);
            }
        });
        written?;
        Ok(len)
    }
}

/// Reads a whole trace file once, front to back, checking the frame, every
/// entry and the entry count, and returns the header and the trace digest.
/// A replay runs this pass before it prints or times anything.
///
/// # Errors
///
/// Returns a structured [`TraceError`] for any corruption: a torn frame,
/// bad magic, unknown version, truncated field, undecodable program, or
/// an entry referencing an out-of-range instruction. Never panics,
/// whatever the input bytes.
pub fn verify<R: BufRead + Seek>(input: R) -> Result<(TraceFile, String), TraceError> {
    let mut reader = TraceReader::new(input)?;
    let header = reader.header.clone();
    let mut hash = Fnv1a::default();
    let written = header.write_payload(&mut reader, &mut io::sink(), &mut hash);
    reader.finish()?;
    written?;
    Ok((header, hash.hex()))
}

/// A trace file read as a stream: the header is decoded when the file is
/// opened, each entry as the consumer pulls it. A problem found in an
/// entry ends the stream and is reported by [`TraceReader::finish`].
pub struct TraceReader<R> {
    header: TraceFile,
    body: Body<R>,
    /// Entries decoded so far.
    read: u64,
    /// The first problem found; it ends the stream.
    error: Option<TraceError>,
}

/// The encoding of the entries after the header.
enum Body<R> {
    Binary(Payload<R>),
    /// The input and a buffer for its current line.
    Jsonl(R, Vec<u8>),
}

impl<R: BufRead + Seek> TraceReader<R> {
    /// Opens a trace file (binary or JSON-lines, told apart by the first
    /// byte) and decodes its header. A binary file's footer is checked
    /// first, through a seek: a truncated file is refused without reading
    /// it.
    ///
    /// # Errors
    ///
    /// A structured [`TraceError`] for a frame or header that does not
    /// check out. When a header field is at fault, the rest of the payload
    /// is read first, and a digest that does not match is reported instead.
    pub fn new(mut input: R) -> Result<TraceReader<R>, TraceError> {
        // JSON-lines files start with the `{` of the header object; the
        // framed binary payload starts with the trace magic.
        let (header, body) = if input.fill_buf()?.first() == Some(&b'{') {
            let mut line = Vec::new();
            (jsonl_header(&mut input, &mut line)?, Body::Jsonl(input, line))
        } else {
            let mut payload = Payload::open(input)?;
            match binary_header(&mut payload) {
                Ok(header) => (header, Body::Binary(payload)),
                Err(e) => return Err(payload.finish().err().unwrap_or(e)),
            }
        };
        Ok(TraceReader { header, body, read: 0, error: None })
    }

    /// The decoded header.
    pub fn header(&self) -> &TraceFile {
        &self.header
    }

    /// Reads whatever the consumer did not pull and checks the whole file:
    /// every entry, the entry count and, in the binary form, the payload
    /// digest. The digest covers every payload byte, so a mismatch is
    /// reported ahead of anything found in the bytes it covers.
    ///
    /// # Errors
    ///
    /// As for [`verify`].
    pub fn finish(mut self) -> Result<(), TraceError> {
        while self.next_entry().is_some() {}
        let rest = match &mut self.body {
            Body::Binary(payload) => payload.finish()?,
            Body::Jsonl(..) if self.error.is_none() && self.read != self.header.entries => {
                return Err(TraceError::Malformed(format!(
                    "header promises {} entries, found {}",
                    self.header.entries, self.read
                )));
            }
            Body::Jsonl(..) => 0,
        };
        match self.error {
            Some(e) => Err(e),
            None if rest > 0 => Err(TraceError::Malformed(format!(
                "{rest} trailing bytes after the last entry"
            ))),
            None => Ok(()),
        }
    }

    /// The next entry, checked against the embedded program; `None` once
    /// the stream ends or a problem is found.
    fn next_entry(&mut self) -> Option<TraceEntry> {
        if self.error.is_some() {
            return None;
        }
        let decoded = match &mut self.body {
            Body::Binary(_) if self.read == self.header.entries => Ok(None),
            Body::Binary(payload) => binary_entry(payload, self.read).map(Some),
            Body::Jsonl(input, line) => jsonl_entry(input, line, self.read),
        };
        let n = self.header.program.insts.len() as u32;
        match decoded {
            Ok(Some(e)) if e.idx >= n || e.next_idx > n => {
                self.error = Some(TraceError::Malformed(format!(
                    "entry {} references instruction {} of a {n}-instruction program",
                    self.read,
                    e.idx.max(e.next_idx)
                )));
            }
            Ok(Some(e)) => {
                self.read += 1;
                return Some(e);
            }
            Ok(None) => {}
            Err(e) => self.error = Some(e),
        }
        None
    }
}

impl<R: BufRead + Seek> TraceSource for TraceReader<R> {
    fn fill(&mut self, out: &mut Vec<TraceEntry>, max: usize) {
        out.extend((0..max).map_while(|_| self.next_entry()));
    }
}

/// The payload of a framed file, digested as it is read. Opening it checks
/// the footer's magic and recorded length; [`Payload::finish`] checks the
/// recorded digest.
struct Payload<R> {
    input: Take<R>,
    hash: Fnv1a,
    /// The digest the footer records.
    digest: Vec<u8>,
}

impl<R: BufRead + Seek> Payload<R> {
    fn open(mut input: R) -> Result<Payload<R>, TraceError> {
        let len = input.seek(SeekFrom::End(0))?;
        let payload_len = len
            .checked_sub(FRAME_FOOTER_LEN as u64)
            .ok_or(TraceError::Frame(FrameError::Truncated))?;
        let mut tail = [0u8; FRAME_FOOTER_LEN];
        input.seek(SeekFrom::Start(payload_len))?;
        input.read_exact(&mut tail)?;
        let digest = check_footer(&tail, payload_len).map_err(TraceError::Frame)?.to_vec();
        input.rewind()?;
        Ok(Payload { input: input.take(payload_len), hash: Fnv1a::default(), digest })
    }

    /// Reads the next `N` bytes of the field `what`.
    fn read<const N: usize>(&mut self, what: &str) -> Result<[u8; N], TraceError> {
        let mut buf = [0u8; N];
        self.read_into(&mut buf, what)?;
        Ok(buf)
    }

    fn read_into(&mut self, buf: &mut [u8], what: &str) -> Result<(), TraceError> {
        if self.input.limit() < buf.len() as u64 {
            return Err(TraceError::Malformed(format!("truncated {what}")));
        }
        self.input.read_exact(buf)?;
        self.hash.update(buf);
        Ok(())
    }

    /// Digests the rest of the payload and checks the footer's digest;
    /// returns how many payload bytes were left unread.
    fn finish(&mut self) -> Result<u64, TraceError> {
        let rest = self.input.limit();
        loop {
            let bytes = self.input.fill_buf()?;
            if bytes.is_empty() {
                break;
            }
            self.hash.update(bytes);
            let n = bytes.len();
            self.input.consume(n);
        }
        check_digest(&self.digest, self.hash.hex()).map_err(TraceError::Frame)?;
        Ok(rest)
    }
}

/// Decodes the binary header.
fn binary_header<R: BufRead + Seek>(p: &mut Payload<R>) -> Result<TraceFile, TraceError> {
    if &p.read::<8>("magic")? != TRACE_MAGIC {
        return Err(TraceError::BadMagic);
    }
    let version = u32::from_le_bytes(p.read("version")?);
    if version != FORMAT_VERSION {
        return Err(TraceError::UnknownVersion(version));
    }
    let fuel = u64::from_le_bytes(p.read("fuel")?);
    let name_len = u32::from_le_bytes(p.read("name length")?) as usize;
    if name_len > MAX_NAME_LEN {
        return Err(TraceError::Malformed(format!("implausible name length {name_len}")));
    }
    let mut name = vec![0u8; name_len];
    p.read_into(&mut name, "name")?;
    let name =
        String::from_utf8(name).map_err(|_| TraceError::Malformed("name is not UTF-8".into()))?;
    let container_len = u64::from_le_bytes(p.read("container length")?);
    if container_len > p.input.limit() {
        return Err(TraceError::Malformed(format!(
            "container length {container_len} exceeds payload"
        )));
    }
    let mut bytes = vec![0u8; container_len as usize];
    p.read_into(&mut bytes, "container")?;
    let mut program = container::from_bytes(&bytes).map_err(TraceError::Container)?;
    program.name = name.clone();
    let entries = u64::from_le_bytes(p.read("entry count")?);
    if entries > p.input.limit() / ENTRY_BYTES as u64 {
        return Err(TraceError::Malformed(format!("implausible entry count {entries}")));
    }
    Ok(TraceFile { name, fuel, program, entries })
}

/// Decodes binary entry `i`.
fn binary_entry<R: BufRead + Seek>(p: &mut Payload<R>, i: u64) -> Result<TraceEntry, TraceError> {
    let b: [u8; ENTRY_BYTES] = p.read("entry")?;
    let word = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().expect("4 bytes"));
    let taken = match b[16] {
        0 => false,
        1 => true,
        v => {
            return Err(TraceError::Malformed(format!(
                "entry {i}: taken flag must be 0 or 1, got {v}"
            )))
        }
    };
    let addr = u64::from_le_bytes(b[8..16].try_into().expect("8 bytes"));
    Ok(TraceEntry { idx: word(0), next_idx: word(4), addr, taken })
}

/// Reads the next line, without its line ending, into `line`; `false` at
/// the end of the file.
fn read_line(input: &mut impl BufRead, line: &mut Vec<u8>) -> io::Result<bool> {
    line.clear();
    if input.read_until(b'\n', line)? == 0 {
        return Ok(false);
    }
    if line.ends_with(b"\n") {
        line.pop();
        if line.ends_with(b"\r") {
            line.pop();
        }
    }
    Ok(true)
}

/// `line` as text; `None` when it is blank.
fn text(line: &[u8]) -> Result<Option<&str>, TraceError> {
    let text = std::str::from_utf8(line)
        .map_err(|_| io::Error::new(ErrorKind::InvalidData, "JSON-lines trace is not UTF-8"))?;
    Ok(Some(text).filter(|t| !t.trim().is_empty()))
}

/// Decodes the JSON-lines header line, reading it into `line`.
fn jsonl_header(input: &mut impl BufRead, line: &mut Vec<u8>) -> Result<TraceFile, TraceError> {
    let header = loop {
        if !read_line(input, line)? {
            return Err(TraceError::Malformed("empty trace file".into()));
        }
        if let Some(text) = text(line)? {
            break text;
        }
    };
    let header = parse(header).map_err(|e| TraceError::Malformed(format!("header: {e}")))?;
    if header.get("format").and_then(Json::as_str) != Some("braid-trace") {
        return Err(TraceError::BadMagic);
    }
    let missing = |key: &str| TraceError::Malformed(format!("header missing `{key}`"));
    let number = |key: &str| header.get(key).and_then(Json::as_u64).ok_or_else(|| missing(key));
    let text = |key: &str| header.get(key).and_then(Json::as_str).ok_or_else(|| missing(key));
    let version = number("version")?;
    if version != u64::from(FORMAT_VERSION) {
        return Err(TraceError::UnknownVersion(version.min(u64::from(u32::MAX)) as u32));
    }
    let name = text("name")?.to_string();
    let fuel = number("fuel")?;
    let hex = text("program")?;
    let entries = number("entries")?;
    let bytes =
        hex_decode(hex).ok_or_else(|| TraceError::Malformed("program hex is malformed".into()))?;
    let mut program = container::from_bytes(&bytes).map_err(TraceError::Container)?;
    program.name = name.clone();
    Ok(TraceFile { name, fuel, program, entries })
}

/// Decodes the next JSON-lines entry, entry `i`, reading its line into
/// `line`; `None` at the end of the file.
fn jsonl_entry(
    input: &mut impl BufRead,
    line: &mut Vec<u8>,
    i: u64,
) -> Result<Option<TraceEntry>, TraceError> {
    let line = loop {
        if !read_line(input, line)? {
            return Ok(None);
        }
        if let Some(e) = compact_entry(line) {
            return Ok(Some(e));
        }
        if let Some(text) = text(line)? {
            break text;
        }
    };
    let bad = |what: String| TraceError::Malformed(format!("entry line {}: {what}", i + 2));
    let v = parse(line).map_err(|e| bad(e.to_string()))?;
    let arr = v
        .as_arr()
        .filter(|a| a.len() == 4)
        .ok_or_else(|| bad("expected [idx,next_idx,addr,taken]".into()))?;
    let field =
        |k: usize| arr[k].as_u64().ok_or_else(|| bad(format!("field {k} is not an integer")));
    let index = |k: usize, what: &str| {
        u32::try_from(field(k)?).map_err(|_| bad(format!("{what} overflows u32")))
    };
    let taken = arr[3].as_bool().ok_or_else(|| bad("taken is not a bool".into()))?;
    let (idx, next_idx) = (index(0, "idx")?, index(1, "next_idx")?);
    Ok(Some(TraceEntry { idx, next_idx, addr: field(2)?, taken }))
}

/// An entry line spelled as the writer prints it, `[idx,next_idx,addr,taken]`
/// with plain decimal digits, decoded without the JSON parser; `None` for
/// any other line, which the parser then decodes or reports.
fn compact_entry(line: &[u8]) -> Option<TraceEntry> {
    let mut rest = line.strip_prefix(b"[")?;
    let mut number = || {
        let (digits, tail) = rest.split_at(rest.iter().position(|&b| b == b',')?);
        rest = &tail[1..];
        let digits = Some(digits).filter(|d| !d.is_empty())?;
        digits.iter().try_fold(0u64, |n, &b| {
            let digit = char::from(b).to_digit(10)?;
            n.checked_mul(10)?.checked_add(u64::from(digit))
        })
    };
    let (idx, next_idx, addr) = (number()?, number()?, number()?);
    let taken = match rest {
        b"true]" => true,
        b"false]" => false,
        _ => return None,
    };
    Some(TraceEntry { idx: idx.try_into().ok()?, next_idx: next_idx.try_into().ok()?, addr, taken })
}

/// Lowercase hex of `bytes`.
fn hex_encode(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Inverse of [`hex_encode`]; `None` on odd length or non-hex digits.
fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    let digit = |b: u8| char::from(b).to_digit(16);
    s.as_bytes()
        .chunks(2)
        .map(|pair| Some((digit(pair[0])? * 16 + digit(pair[1])?) as u8))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use braid_isa::asm::assemble;
    use braid_sweep::digest::{frame, unframe};
    use std::io::{self, Cursor};

    /// A recorded loop over `n` array elements.
    fn sample_of(n: u32) -> TraceFile {
        let mut p = assemble(&format!(
            r#"
                addi r0, #{n}, r1
            loop:
                ldq  r2, 0(r3) @global:1
                addq r2, r4, r4
                addi r3, #8, r3
                subi r1, #1, r1
                bne  r1, loop
                halt
                .data 0x1000 1 2 3 4 5
            "#
        ))
        .unwrap();
        p.name = "sample".into();
        TraceFile::record(&p, 10_000).unwrap()
    }

    fn sample() -> TraceFile {
        sample_of(5)
    }

    fn binary(f: &TraceFile) -> Vec<u8> {
        let mut bytes = Vec::new();
        f.write_binary(&mut bytes).unwrap();
        bytes
    }

    fn payload(f: &TraceFile) -> Vec<u8> {
        unframe(&binary(f)).unwrap().to_vec()
    }

    /// Every entry of a trace file, read through [`TraceReader`].
    fn entries(bytes: &[u8]) -> Result<Vec<TraceEntry>, TraceError> {
        let mut reader = TraceReader::new(Cursor::new(bytes))?;
        let mut out = Vec::new();
        braid_core::trace::for_each_entry(&mut reader, |e| out.push(*e));
        reader.finish()?;
        Ok(out)
    }

    /// The golden interpreter's trace of the recorded program.
    fn oracle(f: &TraceFile) -> Vec<TraceEntry> {
        braid_core::trace_program(&f.program, f.fuel).unwrap().entries
    }

    #[test]
    fn binary_round_trips_exactly() {
        let f = sample();
        let bytes = binary(&f);
        let (back, digest) = verify(Cursor::new(&bytes[..])).unwrap();
        assert_eq!(back.name, f.name);
        assert_eq!(back.fuel, f.fuel);
        assert_eq!(back.program.insts, f.program.insts);
        assert_eq!(back.entries, f.entries);
        assert_eq!(entries(&bytes).unwrap(), oracle(&f));
        assert_eq!(digest, f.write_binary(io::sink()).unwrap());
    }

    #[test]
    fn jsonl_round_trips_exactly() {
        let f = sample();
        let mut text = Vec::new();
        f.write_jsonl(&mut text).unwrap();
        assert!(text.starts_with(b"{\"format\":\"braid-trace\",\"version\":1,"));
        let (back, digest) = verify(Cursor::new(&text[..])).unwrap();
        assert_eq!(back.program.insts, f.program.insts);
        assert_eq!(entries(&text).unwrap(), oracle(&f));
        let binary_digest = f.write_binary(io::sink()).unwrap();
        assert_eq!(digest, binary_digest, "one digest whatever the serialization");
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = binary(&sample());
        for cut in 0..bytes.len() {
            let truncated = Cursor::new(&bytes[..cut]);
            assert!(verify(truncated).is_err(), "truncation at {cut} must not parse");
        }
    }

    #[test]
    fn every_byte_flip_is_a_structured_error() {
        // The frame digest catches every flip, whatever field it lands in.
        let bytes = binary(&sample());
        for i in (0..bytes.len()).step_by(7) {
            let mut mangled = bytes.clone();
            mangled[i] ^= 0x2a;
            assert!(
                matches!(verify(Cursor::new(&mangled[..])), Err(TraceError::Frame(_))),
                "flip at {i}"
            );
        }
    }

    #[test]
    fn version_and_magic_are_enforced() {
        let f = sample();
        let mut p = payload(&f);
        p[8] = 99; // version
        assert!(matches!(verify(Cursor::new(frame(&p))), Err(TraceError::UnknownVersion(99))));
        let mut p = payload(&f);
        p[0] = b'X';
        assert!(matches!(verify(Cursor::new(frame(&p))), Err(TraceError::BadMagic)));
    }

    #[test]
    fn spliced_payloads_are_rejected() {
        // Splice the tail of one payload onto the head of another:
        // re-framed so the frame verifies, the field cross-checks must
        // still reject it.
        let a = payload(&sample());
        let b = payload(&sample_of(2));
        let spliced = [&a[..a.len() / 2], &b[b.len() / 2..]].concat();
        assert!(verify(Cursor::new(frame(&spliced))).is_err());
        // Also splice extra entry bytes onto a valid payload.
        let mut grown = a.clone();
        grown.extend_from_slice(&[0u8; 21]);
        assert!(verify(Cursor::new(frame(&grown))).is_err());
    }

    #[test]
    fn out_of_range_entries_are_rejected() {
        let f = sample();
        let mut p = payload(&f);
        let first = p.len() - f.entries as usize * ENTRY_BYTES;
        p[first..first + 4].copy_from_slice(&10_000u32.to_le_bytes());
        assert!(matches!(verify(Cursor::new(frame(&p))), Err(TraceError::Malformed(_))));
    }

    #[test]
    fn jsonl_header_mismatches_are_rejected() {
        let f = sample();
        let mut text = Vec::new();
        f.write_jsonl(&mut text).unwrap();
        let text = String::from_utf8(text).unwrap();
        // Drop an entry line: header count no longer matches.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.pop();
        assert!(verify(Cursor::new(lines.join("\n"))).is_err());
        // Garbage body line.
        let garbled = text.replacen("[0,", "[oops,", 1);
        assert!(verify(Cursor::new(garbled)).is_err());
        assert!(verify(Cursor::new(b"")).is_err());
        assert!(verify(Cursor::new(b"{\"format\":\"other\"}\n")).is_err());
    }

    #[test]
    fn jsonl_entries_decode_alike_in_any_json_spelling() {
        let spelled = |line: &str| {
            let mut input = Cursor::new(format!("{line}\n"));
            jsonl_entry(&mut input, &mut Vec::new(), 0).map_err(|e| e.to_string())
        };
        let entry = TraceEntry { idx: 3, next_idx: 4, addr: 4096, taken: true };
        let spellings =
            ["[3,4,4096,true]", "[ 3, 4, 4096, true ]", "[03,4,4096,true]", " [3,4,4096,true]\r"];
        for line in spellings {
            assert_eq!(spelled(line), Ok(Some(entry)), "{line:?}");
        }
        assert_eq!(spelled("[3,4,0,false]").unwrap().map(|e| e.taken), Some(false));
        for (line, error) in [
            ("[4294967296,4,0,true]", "idx overflows u32"),
            ("[3,4,99999999999999999999,true]", "field 2 is not an integer"),
            ("[3,4,0,1]", "taken is not a bool"),
            ("[3,4,0]", "expected [idx,next_idx,addr,taken]"),
            ("[3,4,0,true,5]", "expected [idx,next_idx,addr,taken]"),
        ] {
            let got = spelled(line).unwrap_err();
            assert_eq!(got, format!("malformed trace: entry line 2: {error}"), "{line:?}");
        }
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
