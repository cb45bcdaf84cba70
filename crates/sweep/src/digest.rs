//! The shared content-digest helper.
//!
//! Everything in the workspace that needs to recognize "the same content"
//! across runs — sweep snapshot/resume guards, the braid-serve
//! content-addressed result cache — derives its key through this one
//! module, so all cache keys and snapshot digests agree on the hash
//! function and its rendering.
//!
//! The hash is 64-bit FNV-1a: tiny, dependency-free, deterministic across
//! platforms and releases. It is a *change detector*, not a cryptographic
//! commitment — collisions merely cause a spurious cache hit or snapshot
//! reuse between two inputs a human already considers interchangeable, and
//! the snapshot loader cross-checks per-point keys on top of the digest.
//!
//! The rendering (16 lowercase hex digits, zero-padded) is part of the
//! stable contract: digests are stored in snapshot files and compared as
//! strings by resume, so it must never change. The unit test below pins
//! both the function and the rendering against known vectors.

/// 64-bit FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.update(bytes);
    h.0
}

/// The canonical rendering of a content digest: 16 lowercase hex digits.
pub fn hex(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a64(bytes))
}

/// 64-bit FNV-1a fed in pieces, for content streamed rather than held:
/// updating with `a` then `b` digests exactly as [`fnv1a64`] of `a ++ b`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    /// Feeds the next bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of everything fed so far, in the canonical rendering.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// A small builder for digesting structured content: feed it labelled
/// fields and take the digest of the whole. The label/value framing keeps
/// adjacent fields from aliasing (`("ab", "c")` ≠ `("a", "bc")`).
#[derive(Debug, Default)]
pub struct ContentDigest {
    canon: Vec<u8>,
}

impl ContentDigest {
    /// An empty digest accumulator.
    pub fn new() -> ContentDigest {
        ContentDigest::default()
    }

    /// Feeds one labelled field.
    pub fn field(mut self, label: &str, value: impl AsRef<[u8]>) -> ContentDigest {
        let value = value.as_ref();
        self.canon.extend_from_slice(label.as_bytes());
        self.canon.push(b'=');
        self.canon.extend_from_slice(format!("{}:", value.len()).as_bytes());
        self.canon.extend_from_slice(value);
        self.canon.push(b';');
        self
    }

    /// The digest of everything fed so far, in the canonical rendering.
    pub fn finish(&self) -> String {
        hex(&self.canon)
    }
}

/// Magic trailer identifying a framed disk-cache entry, version 1. Part
/// of the on-disk contract: bump the digit, never reuse it, if the frame
/// layout ever changes.
pub const FRAME_MAGIC: &[u8; 8] = b"BRDCACH1";

/// Total size of the [`frame`] footer in bytes: magic (8) + little-endian
/// payload length (8) + canonical hex digest of the payload (16).
pub const FRAME_FOOTER_LEN: usize = 8 + 8 + 16;

/// Why [`unframe`] rejected a byte string. Every variant means the entry
/// must be treated as corrupt (quarantined), never served.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the footer — a torn write truncated the entry.
    Truncated,
    /// The trailing magic is absent or from an unknown frame version.
    BadMagic,
    /// The footer's recorded payload length disagrees with the actual
    /// byte count — a torn or interleaved write.
    LengthMismatch {
        /// Length the footer claims.
        recorded: u64,
        /// Length actually present before the footer.
        actual: u64,
    },
    /// The payload bytes do not hash to the footer's digest — bit rot or
    /// a partially overwritten entry.
    DigestMismatch {
        /// Digest the footer claims.
        recorded: String,
        /// Digest of the bytes actually present.
        actual: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => f.write_str("entry shorter than the frame footer"),
            FrameError::BadMagic => f.write_str("missing or unknown frame magic"),
            FrameError::LengthMismatch { recorded, actual } => {
                write!(f, "footer records {recorded} payload bytes, found {actual}")
            }
            FrameError::DigestMismatch { recorded, actual } => {
                write!(f, "footer digest {recorded} != payload digest {actual}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Frames `payload` for crash-safe storage: the payload followed by a
/// self-describing footer (magic, length, digest). The footer comes
/// *last* so that any truncation — the failure mode of a torn write —
/// destroys the footer and is caught by [`unframe`].
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + FRAME_FOOTER_LEN);
    out.extend_from_slice(payload);
    out.extend_from_slice(FRAME_MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(hex(payload).as_bytes());
    out
}

/// Verifies a framed byte string and returns the payload slice.
///
/// # Errors
///
/// Returns a [`FrameError`] when the footer is missing, truncated, from
/// an unknown version, or disagrees with the payload in length or digest.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.len() < FRAME_FOOTER_LEN {
        return Err(FrameError::Truncated);
    }
    let (payload, footer) = bytes.split_at(bytes.len() - FRAME_FOOTER_LEN);
    let recorded = check_footer(footer, payload.len() as u64)?;
    check_digest(recorded, hex(payload))?;
    Ok(payload)
}

/// Checks the magic of the [`FRAME_FOOTER_LEN`]-byte `footer` and the
/// payload length it records against `len`, and returns the digest it
/// records: the first of [`unframe`]'s two steps, for readers that stream
/// the payload and check its digest ([`check_digest`]) at the end.
///
/// # Errors
///
/// [`FrameError::BadMagic`] or [`FrameError::LengthMismatch`].
pub fn check_footer(footer: &[u8], len: u64) -> Result<&[u8], FrameError> {
    let (magic, rest) = footer.split_at(8);
    if magic != FRAME_MAGIC {
        return Err(FrameError::BadMagic);
    }
    let (len_bytes, digest) = rest.split_at(8);
    let recorded = u64::from_le_bytes(len_bytes.try_into().expect("8-byte slice"));
    if recorded != len {
        return Err(FrameError::LengthMismatch { recorded, actual: len });
    }
    Ok(digest)
}

/// Checks the payload digest a footer records against the `actual` one.
///
/// # Errors
///
/// [`FrameError::DigestMismatch`] when they differ.
pub fn check_digest(recorded: &[u8], actual: String) -> Result<(), FrameError> {
    if recorded != actual.as_bytes() {
        return Err(FrameError::DigestMismatch {
            recorded: String::from_utf8_lossy(recorded).into_owned(),
            actual,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pins the digest of known byte strings: both the FNV-1a offset
    /// basis / prime behaviour and the 16-hex-digit rendering are stable
    /// contracts (snapshots and caches store these strings).
    #[test]
    fn known_vectors_are_pinned() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        assert_eq!(hex(b""), "cbf29ce484222325");
        assert_eq!(hex(b"foobar"), "85944171f73967e8");
        let mut pieces = Fnv1a::default();
        pieces.update(b"foo");
        pieces.update(b"bar");
        assert_eq!(pieces.hex(), "85944171f73967e8");
    }

    #[test]
    fn builder_frames_fields() {
        let ab_c = ContentDigest::new().field("k", "ab").field("j", "c").finish();
        let a_bc = ContentDigest::new().field("k", "a").field("j", "bc").finish();
        assert_ne!(ab_c, a_bc, "field framing must prevent aliasing");
        let again = ContentDigest::new().field("k", "ab").field("j", "c").finish();
        assert_eq!(ab_c, again, "same fields, same digest");
    }

    #[test]
    fn frame_round_trips() {
        for payload in [&b""[..], b"x", b"{\"cycles\":10}", &[0u8, 255, 7, 42]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), payload.len() + FRAME_FOOTER_LEN);
            assert_eq!(unframe(&framed).expect("verifies"), payload);
        }
    }

    #[test]
    fn every_truncation_is_rejected() {
        let framed = frame(b"hello braid cache");
        for cut in 0..framed.len() {
            assert!(unframe(&framed[..cut]).is_err(), "truncation at {cut} must not verify");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let framed = frame(b"payload under test");
        for i in 0..framed.len() {
            let mut mangled = framed.clone();
            mangled[i] ^= 0x41;
            assert!(unframe(&mangled).is_err(), "flip at {i} must not verify");
        }
    }

    #[test]
    fn frame_errors_name_the_failure() {
        assert_eq!(unframe(b"tiny"), Err(FrameError::Truncated));
        let mut framed = frame(b"abc");
        framed[3] = b'X'; // corrupt the magic
        assert_eq!(unframe(&framed), Err(FrameError::BadMagic));
        // Extra payload byte: length check fires before the digest check.
        let mut grown = frame(b"abc");
        grown.insert(0, b'z');
        assert!(matches!(unframe(&grown), Err(FrameError::LengthMismatch { recorded: 3, actual: 4 })));
        let mut flipped = frame(b"abc");
        flipped[0] = b'z';
        assert!(matches!(unframe(&flipped), Err(FrameError::DigestMismatch { .. })));
    }
}
