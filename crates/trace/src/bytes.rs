//! Byte-stable binary codec and crash-safe persistence primitives.
//!
//! Every durable fleet file (campaign checkpoints, node-day store entries
//! and the store's `store.meta` stamp) is a *sealed record* built on three
//! guarantees this module owns:
//!
//! * **Byte stability.** Every value is written little-endian with explicit
//!   widths, floats travel as their IEEE-754 bit patterns (`to_bits`), and
//!   variable-length payloads carry length prefixes. Encoding the same state
//!   twice yields identical bytes on every platform, so checkpoint parity
//!   can be checked with `cmp`.
//! * **One envelope.** [`seal`] frames a payload as
//!
//!   ```text
//!   offset  size  field
//!   0       8     magic (names the format)
//!   8       4     format version (u32 LE)
//!   12      ..    payload
//!   end-8   8     FNV-1a-64 of bytes [0, end-8)
//!   ```
//!
//!   and [`unseal`] checks it in trust order (magic, length, version,
//!   checksum) before handing back a [`ByteReader`] over the payload. Only
//!   these two functions read or write the envelope fields.
//! * **Fail-closed decoding.** [`ByteReader`] returns a typed
//!   [`CodecError`] for truncated or malformed input, and
//!   [`ByteReader::finish`] rejects trailing bytes; nothing here panics on
//!   foreign bytes. [`unseal`] lifts both into an [`EnvelopeError`].
//!
//! [`write_atomic`] is the single sanctioned way to persist these payloads:
//! write to a temporary sibling, fsync, rename over the target. A crash at
//! any instant leaves either the old file or the new file, never a torn
//! hybrid. The `atomic-persist` lint (`cargo xtask lint`) bans bare
//! `fs::write` / `File::create` in checkpoint-handling crates outside this
//! helper so the invariant cannot erode silently.

use std::io::Write as _;
use std::path::Path;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`. Deterministic, dependency-free, and good
/// enough to detect corruption (truncation, bit flips, editor mangling) in
/// checkpoint payloads — this is an integrity check, not a cryptographic
/// one.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The workspace's *registered stable hasher*: streaming FNV-1a 64-bit.
///
/// Content keys that reach disk (the fleet's node-day store, checkpoint
/// fingerprints) must hash identically across processes, platforms, and
/// std releases, so `std::hash`'s `DefaultHasher`/`RandomState` — whose
/// output is salted per process and explicitly unspecified across versions
/// — are banned in store-key code by the `stable-store-key` lint
/// (`cargo xtask lint`). This type is the sanctioned alternative: same
/// function as [`fnv1a64`], incremental, so key material can be folded in
/// field by field without buffering an intermediate encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FnvHasher {
    state: u64,
}

impl FnvHasher {
    /// A fresh hasher at the FNV-1a offset basis.
    pub const fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the running hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one little-endian `u64` in.
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Folds one `f64` in by IEEE-754 bit pattern — `-0.0` and `0.0` hash
    /// differently, NaN payloads are preserved, no epsilon ambiguity.
    pub fn write_f64_bits(&mut self, bits: u64) {
        self.write(&bits.to_le_bytes());
    }

    /// The current hash value. Does not consume the hasher; writing more
    /// bytes afterwards continues from this state.
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for FnvHasher {
    fn default() -> Self {
        Self::new()
    }
}

/// A decode failure: what was expected and where the cursor stood.
///
/// Every variant is a *data* problem, not a programming error — corrupted
/// or truncated input must surface as a value the caller can match on,
/// never as a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before `needed` more bytes could be read.
    Truncated {
        /// Byte offset the read started at.
        offset: usize,
        /// Bytes the read required.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A length prefix exceeded the bytes that follow it.
    BadLength {
        /// Byte offset of the offending prefix.
        offset: usize,
        /// The declared length.
        declared: u64,
        /// Bytes actually remaining after the prefix.
        remaining: usize,
    },
    /// A byte string declared as UTF-8 was not valid UTF-8.
    BadUtf8 {
        /// Byte offset of the string payload.
        offset: usize,
    },
    /// [`ByteReader::finish`] found bytes after the decoded payload.
    Trailing {
        /// Byte offset where the unread bytes start.
        offset: usize,
        /// How many bytes were left unread.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Truncated {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "truncated input at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            Self::BadLength {
                offset,
                declared,
                remaining,
            } => write!(
                f,
                "bad length prefix at byte {offset}: declares {declared} bytes, {remaining} remain"
            ),
            Self::BadUtf8 { offset } => write!(f, "invalid UTF-8 in string at byte {offset}"),
            Self::Trailing { offset, remaining } => {
                write!(
                    f,
                    "{remaining} trailing bytes after payload at byte {offset}"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Why [`unseal`] (or the payload decode after it) refused a record. The
/// variants follow the trust order: each is reported only once every check
/// before it has passed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnvelopeError {
    /// Fewer than 8 bytes, or a magic other than the expected one: not a
    /// record of this format at all.
    BadMagic,
    /// The right magic but another format version. Reported before the
    /// checksum is checked, so a newer build's file names its version.
    UnsupportedVersion {
        /// Version the record declares.
        found: u32,
        /// Version this build reads.
        supported: u32,
    },
    /// The trailing FNV-1a-64 does not match the bytes before it: a torn
    /// write, a flipped bit, or tampering.
    ChecksumMismatch {
        /// Checksum the record carries.
        expected: u64,
        /// Checksum the bytes actually hash to.
        actual: u64,
    },
    /// The right magic but shorter than the envelope, or a payload that
    /// fails structural decoding despite a clean checksum.
    Malformed {
        /// What the decoder objected to.
        detail: String,
    },
}

impl std::fmt::Display for EnvelopeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "bad magic"),
            Self::UnsupportedVersion { found, supported } => {
                write!(f, "format v{found}, this build reads v{supported}")
            }
            Self::ChecksumMismatch { expected, actual } => {
                write!(f, "checksum {actual:#018x} != recorded {expected:#018x}")
            }
            Self::Malformed { detail } => write!(f, "malformed: {detail}"),
        }
    }
}

impl std::error::Error for EnvelopeError {}

impl From<CodecError> for EnvelopeError {
    fn from(e: CodecError) -> Self {
        Self::Malformed {
            detail: e.to_string(),
        }
    }
}

/// Magic + version + trailing checksum: the smallest sealed record.
const ENVELOPE_BYTES: usize = 8 + 4 + 8;

/// Frames the bytes `payload` writes as a sealed record: `magic`,
/// `version` (u32 LE), the payload, then the FNV-1a-64 of everything
/// before it. Pure: the same payload seals to the same bytes.
pub fn seal(magic: [u8; 8], version: u32, payload: impl FnOnce(&mut ByteWriter)) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.buf.extend_from_slice(&magic);
    w.push_u32(version);
    payload(&mut w);
    let checksum = fnv1a64(&w.buf);
    w.push_u64(checksum);
    w.buf
}

/// Opens a record written by [`seal`], checking in trust order: magic,
/// envelope length, version, checksum. Returns a reader over the payload
/// (offsets in its errors are file offsets); the caller decodes the
/// structure and ends with [`ByteReader::finish`].
pub fn unseal(bytes: &[u8], magic: [u8; 8], version: u32) -> Result<ByteReader<'_>, EnvelopeError> {
    if bytes.get(..8) != Some(&magic[..]) {
        return Err(EnvelopeError::BadMagic);
    }
    if bytes.len() < ENVELOPE_BYTES {
        return Err(EnvelopeError::Malformed {
            detail: format!(
                "{} bytes is shorter than the {ENVELOPE_BYTES}-byte envelope",
                bytes.len()
            ),
        });
    }
    let mut header = ByteReader { buf: bytes, pos: 8 };
    let found = header.read_u32()?;
    if found != version {
        return Err(EnvelopeError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let (content, trailer) = bytes.split_at(bytes.len() - 8);
    let expected = ByteReader::new(trailer).read_u64()?;
    let actual = fnv1a64(content);
    if actual != expected {
        return Err(EnvelopeError::ChecksumMismatch { expected, actual });
    }
    Ok(ByteReader {
        buf: content,
        pos: 12,
    })
}

/// Little-endian append-only encoder. The write methods are infallible —
/// the buffer grows — so encoding never produces a partial payload.
#[derive(Debug, Default, Clone)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one byte.
    pub fn push_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn push_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn push_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i128`, little-endian two's complement.
    pub fn push_i128(&mut self, v: i128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 double as its raw bit pattern (the caller holds
    /// the `f64` and passes `value.to_bits()`), so `-0.0`, subnormals, and
    /// every NaN payload round-trip bit-exactly.
    pub fn push_f64_bits(&mut self, bits: u64) {
        self.push_u64(bits);
    }

    /// Appends a length-prefixed (u64) byte string.
    pub fn push_bytes(&mut self, bytes: &[u8]) {
        self.push_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn push_str(&mut self, s: &str) {
        self.push_bytes(s.as_bytes());
    }

    /// The encoded bytes so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Cursor-based decoder over a byte slice. Every read is bounds-checked
/// and returns [`CodecError`] on malformed input.
#[derive(Debug, Clone)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Current cursor offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Result<u32, CodecError> {
        let raw = self.take(4)?;
        let mut arr = [0u8; 4];
        arr.copy_from_slice(raw);
        Ok(u32::from_le_bytes(arr))
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        let raw = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(raw);
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads a little-endian `i128`.
    pub fn read_i128(&mut self) -> Result<i128, CodecError> {
        let raw = self.take(16)?;
        let mut arr = [0u8; 16];
        arr.copy_from_slice(raw);
        Ok(i128::from_le_bytes(arr))
    }

    /// Reads an IEEE-754 bit pattern written by
    /// [`ByteWriter::push_f64_bits`]; the caller rehydrates with
    /// `f64::from_bits`.
    pub fn read_f64_bits(&mut self) -> Result<u64, CodecError> {
        self.read_u64()
    }

    /// Reads a length-prefixed byte string.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let prefix_at = self.pos;
        let declared = self.read_u64()?;
        let remaining = self.remaining();
        let n = usize::try_from(declared).map_err(|_| CodecError::BadLength {
            offset: prefix_at,
            declared,
            remaining,
        })?;
        if n > remaining {
            return Err(CodecError::BadLength {
                offset: prefix_at,
                declared,
                remaining,
            });
        }
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, CodecError> {
        let payload_at = self.pos + 8;
        let raw = self.read_bytes()?;
        std::str::from_utf8(raw).map_err(|_| CodecError::BadUtf8 { offset: payload_at })
    }

    /// Ends the decode: [`CodecError::Trailing`] if any bytes are unread.
    pub fn finish(self) -> Result<(), CodecError> {
        match self.remaining() {
            0 => Ok(()),
            remaining => Err(CodecError::Trailing {
                offset: self.pos,
                remaining,
            }),
        }
    }
}

/// Atomically replaces `path` with `bytes`: write a temporary sibling in
/// the same directory, fsync it, then rename over the target (and fsync
/// the directory, best-effort). A crash at any point leaves either the
/// previous file intact or the new file complete — never a torn write.
///
/// This is the registered helper for the `atomic-persist` lint: all
/// checkpoint-path writes in `fleet`/`trace` library code must flow
/// through here.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    let file_name = path.file_name().ok_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("atomic write target has no file name: {}", path.display()),
        )
    })?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(file_name);
    tmp_name.push(".tmp");
    let tmp = match dir {
        Some(d) => d.join(&tmp_name),
        None => std::path::PathBuf::from(&tmp_name),
    };

    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    // Persist the rename itself. Directory fsync is not available on every
    // platform/filesystem, so failure here downgrades to best-effort: the
    // data file is already durable and the rename is atomic either way.
    if let Some(d) = dir {
        if let Ok(dirfile) = std::fs::File::open(d) {
            let _ = dirfile.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_hasher_matches_one_shot_fnv() {
        let payload = b"solarml-node-day/v1 \x00\xff tail";
        let mut h = FnvHasher::new();
        h.write(payload);
        assert_eq!(h.finish(), fnv1a64(payload));
        // Split writes are the same stream: chunking must not matter.
        let mut split = FnvHasher::new();
        for chunk in payload.chunks(3) {
            split.write(chunk);
        }
        assert_eq!(split.finish(), h.finish());
    }

    #[test]
    fn streaming_hasher_field_helpers_are_little_endian() {
        let mut a = FnvHasher::new();
        a.write_u64(0x0123_4567_89AB_CDEF);
        a.write_f64_bits((-0.0f64).to_bits());
        let mut b = FnvHasher::new();
        b.write(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        b.write(&(-0.0f64).to_bits().to_le_bytes());
        assert_eq!(a.finish(), b.finish());
        // Signed zeros are distinct key material.
        let mut pos = FnvHasher::new();
        pos.write_f64_bits(0.0f64.to_bits());
        assert_ne!(a.finish(), pos.finish());
    }

    #[test]
    fn round_trip_is_byte_exact() {
        let mut w = ByteWriter::new();
        w.push_u8(0xAB);
        w.push_u32(0xDEAD_BEEF);
        w.push_u64(u64::MAX - 7);
        w.push_i128(-(1i128 << 100));
        w.push_f64_bits((-0.0f64).to_bits());
        w.push_f64_bits(f64::NAN.to_bits());
        w.push_str("fleet/ckpt");
        w.push_bytes(&[1, 2, 3]);
        let bytes = w.into_bytes();

        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX - 7);
        assert_eq!(r.read_i128().unwrap(), -(1i128 << 100));
        let neg_zero = f64::from_bits(r.read_f64_bits().unwrap());
        assert_eq!(neg_zero.to_bits(), (-0.0f64).to_bits());
        assert!(f64::from_bits(r.read_f64_bits().unwrap()).is_nan());
        assert_eq!(r.read_str().unwrap(), "fleet/ckpt");
        assert_eq!(r.read_bytes().unwrap(), &[1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let mut w = ByteWriter::new();
        w.push_u64(42);
        w.push_str("hello");
        w.push_i128(-1);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            let outcome = r
                .read_u64()
                .and_then(|_| r.read_str().map(|_| ()))
                .and_then(|_| r.read_i128().map(|_| ()));
            assert!(outcome.is_err(), "prefix of {cut} bytes decoded cleanly");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut w = ByteWriter::new();
        w.push_u64(u64::MAX); // claims ~1.8e19 bytes follow
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(matches!(
            r.read_bytes(),
            Err(CodecError::BadLength { declared, .. }) if declared == u64::MAX
        ));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut w = ByteWriter::new();
        w.push_bytes(&[0xFF, 0xFE]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.read_str(), Err(CodecError::BadUtf8 { offset: 8 }));
    }

    const MAGIC: [u8; 8] = *b"TESTSEAL";

    fn sealed() -> Vec<u8> {
        seal(MAGIC, 3, |w| {
            w.push_u64(0x0123_4567_89AB_CDEF);
            w.push_str("payload");
        })
    }

    #[test]
    fn seal_round_trips_through_unseal() {
        let bytes = sealed();
        assert_eq!(&bytes[..8], b"TESTSEAL");
        assert_eq!(&bytes[8..12], &3u32.to_le_bytes());
        let (content, trailer) = bytes.split_at(bytes.len() - 8);
        assert_eq!(trailer, &fnv1a64(content).to_le_bytes());

        let mut r = unseal(&bytes, MAGIC, 3).unwrap();
        assert_eq!(r.position(), 12, "reader offsets are file offsets");
        assert_eq!(r.read_u64().unwrap(), 0x0123_4567_89AB_CDEF);
        assert_eq!(r.read_str().unwrap(), "payload");
        assert_eq!(r.finish(), Ok(()));

        let empty = seal(MAGIC, 3, |_| {});
        assert_eq!(empty.len(), ENVELOPE_BYTES);
        assert_eq!(unseal(&empty, MAGIC, 3).unwrap().finish(), Ok(()));
    }

    #[test]
    fn short_or_foreign_input_is_bad_magic_and_short_ours_is_malformed() {
        let bytes = sealed();
        for cut in 0..8 {
            assert_eq!(
                unseal(&bytes[..cut], MAGIC, 3).err(),
                Some(EnvelopeError::BadMagic),
                "{cut} bytes"
            );
        }
        assert_eq!(
            unseal(&bytes, *b"OTHERFMT", 3).err(),
            Some(EnvelopeError::BadMagic)
        );
        for cut in 8..ENVELOPE_BYTES {
            assert!(
                matches!(
                    unseal(&bytes[..cut], MAGIC, 3),
                    Err(EnvelopeError::Malformed { .. })
                ),
                "{cut} bytes"
            );
        }
    }

    #[test]
    fn version_is_checked_before_the_checksum() {
        let mut bytes = sealed();
        bytes[8] = 9; // the checksum no longer matches either
        assert_eq!(
            unseal(&bytes, MAGIC, 3).err(),
            Some(EnvelopeError::UnsupportedVersion {
                found: 9,
                supported: 3
            })
        );
    }

    #[test]
    fn checksum_is_checked_before_the_payload_is_handed_out() {
        let bytes = sealed();
        for pos in 12..bytes.len() {
            let mut mangled = bytes.clone();
            mangled[pos] ^= 0x01;
            assert!(
                matches!(
                    unseal(&mangled, MAGIC, 3),
                    Err(EnvelopeError::ChecksumMismatch { .. })
                ),
                "flip at {pos}"
            );
        }
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let bytes = sealed();
        let mut r = unseal(&bytes, MAGIC, 3).unwrap();
        r.read_u64().unwrap();
        assert_eq!(
            r.finish(),
            Err(CodecError::Trailing {
                offset: 20,
                remaining: 15
            })
        );
        let err = EnvelopeError::from(CodecError::Trailing {
            offset: 20,
            remaining: 15,
        });
        assert!(matches!(err, EnvelopeError::Malformed { .. }), "{err}");
    }

    #[test]
    fn fnv_detects_single_bit_flips() {
        let payload: Vec<u8> = (0..64u8).collect();
        let clean = fnv1a64(&payload);
        for byte in 0..payload.len() {
            for bit in 0..8 {
                let mut mangled = payload.clone();
                mangled[byte] ^= 1 << bit;
                assert_ne!(fnv1a64(&mangled), clean, "flip at {byte}:{bit} undetected");
            }
        }
    }

    #[test]
    fn atomic_write_replaces_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("solarml-bytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("state.bin");
        write_atomic(&target, b"first").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"first");
        write_atomic(&target, b"second").unwrap();
        assert_eq!(std::fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n.to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "temp files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
