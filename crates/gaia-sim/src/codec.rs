//! The workspace's one binary codec and its one durable write.
//!
//! Every persisted format — engine snapshots (`GAIASNAP`), service
//! snapshots (`GAIASRVS`), result-cache entries (`GAIACELL`) and shard
//! slices (`cells.bin`, `GAIASHRD`) — is encoded through [`Writer`],
//! decoded through [`Reader`], and put on disk with [`durable_write`].
//!
//! The vendored serde derives are no-ops, so the layout is hand-rolled:
//! integers little-endian, floats as raw `f64::to_bits`, strings and
//! byte blobs prefixed with a `u64` length, options as a 0/1 tag, and a
//! format header of 8 magic bytes plus a `u32` version. The same value
//! always encodes to the same bytes (no varints, no maps with unstable
//! order), which is what lets snapshots, cell fingerprints and shard
//! slices take part in the byte-identity contracts.
//!
//! [`Reader`] bounds-checks every take, rejects trailing bytes, and
//! guards element counts against the bytes that remain, so truncated or
//! bit-flipped input decodes to a [`DecodeError`] — never a panic or an
//! unbounded allocation.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::{fmt, result};

/// Why bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Truncated or structurally malformed bytes, including a bad magic.
    Malformed(String),
    /// A well-formed header carrying a layout version this build does
    /// not read.
    UnknownVersion(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Malformed(msg) | DecodeError::UnknownVersion(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The sweep layer reports decode failures as plain strings.
impl From<DecodeError> for String {
    fn from(e: DecodeError) -> String {
        e.to_string()
    }
}

fn malformed<T>(msg: String) -> Result<T> {
    Err(DecodeError::Malformed(msg))
}

/// Result of a decode step.
pub type Result<T> = result::Result<T, DecodeError>;

/// Append-only little-endian byte sink.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer, for headerless encodings such as fingerprints.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer that starts with a format header: `magic`, then
    /// `version` as a `u32`. The inverse is [`Reader::header`].
    pub fn with_header(magic: &[u8; 8], version: u32) -> Self {
        let mut w = Writer {
            buf: magic.to_vec(),
        };
        w.u32(version);
        w
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Raw IEEE-754 bits: NaN payloads and signed zeros round-trip.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A `u64` byte length, then the UTF-8 bytes.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// A `u64` byte length, then the bytes verbatim.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// A `0` tag for `None`; a `1` tag, then `f`'s encoding, for `Some`.
    pub fn opt<T: ?Sized>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(inner) => {
                self.u8(1);
                f(self, inner);
            }
        }
    }
}

/// Bounds-checked little-endian byte source.
pub struct Reader<'b> {
    bytes: &'b [u8],
    pos: usize,
}

impl<'b> Reader<'b> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'b [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Checks a format header written by [`Writer::with_header`]. A
    /// wrong magic is [`DecodeError::Malformed`]; a right magic with any
    /// version but `version` is [`DecodeError::UnknownVersion`].
    pub fn header(&mut self, magic: &[u8; 8], version: u32) -> Result<()> {
        let name = String::from_utf8_lossy(magic);
        if self.take(magic.len())? != magic {
            return malformed(format!("bad magic: not a {name} payload"));
        }
        let found = self.u32()?;
        if found != version {
            return Err(DecodeError::UnknownVersion(format!(
                "{name} version {found}; this build reads version {version}"
            )));
        }
        Ok(())
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'b [u8]> {
        let remaining = self.bytes.len() - self.pos;
        if n > remaining {
            return malformed(format!(
                "truncated: need {n} bytes at offset {}, have {remaining}",
                self.pos
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Rejects trailing bytes so appended garbage is detected.
    pub fn done(&self) -> Result<()> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            extra => malformed(format!("{extra} trailing bytes after the payload")),
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// `0` or `1`; any other byte is malformed.
    pub fn bool(&mut self) -> Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => malformed(format!("invalid bool byte {other}")),
        }
    }

    /// Little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().expect("4 bytes")))
    }

    /// Little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().expect("8 bytes")))
    }

    /// Raw IEEE-754 bits.
    pub fn f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` element count, guarded so a corrupt length cannot trigger
    /// a huge allocation: the remaining input must plausibly hold
    /// `count` elements of at least `min_elem_bytes` each.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize> {
        let count = self.u64()?;
        let remaining = (self.bytes.len() - self.pos) as u64;
        if count.saturating_mul(min_elem_bytes.max(1) as u64) > remaining {
            return malformed(format!(
                "implausible element count {count} ({remaining} bytes remain)"
            ));
        }
        Ok(count as usize)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec()).or_else(|e| malformed(format!("invalid UTF-8 string: {e}")))
    }

    /// A length-prefixed byte blob, borrowed from the input.
    pub fn bytes(&mut self) -> Result<&'b [u8]> {
        let len = self.count(1)?;
        self.take(len)
    }

    /// The inverse of [`Writer::opt`]; `f` may fail with any error a
    /// [`DecodeError`] converts into.
    pub fn opt<T, E: From<DecodeError>>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> result::Result<T, E>,
    ) -> result::Result<Option<T>, E> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            other => Err(DecodeError::Malformed(format!("invalid option tag {other}")).into()),
        }
    }
}

/// Durably replaces `path` with `bytes`, so that a crash at any instant
/// — including mid-call — leaves either the previous complete contents
/// or the new complete contents at `path`, never partial bytes.
///
/// The bytes go to a `.tmp` sibling, which is fsynced *before* the
/// rename (otherwise the rename can reach disk ahead of the data, and a
/// crash exposes a truncated file under the final name). The parent
/// directory is fsynced *after* the rename (otherwise the rename itself
/// may not survive the crash). On any failure the `.tmp` file is
/// removed, so a retry never picks up stale bytes.
pub fn durable_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let written = (|| {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if let Err(e) = written {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    // A bare filename has an empty parent; its directory entry then
    // lives in the current directory.
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    fs::File::open(parent)?.sync_all()
}

/// Single-fault corruptions of a valid payload, beyond truncation:
/// every byte overwritten once (cycling through edge values by offset),
/// and `u64::MAX` written at every offset, which lands on each count
/// field. Decoder tests feed these to a format's decoder, next to every
/// proper prefix, to check that corrupt input yields a typed error or a
/// valid value — never a panic or an unbounded allocation.
pub fn corruptions(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    const EDGES: [u8; 7] = [0x00, 0x01, 0x02, 0x7f, 0x80, 0xfe, 0xff];
    let overwrites = (0..valid.len()).map(|at| {
        let mut bytes = valid.to_vec();
        let edge = EDGES[at % EDGES.len()];
        bytes[at] = if edge == valid[at] { !edge } else { edge };
        bytes
    });
    let counts = (0..valid.len().saturating_sub(7)).map(|at| {
        let mut bytes = valid.to_vec();
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        bytes
    });
    overwrites.chain(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_in_order() {
        let mut w = Writer::new();
        w.u8(0xab);
        w.bool(true);
        w.bool(false);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.f64(-1.5);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 1 + 4 + 8 + 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(0xab));
        assert_eq!(r.bool(), Ok(true));
        assert_eq!(r.bool(), Ok(false));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64(), Ok(-1.5));
        assert_eq!(r.done(), Ok(()));
    }

    #[test]
    fn integers_are_little_endian() {
        let mut w = Writer::new();
        w.u32(0x0102_0304);
        w.u64(0x0102_0304_0506_0708);
        assert_eq!(
            w.into_bytes(),
            [4, 3, 2, 1, 8, 7, 6, 5, 4, 3, 2, 1],
            "the layout is part of every persisted format"
        );
    }

    #[test]
    fn floats_keep_their_bits() {
        let payload_nan = f64::from_bits(0x7ff8_0000_dead_beef);
        let values = [
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 2.0,
            payload_nan,
        ];
        let mut w = Writer::new();
        for v in values {
            w.f64(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in values {
            assert_eq!(r.f64().unwrap().to_bits(), v.to_bits());
        }
        r.done().unwrap();
    }

    #[test]
    fn strings_and_blobs_carry_a_u64_length() {
        let mut w = Writer::new();
        w.str("grün");
        w.bytes(&[]);
        w.bytes(&[9, 8, 7]);
        let bytes = w.into_bytes();
        assert_eq!(
            &bytes[..8],
            &5u64.to_le_bytes(),
            "byte length, not char count"
        );
        let mut r = Reader::new(&bytes);
        assert_eq!(r.str().as_deref(), Ok("grün"));
        assert_eq!(r.bytes(), Ok(&[][..]));
        assert_eq!(r.bytes(), Ok(&[9u8, 8, 7][..]));
        r.done().unwrap();
    }

    #[test]
    fn invalid_utf8_is_malformed() {
        let mut w = Writer::new();
        w.bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).str().unwrap_err();
        assert!(
            matches!(&err, DecodeError::Malformed(m) if m.starts_with("invalid UTF-8")),
            "{err:?}"
        );
    }

    #[test]
    fn options_round_trip_and_reject_bad_tags() {
        let mut w = Writer::new();
        w.opt(None::<&u64>, |w, v| w.u64(*v));
        w.opt(Some(&7u64), |w, v| w.u64(*v));
        w.opt(Some("x"), |w, v| w.str(v));
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.opt(|r| r.u64()), Ok(None));
        assert_eq!(r.opt(|r| r.u64()), Ok(Some(7)));
        assert_eq!(r.opt(|r| r.str()), Ok(Some("x".to_string())));
        r.done().unwrap();

        let err = Reader::new(&[2]).opt(|r| r.u8()).unwrap_err();
        assert_eq!(err, DecodeError::Malformed("invalid option tag 2".into()));
    }

    #[test]
    fn bool_rejects_bytes_other_than_zero_and_one() {
        assert_eq!(
            Reader::new(&[2]).bool(),
            Err(DecodeError::Malformed("invalid bool byte 2".into()))
        );
    }

    #[test]
    fn header_distinguishes_bad_magic_from_unknown_version() {
        let good = Writer::with_header(b"GAIATEST", 3).into_bytes();
        assert_eq!(good.len(), 12);
        let mut r = Reader::new(&good);
        r.header(b"GAIATEST", 3).unwrap();
        r.done().unwrap();

        let err = Reader::new(&good).header(b"GAIAOTHR", 3).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(_)), "{err:?}");
        let err = Reader::new(&good).header(b"GAIATEST", 4).unwrap_err();
        assert_eq!(
            err,
            DecodeError::UnknownVersion("GAIATEST version 3; this build reads version 4".into())
        );
        let err = Reader::new(&good[..10]).header(b"GAIATEST", 3).unwrap_err();
        assert!(matches!(err, DecodeError::Malformed(m) if m.starts_with("truncated")));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_malformed() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(
            r.u32(),
            Err(DecodeError::Malformed(
                "truncated: need 4 bytes at offset 0, have 3".into()
            ))
        );
        // A failed take consumes nothing.
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(
            r.done(),
            Err(DecodeError::Malformed(
                "2 trailing bytes after the payload".into()
            ))
        );
    }

    #[test]
    fn count_is_guarded_by_the_remaining_bytes() {
        let mut w = Writer::new();
        w.u64(3);
        w.u64(0);
        w.u64(0);
        let bytes = w.into_bytes();
        // 16 bytes remain after the count: three 5-byte elements fit,
        // three 6-byte ones do not.
        assert_eq!(Reader::new(&bytes).count(5), Ok(3));
        assert!(matches!(
            Reader::new(&bytes).count(6),
            Err(DecodeError::Malformed(m)) if m.starts_with("implausible element count 3")
        ));
        // A zero element size is treated as one byte, so u64::MAX never
        // passes.
        let huge = u64::MAX.to_le_bytes();
        assert!(Reader::new(&huge).count(0).is_err());
        assert!(Reader::new(&huge).bytes().is_err());
    }

    #[test]
    fn decode_errors_display_their_message() {
        let e = DecodeError::UnknownVersion("v9".into());
        assert_eq!(e.to_string(), "v9");
        let s: String = DecodeError::Malformed("bad".into()).into();
        assert_eq!(s, "bad");
    }

    #[test]
    fn corruptions_change_one_byte_or_write_one_max_count() {
        let valid = [5u8; 10];
        let all: Vec<Vec<u8>> = corruptions(&valid).collect();
        assert_eq!(all.len(), 10 + 3);
        for (at, bytes) in all[..10].iter().enumerate() {
            let diffs: Vec<usize> = (0..10).filter(|&i| bytes[i] != valid[i]).collect();
            assert_eq!(diffs, vec![at]);
        }
        for (at, bytes) in all[10..].iter().enumerate() {
            assert_eq!(&bytes[at..at + 8], &u64::MAX.to_le_bytes());
        }
        assert_eq!(
            corruptions(&[1, 2, 3]).count(),
            3,
            "too short for a count field"
        );
    }

    #[test]
    fn durable_write_replaces_contents_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("gaia-codec-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.bin");
        durable_write(&path, b"first").unwrap();
        durable_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!path.with_extension("tmp").exists());
        // A missing parent directory fails without leaving anything behind.
        let missing = dir.join("absent").join("state.bin");
        assert!(durable_write(&missing, b"x").is_err());
        assert!(!missing.with_extension("tmp").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
