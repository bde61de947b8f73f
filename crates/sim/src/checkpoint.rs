//! Versioned binary checkpoint encoding.
//!
//! ROADMAP item 5 names checkpoint/restore as the enabler for affordable
//! large-scale sweeps, and gem5's reproducibility methodology treats it
//! as the baseline for standardized experiments. This module is the
//! wire format those snapshots use: a hand-rolled, dependency-free
//! [`Encoder`]/[`Decoder`] pair with a magic header, a format version,
//! per-section tags and a trailing CRC-32, so a restored artifact either
//! reproduces the saved machine bit-for-bit or fails loudly with a typed
//! [`CheckpointError`].
//!
//! # Design rules
//!
//! * **Only mutable state is serialized.** Restore builds a fresh system
//!   from the same [`SimConfig`](crate::SimConfig) and then overwrites
//!   the mutable fields; config-derived structure (cache geometry,
//!   memory layout, latencies, ring placement) is never written, which
//!   keeps artifacts small and makes config drift detectable via the
//!   header's config digest.
//! * **Deterministic byte streams.** Unordered containers are written in
//!   sorted key order, so checkpointing the same machine state twice
//!   yields byte-identical artifacts.
//! * **Tagged sections.** Every `save_state` writes a section tag first;
//!   a mismatched tag on load points at the exact layer that drifted.

use crate::time::DomainId;
use std::fmt;

/// Artifact magic: `STRM`.
pub const MAGIC: u32 = 0x5354_524d;

/// Current artifact format version. Version 2 dropped the host-path
/// mode flags and the stamp-LRU cache encoding. Version 3 replaced the
/// `PERF` marker section with per-migration `DomainStats` snapshots in
/// the `BASE` section and dropped the IPI fabric's delivery counts.
/// Version 4 writes each VMA tree as its areas in address order (the
/// `VMAS` section, validated on restore) instead of a red-black tree
/// arena, and dropped the MMIO device registers. Version 5 dropped each
/// cache level's probe hint and per-set occupancy counts from the `CCHE`
/// section, which the restore now validates. Version 6 dropped the
/// memory system's alias windows and ECC journal, the fault plan's
/// double-bit fraction and retired fault site, and each frame region's
/// online flag. Version 7 dropped the fault injector's outcome counters
/// from `FINJ`, the IPI fabric's `IPIF` section and the messaging
/// layer's ack-timeout counts from `MSGL`: fault outcomes live only in
/// the `DSTA` counters. Version 8 dropped the futex tables' wait/wake
/// totals from `FTXQ` and the software TLBs' lookup/miss totals from
/// `TLBS`, which shadowed `DSTA`'s TLB counters. Version 9 writes the
/// messaging layer's sent, byte, retransmit, duplicate-delivery and
/// backpressure counters in `MSGL` as one total each instead of a
/// per-direction pair. Older artifacts are rejected with
/// [`CheckpointError::BadVersion`].
pub const VERSION: u32 = 9;

/// Errors raised while decoding a checkpoint artifact.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The buffer ended before the expected data.
    Truncated,
    /// The artifact does not start with [`MAGIC`].
    BadMagic,
    /// The artifact was written by an unsupported format version.
    BadVersion(u32),
    /// A section tag did not match the expected layer.
    BadTag {
        /// The tag the loading layer expected.
        expected: u32,
        /// The tag actually found in the stream.
        found: u32,
    },
    /// The trailing CRC-32 did not match the payload.
    BadCrc,
    /// The artifact was taken from a different `SystemKind`.
    KindMismatch,
    /// The artifact was taken under a different `SimConfig`.
    ConfigMismatch,
    /// A field value was structurally impossible.
    Malformed(&'static str),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => f.write_str("checkpoint truncated"),
            CheckpointError::BadMagic => f.write_str("not a checkpoint artifact (bad magic)"),
            CheckpointError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            CheckpointError::BadTag { expected, found } => {
                write!(f, "section tag mismatch: expected {expected:#x}, found {found:#x}")
            }
            CheckpointError::BadCrc => f.write_str("checkpoint CRC mismatch (corrupt artifact)"),
            CheckpointError::KindMismatch => {
                f.write_str("checkpoint was taken from a different system kind")
            }
            CheckpointError::ConfigMismatch => {
                f.write_str("checkpoint was taken under a different configuration")
            }
            CheckpointError::Malformed(what) => write!(f, "malformed checkpoint field: {what}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// CRC-32 (IEEE 802.3 polynomial, bitwise — the artifact is written once
/// per checkpoint, so table-free simplicity beats speed here).
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

/// Little-endian binary writer for checkpoint artifacts.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    #[must_use]
    pub fn new() -> Self {
        Encoder { buf: Vec::new() }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a section tag (identical on the wire to a `u32`, but a
    /// distinct method keeps call sites self-documenting).
    pub fn tag(&mut self, tag: u32) {
        self.u32(tag);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a domain as its one-byte code (its index).
    pub fn domain(&mut self, d: DomainId) {
        self.u8(d.index() as u8);
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` by bit pattern (exact round trip).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn u64s(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.u64(x);
        }
    }

    /// Writes an `Option<u64>` as a presence byte plus the value.
    pub fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
            None => self.bool(false),
        }
    }

    /// Appends a CRC-32 of everything written so far and returns the
    /// finished artifact bytes.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }

    /// Returns the raw bytes without a trailing CRC (for nesting one
    /// encoded blob inside another artifact).
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian binary reader over a checkpoint artifact.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps raw bytes (no CRC verification; see
    /// [`Decoder::new_verified`]).
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Verifies the trailing CRC-32 and wraps the payload before it.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`] or [`CheckpointError::BadCrc`].
    pub fn new_verified(buf: &'a [u8]) -> Result<Self, CheckpointError> {
        if buf.len() < 4 {
            return Err(CheckpointError::Truncated);
        }
        let (payload, crc_bytes) = buf.split_at(buf.len() - 4);
        let stored = u32::from_le_bytes([crc_bytes[0], crc_bytes[1], crc_bytes[2], crc_bytes[3]]);
        if crc32(payload) != stored {
            return Err(CheckpointError::BadCrc);
        }
        Ok(Decoder { buf: payload, pos: 0 })
    }

    /// Bytes remaining.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        if self.remaining() < n {
            return Err(CheckpointError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads and checks a section tag.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::BadTag`] when the stream holds a different tag.
    pub fn tag(&mut self, expected: u32) -> Result<(), CheckpointError> {
        let found = self.u32()?;
        if found != expected {
            return Err(CheckpointError::BadTag { expected, found });
        }
        Ok(())
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a bool byte.
    ///
    /// # Errors
    ///
    /// Truncation, or [`CheckpointError::Malformed`] on a non-0/1 byte.
    pub fn bool(&mut self) -> Result<bool, CheckpointError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CheckpointError::Malformed("bool byte")),
        }
    }

    /// Reads a domain code written by [`Encoder::domain`].
    ///
    /// # Errors
    ///
    /// Truncation, or [`CheckpointError::Malformed`] on a code that
    /// names no domain.
    pub fn domain(&mut self) -> Result<DomainId, CheckpointError> {
        let code = self.u8()?;
        DomainId::ALL.get(code as usize).copied().ok_or(CheckpointError::Malformed("domain code"))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an `f64` by bit pattern.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length as `usize`, guarding against absurd prefixes.
    ///
    /// # Errors
    ///
    /// Truncation (a length that cannot possibly fit the remaining
    /// buffer is reported as truncation).
    #[allow(clippy::len_without_is_empty)] // not a container: reads a length prefix
    pub fn len(&mut self) -> Result<usize, CheckpointError> {
        let n = self.u64()?;
        // Every element is at least one byte; anything larger than the
        // remaining buffer is a lie.
        if n > self.remaining() as u64 {
            return Err(CheckpointError::Truncated);
        }
        Ok(n as usize)
    }

    /// Reads a length-prefixed byte slice.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn bytes(&mut self) -> Result<&'a [u8], CheckpointError> {
        let n = self.len()?;
        self.take(n)
    }

    /// Reads a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Truncation or malformed UTF-8.
    pub fn str(&mut self) -> Result<String, CheckpointError> {
        let b = self.bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| CheckpointError::Malformed("utf-8 string"))
    }

    /// Reads a length-prefixed `u64` vector.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Truncated`].
    pub fn u64s(&mut self) -> Result<Vec<u64>, CheckpointError> {
        let n = self.u64()?;
        if n > (self.remaining() / 8) as u64 {
            return Err(CheckpointError::Truncated);
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// Reads an `Option<u64>`.
    ///
    /// # Errors
    ///
    /// Truncation or a malformed presence byte.
    pub fn opt_u64(&mut self) -> Result<Option<u64>, CheckpointError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }
}

/// FNV-1a over a debug rendering — the config digest stored in artifact
/// headers. Not cryptographic; it only needs to notice config drift.
#[must_use]
pub fn digest_str(s: &str) -> u64 {
    let mut acc = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        acc = (acc ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_scalar() {
        let mut e = Encoder::new();
        e.tag(0xcafe);
        e.u8(7);
        e.bool(true);
        e.u32(0xdead_beef);
        e.domain(DomainId::ARM);
        e.u64(u64::MAX - 3);
        e.f64(-1234.5678);
        e.bytes(b"hello");
        e.str("wörld");
        e.u64s(&[1, 2, 3]);
        e.opt_u64(Some(9));
        e.opt_u64(None);
        let bytes = e.finish();

        let mut d = Decoder::new_verified(&bytes).unwrap();
        d.tag(0xcafe).unwrap();
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.domain().unwrap(), DomainId::ARM);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -1234.5678);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.str().unwrap(), "wörld");
        assert_eq!(d.u64s().unwrap(), vec![1, 2, 3]);
        assert_eq!(d.opt_u64().unwrap(), Some(9));
        assert_eq!(d.opt_u64().unwrap(), None);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn unknown_domain_code_is_malformed() {
        let mut d = Decoder::new(&[2]);
        assert_eq!(d.domain().unwrap_err(), CheckpointError::Malformed("domain code"));
    }

    #[test]
    fn crc_detects_corruption() {
        let mut e = Encoder::new();
        e.u64(42);
        let mut bytes = e.finish();
        bytes[3] ^= 0x40;
        assert_eq!(Decoder::new_verified(&bytes).unwrap_err(), CheckpointError::BadCrc);
    }

    #[test]
    fn truncation_and_tag_errors_are_typed() {
        let mut d = Decoder::new(&[1, 2]);
        assert_eq!(d.u64().unwrap_err(), CheckpointError::Truncated);

        let mut e = Encoder::new();
        e.tag(0x1111);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(
            d.tag(0x2222).unwrap_err(),
            CheckpointError::BadTag { expected: 0x2222, found: 0x1111 }
        );
    }

    #[test]
    fn absurd_length_prefix_is_truncation_not_oom() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // length prefix promising 2^64 elements
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.bytes().unwrap_err(), CheckpointError::Truncated);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u64s().unwrap_err(), CheckpointError::Truncated);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest_str("abc"), digest_str("abc"));
        assert_ne!(digest_str("abc"), digest_str("abd"));
    }
}
