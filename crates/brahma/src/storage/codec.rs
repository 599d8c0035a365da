//! Byte codecs for the file backend (DESIGN.md §14).
//!
//! Everything that hits disk goes through the helpers here: a hand-rolled
//! IEEE CRC32, little-endian put/read primitives, and the WAL record codec.
//! Decoding never panics — every malformed input degrades to
//! [`Error::Corrupt`] with the byte offset at which validation failed, so a
//! bad sector turns into a recovery error rather than a crash of the
//! recovering process (satellite: no `expect` on disk bytes).
//!
//! ## WAL record wire format
//!
//! ```text
//! [len: u32 LE]  [crc: u32 LE]  [body: len bytes]
//! body = lsn u64 | tid u64 | tag u8 | payload fields
//! ```
//!
//! `crc` covers exactly `body`. A record whose length prefix runs past the
//! end of the file, or whose CRC does not match, is a *torn tail*: the scan
//! stops there and recovery truncates the segment. A record whose CRC
//! matches but whose body fails to decode is hard corruption
//! ([`Error::Corrupt`]): CRC32 detects all single-byte errors, so a
//! CRC-valid undecodable body means the writer was broken, not the medium.

use crate::addr::{PartitionId, PhysAddr};
use crate::error::{Error, Result};
use crate::object::ObjectView;
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord, Lsn};

/// Sanity cap on a record's length prefix. The largest legitimate record
/// bodies are object images (bounded by the 16 KiB page); 16 MiB is
/// comfortably above them, and a length prefix beyond it is treated as a
/// torn/garbage tail rather than an allocation request.
pub(crate) const MAX_RECORD_BYTES: u32 = 16 << 20;

/// Bytes of record framing before the body: length prefix + CRC.
pub const RECORD_HEADER_BYTES: usize = 8;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected, table-driven)
// ---------------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the `cksum`/zlib polynomial, reflected).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Write primitives
// ---------------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_addr(out: &mut Vec<u8>, a: PhysAddr) {
    put_u64(out, a.to_raw());
}

/// Length-prefixed byte string (u32 length).
pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// Position-tracking reader over a byte slice. `base` is the absolute file
/// offset of `buf[0]`, so every [`Error::Corrupt`] it produces names the
/// offending byte's position in the file, not in the slice.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8], base: u64) -> Self {
        Reader { buf, pos: 0, base }
    }

    /// Absolute file offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Build a [`Error::Corrupt`] anchored at the current offset.
    pub(crate) fn corrupt(&self, reason: impl Into<String>) -> Error {
        Error::Corrupt {
            offset: self.offset(),
            reason: reason.into(),
        }
    }

    /// Check a decoded count of `n` elements, each at least `each` bytes
    /// encoded, against the input left. A count the remaining bytes cannot
    /// hold is corrupt, so the caller may reserve `n` slots without trusting
    /// the disk.
    pub(crate) fn fits(&self, n: usize, each: usize) -> Result<usize> {
        if n.saturating_mul(each) > self.remaining() {
            return Err(self.corrupt(format!(
                "{n} elements of {each}+ bytes, only {} remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(self.corrupt(format!("need {n} bytes, only {} remain", self.remaining())));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn addr(&mut self) -> Result<PhysAddr> {
        Ok(PhysAddr::from_raw(self.u64()?))
    }

    /// Length-prefixed byte string written by `put_bytes`.
    pub(crate) fn bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    /// Error unless the reader consumed the whole slice.
    pub(crate) fn expect_end(&self, what: &str) -> Result<()> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes after {what}", self.remaining())));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// ObjectView codec
// ---------------------------------------------------------------------------

pub(crate) fn put_object(out: &mut Vec<u8>, img: &ObjectView) {
    put_u8(out, img.tag);
    put_u16(out, img.ref_cap);
    put_u16(out, img.payload_cap);
    put_u16(out, img.refs.len() as u16);
    for r in &img.refs {
        put_addr(out, *r);
    }
    put_bytes(out, &img.payload);
}

pub(crate) fn read_object(r: &mut Reader<'_>) -> Result<ObjectView> {
    let tag = r.u8()?;
    let ref_cap = r.u16()?;
    let payload_cap = r.u16()?;
    let nrefs = r.u16()? as usize;
    if nrefs > ref_cap as usize {
        return Err(r.corrupt(format!("object holds {nrefs} refs, capacity {ref_cap}")));
    }
    let mut refs = Vec::with_capacity(r.fits(nrefs, 8)?);
    for _ in 0..nrefs {
        refs.push(r.addr()?);
    }
    let payload = r.bytes()?;
    if payload.len() > payload_cap as usize {
        return Err(r.corrupt(format!(
            "object payload {} bytes, capacity {payload_cap}",
            payload.len()
        )));
    }
    Ok(ObjectView {
        tag,
        refs,
        ref_cap,
        payload,
        payload_cap,
    })
}

// ---------------------------------------------------------------------------
// LogRecord codec
// ---------------------------------------------------------------------------

const TAG_BEGIN: u8 = 0;
const TAG_COMMIT: u8 = 1;
const TAG_ABORT: u8 = 2;
const TAG_CREATE: u8 = 3;
const TAG_FREE: u8 = 4;
const TAG_SET_PAYLOAD: u8 = 5;
const TAG_INSERT_REF: u8 = 6;
const TAG_DELETE_REF: u8 = 7;
const TAG_SET_REF: u8 = 8;
const TAG_REORG_START: u8 = 9;
const TAG_REORG_END: u8 = 10;
const TAG_MIGRATE: u8 = 11;
const TAG_CHECKPOINT: u8 = 12;
const TAG_CREATE_PARTITION: u8 = 13;

/// Append a record's body (no framing) to `out`: `lsn | tid | tag |
/// fields`. The LSN comes first so the log can patch it in after encoding.
pub(crate) fn put_record_body(out: &mut Vec<u8>, lsn: Lsn, tid: TxnId, payload: &LogPayload) {
    put_u64(out, lsn);
    put_u64(out, tid.0);
    match payload {
        LogPayload::Begin { reorg } => {
            put_u8(out, TAG_BEGIN);
            match reorg {
                Some(p) => {
                    put_u8(out, 1);
                    put_u16(out, p.0);
                }
                None => put_u8(out, 0),
            }
        }
        LogPayload::Commit => put_u8(out, TAG_COMMIT),
        LogPayload::Abort => put_u8(out, TAG_ABORT),
        LogPayload::Create { addr, image } => {
            put_u8(out, TAG_CREATE);
            put_addr(out, *addr);
            put_object(out, image);
        }
        LogPayload::Free { addr, image } => {
            put_u8(out, TAG_FREE);
            put_addr(out, *addr);
            put_object(out, image);
        }
        LogPayload::SetPayload { addr, old, new } => {
            put_u8(out, TAG_SET_PAYLOAD);
            put_addr(out, *addr);
            put_bytes(out, old);
            put_bytes(out, new);
        }
        LogPayload::InsertRef {
            parent,
            child,
            index,
        } => {
            put_u8(out, TAG_INSERT_REF);
            put_addr(out, *parent);
            put_addr(out, *child);
            put_u32(out, *index as u32);
        }
        LogPayload::DeleteRef {
            parent,
            child,
            index,
        } => {
            put_u8(out, TAG_DELETE_REF);
            put_addr(out, *parent);
            put_addr(out, *child);
            put_u32(out, *index as u32);
        }
        LogPayload::SetRef {
            parent,
            index,
            old_child,
            new_child,
        } => {
            put_u8(out, TAG_SET_REF);
            put_addr(out, *parent);
            put_u32(out, *index as u32);
            put_addr(out, *old_child);
            put_addr(out, *new_child);
        }
        LogPayload::ReorgStart { partition, floor } => {
            put_u8(out, TAG_REORG_START);
            put_u16(out, partition.0);
            put_u32(out, *floor);
        }
        LogPayload::ReorgEnd { partition, base } => {
            put_u8(out, TAG_REORG_END);
            put_u16(out, partition.0);
            put_u32(out, *base);
        }
        LogPayload::Migrate { old, new } => {
            put_u8(out, TAG_MIGRATE);
            put_addr(out, *old);
            put_addr(out, *new);
        }
        LogPayload::Checkpoint { id } => {
            put_u8(out, TAG_CHECKPOINT);
            put_u64(out, *id);
        }
        LogPayload::CreatePartition { id } => {
            put_u8(out, TAG_CREATE_PARTITION);
            put_u16(out, id.0);
        }
    }
}

/// Encode a record's body (no framing), see `put_record_body`.
pub fn encode_record_body(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(rec.payload.approx_size() as usize);
    put_record_body(&mut out, rec.lsn, rec.tid, &rec.payload);
    out
}

/// Append `body` to `out` in its on-disk framing: `[len][crc][body]`.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) {
    put_u32(out, body.len() as u32);
    put_u32(out, crc32(body));
    out.extend_from_slice(body);
}

/// Decode a record body produced by [`encode_record_body`]. `base` is the
/// body's absolute file offset, for error reporting. The CRC must already
/// have been verified by the framing scan.
pub fn decode_record_body(buf: &[u8], base: u64) -> Result<LogRecord> {
    let mut r = Reader::new(buf, base);
    let lsn = r.u64()?;
    let tid = TxnId(r.u64()?);
    let tag = r.u8()?;
    let payload = match tag {
        TAG_BEGIN => {
            let reorg = match r.u8()? {
                0 => None,
                1 => Some(PartitionId(r.u16()?)),
                f => return Err(r.corrupt(format!("bad Begin reorg flag {f}"))),
            };
            LogPayload::Begin { reorg }
        }
        TAG_COMMIT => LogPayload::Commit,
        TAG_ABORT => LogPayload::Abort,
        TAG_CREATE => LogPayload::Create {
            addr: r.addr()?,
            image: read_object(&mut r)?,
        },
        TAG_FREE => LogPayload::Free {
            addr: r.addr()?,
            image: read_object(&mut r)?,
        },
        TAG_SET_PAYLOAD => LogPayload::SetPayload {
            addr: r.addr()?,
            old: r.bytes()?,
            new: r.bytes()?,
        },
        TAG_INSERT_REF => LogPayload::InsertRef {
            parent: r.addr()?,
            child: r.addr()?,
            index: r.u32()? as usize,
        },
        TAG_DELETE_REF => LogPayload::DeleteRef {
            parent: r.addr()?,
            child: r.addr()?,
            index: r.u32()? as usize,
        },
        TAG_SET_REF => LogPayload::SetRef {
            parent: r.addr()?,
            index: r.u32()? as usize,
            old_child: r.addr()?,
            new_child: r.addr()?,
        },
        TAG_REORG_START => LogPayload::ReorgStart {
            partition: PartitionId(r.u16()?),
            floor: r.u32()?,
        },
        TAG_REORG_END => LogPayload::ReorgEnd {
            partition: PartitionId(r.u16()?),
            base: r.u32()?,
        },
        TAG_MIGRATE => LogPayload::Migrate {
            old: r.addr()?,
            new: r.addr()?,
        },
        TAG_CHECKPOINT => LogPayload::Checkpoint { id: r.u64()? },
        TAG_CREATE_PARTITION => LogPayload::CreatePartition {
            id: PartitionId(r.u16()?),
        },
        t => return Err(r.corrupt(format!("unknown log record tag {t}"))),
    };
    r.expect_end("log record body")?;
    Ok(LogRecord { lsn, tid, payload })
}

/// What one framing step of a segment scan found.
#[derive(Debug)]
pub enum Framed<'a> {
    /// A complete frame: CRC-verified body slice and its absolute offset.
    Body { body: &'a [u8], at: u64 },
    /// End of buffer exactly at a frame boundary.
    End,
    /// The frame at `at` is torn: length prefix runs past the end of the
    /// buffer, the CRC does not match, or the length prefix is absurd. The
    /// scan must stop and the file be truncated to `at`.
    Torn { at: u64, reason: String },
}

/// Inspect the next frame at `pos` within `buf` (whose first byte sits at
/// absolute file offset `base`). Pure slice inspection; the caller advances
/// `pos` past `RECORD_HEADER_BYTES + body.len()` on `Body`.
pub fn next_frame<'a>(buf: &'a [u8], pos: usize, base: u64) -> Framed<'a> {
    let at = base + pos as u64;
    let rest = &buf[pos..];
    if rest.is_empty() {
        return Framed::End;
    }
    if rest.len() < RECORD_HEADER_BYTES {
        return Framed::Torn {
            at,
            reason: format!("{}-byte partial record header", rest.len()),
        };
    }
    let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]);
    let crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
    if len > MAX_RECORD_BYTES {
        return Framed::Torn {
            at,
            reason: format!("length prefix {len} exceeds cap {MAX_RECORD_BYTES}"),
        };
    }
    let body_end = RECORD_HEADER_BYTES + len as usize;
    if rest.len() < body_end {
        return Framed::Torn {
            at,
            reason: format!(
                "length prefix {len} runs past end of segment ({} bytes remain)",
                rest.len() - RECORD_HEADER_BYTES
            ),
        };
    }
    let body = &rest[RECORD_HEADER_BYTES..body_end];
    if crc32(body) != crc {
        return Framed::Torn {
            at,
            reason: "crc mismatch".into(),
        };
    }
    Framed::Body {
        body,
        at: at + RECORD_HEADER_BYTES as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn reader_reports_absolute_offsets() {
        let mut r = Reader::new(&[1, 2], 100);
        assert_eq!(r.u16().unwrap(), 0x0201);
        let err = r.u8().unwrap_err();
        match err {
            Error::Corrupt { offset, .. } => assert_eq!(offset, 102),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn object_codec_rejects_over_capacity() {
        let img = ObjectView {
            tag: 7,
            refs: vec![PhysAddr::new(PartitionId(1), 2, 64)],
            ref_cap: 4,
            payload: b"xy".to_vec(),
            payload_cap: 8,
        };
        let mut buf = Vec::new();
        put_object(&mut buf, &img);
        let mut r = Reader::new(&buf, 0);
        assert_eq!(read_object(&mut r).unwrap(), img);

        // Forge a refs count above ref_cap: decode must error, not panic.
        let mut bad = buf.clone();
        bad[5] = 200;
        let mut r = Reader::new(&bad, 0);
        assert!(matches!(read_object(&mut r), Err(Error::Corrupt { .. })));
    }
}
