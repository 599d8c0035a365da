//! On-page object layout and accessors.
//!
//! An object is stored inline in a page as:
//!
//! ```text
//! offset  size  field
//! 0       1     valid byte (0xA5 = live, 0x00 = freed)
//! 1       1     user type tag
//! 2       2     nrefs        (current number of outgoing references)
//! 4       2     ref_cap      (reference slots reserved)
//! 6       2     payload_len  (current payload bytes)
//! 8       2     payload_cap  (payload bytes reserved)
//! 10      8*ref_cap   reference array (raw little-endian PhysAddr values)
//! ...     payload_cap payload bytes
//! ```
//!
//! Outgoing references (an object's *children*) are inline and cheap to
//! enumerate; incoming references (*parents*) are not stored at all — the
//! paper rejects back pointers for their storage overhead and lock contention
//! on popular objects — which is exactly why reorganization needs the IRA's
//! traversal machinery.
//!
//! `ref_cap`/`payload_cap` reserve slack so references and payload can grow
//! in place up to capacity. Growth beyond capacity requires re-creating the
//! object elsewhere, which is the schema-evolution motivation for
//! reorganization in the paper's introduction.

use crate::addr::PhysAddr;
use crate::error::{Error, Result};

/// Valid byte value for a live object.
pub const LIVE_MAGIC: u8 = 0xA5;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 10;
/// Bytes per stored reference.
pub const REF_LEN: usize = 8;

/// Total on-page footprint of an object with the given capacities.
#[inline]
pub fn on_page_size(ref_cap: u16, payload_cap: u16) -> usize {
    HEADER_LEN + REF_LEN * ref_cap as usize + payload_cap as usize
}

/// Decoded object header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    pub tag: u8,
    pub nrefs: u16,
    pub ref_cap: u16,
    pub payload_len: u16,
    pub payload_cap: u16,
}

impl Header {
    /// Total on-page footprint of the object this header describes.
    #[inline]
    pub fn size(&self) -> usize {
        on_page_size(self.ref_cap, self.payload_cap)
    }
}

/// A fully decoded copy of an object, detached from its page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectView {
    pub tag: u8,
    pub refs: Vec<PhysAddr>,
    pub ref_cap: u16,
    pub payload: Vec<u8>,
    pub payload_cap: u16,
}

impl ObjectView {
    /// On-page footprint this object occupies.
    pub fn size(&self) -> usize {
        on_page_size(self.ref_cap, self.payload_cap)
    }
}

#[inline]
fn rd_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

#[inline]
fn wr_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn rd_u64(buf: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(buf[at..at + 8].try_into().expect("invariant: fixed-width field slice"))
}

#[inline]
fn wr_u64(buf: &mut [u8], at: usize, v: u64) {
    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
}

/// Decode and validate the header of the object at `addr` (whose page bytes
/// are `buf` and whose offset is `addr.offset()`).
///
/// Returns [`Error::NoSuchObject`] when the bytes do not describe a live
/// object — the check a fuzzy (latch-only) reader relies on to skip stale
/// addresses.
pub fn header(buf: &[u8], addr: PhysAddr) -> Result<Header> {
    let off = addr.offset() as usize;
    if off + HEADER_LEN > buf.len() || buf[off] != LIVE_MAGIC {
        return Err(Error::NoSuchObject(addr));
    }
    let h = Header {
        tag: buf[off + 1],
        nrefs: rd_u16(buf, off + 2),
        ref_cap: rd_u16(buf, off + 4),
        payload_len: rd_u16(buf, off + 6),
        payload_cap: rd_u16(buf, off + 8),
    };
    if h.nrefs > h.ref_cap || h.payload_len > h.payload_cap || off + h.size() > buf.len() {
        return Err(Error::NoSuchObject(addr));
    }
    Ok(h)
}

/// An object's outgoing references, decoded from its page bytes as asked for.
pub type Refs<'a> = std::iter::Map<std::slice::ChunksExact<'a, u8>, fn(&[u8]) -> PhysAddr>;

/// The outgoing references of the object at `addr`, borrowed from `buf`.
pub fn refs(buf: &[u8], addr: PhysAddr) -> Result<Refs<'_>> {
    let h = header(buf, addr)?;
    let base = addr.offset() as usize + HEADER_LEN;
    let decode: fn(&[u8]) -> PhysAddr = |slot| PhysAddr::from_raw(rd_u64(slot, 0));
    Ok(buf[base..base + REF_LEN * h.nrefs as usize].chunks_exact(REF_LEN).map(decode))
}

/// Read the outgoing references of the object at `addr`.
pub fn read_refs(buf: &[u8], addr: PhysAddr) -> Result<Vec<PhysAddr>> {
    refs(buf, addr).map(Iterator::collect)
}

/// Read the reference in slot `index` of the object at `addr`.
pub fn ref_at(buf: &[u8], addr: PhysAddr, index: usize) -> Result<PhysAddr> {
    let h = header(buf, addr)?;
    if index >= h.nrefs as usize {
        return Err(Error::RefIndexOutOfBounds { addr, index });
    }
    let at = addr.offset() as usize + HEADER_LEN + index * REF_LEN;
    Ok(PhysAddr::from_raw(rd_u64(buf, at)))
}

/// The current payload bytes of the object at `addr`.
pub fn payload(buf: &[u8], addr: PhysAddr) -> Result<&[u8]> {
    let h = header(buf, addr)?;
    let base = addr.offset() as usize + HEADER_LEN + REF_LEN * h.ref_cap as usize;
    Ok(&buf[base..base + h.payload_len as usize])
}

/// Read a full detached copy of the object at `addr`.
pub fn read_view(buf: &[u8], addr: PhysAddr) -> Result<ObjectView> {
    let h = header(buf, addr)?;
    let off = addr.offset() as usize;
    let refs_base = off + HEADER_LEN;
    let payload_base = refs_base + REF_LEN * h.ref_cap as usize;
    Ok(ObjectView {
        tag: h.tag,
        refs: (0..h.nrefs as usize)
            .map(|i| PhysAddr::from_raw(rd_u64(buf, refs_base + i * REF_LEN)))
            .collect(),
        ref_cap: h.ref_cap,
        payload: buf[payload_base..payload_base + h.payload_len as usize].to_vec(),
        payload_cap: h.payload_cap,
    })
}

/// Write a fresh object image at `addr`. The caller must have reserved
/// `view.size()` bytes there.
pub fn init_object(buf: &mut [u8], addr: PhysAddr, view: &ObjectView) {
    let off = addr.offset() as usize;
    debug_assert!(view.refs.len() <= view.ref_cap as usize);
    debug_assert!(view.payload.len() <= view.payload_cap as usize);
    debug_assert!(off + view.size() <= buf.len());
    buf[off] = LIVE_MAGIC;
    buf[off + 1] = view.tag;
    wr_u16(buf, off + 2, view.refs.len() as u16);
    wr_u16(buf, off + 4, view.ref_cap);
    wr_u16(buf, off + 6, view.payload.len() as u16);
    wr_u16(buf, off + 8, view.payload_cap);
    let refs_base = off + HEADER_LEN;
    for (i, r) in view.refs.iter().enumerate() {
        wr_u64(buf, refs_base + i * REF_LEN, r.to_raw());
    }
    // Zero unused reference slots so page images are deterministic.
    for i in view.refs.len()..view.ref_cap as usize {
        wr_u64(buf, refs_base + i * REF_LEN, 0);
    }
    let payload_base = refs_base + REF_LEN * view.ref_cap as usize;
    buf[payload_base..payload_base + view.payload.len()].copy_from_slice(&view.payload);
    for b in &mut buf[payload_base + view.payload.len()..payload_base + view.payload_cap as usize]
    {
        *b = 0;
    }
}

/// Overwrite the reference at `index`, returning the previous value.
pub fn set_ref(buf: &mut [u8], addr: PhysAddr, index: usize, new: PhysAddr) -> Result<PhysAddr> {
    let h = header(buf, addr)?;
    if index >= h.nrefs as usize {
        return Err(Error::RefIndexOutOfBounds { addr, index });
    }
    let at = addr.offset() as usize + HEADER_LEN + index * REF_LEN;
    let old = PhysAddr::from_raw(rd_u64(buf, at));
    wr_u64(buf, at, new.to_raw());
    Ok(old)
}

/// Append a reference, returning its index, or
/// [`Error::RefCapacityExceeded`] when the inline array is full.
pub fn insert_ref(buf: &mut [u8], addr: PhysAddr, child: PhysAddr) -> Result<usize> {
    let h = header(buf, addr)?;
    if h.nrefs >= h.ref_cap {
        return Err(Error::RefCapacityExceeded(addr));
    }
    let idx = h.nrefs as usize;
    let off = addr.offset() as usize;
    wr_u64(buf, off + HEADER_LEN + idx * REF_LEN, child.to_raw());
    wr_u16(buf, off + 2, h.nrefs + 1);
    Ok(idx)
}

/// Insert a reference at `index`, shifting later references right. Used by
/// transaction rollback and recovery undo to restore a deleted reference at
/// its exact original position, keeping page images byte-identical.
pub fn insert_ref_at(
    buf: &mut [u8],
    addr: PhysAddr,
    index: usize,
    child: PhysAddr,
) -> Result<()> {
    let h = header(buf, addr)?;
    if h.nrefs >= h.ref_cap {
        return Err(Error::RefCapacityExceeded(addr));
    }
    if index > h.nrefs as usize {
        return Err(Error::RefIndexOutOfBounds { addr, index });
    }
    let off = addr.offset() as usize;
    let base = off + HEADER_LEN;
    for i in (index..h.nrefs as usize).rev() {
        let v = rd_u64(buf, base + i * REF_LEN);
        wr_u64(buf, base + (i + 1) * REF_LEN, v);
    }
    wr_u64(buf, base + index * REF_LEN, child.to_raw());
    wr_u16(buf, off + 2, h.nrefs + 1);
    Ok(())
}

/// Remove the reference at `index` (order-preserving shift), returning the
/// removed address.
pub fn remove_ref_at(buf: &mut [u8], addr: PhysAddr, index: usize) -> Result<PhysAddr> {
    let h = header(buf, addr)?;
    if index >= h.nrefs as usize {
        return Err(Error::RefIndexOutOfBounds { addr, index });
    }
    let off = addr.offset() as usize;
    let base = off + HEADER_LEN;
    let removed = PhysAddr::from_raw(rd_u64(buf, base + index * REF_LEN));
    for i in index..h.nrefs as usize - 1 {
        let next = rd_u64(buf, base + (i + 1) * REF_LEN);
        wr_u64(buf, base + i * REF_LEN, next);
    }
    wr_u64(buf, base + (h.nrefs as usize - 1) * REF_LEN, 0);
    wr_u16(buf, off + 2, h.nrefs - 1);
    Ok(removed)
}

/// Find the index of the first reference equal to `child`.
pub fn find_ref(buf: &[u8], addr: PhysAddr, child: PhysAddr) -> Result<Option<usize>> {
    let h = header(buf, addr)?;
    let base = addr.offset() as usize + HEADER_LEN;
    Ok((0..h.nrefs as usize).find(|&i| rd_u64(buf, base + i * REF_LEN) == child.to_raw()))
}

/// Replace the payload.
pub fn set_payload(buf: &mut [u8], addr: PhysAddr, payload: &[u8]) -> Result<()> {
    let h = header(buf, addr)?;
    if payload.len() > h.payload_cap as usize {
        return Err(Error::PayloadCapacityExceeded(addr));
    }
    let off = addr.offset() as usize;
    let payload_base = off + HEADER_LEN + REF_LEN * h.ref_cap as usize;
    buf[payload_base..payload_base + payload.len()].copy_from_slice(payload);
    for b in &mut buf[payload_base + payload.len()..payload_base + h.payload_cap as usize] {
        *b = 0;
    }
    wr_u16(buf, off + 6, payload.len() as u16);
    Ok(())
}

/// Mark the object freed and scrub its bytes, so any fuzzy reader holding a
/// stale address observes "not a live object" rather than garbage.
pub fn mark_free(buf: &mut [u8], addr: PhysAddr) -> Result<Header> {
    let h = header(buf, addr)?;
    let off = addr.offset() as usize;
    for b in &mut buf[off..off + h.size()] {
        *b = 0;
    }
    Ok(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::PartitionId;

    fn addr(off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(1), 0, off)
    }

    fn sample_view() -> ObjectView {
        ObjectView {
            tag: 7,
            refs: vec![PhysAddr::from_raw(0xAABB), PhysAddr::from_raw(0xCCDD)],
            ref_cap: 4,
            payload: b"hello".to_vec(),
            payload_cap: 16,
        }
    }

    #[test]
    fn init_and_read_roundtrip() {
        let mut page = vec![0u8; 256];
        let a = addr(8);
        let v = sample_view();
        init_object(&mut page, a, &v);
        assert_eq!(read_view(&page, a).unwrap(), v);
        assert_eq!(read_refs(&page, a).unwrap(), v.refs);
    }

    #[test]
    fn header_rejects_freed_bytes() {
        let page = vec![0u8; 64];
        assert_eq!(
            header(&page, addr(0)).unwrap_err(),
            Error::NoSuchObject(addr(0))
        );
    }

    #[test]
    fn header_rejects_out_of_bounds_offset() {
        let page = vec![0u8; 16];
        assert!(header(&page, addr(12)).is_err());
    }

    #[test]
    fn set_ref_replaces_and_returns_old() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        let old = set_ref(&mut page, a, 1, PhysAddr::from_raw(0x1234)).unwrap();
        assert_eq!(old, PhysAddr::from_raw(0xCCDD));
        assert_eq!(
            read_refs(&page, a).unwrap(),
            vec![PhysAddr::from_raw(0xAABB), PhysAddr::from_raw(0x1234)]
        );
    }

    #[test]
    fn ref_at_reads_one_slot_and_checks_bounds() {
        let mut buf = vec![0u8; 4096];
        let a = addr(64);
        let view = sample_view();
        init_object(&mut buf, a, &view);
        for (i, r) in view.refs.iter().enumerate() {
            assert_eq!(ref_at(&buf, a, i).unwrap(), *r);
        }
        assert!(matches!(
            ref_at(&buf, a, view.refs.len()),
            Err(Error::RefIndexOutOfBounds { .. })
        ));
        assert_eq!(payload(&buf, a).unwrap(), &view.payload[..]);
    }

    #[test]
    fn set_ref_out_of_bounds() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        assert!(matches!(
            set_ref(&mut page, a, 2, PhysAddr::from_raw(1)),
            Err(Error::RefIndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn insert_ref_until_capacity() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        assert_eq!(insert_ref(&mut page, a, PhysAddr::from_raw(1)).unwrap(), 2);
        assert_eq!(insert_ref(&mut page, a, PhysAddr::from_raw(2)).unwrap(), 3);
        assert_eq!(
            insert_ref(&mut page, a, PhysAddr::from_raw(3)).unwrap_err(),
            Error::RefCapacityExceeded(a)
        );
        assert_eq!(read_refs(&page, a).unwrap().len(), 4);
    }

    #[test]
    fn insert_ref_at_restores_position() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        let mut v = sample_view();
        v.refs = vec![PhysAddr::from_raw(10), PhysAddr::from_raw(30)];
        init_object(&mut page, a, &v);
        insert_ref_at(&mut page, a, 1, PhysAddr::from_raw(20)).unwrap();
        assert_eq!(
            read_refs(&page, a).unwrap(),
            vec![
                PhysAddr::from_raw(10),
                PhysAddr::from_raw(20),
                PhysAddr::from_raw(30)
            ]
        );
        assert!(matches!(
            insert_ref_at(&mut page, a, 5, PhysAddr::from_raw(1)),
            Err(Error::RefIndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn remove_ref_preserves_order() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        let mut v = sample_view();
        v.refs = vec![
            PhysAddr::from_raw(10),
            PhysAddr::from_raw(20),
            PhysAddr::from_raw(30),
        ];
        init_object(&mut page, a, &v);
        let removed = remove_ref_at(&mut page, a, 1).unwrap();
        assert_eq!(removed, PhysAddr::from_raw(20));
        assert_eq!(
            read_refs(&page, a).unwrap(),
            vec![PhysAddr::from_raw(10), PhysAddr::from_raw(30)]
        );
    }

    #[test]
    fn find_ref_present_and_absent() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        assert_eq!(
            find_ref(&page, a, PhysAddr::from_raw(0xCCDD)).unwrap(),
            Some(1)
        );
        assert_eq!(find_ref(&page, a, PhysAddr::from_raw(0xFFFF)).unwrap(), None);
    }

    #[test]
    fn set_payload_roundtrip_and_capacity() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        set_payload(&mut page, a, b"replacement!").unwrap();
        assert_eq!(read_view(&page, a).unwrap().payload, b"replacement!".to_vec());
        let too_big = vec![0u8; 17];
        assert_eq!(
            set_payload(&mut page, a, &too_big).unwrap_err(),
            Error::PayloadCapacityExceeded(a)
        );
    }

    #[test]
    fn mark_free_scrubs_object() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        let v = sample_view();
        init_object(&mut page, a, &v);
        let h = mark_free(&mut page, a).unwrap();
        assert_eq!(h.size(), v.size());
        assert!(read_view(&page, a).is_err());
        assert!(page[..v.size()].iter().all(|&b| b == 0));
    }

    #[test]
    fn shrinking_payload_zeroes_tail() {
        let mut page = vec![0u8; 256];
        let a = addr(0);
        init_object(&mut page, a, &sample_view());
        set_payload(&mut page, a, b"xy").unwrap();
        let view = read_view(&page, a).unwrap();
        assert_eq!(view.payload, b"xy".to_vec());
    }
}
