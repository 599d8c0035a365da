//! Physical object addresses.
//!
//! In the paper's model all object references are *physical*: a reference is
//! the actual location of the object, not a logical identifier resolved
//! through a mapping table. We model a physical address as
//! `(partition, page, offset)` packed into a `u64`, so that — as in the
//! paper's footnote 4 — the partition an object belongs to can be recovered
//! from the address alone, with no lookup.
//!
//! Because the identifier *is* the location, migrating an object changes its
//! identity, and every parent's stored reference must be rewritten. That is
//! precisely the problem the IRA algorithm solves.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a database partition (Section 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartitionId(pub u16);

impl fmt::Display for PartitionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A physical address: partition (16 bits), page within the partition
/// (32 bits), and byte offset within the page (16 bits).
///
/// `PhysAddr` is `Copy` and 8 bytes, matching the on-page encoding of a
/// stored reference exactly: the bytes of a reference slot in an object *are*
/// the little-endian raw value of a `PhysAddr`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysAddr(u64);

impl PhysAddr {
    /// Assemble an address from its components.
    #[inline]
    pub fn new(partition: PartitionId, page: u32, offset: u16) -> Self {
        PhysAddr(((partition.0 as u64) << 48) | ((page as u64) << 16) | offset as u64)
    }

    /// The partition this address lies in, computed from the address bits
    /// alone (paper footnote 4: "the partition could be inferred from a fixed
    /// number of left most bits of the object identifier").
    #[inline]
    pub fn partition(self) -> PartitionId {
        PartitionId((self.0 >> 48) as u16)
    }

    /// Page index within the partition.
    #[inline]
    pub fn page(self) -> u32 {
        ((self.0 >> 16) & 0xFFFF_FFFF) as u32
    }

    /// Byte offset within the page at which the object header starts.
    #[inline]
    pub fn offset(self) -> u16 {
        (self.0 & 0xFFFF) as u16
    }

    /// Raw 64-bit representation (the on-page encoding of a reference).
    #[inline]
    pub fn to_raw(self) -> u64 {
        self.0
    }

    /// Rebuild an address from its raw representation.
    #[inline]
    pub fn from_raw(raw: u64) -> Self {
        PhysAddr(raw)
    }
}

/// Fibonacci-style multiplicative hasher for [`AddrMap`] keys: an address
/// is one `u64` the store itself hands out, for which SipHash's HashDoS
/// protection buys nothing and costs a lookup 3× (3 ns vs 9 ns).
#[derive(Default)]
pub struct FibHasher(u64);

impl Hasher for FibHasher {
    /// The product's high bits, rotated down: hashbrown buckets by the low
    /// bits, and the low `k` bits of `x·φ` are those of `x` alone — the
    /// in-page offset, mostly zero bits under power-of-two size classes.
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b as u64);
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Multiply by 2^64 / phi, folding in the previous state.
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// The store's hasher for keys it hands out: addresses, transaction ids.
pub(crate) type FibState = BuildHasherDefault<FibHasher>;

/// The map behind the TRT and the ERT (Brahmā used extendible hash indices
/// there, Section 5 — a detail of the authors' system) and every
/// address-keyed table of the reorganizer. The hasher is fixed, not
/// `RandomState`: iteration order is then a function of the insert/remove
/// sequence alone, which is what keeps same-seed runs identical (the
/// tables' iteration order seeds the traversal).
pub type AddrMap<V> = HashMap<PhysAddr, V, FibState>;

/// The set counterpart of [`AddrMap`].
pub type AddrSet = HashSet<PhysAddr, FibState>;

impl fmt::Debug for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}+{}", self.partition(), self.page(), self.offset())
    }
}

impl fmt::Display for PhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}+{}", self.partition(), self.page(), self.offset())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_components() {
        let a = PhysAddr::new(PartitionId(7), 123_456, 4095);
        assert_eq!(a.partition(), PartitionId(7));
        assert_eq!(a.page(), 123_456);
        assert_eq!(a.offset(), 4095);
    }

    #[test]
    fn roundtrip_raw() {
        let a = PhysAddr::new(PartitionId(65535), u32::MAX, u16::MAX);
        assert_eq!(PhysAddr::from_raw(a.to_raw()), a);
    }

    #[test]
    fn zero_address() {
        let a = PhysAddr::new(PartitionId(0), 0, 0);
        assert_eq!(a.to_raw(), 0);
        assert_eq!(a.partition(), PartitionId(0));
    }

    #[test]
    fn display_contains_components() {
        let a = PhysAddr::new(PartitionId(3), 9, 100);
        assert_eq!(format!("{a}"), "P3:9+100");
    }

    /// A Table-1 partition's worth of 64-byte slots, page-major, in a map
    /// of 8,192 buckets: the home buckets (the hash's low 13 bits) must
    /// spread, not follow the in-page offset. The raw product — the
    /// hasher's former `finish` — gives every page the same 128 buckets.
    #[test]
    fn page_major_slots_spread_over_the_buckets() {
        use std::hash::BuildHasher;
        const MASK: u64 = 8191;
        let slots = (crate::config::PAGE_SIZE / 64) as u16;
        let addrs: Vec<PhysAddr> = (0..u32::MAX)
            .flat_map(|page| {
                (0..slots).map(move |slot| PhysAddr::new(PartitionId(1), page, slot * 64))
            })
            .take(4080)
            .collect();
        let buckets = |hash: &dyn Fn(PhysAddr) -> u64| {
            addrs
                .iter()
                .map(|&a| hash(a) & MASK)
                .collect::<HashSet<u64>>()
                .len()
        };
        let raw_product = buckets(&|a| a.to_raw().wrapping_mul(0x9E37_79B9_7F4A_7C15));
        assert_eq!(raw_product, 128);
        let spread = buckets(&|a| FibState::default().hash_one(a));
        assert!(spread > 2_500, "{spread} home buckets for 4080 addresses");
    }

    #[test]
    fn ordering_groups_by_partition_then_page() {
        let a = PhysAddr::new(PartitionId(1), 50, 0);
        let b = PhysAddr::new(PartitionId(2), 0, 0);
        let c = PhysAddr::new(PartitionId(2), 1, 0);
        assert!(a < b && b < c);
    }
}
