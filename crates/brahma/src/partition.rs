//! Partitions: pages plus a space allocator and the partition's ERT.
//!
//! The database is divided into partitions (Section 2) so reorganization can
//! be done one partition at a time, traversing only that partition's objects.
//! Each partition owns:
//!
//! * its pages (see [`crate::page`]),
//! * a BiBOP-style ("big bag of pages") size-class allocator — every opened
//!   page owns exactly one power-of-two size class, allocation is an O(1)
//!   pop from the class's free-slot list (or a bump of the class's open
//!   page), and all object metadata is derivable from an address alone:
//!   `page → class → slot = offset / slot_size`. The `BTreeMap` first-fit
//!   free list this replaces made every allocation a linear scan on the
//!   walker hot path,
//! * an *object directory* — here the per-page slot bitmaps and size
//!   tables — recording each live object's `(page, offset) → size`; this is
//!   the "object allocation information" the paper mentions as an
//!   alternative way to enumerate a partition's objects, and it is what
//!   restart recovery sweeps to rebuild the free lists,
//! * the partition's [`Ert`].
//!
//! Fragmentation still exists (the motivation for compaction, paper
//! Section 1) but takes the BiBOP form: holes are whole slots, reusable
//! only by objects of the same class, so a partition churned by
//! mixed-size allocate/free traffic strands free slots across many pages
//! until a reorganization repacks it.

use crate::addr::{PartitionId, PhysAddr};
use crate::config::PAGE_SIZE;
use crate::error::{Error, Result};
use crate::ert::Ert;
use crate::lockdep::{LockClass, Mutex, RwLock};
use crate::page::{new_page, PageRef};
use serde::{Deserialize, Serialize};

/// Smallest size class: 32 bytes (2^5). Objects are ≥ `HEADER_LEN` bytes
/// and the paper's workloads allocate tens-to-hundreds of bytes, so a
/// smaller class would only waste bitmap space.
const MIN_CLASS_SHIFT: u32 = 5;

/// Number of power-of-two size classes: 32, 64, …, `PAGE_SIZE` (one slot).
const NUM_CLASSES: usize = (PAGE_SIZE.trailing_zeros() - MIN_CLASS_SHIFT + 1) as usize;

/// Size class index for a requested byte size: ceil(log2), clamped to the
/// minimum class.
fn class_of(size: usize) -> usize {
    let sz = size.max(1 << MIN_CLASS_SHIFT) as u32;
    let shift = 32 - (sz - 1).leading_zeros();
    (shift - MIN_CLASS_SHIFT) as usize
}

/// Slot size in bytes of a class.
fn slot_bytes(class: usize) -> u32 {
    1u32 << (MIN_CLASS_SHIFT + class as u32)
}

/// Number of slots a page of this class holds.
fn slots_per_page(class: usize) -> usize {
    PAGE_SIZE / slot_bytes(class) as usize
}

/// Per-page allocation metadata. A page either owns one size class or is a
/// *spare*: opened by `alloc_at` bridging up to a recovery target, or
/// demoted by [`Partition::flush_deferred_frees`] once it held nothing, and
/// not (or no longer) committed to any class.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PageMeta {
    /// Size class owned by this page; `None` for a spare page.
    class: Option<u8>,
    /// Used-slot bitmap (`slots_per_page` bits): set for live objects *and*
    /// for slots withheld by the deferred-free protocol.
    used: Vec<u64>,
    /// Requested byte size per slot; 0 means "no live object here" (the
    /// slot is free, or withheld). Object sizes are always > 0 (the header
    /// alone is 10 bytes), so 0 is an unambiguous sentinel.
    sizes: Vec<u32>,
}

impl PageMeta {
    fn adopt(&mut self, class: usize) {
        let spp = slots_per_page(class);
        self.class = Some(class as u8);
        self.used = vec![0; spp.div_ceil(64)];
        self.sizes = vec![0; spp];
    }

    /// No slot is live or withheld.
    fn is_empty(&self) -> bool {
        self.used.iter().all(|w| *w == 0)
    }

    #[inline]
    fn bit(&self, slot: usize) -> bool {
        self.used[slot / 64] & (1u64 << (slot % 64)) != 0
    }

    #[inline]
    fn set_bit(&mut self, slot: usize) {
        self.used[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_bit(&mut self, slot: usize) {
        self.used[slot / 64] &= !(1u64 << (slot % 64));
    }
}

/// Allocation bookkeeping for one partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AllocState {
    /// One entry per opened page, parallel to the partition's page vector.
    page_meta: Vec<PageMeta>,
    /// Per-class free-slot stacks: `(page, slot)`. Entries may be stale
    /// (the slot was since claimed by `alloc_at` or withheld by
    /// `defer_all_free_space`); `allocate` validates against the bitmap on
    /// pop and discards losers, so pushes never have to search.
    free_lists: Vec<Vec<(u32, u16)>>,
    /// Per-class bump cursor: `(page, next_slot)` in the class's open page.
    /// Slots ≥ `next_slot` there have never been handed out.
    bump: Vec<Option<(u32, u32)>>,
    /// Spare pages available for adoption by any class. Never withheld: a
    /// page becomes a spare only by bridging or at a flush, so it holds no
    /// address a running reorganization freed.
    spare: Vec<u32>,
    /// Space freed by the reorganizer, withheld from reuse until the
    /// reorganization ends (see [`Partition::free_deferred`]): the slots'
    /// used bits stay set with `sizes == 0`.
    deferred: Vec<(u32, u16, u32)>,
    /// Live object count.
    live: u64,
    /// Sum of live objects' requested sizes.
    used_bytes: u64,
}

impl AllocState {
    fn new() -> Self {
        AllocState {
            page_meta: Vec::new(),
            free_lists: vec![Vec::new(); NUM_CLASSES],
            bump: vec![None; NUM_CLASSES],
            spare: Vec::new(),
            deferred: Vec::new(),
            live: 0,
            used_bytes: 0,
        }
    }

    /// Take `page` away from the class that owns it, leaving it classless:
    /// the class's bump cursor lets go of it, and the class's free-list
    /// entries naming it die lazily (`allocate` drops entries whose page
    /// changed hands) or at the next flush.
    fn disown(&mut self, page: u32) {
        let meta = &mut self.page_meta[page as usize];
        if let Some(class) = meta.class {
            if matches!(self.bump[class as usize], Some((pg, _)) if pg == page) {
                self.bump[class as usize] = None;
            }
        }
        *meta = PageMeta::default();
    }

    /// Look up `(page_meta index, class, slot)` for a live object at
    /// `(page, off)`, or `None` if no live object sits exactly there.
    fn locate_live(&self, page: u32, off: u16) -> Option<(usize, usize)> {
        let meta = self.page_meta.get(page as usize)?;
        let class = meta.class? as usize;
        let cs = slot_bytes(class);
        if !(off as u32).is_multiple_of(cs) {
            return None;
        }
        let slot = (off as u32 / cs) as usize;
        (meta.bit(slot) && meta.sizes[slot] > 0).then_some((class, slot))
    }
}

/// Space statistics for a partition (drives the compaction example and the
/// fragmentation accounting in benches). `free_extents` counts contiguous
/// runs of free slots per page (a fully free page is one extent), so the
/// compaction story — many stranded holes before, few big runs after —
/// reads the same as with the old extent map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpaceStats {
    pub pages: u32,
    pub live_objects: usize,
    pub used_bytes: u64,
    pub free_extent_bytes: u64,
    pub free_extents: usize,
}

/// Snapshot of a partition for checkpointing.
#[derive(Clone, Serialize, Deserialize)]
pub struct PartitionSnapshot {
    pub id: PartitionId,
    pub pages: Vec<Vec<u8>>,
    alloc: AllocState,
    pub ert: crate::ert::ErtSnapshot,
}

impl PartitionSnapshot {
    /// Serialize for the on-disk checkpoint image (DESIGN.md §14). Lives
    /// here — not in `storage::codec` — because [`AllocState`] is private
    /// to the allocator.
    pub fn encode(&self, out: &mut Vec<u8>) {
        use crate::storage::codec::*;
        put_u16(out, self.id.0);
        put_u32(out, self.pages.len() as u32);
        for page in &self.pages {
            put_bytes(out, page);
        }
        let a = &self.alloc;
        put_u32(out, a.page_meta.len() as u32);
        for m in &a.page_meta {
            match m.class {
                Some(c) => put_u8(out, c),
                None => put_u8(out, 0xFF),
            }
            put_u32(out, m.used.len() as u32);
            for w in &m.used {
                put_u64(out, *w);
            }
            put_u32(out, m.sizes.len() as u32);
            for s in &m.sizes {
                put_u32(out, *s);
            }
        }
        put_u8(out, a.free_lists.len() as u8);
        for fl in &a.free_lists {
            put_u32(out, fl.len() as u32);
            for (page, slot) in fl {
                put_u32(out, *page);
                put_u16(out, *slot);
            }
        }
        put_u8(out, a.bump.len() as u8);
        for b in &a.bump {
            match b {
                Some((page, next)) => {
                    put_u8(out, 1);
                    put_u32(out, *page);
                    put_u32(out, *next);
                }
                None => put_u8(out, 0),
            }
        }
        put_u32(out, a.spare.len() as u32);
        for p in &a.spare {
            put_u32(out, *p);
        }
        put_u32(out, a.deferred.len() as u32);
        for (page, slot, size) in &a.deferred {
            put_u32(out, *page);
            put_u16(out, *slot);
            put_u32(out, *size);
        }
        put_u64(out, a.live);
        put_u64(out, a.used_bytes);
        put_u32(out, self.ert.edges.len() as u32);
        for (child, parent) in &self.ert.edges {
            put_addr(out, *child);
            put_addr(out, *parent);
        }
    }

    /// Decode a snapshot written by [`PartitionSnapshot::encode`]. Every
    /// malformed field degrades to [`Error::Corrupt`]; nothing panics on
    /// bad disk bytes.
    pub fn decode(r: &mut crate::storage::codec::Reader<'_>) -> Result<PartitionSnapshot> {
        let id = PartitionId(r.u16()?);
        let npages = r.u32()? as usize;
        let mut pages = Vec::with_capacity(npages.min(1 << 16));
        for _ in 0..npages {
            let page = r.bytes()?;
            if page.len() != PAGE_SIZE {
                return Err(r.corrupt(format!(
                    "page image is {} bytes, expected {PAGE_SIZE}",
                    page.len()
                )));
            }
            pages.push(page);
        }
        let nmeta = r.u32()? as usize;
        let mut page_meta = Vec::with_capacity(nmeta.min(1 << 16));
        for _ in 0..nmeta {
            let class = match r.u8()? {
                0xFF => None,
                c if (c as usize) < NUM_CLASSES => Some(c),
                c => return Err(r.corrupt(format!("size class {c} out of range"))),
            };
            let nused = r.u32()? as usize;
            let mut used = Vec::with_capacity(nused.min(1 << 16));
            for _ in 0..nused {
                used.push(r.u64()?);
            }
            let nsizes = r.u32()? as usize;
            let mut sizes = Vec::with_capacity(nsizes.min(1 << 16));
            for _ in 0..nsizes {
                sizes.push(r.u32()?);
            }
            page_meta.push(PageMeta { class, used, sizes });
        }
        let nclasses = r.u8()? as usize;
        if nclasses != NUM_CLASSES {
            return Err(r.corrupt(format!(
                "snapshot has {nclasses} size classes, this build has {NUM_CLASSES}"
            )));
        }
        let mut free_lists = Vec::with_capacity(nclasses);
        for _ in 0..nclasses {
            let n = r.u32()? as usize;
            let mut fl = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let page = r.u32()?;
                let slot = r.u16()?;
                fl.push((page, slot));
            }
            free_lists.push(fl);
        }
        let nbump = r.u8()? as usize;
        if nbump != NUM_CLASSES {
            return Err(r.corrupt(format!("snapshot has {nbump} bump cursors")));
        }
        let mut bump = Vec::with_capacity(nbump);
        for _ in 0..nbump {
            bump.push(match r.u8()? {
                0 => None,
                1 => Some((r.u32()?, r.u32()?)),
                f => return Err(r.corrupt(format!("bad bump flag {f}"))),
            });
        }
        let nspare = r.u32()? as usize;
        let mut spare = Vec::with_capacity(nspare.min(1 << 16));
        for _ in 0..nspare {
            spare.push(r.u32()?);
        }
        let ndef = r.u32()? as usize;
        let mut deferred = Vec::with_capacity(ndef.min(1 << 16));
        for _ in 0..ndef {
            let page = r.u32()?;
            let slot = r.u16()?;
            let size = r.u32()?;
            deferred.push((page, slot, size));
        }
        let live = r.u64()?;
        let used_bytes = r.u64()?;
        let nedges = r.u32()? as usize;
        let mut edges = Vec::with_capacity(nedges.min(1 << 16));
        for _ in 0..nedges {
            let child = r.addr()?;
            let parent = r.addr()?;
            edges.push((child, parent));
        }
        Ok(PartitionSnapshot {
            id,
            pages,
            alloc: AllocState {
                page_meta,
                free_lists,
                bump,
                spare,
                deferred,
                live,
                used_bytes,
            },
            ert: crate::ert::ErtSnapshot { edges },
        })
    }
}

/// One database partition.
///
/// Lock hierarchy (enforced by [`crate::lockdep`]): `alloc` before `pages`
/// before any page latch. `allocate`/`alloc_at` hold `alloc` across the
/// page-vector push so no address into a not-yet-published page can exist.
pub struct Partition {
    id: PartitionId,
    pages: RwLock<Vec<PageRef>>,
    alloc: Mutex<AllocState>,
    /// The partition's External Reference Table.
    pub ert: Ert,
}

impl Partition {
    /// Create an empty partition.
    pub fn new(id: PartitionId) -> Self {
        Partition {
            id,
            pages: RwLock::new(LockClass::PartitionPages, id.0 as u64, Vec::new()),
            alloc: Mutex::new(LockClass::PartitionAlloc, id.0 as u64, AllocState::new()),
            ert: Ert::new(id),
        }
    }

    /// This partition's id.
    pub fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of pages currently owned.
    pub fn page_count(&self) -> u32 {
        self.pages.read().len() as u32
    }

    /// Fetch a latch-protected page handle.
    pub fn page(&self, index: u32) -> Result<PageRef> {
        self.pages
            .read()
            .get(index as usize)
            .cloned()
            .ok_or(Error::NoSuchObject(PhysAddr::new(self.id, index, 0)))
    }

    /// Reserve `size` bytes, registering the object in the directory.
    ///
    /// O(1): pop the head of the size class's free-slot list, or bump the
    /// class's open page. The returned address points at zeroed bytes; the
    /// caller initializes the object image under the page's write latch. A
    /// fuzzy reader that races the initialization sees a cleared valid
    /// byte and skips.
    pub fn allocate(&self, size: usize) -> Result<PhysAddr> {
        if size > PAGE_SIZE {
            return Err(Error::ObjectTooLarge { bytes: size });
        }
        let class = class_of(size);
        let cs = slot_bytes(class);
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        // Free-list head first. Stale entries (claimed by `alloc_at`,
        // withheld by `defer_all_free_space`, or on a page that switched
        // hands) are discarded here.
        while let Some((page, slot)) = st.free_lists[class].pop() {
            let meta = &mut st.page_meta[page as usize];
            if meta.class == Some(class as u8) && !meta.bit(slot as usize) {
                meta.set_bit(slot as usize);
                meta.sizes[slot as usize] = size as u32;
                st.live += 1;
                st.used_bytes += size as u64;
                return Ok(PhysAddr::new(self.id, page, (slot as u32 * cs) as u16));
            }
        }
        // Bump into the class's open page, skipping slots `alloc_at`
        // claimed ahead of the cursor (recovery redo lands anywhere).
        loop {
            if let Some((page, next)) = st.bump[class] {
                if (next as usize) < slots_per_page(class) {
                    st.bump[class] = Some((page, next + 1));
                    let meta = &mut st.page_meta[page as usize];
                    if meta.bit(next as usize) {
                        continue;
                    }
                    meta.set_bit(next as usize);
                    meta.sizes[next as usize] = size as u32;
                    st.live += 1;
                    st.used_bytes += size as u64;
                    return Ok(PhysAddr::new(self.id, page, (next * cs) as u16));
                }
            }
            // Open a page for this class: adopt a spare, or push a fresh
            // one. The alloc mutex is held across the push, so no other
            // allocation can hand out an address into a not-yet-pushed
            // page.
            let page = if let Some(pg) = st.spare.pop() {
                pg
            } else {
                let pg = st.page_meta.len() as u32;
                st.page_meta.push(PageMeta::default());
                self.pages.write().push(new_page());
                pg
            };
            st.page_meta[page as usize].adopt(class);
            st.bump[class] = Some((page, 0));
        }
    }

    /// Reserve `size` bytes at exactly `addr` (restart-recovery redo of a
    /// `Create`, and undo of a `Free`, must restore objects at their
    /// original addresses because stored references point there).
    ///
    /// Every address recovery replays was minted by [`Partition::allocate`],
    /// so it is slot-aligned for the class its size maps to; the first
    /// `alloc_at` into a fresh page — or into a page that holds nothing —
    /// therefore re-establishes the class the page had when the object was
    /// first created.
    pub fn alloc_at(&self, addr: PhysAddr, size: usize) -> Result<()> {
        debug_assert_eq!(addr.partition(), self.id);
        if size > PAGE_SIZE || addr.offset() as usize + size > PAGE_SIZE {
            return Err(Error::ObjectTooLarge { bytes: size });
        }
        let page = addr.page();
        let off = addr.offset();
        let size32 = size as u32;
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        // A reorganizer rollback may restore an object whose slot sits in
        // the deferred-free list (used bit set, size zeroed): reclaim it
        // directly.
        if let Some(pos) = st
            .deferred
            .iter()
            .position(|&(p, o, _)| p == page && o == off)
        {
            if st.deferred[pos].2 != size32 {
                return Err(Error::NoSuchObject(addr));
            }
            st.deferred.remove(pos);
            let meta = &mut st.page_meta[page as usize];
            let Some((_, slot)) = st_locate_slot(meta, off) else {
                return Err(Error::NoSuchObject(addr));
            };
            debug_assert!(meta.bit(slot) && meta.sizes[slot] == 0);
            meta.sizes[slot] = size32;
            st.live += 1;
            st.used_bytes += size as u64;
            return Ok(());
        }
        // Open pages up to and including the target page; the bridged
        // pages stay spares until someone claims them.
        while st.page_meta.len() <= page as usize {
            let pg = st.page_meta.len() as u32;
            st.page_meta.push(PageMeta::default());
            st.spare.push(pg);
            self.pages.write().push(new_page());
        }
        // Page demotion is not logged, so REDO from a checkpoint older
        // than one can find the page still owned by the class it had then,
        // empty, where the log re-creates an object of another class.
        let want = class_of(size);
        let meta = &st.page_meta[page as usize];
        match meta.class {
            Some(class) if class as usize != want && meta.is_empty() => {
                st.disown(page);
                st.page_meta[page as usize].adopt(want);
            }
            Some(_) => {}
            None => {
                st.spare.retain(|&pg| pg != page);
                st.page_meta[page as usize].adopt(want);
            }
        }
        let meta = &mut st.page_meta[page as usize];
        let Some(class) = meta.class else {
            return Err(Error::NoSuchObject(addr));
        };
        let class = class as usize;
        let cs = slot_bytes(class);
        if !(off as u32).is_multiple_of(cs) || size32 > cs {
            // Misaligned for the page's class, or too big for its slots:
            // no such carve is possible.
            return Err(Error::NoSuchObject(addr));
        }
        let slot = (off as u32 / cs) as usize;
        if meta.bit(slot) {
            return Err(Error::NoSuchObject(addr));
        }
        meta.set_bit(slot);
        meta.sizes[slot] = size32;
        st.live += 1;
        st.used_bytes += size as u64;
        Ok(())
    }

    /// Queue the object's space for release at the end of the current
    /// reorganization. The reorganizer frees migrated objects through this
    /// path so their addresses cannot be recycled while concurrent
    /// transactions may still hold them in local memory (two-lock variant).
    /// The slot's used bit stays set (blocking reuse) with its size zeroed
    /// (removing it from the directory).
    pub fn free_deferred(&self, addr: PhysAddr) -> Result<u32> {
        debug_assert_eq!(addr.partition(), self.id);
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        let Some((_, slot)) = st.locate_live(addr.page(), addr.offset()) else {
            return Err(Error::NoSuchObject(addr));
        };
        let meta = &mut st.page_meta[addr.page() as usize];
        let size = meta.sizes[slot];
        meta.sizes[slot] = 0;
        st.deferred.push((addr.page(), addr.offset(), size));
        st.live -= 1;
        st.used_bytes -= size as u64;
        Ok(size)
    }

    /// Withhold every currently free slot from reuse until
    /// [`Partition::flush_deferred_frees`]. Used when *resuming* a
    /// reorganization after a crash: the deferral of pre-crash frees was
    /// volatile, and re-deferring all free space restores the invariant
    /// that no address freed by the reorganization is recycled while it
    /// runs. Virgin slots past a class's bump cursor were never handed
    /// out, so they stay bump-allocatable — and so do spare pages, which
    /// hold nothing a reorganization still running could have freed.
    pub fn defer_all_free_space(&self) {
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        for pg in 0..st.page_meta.len() {
            let Some(class) = st.page_meta[pg].class else {
                continue;
            };
            let class = class as usize;
            let cs = slot_bytes(class);
            let virgin_from = match st.bump[class] {
                Some((bpage, next)) if bpage as usize == pg => next as usize,
                _ => slots_per_page(class),
            };
            for slot in 0..virgin_from {
                if !st.page_meta[pg].bit(slot) {
                    st.page_meta[pg].set_bit(slot);
                    st.deferred.push((pg as u32, (slot as u32 * cs) as u16, cs));
                }
            }
        }
    }

    /// Release all space queued by [`Partition::free_deferred`] (and by
    /// [`Partition::defer_all_free_space`]) back onto the class free
    /// lists, then demote every page left holding nothing to a spare, so
    /// the next reorganization packs its copies into the pages this one
    /// emptied instead of growing the partition.
    pub fn flush_deferred_frees(&self) {
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        let deferred = std::mem::take(&mut st.deferred);
        for (page, off, _) in deferred {
            let meta = &mut st.page_meta[page as usize];
            let Some((class, slot)) = st_locate_slot(meta, off) else {
                continue;
            };
            debug_assert!(meta.bit(slot) && meta.sizes[slot] == 0);
            meta.clear_bit(slot);
            st.free_lists[class].push((page, slot as u16));
        }
        for page in 0..st.page_meta.len() as u32 {
            let meta = &st.page_meta[page as usize];
            if meta.class.is_some() && meta.is_empty() {
                st.disown(page);
                st.spare.push(page);
            }
        }
        // Entries naming a spare would otherwise pile up pass after pass.
        let page_meta = &st.page_meta;
        for list in &mut st.free_lists {
            list.retain(|&(page, _)| page_meta[page as usize].class.is_some());
        }
    }

    /// Release the object's slot back to its class free list. The caller
    /// must already have scrubbed the object bytes under the page latch.
    pub fn free(&self, addr: PhysAddr) -> Result<u32> {
        debug_assert_eq!(addr.partition(), self.id);
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        let Some((class, slot)) = st.locate_live(addr.page(), addr.offset()) else {
            return Err(Error::NoSuchObject(addr));
        };
        let meta = &mut st.page_meta[addr.page() as usize];
        let size = meta.sizes[slot];
        meta.sizes[slot] = 0;
        meta.clear_bit(slot);
        st.free_lists[class].push((addr.page(), slot as u16));
        st.live -= 1;
        st.used_bytes -= size as u64;
        Ok(size)
    }

    /// On-page size of the live object at `addr`, if the directory knows
    /// it — derived from the address alone: page → class → slot.
    pub fn object_size(&self, addr: PhysAddr) -> Option<u32> {
        let st = self.alloc.lock();
        let (_, slot) = st.locate_live(addr.page(), addr.offset())?;
        Some(st.page_meta[addr.page() as usize].sizes[slot])
    }

    /// Whether the directory records a live object exactly at `addr`.
    pub fn contains_object(&self, addr: PhysAddr) -> bool {
        self.object_size(addr).is_some()
    }

    /// Enumerate all live objects via the allocation directory — the
    /// alternative to ERT-rooted traversal the paper mentions in Section 3.4
    /// (it cannot detect garbage, but finds every allocated object).
    /// Sorted by (page, offset).
    pub fn live_objects(&self) -> Vec<PhysAddr> {
        let st = self.alloc.lock();
        let mut out = Vec::with_capacity(st.live as usize);
        for (pg, meta) in st.page_meta.iter().enumerate() {
            let Some(class) = meta.class else { continue };
            let cs = slot_bytes(class as usize);
            for slot in 0..slots_per_page(class as usize) {
                if meta.bit(slot) && meta.sizes[slot] > 0 {
                    out.push(PhysAddr::new(self.id, pg as u32, (slot as u32 * cs) as u16));
                }
            }
        }
        out
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.alloc.lock().live as usize
    }

    /// Space accounting. Free space is counted in slots; withheld slots
    /// (deferred frees) are neither used nor free, exactly like the old
    /// deferred extents.
    pub fn space_stats(&self) -> SpaceStats {
        let st = self.alloc.lock();
        let mut free_bytes = 0u64;
        let mut free_extents = 0usize;
        for meta in &st.page_meta {
            let Some(class) = meta.class else { continue };
            let cs = slot_bytes(class as usize) as u64;
            let mut in_run = false;
            for slot in 0..slots_per_page(class as usize) {
                if meta.bit(slot) {
                    in_run = false;
                } else {
                    free_bytes += cs;
                    if !in_run {
                        free_extents += 1;
                        in_run = true;
                    }
                }
            }
        }
        // Spare pages are one whole-page extent each.
        free_bytes += st.spare.len() as u64 * PAGE_SIZE as u64;
        free_extents += st.spare.len();
        SpaceStats {
            pages: self.pages.read().len() as u32,
            live_objects: st.live as usize,
            used_bytes: st.used_bytes,
            free_extent_bytes: free_bytes,
            free_extents,
        }
    }

    /// Allocator self-check for the test suites: every violated invariant
    /// of the spare list, the free lists, the bump cursors and the live
    /// accounting, as human-readable strings (empty = pass). `settled`
    /// says nothing was freed since the last
    /// [`Partition::flush_deferred_frees`], which is when no classed page
    /// may be left holding nothing.
    #[doc(hidden)]
    pub fn allocator_problems(&self, settled: bool) -> Vec<String> {
        let st = self.alloc.lock();
        let mut problems = Vec::new();
        let (mut live, mut used_bytes) = (0u64, 0u64);
        for (pg, meta) in st.page_meta.iter().enumerate() {
            live += meta.sizes.iter().filter(|&&s| s > 0).count() as u64;
            used_bytes += meta.sizes.iter().map(|&s| s as u64).sum::<u64>();
            let listed = st.spare.iter().filter(|&&p| p as usize == pg).count();
            match meta.class {
                None if listed != 1 => {
                    problems.push(format!(
                        "classless page {pg} is listed as spare {listed} times"
                    ));
                }
                Some(_) if listed != 0 => problems.push(format!("classed page {pg} is a spare")),
                Some(class) if settled && meta.is_empty() => {
                    problems.push(format!(
                        "page {pg} holds nothing but still owns class {class}"
                    ));
                }
                _ => {}
            }
        }
        if (live, used_bytes) != (st.live, st.used_bytes) {
            problems.push(format!(
                "directory holds {live} objects / {used_bytes} bytes, counters say {} / {}",
                st.live, st.used_bytes
            ));
        }
        let class_at = |page: u32| st.page_meta.get(page as usize).and_then(|m| m.class);
        for (class, list) in st.free_lists.iter().enumerate() {
            for &(page, slot) in list {
                if class_at(page).is_none() {
                    problems.push(format!(
                        "class {class} free list names spare ({page}, {slot})"
                    ));
                }
            }
            if let Some((page, _)) = st.bump[class] {
                if class_at(page) != Some(class as u8) {
                    problems.push(format!(
                        "class {class} bump cursor names foreign page {page}"
                    ));
                }
            }
        }
        problems
    }

    /// Deep snapshot for checkpointing (taken at a quiescent point).
    pub fn snapshot(&self) -> PartitionSnapshot {
        // Copy the page images and release the page-vector lock *before*
        // taking `alloc`: `allocate`/`alloc_at` acquire alloc -> pages, so
        // holding pages across the alloc acquisition would invert the
        // partition's lock order (an ABBA deadlock with a concurrent
        // allocation; found by lockdep).
        let page_images: Vec<Vec<u8>> = {
            let pages = self.pages.read();
            pages.iter().map(|p| p.read().snapshot()).collect()
        };
        PartitionSnapshot {
            id: self.id,
            pages: page_images,
            alloc: self.alloc.lock().clone(),
            ert: self.ert.snapshot(),
        }
    }

    /// Rebuild a partition from a snapshot (restart recovery).
    pub fn from_snapshot(snap: &PartitionSnapshot) -> Self {
        let p = Partition::new(snap.id);
        {
            let mut pages = p.pages.write();
            for bytes in &snap.pages {
                let page = new_page();
                page.write().restore(bytes);
                pages.push(page);
            }
        }
        *p.alloc.lock() = snap.alloc.clone();
        p.ert.restore(&snap.ert);
        p
    }
}

/// `(class, slot)` of `off` on a classed page, if aligned. Free function
/// so it can be used while `meta` is mutably borrowed out of the state.
fn st_locate_slot(meta: &PageMeta, off: u16) -> Option<(usize, usize)> {
    let class = meta.class? as usize;
    let cs = slot_bytes(class);
    (off as u32).is_multiple_of(cs).then(|| (class, (off as u32 / cs) as usize))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        Partition::new(PartitionId(3))
    }

    #[test]
    fn size_classes_cover_the_page() {
        assert_eq!(class_of(1), 0);
        assert_eq!(class_of(32), 0);
        assert_eq!(class_of(33), 1);
        assert_eq!(slot_bytes(class_of(100)), 128);
        assert_eq!(class_of(PAGE_SIZE), NUM_CLASSES - 1);
        assert_eq!(slot_bytes(NUM_CLASSES - 1) as usize, PAGE_SIZE);
        assert_eq!(slots_per_page(NUM_CLASSES - 1), 1);
    }

    #[test]
    fn allocate_assigns_distinct_addresses() {
        let p = part();
        let a = p.allocate(100).unwrap();
        let b = p.allocate(100).unwrap();
        assert_ne!(a, b);
        assert_eq!(a.partition(), PartitionId(3));
        assert_eq!(p.object_count(), 2);
        assert_eq!(p.object_size(a), Some(100));
    }

    #[test]
    fn rejects_oversized_objects() {
        let p = part();
        assert!(matches!(
            p.allocate(PAGE_SIZE + 1),
            Err(Error::ObjectTooLarge { .. })
        ));
    }

    #[test]
    fn opens_new_pages_when_full() {
        let p = part();
        let per_page = PAGE_SIZE / 1000;
        for _ in 0..per_page + 1 {
            p.allocate(1000).unwrap();
        }
        assert!(p.page_count() >= 2);
    }

    #[test]
    fn free_then_reuse_same_class_slot() {
        let p = part();
        // 200 and 150 both map to the 256-byte class, so the freed slot is
        // the O(1) free-list head for the second allocation.
        let a = p.allocate(200).unwrap();
        let _b = p.allocate(200).unwrap();
        p.free(a).unwrap();
        let c = p.allocate(150).unwrap();
        assert_eq!(c.page(), a.page());
        assert_eq!(c.offset(), a.offset(), "free-list head reuses the freed slot");
    }

    #[test]
    fn different_classes_never_share_a_page() {
        let p = part();
        let small = p.allocate(100).unwrap(); // 128-byte class
        let big = p.allocate(1000).unwrap(); // 1024-byte class
        assert_ne!(small.page(), big.page());
        // Same class lands on the same page while it has room.
        let small2 = p.allocate(120).unwrap();
        assert_eq!(small.page(), small2.page());
    }

    #[test]
    fn adjacent_free_slots_merge_into_runs() {
        let p = part();
        // Four 128-class objects in slots 0..4; the page tail is one run.
        let a = p.allocate(100).unwrap();
        let b = p.allocate(100).unwrap();
        let c = p.allocate(100).unwrap();
        let _d = p.allocate(100).unwrap();
        p.free(a).unwrap();
        p.free(c).unwrap();
        // Runs: {a}, {c}, {tail}.
        assert_eq!(p.space_stats().free_extents, 3);
        p.free(b).unwrap();
        // a+b+c merge into one run: {a,b,c}, {tail}.
        let st = p.space_stats();
        assert_eq!(st.free_extents, 2, "adjacent free slots form one run");
        assert_eq!(st.free_extent_bytes, (PAGE_SIZE - 128) as u64);
    }

    #[test]
    fn double_free_is_an_error() {
        let p = part();
        let a = p.allocate(64).unwrap();
        p.free(a).unwrap();
        assert!(p.free(a).is_err());
    }

    #[test]
    fn live_objects_enumerates_directory() {
        let p = part();
        let a = p.allocate(64).unwrap();
        let b = p.allocate(64).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.live_objects(), vec![b]);
    }

    #[cfg(any(debug_assertions, feature = "lockdep"))]
    #[test]
    fn snapshot_respects_alloc_before_pages_order() {
        // allocate() establishes the alloc -> pages held-before edge. The
        // old snapshot() held pages while taking alloc, closing an ABBA
        // cycle with any concurrent allocation; lockdep must stay silent on
        // the fixed ordering even with both orders exercised back-to-back.
        let p = part();
        p.allocate(100).unwrap();
        let before = crate::lockdep::violations();
        let _snap = p.snapshot();
        p.allocate(100).unwrap();
        assert_eq!(crate::lockdep::violations(), before);
    }

    #[test]
    fn snapshot_roundtrip_preserves_allocator() {
        let p = part();
        let a = p.allocate(64).unwrap();
        let _b = p.allocate(64).unwrap();
        p.free(a).unwrap();
        let snap = p.snapshot();
        let q = Partition::from_snapshot(&snap);
        assert_eq!(q.object_count(), 1);
        assert_eq!(q.space_stats(), p.space_stats());
        // Allocation continues correctly after restore: the class free
        // list still knows the freed slot.
        let c = q.allocate(64).unwrap();
        assert_eq!(c.offset(), a.offset(), "freed slot is still known");
    }

    #[test]
    fn alloc_at_carves_exact_location() {
        let p = part();
        // Offset 512 is slot 4 of a 128-byte-class page.
        let target = PhysAddr::new(PartitionId(3), 2, 512);
        p.alloc_at(target, 128).unwrap();
        assert_eq!(p.object_size(target), Some(128));
        assert_eq!(p.page_count(), 3, "pages 0..=2 must be opened");
        // Pages 0 and 1 are whole-page spares; page 2 lost one slot.
        let before = p.space_stats().free_extent_bytes;
        assert_eq!(before, 3 * PAGE_SIZE as u64 - 128);
        // Overlapping reservation fails.
        assert!(p.alloc_at(target, 64).is_err());
        // Misaligned for the page's class fails.
        assert!(p
            .alloc_at(PhysAddr::new(PartitionId(3), 2, 500), 64)
            .is_err());
        // Adjacent slot succeeds (64 fits a 128-byte slot).
        p.alloc_at(PhysAddr::new(PartitionId(3), 2, 512 + 128), 64)
            .unwrap();
    }

    #[test]
    fn alloc_at_ahead_of_bump_is_skipped_by_the_cursor() {
        let p = part();
        let a = p.allocate(100).unwrap(); // 128-class, slot 0
        // Claim slot 8 of the same page directly (a recovery redo).
        let target = PhysAddr::new(PartitionId(3), a.page(), 8 * 128);
        p.alloc_at(target, 50).unwrap();
        assert_eq!(p.object_size(target), Some(50));
        // Bump keeps filling slots 1..8, then must skip the claimed slot.
        for expected_slot in 1..8u32 {
            let b = p.allocate(100).unwrap();
            assert_eq!((b.page(), b.offset() as u32), (a.page(), expected_slot * 128));
        }
        let after = p.allocate(100).unwrap();
        assert_eq!(
            (after.page(), after.offset() as u32),
            (a.page(), 9 * 128),
            "bump cursor skips the alloc_at-claimed slot"
        );
    }

    #[test]
    fn alloc_at_adopts_spare_pages_with_the_object_class() {
        let p = part();
        let target = PhysAddr::new(PartitionId(3), 1, 0);
        p.alloc_at(target, 100).unwrap(); // page 1 becomes 128-class
        // Page 0 is a spare: an ordinary allocation adopts it.
        let a = p.allocate(1000).unwrap();
        assert_eq!(a.page(), 0);
        // A second alloc_at misaligned for page 1's class fails.
        assert!(p.alloc_at(PhysAddr::new(PartitionId(3), 1, 200), 100).is_err());
    }

    #[test]
    fn deferred_frees_withhold_reuse() {
        let p = part();
        let a = p.allocate(100).unwrap();
        let _pad = p.allocate(100).unwrap();
        p.free_deferred(a).unwrap();
        assert!(!p.contains_object(a));
        // The slot is not reusable yet: a new allocation must not land on it.
        let b = p.allocate(100).unwrap();
        assert_ne!((b.page(), b.offset()), (a.page(), a.offset()));
        p.flush_deferred_frees();
        let c = p.allocate(100).unwrap();
        assert_eq!((c.page(), c.offset()), (a.page(), a.offset()));
    }

    #[test]
    fn defer_all_withholds_freed_slots_but_not_virgin_tail() {
        let p = part();
        let a = p.allocate(100).unwrap();
        let b = p.allocate(100).unwrap();
        p.free(a).unwrap();
        p.defer_all_free_space();
        // a's slot is withheld; new allocations bump past b instead.
        let c = p.allocate(100).unwrap();
        assert_ne!((c.page(), c.offset()), (a.page(), a.offset()));
        assert_eq!(c.offset() as u32, 2 * 128, "virgin tail stays bump-allocatable");
        p.flush_deferred_frees();
        let d = p.allocate(100).unwrap();
        assert_eq!((d.page(), d.offset()), (a.page(), a.offset()));
        let _ = b;
    }

    #[test]
    fn alloc_at_reclaims_deferred_slot_with_exact_size() {
        let p = part();
        let a = p.allocate(100).unwrap();
        p.free_deferred(a).unwrap();
        // Wrong size: rejected, slot stays withheld.
        assert!(p.alloc_at(a, 64).is_err());
        // Exact size: the rollback path restores the object in place.
        p.alloc_at(a, 100).unwrap();
        assert_eq!(p.object_size(a), Some(100));
    }

    #[test]
    fn emptied_pages_are_reused_across_reorganization_passes() {
        let p = part();
        // 600 objects of the 128-byte class (5 pages) and 40 of the
        // 1024-byte class (3 pages).
        let sizes = |i: usize| if i.is_multiple_of(16) { 1000 } else { 100 };
        let mut objects: Vec<(PhysAddr, usize)> = (0..640)
            .map(|i| (p.allocate(sizes(i)).unwrap(), sizes(i)))
            .collect();
        let mut pages_after = Vec::new();
        for _pass in 0..10 {
            // One compaction pass, as the reorganizer drives the allocator.
            p.defer_all_free_space();
            let copies: Vec<(PhysAddr, usize)> = objects
                .iter()
                .map(|&(_, size)| (p.allocate(size).unwrap(), size))
                .collect();
            for &(old, _) in &objects {
                p.free_deferred(old).unwrap();
            }
            p.flush_deferred_frees();
            assert_eq!(p.allocator_problems(true), Vec::<String>::new());
            objects = copies;
            pages_after.push(p.page_count());
        }
        assert!(
            pages_after[1..].iter().all(|&n| n == pages_after[1]),
            "page count must be flat from the second pass: {pages_after:?}"
        );
        assert_eq!(p.object_count(), 640);
    }

    #[test]
    fn flush_demotes_empty_pages_for_any_class() {
        let p = part();
        let small: Vec<PhysAddr> = (0..3).map(|_| p.allocate(100).unwrap()).collect();
        let keep = p.allocate(1000).unwrap(); // page 1, 1024-byte class
        for a in small {
            p.free(a).unwrap();
        }
        // Freed, not yet flushed: page 0 still belongs to the 128-byte
        // class, so another class has to open a page.
        assert_eq!(p.allocate(10_000).unwrap().page(), 2);
        p.flush_deferred_frees();
        assert_eq!(p.allocator_problems(true), Vec::<String>::new());
        // Demoted: page 0 now serves a class it never had, and the class
        // that lost it starts over elsewhere instead of bumping into it.
        assert_eq!(p.allocate(10_000).unwrap().page(), 0);
        assert_eq!(p.allocate(100).unwrap().page(), 3);
        assert!(p.contains_object(keep));
        assert_eq!(p.page_count(), 4);
    }

    #[test]
    fn alloc_at_readopts_an_empty_page_of_another_class() {
        let p = part();
        let a = p.allocate(100).unwrap(); // page 0 -> 128-byte class
        let b = p.allocate(100).unwrap();
        p.free(a).unwrap();
        let other = PhysAddr::new(PartitionId(3), 0, 1024);
        // Not empty yet: the page keeps its class and the carve is refused.
        assert!(p.alloc_at(other, 1000).is_err());
        p.free(b).unwrap();
        // Empty (and never flushed, as after a REDO of the frees): the
        // page follows the object, as it did when the object was created.
        p.alloc_at(other, 1000).unwrap();
        assert_eq!(p.object_size(other), Some(1000));
        assert_eq!(p.allocator_problems(false), Vec::<String>::new());
        // The 128-byte class lost its open page: it must not bump into it.
        assert_ne!(p.allocate(100).unwrap().page(), 0);
    }

    #[test]
    fn fragmentation_is_per_class_under_bibop() {
        let p = part();
        let mut addrs = Vec::new();
        for _ in 0..50 {
            addrs.push(p.allocate(120).unwrap());
        }
        // Free every other object: 25 isolated one-slot holes.
        for a in addrs.iter().step_by(2) {
            p.free(*a).unwrap();
        }
        let st = p.space_stats();
        assert!(st.free_extents >= 20);
        // A 200-byte object maps to a different class, so it cannot reuse
        // any 128-byte hole — it opens a 256-class page instead (the
        // cross-class fragmentation that still motivates compaction).
        let big = p.allocate(200).unwrap();
        assert!(!addrs.iter().any(|a| a.page() == big.page()));
        assert!(p.space_stats().free_extents >= 20);
        // But a same-class object reuses a hole instead of growing the
        // heap — the anti-fragmentation property the old first-fit scan
        // paid O(n) for.
        let pages_before = p.page_count();
        let small = p.allocate(120).unwrap();
        assert!(addrs.contains(&small), "same-class hole is reused");
        assert_eq!(p.page_count(), pages_before);
    }
}
