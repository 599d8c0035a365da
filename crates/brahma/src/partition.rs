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
//!   alternative way to enumerate a partition's objects. It is derived
//!   state: restart reads it back off the page images,
//! * the partition's [`Ert`].
//!
//! Fragmentation still exists (the motivation for compaction, paper
//! Section 1) but takes the BiBOP form: holes are whole slots, reusable
//! only by objects of the same class, so a partition churned by
//! mixed-size allocate/free traffic strands free slots across many pages
//! until a reorganization pass copies its objects above the pass's page
//! floor and drops the pages it emptied.

use crate::addr::{PartitionId, PhysAddr};
use crate::config::PAGE_SIZE;
use crate::error::{Error, Result};
use crate::ert::Ert;
use crate::lockdep::{LockClass, Mutex, RwLock};
use crate::object;
use crate::page::{new_page, PageRef};

/// Smallest size class: 32 bytes (2^5). Objects are ≥ `HEADER_LEN` bytes
/// and the paper's workloads allocate tens-to-hundreds of bytes, so a
/// smaller class would only waste bitmap space.
const MIN_CLASS_SHIFT: u32 = 5;

/// Number of power-of-two size classes: 32, 64, …, `PAGE_SIZE` (one slot).
pub(crate) const NUM_CLASSES: usize = (PAGE_SIZE.trailing_zeros() - MIN_CLASS_SHIFT + 1) as usize;

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

/// Per-page allocation metadata. A page either owns one size class, for
/// as long as the partition holds it, or is a *spare*: opened by `alloc_at`
/// bridging up to a recovery target and not yet committed to any class.
#[derive(Debug, Default)]
struct PageMeta {
    /// Size class owned by this page; `None` for a spare page.
    class: Option<u8>,
    /// Used-slot bitmap (`slots_per_page` bits), set for live objects.
    used: Vec<u64>,
    /// Requested byte size per slot; 0 means "no live object here". Object
    /// sizes are always > 0 (the header alone is 10 bytes), so 0 is an
    /// unambiguous sentinel.
    sizes: Vec<u32>,
}

impl PageMeta {
    fn adopt(&mut self, class: usize) {
        let spp = slots_per_page(class);
        self.class = Some(class as u8);
        self.used = vec![0; spp.div_ceil(64)];
        self.sizes = vec![0; spp];
    }

    /// No slot is live.
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
#[derive(Debug)]
struct AllocState {
    /// Number of the first held page. A pass drops the emptied pages below
    /// it ([`Partition::end_pass`]), and page numbers are never reused, so
    /// `base + page_meta.len()` only grows (and fits a `u32`).
    base: u32,
    /// One entry per held page, parallel to the partition's page vector.
    page_meta: Vec<PageMeta>,
    /// Per-class free-slot stacks: `(page, slot)`. Entries may be stale
    /// (the slot was since claimed by `alloc_at`); `allocate` validates
    /// against the bitmap on pop and discards losers, so pushes never have
    /// to search.
    free_lists: Vec<Vec<(u32, u16)>>,
    /// Per-class bump cursor: `(page, next_slot)` in the class's open page.
    /// Slots ≥ `next_slot` there have never been handed out.
    bump: Vec<Option<(u32, u32)>>,
    /// Spare pages, adopted by the first class that needs a page outside a
    /// pass.
    spare: Vec<u32>,
    /// The running pass's floor (see [`Partition::begin_pass`]).
    floor: Option<u32>,
    /// Live object count.
    live: u64,
    /// Sum of live objects' requested sizes.
    used_bytes: u64,
}

impl AllocState {
    fn new() -> Self {
        AllocState {
            base: 0,
            page_meta: Vec::new(),
            free_lists: vec![Vec::new(); NUM_CLASSES],
            bump: vec![None; NUM_CLASSES],
            spare: Vec::new(),
            floor: None,
            live: 0,
            used_bytes: 0,
        }
    }

    /// One past the last held page: the number the next opened page gets.
    fn end(&self) -> u32 {
        self.base + self.page_meta.len() as u32
    }

    /// Metadata of `page`, if the partition holds it.
    fn meta(&self, page: u32) -> Option<&PageMeta> {
        self.page_meta.get(page.checked_sub(self.base)? as usize)
    }

    /// Metadata of a page known to be held.
    fn at(&mut self, page: u32) -> &mut PageMeta {
        &mut self.page_meta[(page - self.base) as usize]
    }

    /// Look up `(class, slot)` for a live object at `(page, off)`, or
    /// `None` if no live object sits exactly there.
    fn locate_live(&self, page: u32, off: u16) -> Option<(usize, usize)> {
        let meta = self.meta(page)?;
        let class = meta.class? as usize;
        let cs = slot_bytes(class);
        if !(off as u32).is_multiple_of(cs) {
            return None;
        }
        let slot = (off as u32 / cs) as usize;
        (meta.bit(slot) && meta.sizes[slot] > 0).then_some((class, slot))
    }

    /// Record a live object of `size` bytes in `slot` of a held page.
    fn claim(&mut self, page: u32, slot: usize, size: usize) {
        let meta = self.at(page);
        meta.set_bit(slot);
        meta.sizes[slot] = size as u32;
        self.live += 1;
        self.used_bytes += size as u64;
    }

    /// Open a pass at `floor`: the classes' open pages all lie below it.
    fn open_pass(&mut self, floor: u32) {
        self.floor = Some(floor);
        self.bump.fill(None);
    }
}

/// Space statistics for a partition (drives the compaction example and the
/// fragmentation accounting in benches). `free_extents` counts contiguous
/// runs of free slots per page (a fully free page is one extent), so the
/// compaction story — many stranded holes before, few big runs after —
/// reads the same as with the old extent map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpaceStats {
    pub pages: u32,
    pub live_objects: usize,
    pub used_bytes: u64,
    pub free_extent_bytes: u64,
    pub free_extents: usize,
}

/// Snapshot of a partition for checkpointing: only what the pages cannot
/// say. Restart rebuilds the allocator directory from the page images
/// ([`Partition::from_snapshot`]) and the ERTs from the references on them.
pub struct PartitionSnapshot {
    pub id: PartitionId,
    /// Number of the first held page.
    pub base: u32,
    /// The held pages from `base` up: each one's size class (`None` for a
    /// spare) and image.
    pub pages: Vec<(Option<u8>, Vec<u8>)>,
    /// The open pass's floor (see [`Partition::begin_pass`]).
    pub floor: Option<u32>,
}

/// The held pages: `pages[i]` is page `base + i`. The allocator's `base`,
/// mirrored here so a page lookup takes no allocator lock.
#[derive(Default)]
struct PageTable {
    base: u32,
    pages: Vec<PageRef>,
}

/// One database partition.
///
/// Lock hierarchy (enforced by [`crate::lockdep`]): `alloc` before `pages`
/// before any page latch. `allocate`/`alloc_at` hold `alloc` across the
/// page-vector push so no address into a not-yet-published page can exist.
///
/// A reorganization pass brackets its copying with
/// [`Partition::begin_pass`] and [`Partition::end_pass`]: the copies land
/// on fresh pages at or above the pass's floor, and the pages they vacated
/// are dropped, so no address is handed out twice.
pub struct Partition {
    id: PartitionId,
    pages: RwLock<PageTable>,
    alloc: Mutex<AllocState>,
    /// The partition's External Reference Table.
    pub ert: Ert,
}

impl Partition {
    /// Create an empty partition.
    pub fn new(id: PartitionId) -> Self {
        Partition {
            id,
            pages: RwLock::new(LockClass::PartitionPages, id.0 as u64, PageTable::default()),
            alloc: Mutex::new(LockClass::PartitionAlloc, id.0 as u64, AllocState::new()),
            ert: Ert::new(id),
        }
    }

    /// This partition's id.
    pub(crate) fn id(&self) -> PartitionId {
        self.id
    }

    /// Number of pages currently held.
    pub fn page_count(&self) -> u32 {
        self.pages.read().pages.len() as u32
    }

    /// Number of the first held page; every page below it was dropped.
    pub fn page_base(&self) -> u32 {
        self.pages.read().base
    }

    /// Run `f` over the page that `addr` lies on, under the page table's
    /// read guard: the page is borrowed, not cloned out, so an access costs
    /// no reference-count traffic. `PartitionPages` before `PageLatch` is
    /// the declared order, and `f` latches only this one page.
    fn with_page<R>(&self, addr: PhysAddr, f: impl FnOnce(&PageRef) -> R) -> Result<R> {
        let table = self.pages.read();
        let page = addr
            .page()
            .checked_sub(table.base)
            .and_then(|i| table.pages.get(i as usize))
            .ok_or(Error::NoSuchObject(addr))?;
        Ok(f(page))
    }

    /// Run `f` over the bytes of the page `addr` lies on, under its read
    /// latch. `f` must not re-enter the store.
    pub(crate) fn with_page_read<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        self.with_page(addr, |page| f(page.read().bytes()))
    }

    /// Run `f` over the bytes of the page `addr` lies on, under its write
    /// latch. `f` must not re-enter the store.
    pub(crate) fn with_page_write<R>(
        &self,
        addr: PhysAddr,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R> {
        self.with_page(addr, |page| f(page.write().bytes_mut()))
    }

    /// Push a fresh page after the last one. The caller holds `alloc`, so
    /// no address into the page exists before it is published.
    fn push_page(&self, st: &mut AllocState) -> Result<u32> {
        let page = st.end();
        if page == u32::MAX {
            return Err(Error::PartitionFull(self.id.0));
        }
        st.page_meta.push(PageMeta::default());
        self.pages.write().pages.push(new_page());
        Ok(page)
    }

    /// Reserve `size` bytes, registering the object in the directory.
    ///
    /// O(1): pop the head of the size class's free-slot list, or bump the
    /// class's open page. During a pass only the bump runs, on pages the
    /// pass opened. The returned address points at zeroed bytes; the
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
        // Free-list head first, outside a pass. Stale entries (claimed by
        // `alloc_at`) are discarded here.
        while st.floor.is_none() {
            let Some((page, slot)) = st.free_lists[class].pop() else {
                break;
            };
            if st.meta(page).is_some_and(|m| !m.bit(slot as usize)) {
                st.claim(page, slot as usize, size);
                return Ok(PhysAddr::new(self.id, page, (slot as u32 * cs) as u16));
            }
        }
        // Bump into the class's open page, skipping slots `alloc_at`
        // claimed ahead of the cursor (recovery redo lands anywhere).
        loop {
            if let Some((page, next)) = st.bump[class] {
                if (next as usize) < slots_per_page(class) {
                    st.bump[class] = Some((page, next + 1));
                    if st.at(page).bit(next as usize) {
                        continue;
                    }
                    st.claim(page, next as usize, size);
                    return Ok(PhysAddr::new(self.id, page, (next * cs) as u16));
                }
            }
            // Open a page for this class: adopt a spare outside a pass, or
            // push a fresh one.
            let spare = if st.floor.is_none() {
                st.spare.pop()
            } else {
                None
            };
            let page = match spare {
                Some(pg) => pg,
                None => self.push_page(st)?,
            };
            st.at(page).adopt(class);
            st.bump[class] = Some((page, 0));
        }
    }

    /// Reserve `size` bytes at exactly `addr` (restart-recovery redo of a
    /// `Create`, and undo of a `Free`, must restore objects at their
    /// original addresses because stored references point there).
    ///
    /// Every address recovery replays was minted by [`Partition::allocate`],
    /// so it is slot-aligned for the class its size maps to, and a page
    /// keeps its class for as long as it is held; the first `alloc_at` into
    /// a fresh or spare page therefore re-establishes the class the page
    /// had when the object was first created.
    pub(crate) fn alloc_at(&self, addr: PhysAddr, size: usize) -> Result<()> {
        debug_assert_eq!(addr.partition(), self.id);
        if size > PAGE_SIZE || addr.offset() as usize + size > PAGE_SIZE {
            return Err(Error::ObjectTooLarge { bytes: size });
        }
        let page = addr.page();
        let off = addr.offset() as u32;
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        if page < st.base {
            return Err(Error::NoSuchObject(addr));
        }
        // Open pages up to and including the target page; the bridged
        // pages stay spares until someone claims them.
        while st.end() <= page {
            let pg = self.push_page(st)?;
            st.spare.push(pg);
        }
        if st.at(page).class.is_none() {
            st.spare.retain(|&pg| pg != page);
            st.at(page).adopt(class_of(size));
        }
        let meta = st.at(page);
        let Some(class) = meta.class else {
            return Err(Error::NoSuchObject(addr));
        };
        let cs = slot_bytes(class as usize);
        let slot = (off / cs) as usize;
        if !off.is_multiple_of(cs) || size as u32 > cs || meta.bit(slot) {
            // Misaligned for the page's class, too big for its slots, or
            // taken: no such carve is possible.
            return Err(Error::NoSuchObject(addr));
        }
        st.claim(page, slot, size);
        Ok(())
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
        let meta = st.at(addr.page());
        let size = meta.sizes[slot];
        meta.sizes[slot] = 0;
        meta.clear_bit(slot);
        st.free_lists[class].push((addr.page(), slot as u16));
        st.live -= 1;
        st.used_bytes -= size as u64;
        Ok(size)
    }

    /// Open a reorganization pass and return its *floor*, the number the
    /// next fresh page gets. Until [`Partition::end_pass`] the partition
    /// allocates only by bumping pages it opens at or above the floor — no
    /// free list is popped, no spare adopted — so while the pass runs no
    /// address below the floor is handed out. A pass already open (one a
    /// crash interrupted, reopened by REDO or a checkpoint snapshot) keeps
    /// its floor: what it copied sits at or above it, what it has still to
    /// move below.
    pub fn begin_pass(&self) -> u32 {
        let mut st = self.alloc.lock();
        if let Some(floor) = st.floor {
            return floor;
        }
        let floor = st.end();
        st.open_pass(floor);
        floor
    }

    /// The floor of the open pass, if one is open.
    pub fn pass_floor(&self) -> Option<u32> {
        self.alloc.lock().floor
    }

    /// REDO of a `ReorgStart`: reopen the pass at its logged floor.
    pub(crate) fn redo_begin_pass(&self, floor: u32) {
        self.alloc.lock().open_pass(floor);
    }

    /// Close the pass: drop the longest prefix of pages below its floor
    /// that hold no live object, and return the new page base. A pass that
    /// relocated every object leaves no page below its floor.
    pub fn end_pass(&self) -> u32 {
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        let below = st
            .floor
            .take()
            .map_or(0, |floor| floor.saturating_sub(st.base));
        let empty = st
            .page_meta
            .iter()
            .take(below as usize)
            .take_while(|m| m.is_empty());
        let base = st.base + empty.count() as u32;
        self.drop_below(st, base);
        base
    }

    /// REDO of a `ReorgEnd`: close the pass and drop the pages below
    /// `base`, as the live [`Partition::end_pass`] did.
    pub(crate) fn redo_end_pass(&self, base: u32) -> Result<()> {
        let mut guard = self.alloc.lock();
        let st = &mut *guard;
        st.floor = None;
        let held = (base.saturating_sub(st.base) as usize).min(st.page_meta.len());
        if st.page_meta[..held].iter().any(|m| !m.is_empty()) {
            return Err(Error::RecoveryCorrupt(format!(
                "ReorgEnd drops pages of {} below {base} that hold live objects",
                self.id
            )));
        }
        self.drop_below(st, base);
        Ok(())
    }

    /// Drop every held page below `base` (all empty) with its free-list
    /// entries, and move the base up to it.
    fn drop_below(&self, st: &mut AllocState, base: u32) {
        if base <= st.base {
            return;
        }
        let n = ((base - st.base) as usize).min(st.page_meta.len());
        st.page_meta.drain(..n);
        st.base = base;
        st.spare.retain(|&pg| pg >= base);
        st.bump
            .iter_mut()
            .filter(|c| c.is_some_and(|(pg, _)| pg < base))
            .for_each(|c| *c = None);
        for list in &mut st.free_lists {
            list.retain(|&(pg, _)| pg >= base);
        }
        let mut table = self.pages.write();
        table.pages.drain(..n);
        table.base = base;
    }

    /// On-page size of the live object at `addr`, if the directory knows
    /// it — derived from the address alone: page → class → slot.
    pub fn object_size(&self, addr: PhysAddr) -> Option<u32> {
        let st = self.alloc.lock();
        let (_, slot) = st.locate_live(addr.page(), addr.offset())?;
        Some(st.meta(addr.page())?.sizes[slot])
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
        for (meta, pg) in st.page_meta.iter().zip(st.base..) {
            let Some(class) = meta.class else { continue };
            let cs = slot_bytes(class as usize);
            for slot in 0..slots_per_page(class as usize) {
                if meta.bit(slot) && meta.sizes[slot] > 0 {
                    out.push(PhysAddr::new(self.id, pg, (slot as u32 * cs) as u16));
                }
            }
        }
        out
    }

    /// Number of live objects.
    pub fn object_count(&self) -> usize {
        self.alloc.lock().live as usize
    }

    /// Space accounting over the held pages. Free space is counted in
    /// slots.
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
            pages: st.page_meta.len() as u32,
            live_objects: st.live as usize,
            used_bytes: st.used_bytes,
            free_extent_bytes: free_bytes,
            free_extents,
        }
    }

    /// Allocator self-check for the test suites: every violated invariant
    /// of the spare list, the free lists, the bump cursors and the live
    /// accounting, as human-readable strings (empty = pass).
    #[doc(hidden)]
    pub fn allocator_problems(&self) -> Vec<String> {
        let st = self.alloc.lock();
        let mut problems = Vec::new();
        let (mut live, mut used_bytes) = (0u64, 0u64);
        for (meta, pg) in st.page_meta.iter().zip(st.base..) {
            live += meta.sizes.iter().filter(|&&s| s > 0).count() as u64;
            used_bytes += meta.sizes.iter().map(|&s| s as u64).sum::<u64>();
            let listed = st.spare.iter().filter(|&&p| p == pg).count();
            match meta.class {
                None if listed != 1 => {
                    problems.push(format!(
                        "classless page {pg} is listed as spare {listed} times"
                    ));
                }
                Some(_) if listed != 0 => problems.push(format!("classed page {pg} is a spare")),
                _ => {}
            }
        }
        if (live, used_bytes) != (st.live, st.used_bytes) {
            problems.push(format!(
                "directory holds {live} objects / {used_bytes} bytes, counters say {} / {}",
                st.live, st.used_bytes
            ));
        }
        let class_at = |page: u32| st.meta(page).and_then(|m| m.class);
        for (class, list) in st.free_lists.iter().enumerate() {
            for &(page, slot) in list {
                if class_at(page).is_none() {
                    problems.push(format!(
                        "class {class} free list names spare or dropped ({page}, {slot})"
                    ));
                }
            }
            if let Some((page, _)) = st.bump[class] {
                if class_at(page) != Some(class as u8) {
                    problems.push(format!(
                        "class {class} bump cursor names foreign page {page}"
                    ));
                }
                if st.floor.is_some_and(|floor| page < floor) {
                    problems.push(format!(
                        "class {class} bump cursor names page {page}, below the pass floor"
                    ));
                }
            }
        }
        problems
    }

    /// Deep snapshot for checkpointing (taken at a quiescent point).
    pub(crate) fn snapshot(&self) -> PartitionSnapshot {
        // `alloc` before `pages`, the order `allocate`/`alloc_at` take them
        // in (the reverse closes an ABBA cycle with a concurrent
        // allocation; found by lockdep), so the classes and the page list
        // describe the same pages; the images are copied after both go.
        let (base, floor, classes, pages) = {
            let st = self.alloc.lock();
            let classes: Vec<Option<u8>> = st.page_meta.iter().map(|m| m.class).collect();
            (st.base, st.floor, classes, self.pages.read().pages.clone())
        };
        PartitionSnapshot {
            id: self.id,
            base,
            pages: classes
                .into_iter()
                .zip(&pages)
                .map(|(class, page)| (class, page.read().snapshot()))
                .collect(),
            floor,
        }
    }

    /// Rebuild a partition from a snapshot (restart recovery), reading the
    /// directory off the page images: on a classed page, a slot whose
    /// header is live holds an object of the header's size and every other
    /// slot is free; a classless page is a spare. No class has an open
    /// page. A live object larger than its slot is [`Error::Corrupt`].
    pub(crate) fn from_snapshot(snap: &PartitionSnapshot) -> Result<Self> {
        let mut st = AllocState {
            base: snap.base,
            floor: snap.floor,
            ..AllocState::new()
        };
        for ((class, image), pg) in snap.pages.iter().zip(snap.base..) {
            st.page_meta.push(PageMeta::default());
            let Some(class) = class.map(usize::from) else {
                st.spare.push(pg);
                continue;
            };
            st.at(pg).adopt(class);
            let cs = slot_bytes(class) as usize;
            for slot in 0..slots_per_page(class) {
                let addr = PhysAddr::new(snap.id, pg, (slot * cs) as u16);
                match object::header(image, addr).map(|h| h.size()) {
                    Ok(size) if size > cs => {
                        return Err(Error::Corrupt {
                            offset: addr.offset() as u64,
                            reason: format!("{addr} holds {size} bytes in a {cs}-byte slot"),
                        });
                    }
                    Ok(size) => st.claim(pg, slot, size),
                    Err(_) => st.free_lists[class].push((pg, slot as u16)),
                }
            }
        }
        // The free lists pop from the end: the lowest free slot goes first.
        st.free_lists.iter_mut().for_each(|list| list.reverse());
        let p = Partition::new(snap.id);
        {
            let mut table = p.pages.write();
            table.base = snap.base;
            for (_, bytes) in &snap.pages {
                let page = new_page();
                page.write().restore(bytes);
                table.pages.push(page);
            }
        }
        *p.alloc.lock() = st;
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn part() -> Partition {
        Partition::new(PartitionId(3))
    }

    /// Allocate `size` bytes and write an object image there, as a
    /// transaction's `Create` does: a rebuild reads the directory off the
    /// images.
    fn put(p: &Partition, size: usize) -> PhysAddr {
        let addr = p.allocate(size).unwrap();
        let view = crate::object::ObjectView {
            tag: 1,
            refs: Vec::new(),
            ref_cap: 0,
            payload: Vec::new(),
            payload_cap: (size - object::HEADER_LEN) as u16,
        };
        p.with_page_write(addr, |buf| object::init_object(buf, addr, &view))
            .unwrap();
        addr
    }

    /// Scrub the object at `addr` and free its slot, as a `Free` does.
    fn scrub(p: &Partition, addr: PhysAddr) {
        p.with_page_write(addr, |buf| object::mark_free(buf, addr))
            .unwrap()
            .unwrap();
        p.free(addr).unwrap();
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
        assert_eq!(
            c.offset(),
            a.offset(),
            "free-list head reuses the freed slot"
        );
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
        // The declared order is alloc, then pages (an allocation that
        // grows the partition). A snapshot() holding pages while taking
        // alloc would deadlock against a concurrent allocation; lockdep
        // must stay silent with both run back-to-back.
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
        let a = put(&p, 64);
        let _b = put(&p, 64);
        scrub(&p, a);
        let snap = p.snapshot();
        let q = Partition::from_snapshot(&snap).unwrap();
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
            assert_eq!(
                (b.page(), b.offset() as u32),
                (a.page(), expected_slot * 128)
            );
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
        // A second alloc_at misaligned for page 1's class fails, and so
        // does one of another class on a page that no longer holds
        // anything: a page keeps its class while it is held.
        assert!(p
            .alloc_at(PhysAddr::new(PartitionId(3), 1, 200), 100)
            .is_err());
        p.free(target).unwrap();
        assert!(p
            .alloc_at(PhysAddr::new(PartitionId(3), 1, 1024), 1000)
            .is_err());
        assert_eq!(p.allocator_problems(), Vec::<String>::new());
    }

    #[test]
    fn a_pass_allocates_only_above_its_floor() {
        let p = part();
        let a = p.allocate(100).unwrap();
        let b = p.allocate(100).unwrap();
        p.free(a).unwrap(); // free before the pass
        let spare = PhysAddr::new(PartitionId(3), 2, 0);
        p.alloc_at(spare, 100).unwrap(); // page 1 is bridged as a spare
        assert_eq!(p.begin_pass(), 3);
        // Neither the free slot, nor the spare, nor page 0's bump tail:
        // copies go to a fresh page at the floor.
        let copy = p.allocate(100).unwrap();
        assert_eq!((copy.page(), copy.offset()), (3, 0));
        // Beginning the open pass again, as a restart does, keeps its floor.
        assert_eq!((p.begin_pass(), p.pass_floor()), (3, Some(3)));
        // What the pass frees is not reused while it runs, and an undo of
        // the free restores the object in place.
        p.free(b).unwrap();
        assert_eq!(p.allocate(100).unwrap().page(), 3);
        p.alloc_at(b, 100).unwrap();
        assert_eq!(p.allocator_problems(), Vec::<String>::new());
        p.free(b).unwrap();
        p.free(spare).unwrap();
        // Pages 0 and 1 hold nothing, page 2 is empty but classed, and all
        // three are dropped; the free list forgets them.
        assert_eq!(p.end_pass(), 3);
        assert_eq!(p.pass_floor(), None);
        assert_eq!((p.page_base(), p.page_count()), (3, 1));
        assert_eq!(p.allocator_problems(), Vec::<String>::new());
        assert!(!p.contains_object(a) && !p.contains_object(b));
        let next = p.allocate(100).unwrap();
        assert_eq!((next.page(), next.offset()), (3, 256));
    }

    #[test]
    fn end_pass_keeps_pages_from_the_first_live_one_up() {
        let p = part();
        let objs: Vec<PhysAddr> = (0..3).map(|_| p.allocate(PAGE_SIZE).unwrap()).collect();
        p.begin_pass();
        p.free(objs[0]).unwrap();
        p.free(objs[2]).unwrap();
        // Page 0 is dropped; page 1 still holds an object, so page 2 stays
        // although it is empty.
        assert_eq!(p.end_pass(), 1);
        assert_eq!((p.page_base(), p.page_count()), (1, 2));
        assert_eq!(p.live_objects(), vec![objs[1]]);
        // Outside a pass the emptied page 2 takes its class again.
        assert_eq!(p.allocate(PAGE_SIZE).unwrap(), objs[2]);
    }

    #[test]
    fn passes_drop_the_pages_they_empty() {
        let p = part();
        // 600 objects of the 128-byte class (5 pages) and 40 of the
        // 1024-byte class (3 pages).
        let sizes = |i: usize| if i.is_multiple_of(16) { 1000 } else { 100 };
        let mut objects: Vec<(PhysAddr, usize)> = (0..640)
            .map(|i| (p.allocate(sizes(i)).unwrap(), sizes(i)))
            .collect();
        let loaded = p.page_count();
        for _pass in 0..10 {
            // One compaction pass, as the reorganizer drives the allocator.
            let floor = p.begin_pass();
            let copies: Vec<(PhysAddr, usize)> = objects
                .iter()
                .map(|&(_, size)| (p.allocate(size).unwrap(), size))
                .collect();
            assert!(copies.iter().all(|(a, _)| a.page() >= floor));
            for &(old, _) in &objects {
                p.free(old).unwrap();
            }
            assert_eq!(p.end_pass(), floor);
            assert_eq!(p.allocator_problems(), Vec::<String>::new());
            objects = copies;
            assert_eq!(
                p.page_count(),
                loaded,
                "the partition stays its loaded size"
            );
        }
        assert_eq!(p.object_count(), 640);
    }

    #[test]
    fn dropped_pages_report_the_address_asked_for() {
        let p = part();
        let a = p.allocate(100).unwrap();
        let a_off = PhysAddr::new(PartitionId(3), 0, 128);
        p.begin_pass();
        let copy = p.allocate(100).unwrap();
        p.free(a).unwrap();
        p.end_pass();
        for addr in [a, a_off] {
            assert!(
                matches!(p.with_page_read(addr, |_| ()), Err(Error::NoSuchObject(x)) if x == addr)
            );
            assert!(matches!(p.alloc_at(addr, 100), Err(Error::NoSuchObject(x)) if x == addr));
            assert!(!p.contains_object(addr));
        }
        assert!(p.with_page_read(copy, |_| ()).is_ok());
    }

    #[test]
    fn page_numbers_are_finite() {
        // A partition whose base sits two pages below the limit: page
        // numbers u32::MAX - 2 and u32::MAX - 1 are the last it can open.
        let snap = PartitionSnapshot {
            id: PartitionId(3),
            base: u32::MAX - 2,
            pages: Vec::new(),
            floor: None,
        };
        let p = Partition::from_snapshot(&snap).unwrap();
        let pages: Vec<u32> = (0..2)
            .map(|_| p.allocate(PAGE_SIZE).unwrap().page())
            .collect();
        assert_eq!(pages, vec![u32::MAX - 2, u32::MAX - 1]);
        assert_eq!(p.allocate(PAGE_SIZE), Err(Error::PartitionFull(3)));
        assert_eq!(p.allocate(100), Err(Error::PartitionFull(3)));
        let past = PhysAddr::new(PartitionId(3), u32::MAX, 0);
        assert_eq!(p.alloc_at(past, 100), Err(Error::PartitionFull(3)));
        assert_eq!(p.allocator_problems(), Vec::<String>::new());
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

    /// The snapshot codec is lossless and rejects malformed input without
    /// panicking: every truncation and every one-byte change of an encoded
    /// snapshot is tried, and page numbers past `u32` are refused. Every
    /// snapshot that decodes is rebuilt, too: the directory read off its
    /// images is sound, or the rebuild fails `Corrupt`.
    #[test]
    fn snapshot_decode_rejects_malformed_bytes() {
        use crate::storage::codec::{put_partition, read_partition, Reader};
        let decode = |bytes: &[u8]| read_partition(&mut Reader::new(bytes, 0));
        let rebuilt = |bytes: &[u8]| {
            let snap = decode(bytes)?;
            let q = Partition::from_snapshot(&snap)?;
            assert_eq!(q.allocator_problems(), Vec::<String>::new());
            Ok::<_, Error>(q)
        };
        // Page 0 a spare, page 1 emptied by the pass, page 2 holds its copy
        // and one more object.
        let p = part();
        let a = PhysAddr::new(PartitionId(3), 1, 0);
        p.alloc_at(a, 3000).unwrap();
        p.begin_pass();
        let copy = put(&p, 3000);
        put(&p, 2500);
        p.free(a).unwrap();
        let mut bytes = Vec::new();
        put_partition(&mut bytes, &p.snapshot());
        let mut again = Vec::new();
        put_partition(&mut again, &decode(&bytes).unwrap());
        assert_eq!(again, bytes, "canonical roundtrip");
        let q = rebuilt(&bytes).unwrap();
        assert_eq!(q.space_stats(), p.space_stats());
        assert_eq!(q.live_objects(), p.live_objects());
        assert_eq!(q.object_size(copy), Some(3000));

        for len in 0..bytes.len() {
            assert!(
                matches!(decode(&bytes[..len]), Err(Error::Corrupt { .. })),
                "prefix of {len} bytes"
            );
        }
        // id, base, floor and page count take 15 bytes, then each page is
        // its class byte and its image. Page images are opaque to the
        // decoder (one mask per byte there); every other byte gets all 255.
        let image = |at: usize| at >= 15 && !(at - 15).is_multiple_of(1 + PAGE_SIZE);
        let mut refused_images = 0;
        for at in 0..bytes.len() {
            let masks = if image(at) { 0xFF..=0xFF } else { 1..=0xFF };
            for mask in masks {
                let mut flipped = bytes.clone();
                flipped[at] ^= mask;
                if let Err(e) = rebuilt(&flipped) {
                    assert!(
                        matches!(e, Error::Corrupt { .. }),
                        "byte {at} ^ {mask:#x}: {e}"
                    );
                    refused_images += usize::from(image(at));
                }
            }
        }
        assert!(
            refused_images > 0,
            "a header grown past its slot is refused"
        );
        let mut overflow = bytes.clone();
        overflow[2..6].copy_from_slice(&(u32::MAX - 1).to_le_bytes());
        assert!(matches!(decode(&overflow), Err(Error::Corrupt { .. })));
    }
}
