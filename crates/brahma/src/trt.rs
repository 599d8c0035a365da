//! Temporary Reference Table (TRT).
//!
//! While a reorganization of partition `P` is in progress, every deletion and
//! addition of a reference to an object `O` in `P` is logged in `P`'s TRT as
//! a tuple `(O, R, tid, action)` (Section 3.3). A pointer *delete* must be
//! noted **before** the pointer is removed; pointer *inserts* may be noted
//! after the update but before the updating transaction's lock on `R` is
//! released. The reorganizer consults the table in
//! `Find_Objects_And_Approx_Parents` (to re-traverse from objects whose only
//! reference was cut mid-traversal) and in `Find_Exact_Parents` (to discover
//! parents created or destroyed after the fuzzy traversal).
//!
//! The table is transient: it exists only while a reorganization runs, and
//! Section 4.5's space optimizations purge tuples aggressively under strict
//! 2PL. A crash loses it with the pass; the restarted pass starts a new
//! one at its own `ReorgStart`.

use crate::addr::{AddrMap, PartitionId, PhysAddr};
use crate::lockdep::{LockClass, Mutex};
use crate::txn::TxnId;
use obs::Counter;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Whether a TRT tuple records an insertion or a deletion of a reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RefAction {
    Insert,
    Delete,
}

/// One TRT tuple: a reference to `child` from `parent` was inserted/deleted
/// by transaction `tid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrtTuple {
    pub child: PhysAddr,
    pub parent: PhysAddr,
    pub tid: TxnId,
    pub action: RefAction,
}

/// Counters for one TRT's lifetime (Section 4.5's purge optimizations are
/// a core space claim of the paper; these make their effect measurable).
#[derive(Debug, Default)]
pub struct TrtStats {
    /// Tuples noted (pointer inserts + deletes observed during reorg).
    pub notes: Counter,
    /// Tuples removed by the Section 4.5 purge optimizations.
    pub purged: Counter,
}

/// The tuples the TRT holds about one referenced object.
type TupleList = Vec<(PhysAddr, TxnId, RefAction)>;

/// The Temporary Reference Table of one partition under reorganization.
#[derive(Debug)]
pub struct Trt {
    partition: PartitionId,
    /// referenced object -> tuples about it.
    inner: Mutex<AddrMap<TupleList>>,
    /// Tuples in `inner`, written under its mutex; a purge that reads 0 skips
    /// it. A stale 0 only skips a purge: Section 4.5's purges save space, and
    /// `Find_Exact_Parents` re-checks every tuple under the parent's lock.
    tuples: AtomicUsize,
    /// Lifetime counters.
    pub stats: TrtStats,
}

impl Trt {
    /// Create the (empty) TRT for a reorganization of `partition`.
    pub fn new(partition: PartitionId) -> Self {
        Trt {
            partition,
            inner: Mutex::new(LockClass::TrtInner, partition.0 as u64, AddrMap::default()),
            tuples: AtomicUsize::new(0),
            stats: TrtStats::default(),
        }
    }

    /// The partition this table covers.
    pub fn partition(&self) -> PartitionId {
        self.partition
    }

    /// Note a pointer insert/delete concerning `child`.
    pub fn note(&self, child: PhysAddr, parent: PhysAddr, tid: TxnId, action: RefAction) {
        debug_assert_eq!(child.partition(), self.partition);
        self.stats.notes.inc();
        let mut t = self.inner.lock();
        t.entry(child).or_default().push((parent, tid, action));
        // ordering: Relaxed; written only under `inner`, read by looks_empty
        self.tuples.fetch_add(1, Ordering::Relaxed);
    }

    /// Return (without removing) some tuple whose referenced object is
    /// `child`, if any. `Find_Exact_Parents` peeks a tuple, locks its parent
    /// (a blocking operation that must not hold the table latch), and only
    /// then removes the tuple.
    pub fn peek_for(&self, child: PhysAddr) -> Option<TrtTuple> {
        let t = self.inner.lock();
        t.get(&child).and_then(|v| {
            v.first().map(|&(parent, tid, action)| TrtTuple {
                child,
                parent,
                tid,
                action,
            })
        })
    }

    /// Remove one occurrence of exactly this tuple. Returns whether it was
    /// present.
    pub fn remove_tuple(&self, tuple: &TrtTuple) -> bool {
        let TrtTuple {
            child,
            parent,
            tid,
            action,
        } = *tuple;
        self.remove_first(child, |&e| e == (parent, tid, action))
    }

    /// Remove the first tuple about `child` that `hit` matches.
    fn remove_first(
        &self,
        child: PhysAddr,
        hit: impl FnMut(&(PhysAddr, TxnId, RefAction)) -> bool,
    ) -> bool {
        let mut t = self.inner.lock();
        let Some(v) = t.get_mut(&child) else {
            return false;
        };
        let Some(pos) = v.iter().position(hit) else {
            return false;
        };
        v.remove(pos);
        if v.is_empty() {
            t.remove(&child);
        }
        // ordering: Relaxed; written only under `inner`, read by looks_empty
        self.tuples.fetch_sub(1, Ordering::Relaxed);
        true
    }

    /// Whether any tuple names `child` as its referenced object.
    pub fn has_tuples_for(&self, child: PhysAddr) -> bool {
        self.inner.lock().contains_key(&child)
    }

    /// The *referenced objects* of the TRT: every object some tuple is
    /// about. Drives the re-traversal loop (line L2) of
    /// `Find_Objects_And_Approx_Parents`.
    pub fn referenced_objects(&self) -> Vec<PhysAddr> {
        self.inner.lock().keys().copied().collect()
    }

    /// Section 4.5 optimization, applicable under strict 2PL only: when the
    /// transaction that logged pointer deletes completes, its delete tuples
    /// can be purged (re-insertions by the same transaction were logged as
    /// separate insert tuples, and references cannot be cached across
    /// transaction boundaries).
    ///
    /// Returns the number of tuples purged.
    pub(crate) fn purge_txn_deletes(&self, tid: TxnId) -> usize {
        if self.looks_empty() {
            return 0;
        }
        let mut purged = 0;
        let mut t = self.inner.lock();
        t.retain(|_, v| {
            let before = v.len();
            v.retain(|&(_, id, a)| !(id == tid && a == RefAction::Delete));
            purged += before - v.len();
            !v.is_empty()
        });
        // ordering: Relaxed; written only under `inner`, read by looks_empty
        self.tuples.fetch_sub(purged, Ordering::Relaxed);
        drop(t);
        self.stats.purged.add(purged as u64);
        purged
    }

    /// Section 4.5 companion optimization: when transaction `tid`, which
    /// deleted the reference `parent -> child`, commits, an earlier insert
    /// tuple of that reference can be purged. `tid`'s own insert is kept: it
    /// may be a re-insertion (a same-value `set_ref`) the traversal missed.
    ///
    /// Removes at most one insert tuple; returns whether one was removed.
    pub(crate) fn purge_insert_pair(&self, child: PhysAddr, parent: PhysAddr, tid: TxnId) -> bool {
        let removed = !self.looks_empty()
            && self.remove_first(child, |&(p, id, a)| {
                p == parent && id != tid && a == RefAction::Insert
            });
        if removed {
            self.stats.purged.inc();
        }
        removed
    }

    /// Whether the count reads 0; a thread always sees its own notes.
    fn looks_empty(&self) -> bool {
        // ordering: Relaxed; a stale zero only skips a purge (see `tuples`)
        self.tuples.load(Ordering::Relaxed) == 0
    }

    /// Total number of tuples.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().values().map(Vec::len).sum()
    }

    /// All tuples, sorted.
    pub fn dump(&self) -> Vec<TrtTuple> {
        let t = self.inner.lock();
        let mut out: Vec<TrtTuple> = t
            .iter()
            .flat_map(|(c, v)| {
                v.iter().map(move |&(parent, tid, action)| TrtTuple {
                    child: *c,
                    parent,
                    tid,
                    action,
                })
            })
            .collect();
        out.sort_unstable_by_key(|t| (t.child, t.parent, t.tid.0, t.action as u8));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tuples naming `child`, from the sorted dump.
    fn tuples_for(trt: &Trt, child: PhysAddr) -> Vec<TrtTuple> {
        trt.dump()
            .into_iter()
            .filter(|t| t.child == child)
            .collect()
    }

    fn a(p: u16, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), 0, off)
    }

    #[test]
    fn note_peek_remove() {
        let trt = Trt::new(PartitionId(1));
        let child = a(1, 0);
        let parent = a(2, 8);
        trt.note(child, parent, TxnId(1), RefAction::Delete);
        let t = trt.peek_for(child).unwrap();
        assert_eq!(t.parent, parent);
        assert_eq!(t.action, RefAction::Delete);
        assert!(trt.remove_tuple(&t));
        assert!(!trt.remove_tuple(&t));
        assert_eq!(trt.len(), 0);
    }

    #[test]
    fn duplicate_tuples_accumulate() {
        let trt = Trt::new(PartitionId(1));
        let child = a(1, 0);
        let parent = a(1, 64);
        trt.note(child, parent, TxnId(1), RefAction::Insert);
        trt.note(child, parent, TxnId(1), RefAction::Insert);
        assert_eq!(trt.len(), 2);
        assert!(trt.remove_tuple(&TrtTuple {
            child,
            parent,
            tid: TxnId(1),
            action: RefAction::Insert
        }));
        assert_eq!(trt.len(), 1);
    }

    #[test]
    fn purge_txn_deletes_only_deletes() {
        let trt = Trt::new(PartitionId(1));
        let c = a(1, 0);
        trt.note(c, a(2, 0), TxnId(5), RefAction::Delete);
        trt.note(c, a(2, 8), TxnId(5), RefAction::Insert);
        trt.note(c, a(2, 16), TxnId(6), RefAction::Delete);
        assert_eq!(trt.purge_txn_deletes(TxnId(5)), 1);
        assert_eq!(trt.len(), 2);
        let remaining = tuples_for(&trt, c);
        assert!(remaining
            .iter()
            .any(|t| t.tid == TxnId(5) && t.action == RefAction::Insert));
        assert!(remaining
            .iter()
            .any(|t| t.tid == TxnId(6) && t.action == RefAction::Delete));
    }

    #[test]
    fn purge_txn_deletes_drops_only_emptied_children() {
        let trt = Trt::new(PartitionId(1));
        let (emptied, kept) = (a(1, 0), a(1, 64));
        trt.note(emptied, a(2, 0), TxnId(5), RefAction::Delete);
        trt.note(emptied, a(2, 8), TxnId(5), RefAction::Delete);
        trt.note(kept, a(2, 0), TxnId(5), RefAction::Delete);
        trt.note(kept, a(2, 8), TxnId(6), RefAction::Delete);
        assert_eq!(trt.purge_txn_deletes(TxnId(5)), 3);
        assert_eq!(trt.stats.purged.get(), 3);
        assert!(
            !trt.has_tuples_for(emptied),
            "an emptied list leaves no key"
        );
        assert_eq!(trt.referenced_objects(), vec![kept]);
        assert_eq!(tuples_for(&trt, kept).len(), 1);
    }

    /// Same-seed runs must stay identical, and `referenced_objects` feeds
    /// the traversal in table order: two tables fed the same sequence must
    /// iterate alike (a randomly seeded hasher would not).
    #[test]
    fn same_sequence_same_iteration_order() {
        let feed = |trt: &Trt| {
            for i in 0..200u16 {
                trt.note(a(1, i * 8), a(2, i), TxnId(i as u64 % 7), RefAction::Delete);
            }
            trt.purge_txn_deletes(TxnId(3));
            for i in 0..50u16 {
                trt.note(a(1, i * 24), a(2, i), TxnId(9), RefAction::Insert);
            }
            trt.referenced_objects()
        };
        let order = feed(&Trt::new(PartitionId(1)));
        assert!(order.len() > 100);
        assert_eq!(order, feed(&Trt::new(PartitionId(1))));
    }

    #[test]
    fn purge_insert_pair_removes_one() {
        let trt = Trt::new(PartitionId(1));
        let c = a(1, 0);
        let p = a(2, 0);
        trt.note(c, p, TxnId(1), RefAction::Insert);
        trt.note(c, p, TxnId(2), RefAction::Insert);
        assert!(trt.purge_insert_pair(c, p, TxnId(3)));
        assert_eq!(trt.len(), 1);
        // The committing transaction's own insert stays.
        let own = tuples_for(&trt, c)[0].tid;
        assert!(!trt.purge_insert_pair(c, p, own));
        assert!(trt.purge_insert_pair(c, p, TxnId(3)));
        assert!(!trt.purge_insert_pair(c, p, TxnId(3)));
        assert_eq!(trt.len(), 0);
    }

    #[test]
    fn referenced_objects_lists_children() {
        let trt = Trt::new(PartitionId(1));
        trt.note(a(1, 0), a(2, 0), TxnId(1), RefAction::Delete);
        trt.note(a(1, 64), a(2, 0), TxnId(1), RefAction::Insert);
        let mut objs = trt.referenced_objects();
        objs.sort_unstable();
        assert_eq!(objs, vec![a(1, 0), a(1, 64)]);
    }

    proptest::proptest! {
        /// The lock-free tuple count always equals `len()`, and a purge of
        /// an empty table moves no counter.
        /// A step is (op, child, parent, tid, insert?).
        #[test]
        fn tuple_count_tracks_the_table(steps in proptest::collection::vec(
            (0u8..4, 0u16..4, 0u16..3, 0u64..3, proptest::arbitrary::any::<bool>()),
            0..64,
        )) {
            let trt = Trt::new(PartitionId(1));
            for (op, child, parent, tid, insert) in steps {
                let (child, parent, tid) = (a(1, child * 64), a(2, parent * 8), TxnId(tid));
                let action = if insert { RefAction::Insert } else { RefAction::Delete };
                let (was_empty, purged) = (trt.len() == 0, trt.stats.purged.get());
                match op {
                    0 => trt.note(child, parent, tid, action),
                    1 => {
                        trt.remove_tuple(&TrtTuple { child, parent, tid, action });
                    }
                    2 => {
                        trt.purge_txn_deletes(tid);
                    }
                    _ => {
                        trt.purge_insert_pair(child, parent, tid);
                    }
                }
                proptest::prop_assert_eq!(trt.tuples.load(Ordering::Relaxed), trt.len());
                if was_empty && op >= 2 {
                    proptest::prop_assert_eq!(trt.stats.purged.get(), purged);
                }
            }
        }
    }

    #[test]
    fn dump_is_sorted_and_complete() {
        let trt = Trt::new(PartitionId(1));
        trt.note(a(1, 64), a(2, 0), TxnId(2), RefAction::Insert);
        trt.note(a(1, 0), a(2, 0), TxnId(1), RefAction::Delete);
        let d = trt.dump();
        assert_eq!(d.len(), 2);
        assert!(d[0].child <= d[1].child);
    }
}
