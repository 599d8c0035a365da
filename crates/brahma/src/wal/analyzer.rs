//! TRT reconstruction from the log.
//!
//! Section 3.3 lets the TRT be maintained either by a log-analyzer process
//! or inline by the pointer-update functions (footnote 7); this store does
//! the latter (`Database::note_ref_change`). What remains here is the restart
//! path of Section 4.4 — "the TRT is reconstructed on the basis of the logs
//! generated after the IRA started": scan records in LSN order and note
//! every reference change `LogPayload::for_each_ref_change` enumerates
//! for the partition, with the Section 4.5 purges on commit/abort records.
//! Aborting transactions log compensation records through the ordinary
//! record types, so a linear scan reproduces the inline-maintained table
//! exactly (the test suite compares the two tuple-for-tuple).

use crate::addr::{PartitionId, PhysAddr};
use crate::trt::{RefAction, Trt, TrtTuple};
use crate::txn::TxnId;
use crate::wal::{LogPayload, LogRecord};
use std::collections::HashMap;

/// Scan state of one reconstruction.
struct Scan {
    /// Per active transaction, the (child, parent) pairs it has deleted —
    /// the pair-purge candidates should it commit.
    txn_deletes: HashMap<TxnId, Vec<(PhysAddr, PhysAddr)>>,
    /// Transactions running on behalf of a reorganizer, with the partition
    /// they reorganize; their reference updates concerning *that partition*
    /// are not noted in its TRT (the reorganizer knows its own writes; the
    /// paper ignores new references to `O_new` for the same reason).
    reorg_txns: HashMap<TxnId, PartitionId>,
    /// Whether the scan is inside the partition's `ReorgStart..ReorgEnd`
    /// window: records that predate a reorganization are not pointer
    /// updates "since the reorganization process started" (Section 3.3).
    active: bool,
}

/// Apply one record to the TRT being rebuilt.
fn apply_record(rec: &LogRecord, trt: &Trt, purge: bool, scan: &mut Scan) {
    let partition = trt.partition();
    match &rec.payload {
        LogPayload::Begin { reorg: Some(p) } => {
            scan.reorg_txns.insert(rec.tid, *p);
        }
        LogPayload::ReorgStart { partition: p, .. } if *p == partition => scan.active = true,
        LogPayload::ReorgEnd { partition: p, .. } if *p == partition => scan.active = false,
        LogPayload::Commit | LogPayload::Abort => {
            let deletes = scan.txn_deletes.remove(&rec.tid).unwrap_or_default();
            if purge {
                trt.purge_txn_deletes(rec.tid);
                if rec.payload == LogPayload::Commit {
                    for (child, parent) in deletes {
                        trt.purge_insert_pair(child, parent, rec.tid);
                    }
                }
            }
            scan.reorg_txns.remove(&rec.tid);
        }
        p => {
            // Note unless the update is the transaction's own reorganization
            // work, and only inside the reorganization window.
            let own = scan.reorg_txns.get(&rec.tid) == Some(&partition);
            p.for_each_ref_change(|action, parent, child| {
                if child.partition() != partition {
                    return;
                }
                if !own && scan.active {
                    trt.note(child, parent, rec.tid, action);
                }
                if action == RefAction::Delete {
                    scan.txn_deletes
                        .entry(rec.tid)
                        .or_default()
                        .push((child, parent));
                }
            });
        }
    }
}

/// Rebuild from scratch the TRT of `partition` by scanning `records`
/// (restart recovery, Section 4.4). `records` must start at the LSN the
/// reorganization started at (its `ReorgStart` record) or at the TRT's last
/// checkpoint.
pub fn rebuild_trt(records: &[LogRecord], partition: PartitionId, purge: bool) -> Trt {
    rebuild_trt_seeded(records, partition, purge, &[])
}

/// Rebuild a TRT from a checkpoint of its tuples plus the log records after
/// the checkpoint (Section 4.4: "Optionally, the TRT could also be
/// checkpointed and then only the logs after the checkpoint need to be
/// considered during the TRT reconstruction").
///
/// The checkpoint is taken fuzzily (the log position is captured before the
/// tuple dump), so a tuple may appear both in the seed and in the replayed
/// suffix; duplicates are conservative — `Find_Exact_Parents` verifies and
/// discards them under the parent's lock.
pub fn rebuild_trt_seeded(
    records: &[LogRecord],
    partition: PartitionId,
    purge: bool,
    seed: &[TrtTuple],
) -> Trt {
    let trt = Trt::new(partition);
    for t in seed {
        trt.note(t.child, t.parent, t.tid, t.action);
    }
    let mut scan = Scan {
        txn_deletes: HashMap::new(),
        reorg_txns: HashMap::new(),
        // The caller guarantees the window starts at the reorganization
        // start, so the partition is active from the first record.
        active: true,
    };
    for rec in records {
        apply_record(rec, &trt, purge, &mut scan);
    }
    trt
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(p: u16, off: u16) -> PhysAddr {
        PhysAddr::new(PartitionId(p), 0, off)
    }

    fn rec(lsn: crate::wal::Lsn, tid: u64, payload: LogPayload) -> LogRecord {
        LogRecord {
            lsn,
            tid: TxnId(tid),
            payload,
        }
    }

    #[test]
    fn rebuild_notes_inserts_and_deletes() {
        let records = vec![
            rec(0, 1, LogPayload::Begin { reorg: None }),
            rec(
                1,
                1,
                LogPayload::InsertRef {
                    parent: a(2, 0),
                    child: a(1, 0),
                    index: 0,
                },
            ),
            rec(
                2,
                1,
                LogPayload::DeleteRef {
                    parent: a(2, 8),
                    child: a(1, 64),
                    index: 0,
                },
            ),
        ];
        let trt = rebuild_trt(&records, PartitionId(1), false);
        assert_eq!(trt.len(), 2);
        assert_eq!(trt.peek_for(a(1, 0)).unwrap().action, RefAction::Insert);
        assert_eq!(trt.peek_for(a(1, 64)).unwrap().action, RefAction::Delete);
    }

    #[test]
    fn other_partitions_are_ignored() {
        let records = vec![rec(
            0,
            1,
            LogPayload::InsertRef {
                parent: a(2, 0),
                child: a(3, 0),
                index: 0,
            },
        )];
        let trt = rebuild_trt(&records, PartitionId(1), false);
        assert_eq!(trt.len(), 0);
    }

    #[test]
    fn commit_purges_deletes_and_pairs() {
        let records = vec![
            rec(
                0,
                1,
                LogPayload::InsertRef {
                    parent: a(2, 0),
                    child: a(1, 0),
                    index: 0,
                },
            ),
            rec(
                1,
                2,
                LogPayload::DeleteRef {
                    parent: a(2, 0),
                    child: a(1, 0),
                    index: 0,
                },
            ),
            rec(2, 2, LogPayload::Commit),
        ];
        // With purging: T2's delete tuple is dropped on commit, and the
        // matching insert tuple from T1 is pair-purged.
        let trt = rebuild_trt(&records, PartitionId(1), true);
        assert_eq!(trt.len(), 0, "got {:?}", trt.dump());
        // Without purging both tuples survive.
        let trt = rebuild_trt(&records, PartitionId(1), false);
        assert_eq!(trt.len(), 2);
    }

    #[test]
    fn abort_purges_only_own_deletes() {
        let records = vec![
            rec(
                0,
                1,
                LogPayload::DeleteRef {
                    parent: a(2, 0),
                    child: a(1, 0),
                    index: 0,
                },
            ),
            // Compensation: the abort reinserts the reference (logged as a
            // normal insert), then the abort record itself.
            rec(
                1,
                1,
                LogPayload::InsertRef {
                    parent: a(2, 0),
                    child: a(1, 0),
                    index: 0,
                },
            ),
            rec(2, 1, LogPayload::Abort),
        ];
        let trt = rebuild_trt(&records, PartitionId(1), true);
        // Section 4.5: the reintroduction stays as an insertion; the delete
        // tuple is purged.
        let dump = trt.dump();
        assert_eq!(dump.len(), 1);
        assert_eq!(dump[0].action, RefAction::Insert);
    }

    #[test]
    fn setref_decomposes_into_delete_and_insert() {
        let records = vec![rec(
            0,
            1,
            LogPayload::SetRef {
                parent: a(2, 0),
                index: 0,
                old_child: a(1, 0),
                new_child: a(1, 64),
            },
        )];
        let trt = rebuild_trt(&records, PartitionId(1), false);
        assert_eq!(trt.peek_for(a(1, 0)).unwrap().action, RefAction::Delete);
        assert_eq!(trt.peek_for(a(1, 64)).unwrap().action, RefAction::Insert);
    }

    #[test]
    fn reorg_transactions_do_not_feed_the_trt() {
        let records = vec![
            rec(
                0,
                9,
                LogPayload::Begin {
                    reorg: Some(PartitionId(1)),
                },
            ),
            rec(
                1,
                9,
                LogPayload::SetRef {
                    parent: a(2, 0),
                    index: 0,
                    old_child: a(1, 0),
                    new_child: a(1, 64),
                },
            ),
            rec(2, 9, LogPayload::Commit),
        ];
        let trt = rebuild_trt(&records, PartitionId(1), true);
        assert_eq!(trt.len(), 0);
    }
}
