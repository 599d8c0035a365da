//! Property tests for restart recovery: for arbitrary scripts of
//! transactions (creates, payload writes, ref edits; committed or aborted)
//! interleaved with single-object reorganization steps (migrate + repoint
//! inside a `ReorgStart..ReorgEnd` window), a crash with a durable tail
//! recovers to *exactly* the state of a reference database that ran the
//! same script — byte-for-byte object images, allocator directories, ERTs.
//! A loser transaction open at crash time is rolled back to the same
//! reference state — and recovery logs for it the very compensation records
//! a live `Txn::abort` logs; a reorganization window open at crash time is
//! reported as interrupted, with its durable checkpoint blob handed back.

use brahma::{
    recover, Database, LockMode, LogPayload, NewObject, PartitionId, PhysAddr, StoreConfig, TxnId,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    /// `wide` objects land in another size class than the rest, so pages
    /// emptied by the script's reorganization steps change hands.
    Create { partition: u8, payload_len: u8, wide: bool },
    SetPayload { obj: usize, byte: u8 },
    InsertRef { parent: usize, child: usize },
    DeleteRef { parent: usize, child: usize },
    SetRef { parent: usize, index: usize, child: usize },
    DeleteObject { obj: usize },
}

#[derive(Debug, Clone)]
enum Step {
    /// A workload transaction: ops + whether it commits.
    Txn(Vec<Op>, bool),
    /// A committed reorganization step: migrate one pooled object within
    /// its partition and repoint every parent, in a reorganization
    /// transaction under an open `ReorgStart..ReorgEnd` window.
    Migrate { obj: usize },
}

#[derive(Debug, Clone)]
struct Script {
    /// Interleaved workload transactions and reorganization steps.
    steps: Vec<Step>,
    /// Ops of a final transaction left open at the crash (loser).
    loser: Vec<Op>,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0u8..2, 0u8..24, any::<bool>())
            .prop_map(|(partition, payload_len, wide)| Op::Create { partition, payload_len, wide }),
        3 => (any::<usize>(), any::<u8>()).prop_map(|(obj, byte)| Op::SetPayload { obj, byte }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(parent, child)| Op::InsertRef { parent, child }),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(parent, child)| Op::DeleteRef { parent, child }),
        3 => (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(parent, index, child)| Op::SetRef { parent, index, child }),
        1 => any::<usize>().prop_map(|obj| Op::DeleteObject { obj }),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (proptest::collection::vec(op_strategy(), 1..8), any::<bool>())
            .prop_map(|(ops, commit)| Step::Txn(ops, commit)),
        1 => any::<usize>().prop_map(|obj| Step::Migrate { obj }),
    ]
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (
        proptest::collection::vec(step_strategy(), 0..12),
        proptest::collection::vec(op_strategy(), 0..6),
    )
        .prop_map(|(steps, loser)| Script { steps, loser })
}

/// Apply one op to a txn, tracking the object pool. Ops on missing objects
/// are skipped deterministically.
fn apply_op(
    txn: &mut brahma::Txn<'_>,
    op: &Op,
    pool: &mut Vec<PhysAddr>,
    dead: &mut Vec<PhysAddr>,
) {
    match op {
        Op::Create {
            partition,
            payload_len,
            wide,
        } => {
            if let Ok(a) = txn.create_object(
                PartitionId(*partition as u16),
                NewObject {
                    tag: 1,
                    refs: vec![],
                    ref_cap: 6,
                    payload: vec![0xAB; *payload_len as usize],
                    payload_cap: if *wide { 4000 } else { 24 },
                },
            ) {
                pool.push(a);
            }
        }
        Op::SetPayload { obj, byte } => {
            if pool.is_empty() {
                return;
            }
            let a = pool[obj % pool.len()];
            if txn.lock(a, LockMode::Exclusive).is_ok() {
                let _ = txn.set_payload(a, &[*byte; 8]);
            }
        }
        Op::InsertRef { parent, child } => {
            if pool.len() < 2 {
                return;
            }
            let p = pool[parent % pool.len()];
            let c = pool[child % pool.len()];
            if p != c && txn.lock(p, LockMode::Exclusive).is_ok() {
                let _ = txn.insert_ref(p, c);
            }
        }
        Op::DeleteRef { parent, child } => {
            if pool.len() < 2 {
                return;
            }
            let p = pool[parent % pool.len()];
            let c = pool[child % pool.len()];
            if txn.lock(p, LockMode::Exclusive).is_ok() {
                let _ = txn.delete_ref(p, c);
            }
        }
        Op::SetRef {
            parent,
            index,
            child,
        } => {
            if pool.len() < 2 {
                return;
            }
            let p = pool[parent % pool.len()];
            let c = pool[child % pool.len()];
            if p != c && txn.lock(p, LockMode::Exclusive).is_ok() {
                let nrefs = txn.read_refs(p).map_or(0, |r| r.len());
                if nrefs > 0 {
                    let _ = txn.set_ref(p, index % nrefs, c);
                }
            }
        }
        Op::DeleteObject { obj } => {
            if pool.is_empty() {
                return;
            }
            let a = pool[obj % pool.len()];
            // Only delete objects nothing points at (keep integrity simple);
            // here we just try and roll with failure.
            if txn.lock(a, LockMode::Exclusive).is_ok() && txn.delete_object(a).is_ok() {
                pool.retain(|x| *x != a);
                dead.push(a);
            }
        }
    }
}

/// A deterministic single-object reorganization step: open the window,
/// copy the object inside its partition, repoint every pooled parent,
/// delete the old copy, close the window — all in one reorg transaction.
/// The pool entry is replaced by the new address. Degenerate picks (empty
/// pool) are skipped deterministically; the step is identical on the
/// reference and the subject, so recovery equivalence covers the reorg
/// log records (Migrate, ReorgStart/End, repoints) too.
fn apply_migrate(db: &Database, obj: usize, pool: &mut [PhysAddr]) {
    if pool.is_empty() {
        return;
    }
    let old = pool[obj % pool.len()];
    let partition = old.partition();
    if db.start_reorg(partition).is_err() {
        return;
    }
    let mut txn = db.begin_reorg(partition);
    let migrated = (|| -> brahma::Result<PhysAddr> {
        txn.lock(old, LockMode::Exclusive)?;
        let image = txn.read(old)?;
        let new = txn.create_object(
            partition,
            NewObject {
                tag: image.tag,
                refs: image.refs.clone(),
                ref_cap: image.ref_cap,
                payload: image.payload.clone(),
                payload_cap: image.payload_cap,
            },
        )?;
        for (i, r) in image.refs.iter().enumerate() {
            if *r == old {
                txn.set_ref(new, i, new)?;
            }
        }
        for &parent in pool.iter() {
            if parent == old {
                continue;
            }
            txn.lock(parent, LockMode::Exclusive)?;
            let refs = txn.read_refs(parent)?;
            for (i, r) in refs.iter().enumerate() {
                if *r == old {
                    txn.set_ref(parent, i, new)?;
                }
            }
        }
        txn.delete_object(old)?;
        Ok(new)
    })();
    match migrated {
        Ok(new) => {
            txn.commit().unwrap();
            for slot in pool.iter_mut() {
                if *slot == old {
                    *slot = new;
                }
            }
        }
        Err(_) => txn.abort(),
    }
    db.end_reorg(partition);
}

/// Run the committed/aborted prefix of the script on a database.
fn run_prefix(db: &Database, script: &Script) -> Vec<PhysAddr> {
    let mut pool = Vec::new();
    let mut dead = Vec::new();
    for step in &script.steps {
        match step {
            Step::Txn(ops, commit) => {
                let before = pool.clone();
                let before_dead_len = dead.len();
                let mut txn = db.begin();
                for op in ops {
                    apply_op(&mut txn, op, &mut pool, &mut dead);
                }
                if *commit {
                    txn.commit().unwrap();
                } else {
                    txn.abort();
                    // Aborted txns contribute nothing to the pool.
                    pool = before;
                    dead.truncate(before_dead_len);
                }
            }
            Step::Migrate { obj } => apply_migrate(db, *obj, &mut pool),
        }
    }
    pool
}

/// Full observable state: every live object image per partition + ERT
/// snapshots.
fn state_dump(db: &Database) -> String {
    let mut out = String::new();
    for pid in db.partition_ids() {
        let mut objs = brahma::sweep::sweep_objects(db, pid);
        objs.sort_by_key(|(a, _)| *a);
        for (a, v) in objs {
            out.push_str(&format!("{a} {v:?}\n"));
        }
        out.push_str(&format!(
            "ERT {:?}\n",
            db.partition(pid).unwrap().ert.snapshot()
        ));
    }
    out
}

/// A fresh two-partition store.
fn two_partitions() -> Database {
    let db = Database::new(StoreConfig::default());
    db.create_partition();
    db.create_partition();
    db
}

/// The update records workload transaction `tid` logged at or after
/// `from`, in log order.
fn updates_of(db: &Database, tid: TxnId, from: u64) -> Vec<LogPayload> {
    db.wal
        .records_from(from)
        .into_iter()
        .filter(|r| r.tid == tid)
        .filter(|r| {
            !matches!(
                r.payload,
                LogPayload::Begin { .. } | LogPayload::Commit | LogPayload::Abort
            )
        })
        .map(|r| r.payload)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn crash_recovery_matches_reference(script in script_strategy()) {
        // Reference: runs the identical script — including the aborted
        // transactions (their allocator effects are part of history) — and
        // aborts the would-be loser, which is semantically what recovery
        // does to it.
        let reference = Database::new(StoreConfig::default());
        reference.create_partition();
        reference.create_partition();
        {
            let mut pool = run_prefix(&reference, &script);
            let mut dead = Vec::new();
            let mut loser = reference.begin();
            for op in &script.loser {
                apply_op(&mut loser, op, &mut pool, &mut dead);
            }
            loser.abort();
        }

        // Subject: same script; the loser transaction is open when the
        // crash hits (with a durable log tail).
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        db.create_partition();
        let ckpt = db.checkpoint(0);
        let mut pool = run_prefix(&db, &script);
        let mut dead = Vec::new();
        let mut loser_txn = db.begin();
        for op in &script.loser {
            apply_op(&mut loser_txn, op, &mut pool, &mut dead);
        }
        let image = db.crash(ckpt, true);
        std::mem::forget(loser_txn); // the crash preempts it
        drop(db);

        let out = recover(image, StoreConfig::default()).unwrap();
        prop_assert_eq!(
            state_dump(&out.db),
            state_dump(&reference),
            "recovered state diverges from the reference"
        );
        prop_assert!(out.losers.len() <= 1);
    }

    /// One rollback, two drivers: the same loser rolled back live by
    /// `Txn::abort` and rolled back by `recover()` after a crash ends in the
    /// same state *and* logs the same compensation records in the same
    /// order.
    #[test]
    fn live_abort_and_recovery_undo_log_the_same_compensations(script in script_strategy()) {
        let live = two_partitions();
        let live_compensations = {
            let mut pool = run_prefix(&live, &script);
            let mut loser = live.begin();
            let tid = loser.id();
            for op in &script.loser {
                apply_op(&mut loser, op, &mut pool, &mut Vec::new());
            }
            let rollback_from = live.wal.next_lsn();
            loser.abort();
            updates_of(&live, tid, rollback_from)
        };

        let db = two_partitions();
        let ckpt = db.checkpoint(0);
        let mut pool = run_prefix(&db, &script);
        let mut loser = db.begin();
        let tid = loser.id();
        for op in &script.loser {
            apply_op(&mut loser, op, &mut pool, &mut Vec::new());
        }
        let forward = updates_of(&db, tid, 0);
        let image = db.crash(ckpt, true);
        let crash_lsn = db.wal.next_lsn();
        std::mem::forget(loser); // the crash preempts it
        drop(db);
        let out = recover(image, StoreConfig::default()).unwrap();

        prop_assert_eq!(state_dump(&out.db), state_dump(&live));
        let recovered_compensations = updates_of(&out.db, tid, crash_lsn);
        prop_assert_eq!(recovered_compensations.len(), forward.len());
        prop_assert_eq!(recovered_compensations, live_compensations);
    }

    /// Without a durable tail, an uncommitted transaction's effects vanish
    /// entirely (nothing to undo, nothing applied).
    #[test]
    fn unflushed_loser_leaves_no_trace(ops in proptest::collection::vec(op_strategy(), 1..8)) {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        db.create_partition();
        // One committed object so later ops have something to chew on.
        let mut setup = db.begin();
        let base = setup
            .create_object(PartitionId(0), NewObject {
                tag: 1, refs: vec![], ref_cap: 6,
                payload: vec![1, 2, 3], payload_cap: 24,
            })
            .unwrap();
        setup.commit().unwrap();
        let ckpt = db.checkpoint(0);
        let reference_dump = state_dump(&db);

        let mut pool = vec![base];
        let mut dead = Vec::new();
        let mut txn = db.begin();
        for op in &ops {
            apply_op(&mut txn, op, &mut pool, &mut dead);
        }
        let image = db.crash(ckpt, false); // only the flushed prefix survives
        std::mem::forget(txn);
        drop(db);
        let out = recover(image, StoreConfig::default()).unwrap();
        prop_assert_eq!(state_dump(&out.db), reference_dump);
    }
}

/// A crash inside an open `ReorgStart..ReorgEnd` window: recovery reports
/// the partition as interrupted and hands back the durable reorganizer
/// checkpoint blob registered with the store.
#[test]
fn crash_inside_open_reorg_window_reports_interruption() {
    let db = Database::new(StoreConfig::default());
    let p0 = db.create_partition();
    db.create_partition();
    let mut setup = db.begin();
    setup
        .create_object(
            p0,
            NewObject {
                tag: 1,
                refs: vec![],
                ref_cap: 6,
                payload: vec![7; 8],
                payload_cap: 24,
            },
        )
        .unwrap();
    setup.commit().unwrap();
    let ckpt = db.checkpoint(0);

    db.start_reorg(p0).unwrap();
    db.save_reorg_checkpoint(p0, vec![0xAA, 0xBB, 0xCC]);
    let image = db.crash(ckpt, true);
    drop(db);

    let out = recover(image, StoreConfig::default()).unwrap();
    assert_eq!(out.interrupted_reorgs, vec![p0]);
    assert_eq!(out.reorg_checkpoints, vec![(p0, vec![0xAA, 0xBB, 0xCC])]);
}

/// One committed reorganization transaction (the caller holds the window
/// open) that copies each of partition 0's parentless `objects` within the
/// partition and deletes the original, leaving the copy's address in its
/// place.
fn relocate_all(db: &Database, objects: &mut [PhysAddr]) {
    let mut pass = db.begin_reorg(PartitionId(0));
    for slot in objects.iter_mut() {
        pass.lock(*slot, LockMode::Exclusive).unwrap();
        let image = pass.read(*slot).unwrap();
        let spec = NewObject {
            tag: image.tag,
            refs: image.refs,
            ref_cap: image.ref_cap,
            payload: image.payload,
            payload_cap: image.payload_cap,
        };
        let copy = pass.create_object(PartitionId(0), spec).unwrap();
        pass.delete_object(*slot).unwrap();
        *slot = copy;
    }
    pass.commit().unwrap();
}

/// Page demotion is not logged. A checkpoint that still shows a page full
/// of one size class, a reorganization pass that empties it (so the flush
/// at its end demotes it), objects of *another* class created on the
/// reused page, a crash: REDO must re-create those objects at addresses
/// the checkpointed class could not have carved.
#[test]
fn recovery_recreates_other_class_objects_on_a_reused_page() {
    let create = |db: &Database, payload_cap: u16| {
        let mut t = db.begin();
        let spec = NewObject {
            tag: 1,
            refs: vec![],
            ref_cap: 2,
            payload: vec![7; 8],
            payload_cap,
        };
        let a = t.create_object(PartitionId(0), spec).unwrap();
        t.commit().unwrap();
        a
    };
    let db = two_partitions();
    // Four objects of the 4096-byte class fill page 0.
    let mut pool: Vec<PhysAddr> = (0..4).map(|_| create(&db, 3000)).collect();
    assert!(pool.iter().all(|a| a.page() == 0));
    let ckpt = db.checkpoint(0);

    // The pass: every object moves off page 0 (its frees are withheld
    // while the pass runs), and `end_reorg` finds the page empty.
    db.start_reorg(PartitionId(0)).unwrap();
    relocate_all(&db, &mut pool);
    db.end_reorg(PartitionId(0));
    assert!(pool.iter().all(|a| a.page() == 1));
    // 1024-byte-class objects take over page 0, at offsets no 4096-byte
    // slot starts at.
    let small: Vec<PhysAddr> = (0..3).map(|_| create(&db, 900)).collect();
    assert_eq!(
        small.iter().map(|a| (a.page(), a.offset())).collect::<Vec<_>>(),
        vec![(0, 0), (0, 1024), (0, 2048)],
        "the emptied page must be reused by the other class"
    );
    let part = db.partition(PartitionId(0)).unwrap();
    assert_eq!(part.page_count(), 2);

    let expected = state_dump(&db);
    let image = db.crash(ckpt, true);
    drop(part);
    drop(db);
    let out = recover(image, StoreConfig::default()).unwrap();
    assert_eq!(state_dump(&out.db), expected);
    let part = out.db.partition(PartitionId(0)).unwrap();
    assert_eq!(part.page_count(), 2);
    assert_eq!(part.allocator_problems(false), Vec::<String>::new());
    brahma::sweep::assert_database_consistent(&out.db);
}

/// A checkpoint taken *mid*-reorganization records the slots the pass has
/// freed so far as withheld. REDO of the pass's `ReorgEnd` must repeat
/// `end_reorg`'s flush, or those slots stay withheld after restart.
#[test]
fn redo_of_reorg_end_releases_what_a_mid_reorg_checkpoint_withheld() {
    let db = two_partitions();
    let mut pool: Vec<PhysAddr> = (0..6)
        .map(|_| {
            let mut t = db.begin();
            let spec = NewObject::exact(1, vec![], vec![7; 8]);
            let a = t.create_object(PartitionId(0), spec).unwrap();
            t.commit().unwrap();
            a
        })
        .collect();
    let mut vacated = pool.clone();
    vacated.sort();
    db.start_reorg(PartitionId(0)).unwrap();
    relocate_all(&db, &mut pool[..3]);
    let ckpt = db.checkpoint(0); // three slots withheld in this snapshot
    relocate_all(&db, &mut pool[3..]);
    db.end_reorg(PartitionId(0));
    let part = db.partition(PartitionId(0)).unwrap();
    let size = part.object_size(pool[0]).unwrap() as usize;
    let expected = (state_dump(&db), part.space_stats());

    let image = db.crash(ckpt, true);
    let out = recover(image, StoreConfig::default()).unwrap();
    assert!(out.interrupted_reorgs.is_empty());
    let part = out.db.partition(PartitionId(0)).unwrap();
    assert_eq!(part.allocator_problems(true), Vec::<String>::new());
    assert_eq!((state_dump(&out.db), part.space_stats()), expected);
    // Same-class allocations reuse every slot the reorganization vacated.
    let mut reused: Vec<PhysAddr> = (0..6).map(|_| part.allocate(size).unwrap()).collect();
    reused.sort();
    assert_eq!(reused, vacated);
}
