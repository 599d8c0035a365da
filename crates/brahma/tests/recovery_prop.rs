//! Property tests for restart recovery: for arbitrary scripts of
//! transactions (creates, payload writes, ref edits; committed or aborted)
//! interleaved with single-object reorganization steps (migrate + repoint
//! inside a `ReorgStart..ReorgEnd` window, by `Move` or by `Create` and
//! `Free`), a crash with a durable tail
//! recovers to *exactly* the state of a reference database that ran the
//! same script — byte-for-byte object images, allocator directories, ERTs.
//! A loser transaction open at crash time is rolled back to the same
//! reference state a live `Txn::abort` reaches, whose compensation records
//! are the loser's forward records reversed and inverted; a reorganization
//! window open at crash time is reported as interrupted, its pass open
//! again at its logged floor, and the `Move`s of its open reorganizer
//! transaction undone.
//!
//! The crashed store is file-backed: dropping it is the crash, and
//! `brahma::storage::open` the restart. Every record it appended reached its
//! segment file, unless a `file.pwrite` kill stopped the writes.

use brahma::fault::site;
use brahma::storage::{open, scan_segment_file};
use brahma::{
    Database, FaultAction, FaultPlan, FaultRule, LockMode, LogPayload, LogRecord, Lsn, NewObject,
    PartitionId, PhysAddr, StoreConfig, TxnId,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

#[derive(Debug, Clone)]
enum Op {
    /// `wide` objects land in another size class than the rest, so pages
    /// emptied by the script's reorganization steps change hands.
    Create {
        partition: u8,
        payload_len: u8,
        wide: bool,
    },
    SetPayload {
        obj: usize,
        byte: u8,
    },
    InsertRef {
        parent: usize,
        child: usize,
    },
    DeleteRef {
        parent: usize,
        child: usize,
    },
    SetRef {
        parent: usize,
        index: usize,
        child: usize,
    },
    DeleteObject {
        obj: usize,
    },
}

#[derive(Debug, Clone)]
enum Step {
    /// A workload transaction: ops + whether it commits.
    Txn(Vec<Op>, bool),
    /// A committed reorganization step: migrate one pooled object within
    /// its partition and repoint every parent, in a reorganization
    /// transaction under an open `ReorgStart..ReorgEnd` window — by one
    /// `Move` record, or by `Create` and `Free` as a migration that
    /// rewrites the object does.
    Migrate { obj: usize, by_move: bool },
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
        2 => (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| Op::InsertRef { parent, child }),
        2 => (any::<usize>(), any::<usize>())
            .prop_map(|(parent, child)| Op::DeleteRef { parent, child }),
        3 => (any::<usize>(), any::<usize>(), any::<usize>())
            .prop_map(|(parent, index, child)| Op::SetRef { parent, index, child }),
        1 => any::<usize>().prop_map(|obj| Op::DeleteObject { obj }),
    ]
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        4 => (proptest::collection::vec(op_strategy(), 1..8), any::<bool>())
            .prop_map(|(ops, commit)| Step::Txn(ops, commit)),
        1 => (any::<usize>(), any::<bool>())
            .prop_map(|(obj, by_move)| Step::Migrate { obj, by_move }),
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

/// Move `old` within its partition by one `Move` record inside `txn`,
/// then repoint the copy's references to itself and every pooled parent's
/// references to `old`, as the reorganizer does.
fn move_in(
    txn: &mut brahma::Txn<'_>,
    old: PhysAddr,
    pool: &[PhysAddr],
) -> brahma::Result<PhysAddr> {
    txn.lock(old, LockMode::Exclusive)?;
    let new = txn.move_object(old, old.partition())?;
    for parent in std::iter::once(new).chain(pool.iter().copied()) {
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
    Ok(new)
}

/// A deterministic single-object reorganization step: open the window,
/// copy the object inside its partition, repoint every pooled parent,
/// delete the old copy, close the window — all in one reorg transaction.
/// The pool entry is replaced by the new address. Degenerate picks (empty
/// pool) are skipped deterministically; the step is identical on the
/// reference and the subject, so recovery equivalence covers the reorg
/// log records (Move, Create/Free, ReorgStart/End, repoints) too.
fn apply_migrate(db: &Database, obj: usize, by_move: bool, pool: &mut [PhysAddr]) {
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
        if by_move {
            return move_in(&mut txn, old, pool);
        }
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
            Step::Migrate { obj, by_move } => apply_migrate(db, *obj, *by_move, &mut pool),
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

/// A fresh two-partition file-backed store in its own scratch directory,
/// with the config that reopens it. Drop the store to crash it.
fn durable_two_partitions(tag: &str) -> (Database, StoreConfig, PathBuf) {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("brahma-rp-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        data_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let db = open(config.clone()).unwrap().db;
    db.create_partition();
    db.create_partition();
    (db, config, dir)
}

/// Kill the store's process at its next log append: from here on nothing
/// reaches the segment files.
fn kill_at_next_append(db: &Database) {
    let kill = FaultRule::nth(site::FILE_PWRITE, 1, FaultAction::Crash);
    db.fault.arm(FaultPlan::new(0).with(kill));
}

/// Every record in the segment files of the store at `dir`, in LSN order.
fn logged(dir: &Path) -> Vec<LogRecord> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(dir.join("wal"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    segments.sort();
    segments
        .iter()
        .flat_map(|path| scan_segment_file(path, false).unwrap().0)
        .collect()
}

/// The update records transaction `tid` logged at or after `from`, in
/// log order.
fn updates_of(log: &[LogRecord], tid: TxnId, from: Lsn) -> Vec<LogPayload> {
    log.iter()
        .filter(|r| r.tid == tid && r.lsn >= from)
        .filter(|r| {
            !matches!(
                r.payload,
                LogPayload::Begin | LogPayload::Commit | LogPayload::Abort
            )
        })
        .map(|r| r.payload.clone())
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
        // crash hits, its records in the segment file.
        let (db, config, dir) = durable_two_partitions("match");
        let mut pool = run_prefix(&db, &script);
        let mut dead = Vec::new();
        let mut loser_txn = db.begin();
        for op in &script.loser {
            apply_op(&mut loser_txn, op, &mut pool, &mut dead);
        }
        std::mem::forget(loser_txn); // the crash preempts it
        drop(db);

        let out = open(config.clone()).unwrap();
        let recovered = state_dump(&out.db);
        prop_assert_eq!(
            &recovered,
            &state_dump(&reference),
            "recovered state diverges from the reference"
        );
        prop_assert!(out.losers.len() <= 1);

        // recover∘recover = recover: crash the recovered store again with no
        // new work. The second open starts from the checkpoint the first
        // wrote after its undo, reaches the same state and finds no loser.
        drop(out);
        let twice = open(config).unwrap();
        prop_assert_eq!(state_dump(&twice.db), recovered, "a second recovery moved the state");
        prop_assert!(twice.losers.is_empty(), "a second recovery found losers");
        drop(twice);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// One rollback, two drivers: the same loser rolled back live by
    /// `Txn::abort` and rolled back by `recover()` after a crash ends in the
    /// same state, and the compensation records the live abort wrote to its
    /// segment files are the loser's forward records, reversed and inverted.
    #[test]
    fn live_abort_and_recovery_undo_log_the_same_compensations(script in script_strategy()) {
        let (live, _, live_dir) = durable_two_partitions("live-abort");
        let (tid, rollback_from) = {
            let mut pool = run_prefix(&live, &script);
            let mut loser = live.begin();
            for op in &script.loser {
                apply_op(&mut loser, op, &mut pool, &mut Vec::new());
            }
            let tid_and_lsn = (loser.id(), live.wal.next_lsn());
            loser.abort();
            tid_and_lsn
        };
        let live_compensations = updates_of(&logged(&live_dir), tid, rollback_from);

        let (db, config, dir) = durable_two_partitions("undo");
        let mut pool = run_prefix(&db, &script);
        let mut loser = db.begin();
        let tid = loser.id();
        for op in &script.loser {
            apply_op(&mut loser, op, &mut pool, &mut Vec::new());
        }
        std::mem::forget(loser); // the crash preempts it
        drop(db);
        let forward = updates_of(&logged(&dir), tid, 0);
        let inverted: Vec<LogPayload> =
            forward.into_iter().rev().filter_map(LogPayload::inverse).collect();
        prop_assert_eq!(live_compensations, inverted);

        let out = open(config).unwrap();
        prop_assert_eq!(state_dump(&out.db), state_dump(&live));
        drop((out, live));
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&live_dir).unwrap();
    }

    /// A crash in the middle of a pass: the reorganizer's transaction has
    /// logged `Move`s of `picks` (and the repoints that follow each) and
    /// not committed. Recovery undoes every `Move` — the originals come
    /// back in their old slots, below the floor — reaches the state a live
    /// abort reaches, and reports the pass interrupted; a second recovery
    /// changes nothing.
    #[test]
    fn a_crash_mid_pass_rolls_back_move_losers(
        script in script_strategy(),
        picks in proptest::collection::vec(any::<usize>(), 1..5),
    ) {
        // The loser's moves, on whichever store runs them. Returns the
        // partition whose pass is open, with the transaction left open.
        fn moves<'db>(
            db: &'db Database,
            pool: &mut [PhysAddr],
            picks: &[usize],
        ) -> (PartitionId, brahma::Txn<'db>) {
            let partition = pool.first().map_or(PartitionId(0), |a| a.partition());
            db.start_reorg(partition).unwrap();
            let mut txn = db.begin_reorg(partition);
            for &pick in picks {
                let movable: Vec<usize> =
                    (0..pool.len()).filter(|&i| pool[i].partition() == partition).collect();
                if movable.is_empty() {
                    break;
                }
                let i = movable[pick % movable.len()];
                pool[i] = move_in(&mut txn, pool[i], pool).unwrap();
            }
            (partition, txn)
        }

        let reference = Database::new(StoreConfig::default());
        reference.create_partition();
        reference.create_partition();
        let mut pool = run_prefix(&reference, &script);
        let (_, loser) = moves(&reference, &mut pool, &picks);
        loser.abort();

        let (db, config, dir) = durable_two_partitions("mid-pass-move");
        let mut pool = run_prefix(&db, &script);
        let (partition, loser) = moves(&db, &mut pool, &picks);
        let tid = loser.id();
        std::mem::forget(loser); // the crash preempts it
        drop(db);

        let out = open(config.clone()).unwrap();
        prop_assert_eq!(&out.losers, &vec![tid]);
        prop_assert_eq!(&out.interrupted_reorgs, &vec![partition]);
        let recovered = state_dump(&out.db);
        prop_assert_eq!(&recovered, &state_dump(&reference));
        for p in out.db.partition_ids() {
            let problems = out.db.partition(p).unwrap().allocator_problems();
            prop_assert!(problems.is_empty(), "{:?}", problems);
        }
        drop(out);
        let twice = open(config).unwrap();
        prop_assert_eq!(state_dump(&twice.db), recovered, "a second recovery moved the state");
        prop_assert!(twice.losers.is_empty(), "a second recovery found losers");
        prop_assert_eq!(&twice.interrupted_reorgs, &vec![partition]);
        drop(twice);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Without a durable tail, an uncommitted transaction's effects vanish
    /// entirely (nothing to undo, nothing applied).
    #[test]
    fn unflushed_loser_leaves_no_trace(ops in proptest::collection::vec(op_strategy(), 1..8)) {
        let (db, config, dir) = durable_two_partitions("unwritten");
        // One committed object so later ops have something to chew on.
        let mut setup = db.begin();
        let base = setup
            .create_object(PartitionId(0), NewObject {
                tag: 1, refs: vec![], ref_cap: 6,
                payload: vec![1, 2, 3], payload_cap: 24,
            })
            .unwrap();
        setup.commit().unwrap();
        let reference_dump = state_dump(&db);

        kill_at_next_append(&db); // none of the loser's records reach the file
        let mut pool = vec![base];
        let mut dead = Vec::new();
        let mut txn = db.begin();
        for op in &ops {
            apply_op(&mut txn, op, &mut pool, &mut dead);
        }
        std::mem::forget(txn);
        drop(db);
        let out = open(config).unwrap();
        prop_assert!(out.losers.is_empty());
        prop_assert_eq!(state_dump(&out.db), reference_dump);
        drop(out);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A crash inside an open `ReorgStart..ReorgEnd` window: recovery reports
/// the partition as interrupted, with its pass open at the logged floor.
#[test]
fn crash_inside_open_reorg_window_reports_interruption() {
    let (db, config, dir) = durable_two_partitions("window");
    let p0 = PartitionId(0);
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

    db.start_reorg(p0).unwrap();
    let floor = db.partition(p0).unwrap().pass_floor();
    assert_eq!(floor, Some(1));
    drop(db);

    let out = open(config).unwrap();
    assert_eq!(out.interrupted_reorgs, vec![p0]);
    assert_eq!(out.db.partition(p0).unwrap().pass_floor(), floor);
    drop(out);
    std::fs::remove_dir_all(&dir).unwrap();
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

/// What a recovery must reproduce of partition 0: every object image and
/// ERT, the space accounting, and the page base.
fn observed(db: &Database) -> (String, brahma::SpaceStats, u32) {
    let part = db.partition(PartitionId(0)).unwrap();
    assert_eq!(part.allocator_problems(), Vec::<String>::new());
    (state_dump(db), part.space_stats(), part.page_base())
}

/// Reopen the crashed store at `config`, check the result against
/// `expected`, then crash the recovered store with no new work and reopen
/// again: a second recovery reaches the same state.
fn reopen_twice(config: &StoreConfig, expected: &(String, brahma::SpaceStats, u32)) -> Database {
    let out = open(config.clone()).unwrap();
    assert!(out.interrupted_reorgs.is_empty());
    assert_eq!(&observed(&out.db), expected);
    drop(out);
    let twice = open(config.clone()).unwrap();
    assert_eq!(
        &observed(&twice.db),
        expected,
        "a second recovery moved the state"
    );
    brahma::sweep::assert_database_consistent(&twice.db);
    twice.db
}

/// A checkpoint from before a pass: REDO repeats the pass's floor, its
/// copies on the fresh page, and the drop `ReorgEnd` logged, and the
/// objects of another class created after the pass land on a page above
/// the dropped one, in the live run and in REDO alike.
#[test]
fn redo_of_a_pass_drops_the_pages_it_emptied() {
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
    let (db, config, dir) = durable_two_partitions("pass-drop");
    // Four objects of the 4096-byte class fill page 0.
    let mut pool: Vec<PhysAddr> = (0..4).map(|_| create(&db, 3000)).collect();
    assert!(pool.iter().all(|a| a.page() == 0));
    db.checkpoint_durable(1).unwrap();

    // The pass: every object moves above the floor, and `end_reorg` drops
    // the page they left.
    db.start_reorg(PartitionId(0)).unwrap();
    relocate_all(&db, &mut pool);
    db.end_reorg(PartitionId(0));
    assert!(pool.iter().all(|a| a.page() == 1));
    let small: Vec<PhysAddr> = (0..3).map(|_| create(&db, 900)).collect();
    assert!(small.iter().all(|a| a.page() == 2));
    let expected = observed(&db);
    assert_eq!((expected.1.pages, expected.2), (2, 1));

    drop(db);
    drop(reopen_twice(&config, &expected));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint taken *mid*-pass carries the pass's floor, and REDO of
/// the pass's `ReorgEnd` drops what the live `end_reorg` dropped. After
/// restart no allocation hands out an address the pass vacated.
#[test]
fn redo_of_reorg_end_drops_what_a_mid_pass_checkpoint_held() {
    let (db, config, dir) = durable_two_partitions("mid-pass");
    let mut pool: Vec<PhysAddr> = (0..6)
        .map(|_| {
            let mut t = db.begin();
            let spec = NewObject::exact(1, vec![], vec![7; 8]);
            let a = t.create_object(PartitionId(0), spec).unwrap();
            t.commit().unwrap();
            a
        })
        .collect();
    let vacated = pool.clone();
    db.start_reorg(PartitionId(0)).unwrap();
    relocate_all(&db, &mut pool[..3]);
    db.checkpoint_durable(1).unwrap(); // the pass is open in this snapshot
    relocate_all(&db, &mut pool[3..]);
    db.end_reorg(PartitionId(0));
    let part = db.partition(PartitionId(0)).unwrap();
    let size = part.object_size(pool[0]).unwrap() as usize;
    let expected = observed(&db);
    assert_eq!(expected.2, 1, "page 0 is dropped");

    drop((part, db));
    let recovered = reopen_twice(&config, &expected);
    let part = recovered.partition(PartitionId(0)).unwrap();
    for _ in 0..vacated.len() {
        let a = part.allocate(size).unwrap();
        assert!(!vacated.contains(&a), "{a} was vacated by the pass");
    }
    drop((part, recovered));
    std::fs::remove_dir_all(&dir).unwrap();
}
