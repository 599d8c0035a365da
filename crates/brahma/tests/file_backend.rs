//! File-backend integration: cold restart through `brahma::storage::open`,
//! durability counters in the obs snapshot, and corrupted-checkpoint
//! rejection (DESIGN.md §14).

use brahma::{Error, LockMode, NewObject, PhysAddr, StoreConfig};
use std::path::{Path, PathBuf};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("brahma-fb-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("tmpdir");
    d
}

fn file_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        data_dir: Some(dir.to_path_buf()),
        wal_segment_bytes: 4096, // small segments so rotation actually happens
        ..StoreConfig::default()
    }
}

/// Write a graph, drop the process state, reopen cold: everything the
/// committed transactions created must come back at the same physical
/// addresses with the same bytes.
#[test]
fn cold_restart_roundtrip() {
    let dir = tmpdir("cold");

    let (p0, p1, parent, children) = {
        let out = brahma::storage::open(file_config(&dir)).expect("fresh open");
        assert!(!out.recovered);
        let db = out.db;
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let mut txn = db.begin();
        let mut children = Vec::new();
        for i in 0..20u8 {
            let c = txn
                .create_object(p1, NewObject::exact(i, vec![], vec![i; 32]))
                .expect("create child");
            children.push(c);
        }
        let parent = txn
            .create_object(p0, NewObject::exact(99, children.clone(), b"root".to_vec()))
            .expect("create parent");
        txn.commit().expect("commit");
        db.checkpoint_durable(1).expect("durable checkpoint");

        // More work after the checkpoint — must be recovered from the log.
        let mut txn = db.begin();
        let late = txn
            .create_object(p1, NewObject::exact(7, vec![], b"post-ckpt".to_vec()))
            .expect("create late");
        txn.commit().expect("commit 2");
        let mut c2 = children.clone();
        c2.push(late);
        (p0, p1, parent, c2)
    };

    let out = brahma::storage::open(file_config(&dir)).expect("reopen");
    assert!(out.recovered, "second open must take the recovery path");
    assert!(out.losers.is_empty());
    assert!(out.interrupted_reorgs.is_empty());
    let db = out.db;

    let root = db.raw_read(parent).expect("parent survives");
    assert_eq!(root.tag, 99);
    assert_eq!(root.payload, b"root");
    assert_eq!(root.refs.len(), 20);
    for (i, &c) in children.iter().enumerate() {
        let v = db.raw_read(c).expect("child survives");
        if i < 20 {
            assert_eq!(v.tag, i as u8);
            assert_eq!(v.payload, vec![i as u8; 32]);
        } else {
            assert_eq!(v.payload, b"post-ckpt");
        }
    }
    brahma::sweep::assert_database_consistent(&db);

    // The recovered database keeps working: a third generation of writes
    // and a third open.
    let mut txn = db.begin();
    let g3 = txn
        .create_object(p1, NewObject::exact(3, vec![], b"gen3".to_vec()))
        .expect("gen3 create");
    txn.commit().expect("gen3 commit");
    db.checkpoint_durable(2).expect("ckpt 2");
    drop(db);

    let out = brahma::storage::open(file_config(&dir)).expect("third open");
    assert!(out.recovered);
    assert_eq!(out.db.raw_read(g3).expect("gen3 survives").payload, b"gen3");
    assert!(out.db.raw_read(parent).is_ok());
    let _ = (p0, p1);
    std::fs::remove_dir_all(&dir).ok();
}

/// The obs snapshot of a file-backed database carries all four §8
/// durability counters, and the ones this workload must move, moved.
#[test]
fn durability_counters_exported() {
    let dir = tmpdir("obs");
    let out = brahma::storage::open(file_config(&dir)).expect("open");
    let db = out.db;
    let p = db.create_partition();
    // Enough committed bytes to rotate several 4 KiB segments.
    for i in 0..40u8 {
        let mut txn = db.begin();
        txn.create_object(p, NewObject::exact(i, vec![], vec![i; 200]))
            .expect("create");
        txn.commit().expect("commit");
    }
    let snap = db.obs_snapshot();
    for key in [
        "file.fsyncs",
        "file.bytes_written",
        "wal.segments_rotated",
        "recovery.torn_tail_truncations",
    ] {
        assert!(
            snap.iter().any(|(k, _)| k == key),
            "snapshot missing durability counter {key}"
        );
    }
    assert!(snap.get("file.fsyncs") > 0, "commits must fsync");
    assert!(snap.get("file.bytes_written") > 0);
    assert!(
        snap.get("wal.segments_rotated") > 0,
        "8000+ payload bytes through 4 KiB segments must rotate"
    );
    assert_eq!(snap.get("recovery.torn_tail_truncations"), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// A commit forces the log only if its transaction updated something: a
/// read-only commit issues no fsync, an update commit exactly one.
#[test]
fn only_a_commit_that_updated_forces_the_log() {
    let dir = tmpdir("ro-commit");
    let db = brahma::storage::open(file_config(&dir)).expect("open").db;
    let p = db.create_partition();
    let mut txn = db.begin();
    let a = txn
        .create_object(p, NewObject::exact(1, vec![], vec![1; 8]))
        .expect("create");
    txn.commit().expect("setup commit");
    let fsyncs = || db.obs_snapshot().get("file.fsyncs");

    let before = fsyncs();
    let mut reader = db.begin();
    reader.lock(a, LockMode::Shared).expect("S");
    assert_eq!(reader.read(a).expect("read").payload, vec![1; 8]);
    reader.commit().expect("read-only commit");
    assert_eq!(fsyncs() - before, 0, "a read-only commit forces nothing");

    let before = fsyncs();
    let mut writer = db.begin();
    writer.lock(a, LockMode::Exclusive).expect("X");
    writer.set_payload(a, &[2; 8]).expect("update");
    writer.commit().expect("update commit");
    assert_eq!(fsyncs() - before, 1, "an update commit forces the log once");
    std::fs::remove_dir_all(&dir).ok();
}

/// Creating a segment fsyncs `wal/`, so the new file's directory entry is
/// durable: a fresh store pays one sync for its first segment, and every
/// rotation one more beside the sync that closes the old segment.
#[test]
fn each_segment_created_syncs_the_wal_directory() {
    let dir = tmpdir("wal-dir-sync");
    let db = brahma::storage::open(file_config(&dir)).expect("open").db;
    let fsyncs = || db.obs_snapshot().get("file.fsyncs");
    // The first segment's directory sync: a fresh open writes no
    // checkpoint.
    assert_eq!(fsyncs(), 1);
    let p = db.create_partition();
    let commits = 40;
    for i in 0..commits as u8 {
        let mut txn = db.begin();
        txn.create_object(p, NewObject::exact(i, vec![], vec![i; 200]))
            .expect("create");
        txn.commit().expect("commit");
    }
    let rotated = db.obs_snapshot().get("wal.segments_rotated");
    assert!(rotated > 0, "8000+ payload bytes through 4 KiB segments");
    assert_eq!(fsyncs() - 1, commits + 2 * rotated);
    std::fs::remove_dir_all(&dir).ok();
}

/// A reopen whose log holds nothing past its checkpoint writes no
/// checkpoint: the recovered store is the checkpoint, and its one fsync is
/// the new segment's directory sync. Reopened again, the new segment
/// starts at the LSN the last one did and takes over that file, which
/// holds no record; what is then committed there survives.
#[test]
fn a_reopen_with_nothing_to_replay_keeps_its_checkpoint() {
    let dir = tmpdir("clean-reopen");
    let (p, a) = {
        let db = brahma::storage::open(file_config(&dir)).expect("open").db;
        let p = db.create_partition();
        let mut txn = db.begin();
        let a = txn
            .create_object(p, NewObject::exact(1, vec![], b"kept".to_vec()))
            .expect("create");
        txn.commit().expect("commit");
        db.add_root(a);
        db.checkpoint_durable(1).expect("ckpt");
        (p, a)
    };
    let image = std::fs::read(dir.join("checkpoint.img")).expect("checkpoint");
    let segments = || std::fs::read_dir(dir.join("wal")).expect("wal dir").count();
    for _ in 0..2 {
        let out = brahma::storage::open(file_config(&dir)).expect("reopen");
        assert!(out.recovered);
        assert_eq!(out.db.obs_snapshot().get("file.fsyncs"), 1);
        assert_eq!(out.db.roots(), vec![a]);
        drop(out);
        let kept = std::fs::read(dir.join("checkpoint.img")).expect("checkpoint");
        assert!(
            kept == image,
            "a reopen with an empty log rewrote the checkpoint"
        );
        // The checkpointed segment and the one each reopen starts.
        assert_eq!(segments(), 2);
    }
    // The older segment ends where the checkpoint starts: a reopen does
    // not read it, so garbage in its header goes unnoticed.
    let mut files: Vec<_> = std::fs::read_dir(dir.join("wal"))
        .expect("wal dir")
        .map(|e| e.expect("entry").path())
        .collect();
    files.sort();
    let mut older = std::fs::read(&files[0]).expect("older segment");
    older[..8].copy_from_slice(b"NOTASEGM");
    std::fs::write(&files[0], older).expect("overwrite magic");
    let out = brahma::storage::open(file_config(&dir)).expect("reopen past a superseded segment");
    assert_eq!(out.db.roots(), vec![a]);

    let db = out.db;
    let mut txn = db.begin();
    let b = txn
        .create_object(p, NewObject::exact(2, vec![], b"after".to_vec()))
        .expect("create");
    txn.commit().expect("commit");
    drop(db);
    let out = brahma::storage::open(file_config(&dir)).expect("reopen");
    assert_eq!(out.db.raw_read(a).expect("a").payload, b"kept");
    assert_eq!(out.db.raw_read(b).expect("b").payload, b"after");
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping one byte of `checkpoint.img` must surface as a hard
/// `Error::Corrupt` from `open` — never a panic, never a silently wrong
/// database — and that error is not a retryable conflict.
#[test]
fn corrupted_checkpoint_rejected() {
    let dir = tmpdir("ckpt-corrupt");
    {
        let out = brahma::storage::open(file_config(&dir)).expect("open");
        let db = out.db;
        let p = db.create_partition();
        let mut txn = db.begin();
        txn.create_object(p, NewObject::exact(1, vec![], b"x".to_vec()))
            .expect("create");
        txn.commit().expect("commit");
        db.checkpoint_durable(1).expect("ckpt");
    }
    let path = dir.join("checkpoint.img");
    let mut bytes = std::fs::read(&path).expect("read checkpoint");
    assert!(bytes.len() > 20, "checkpoint file implausibly small");
    bytes[20] ^= 0x01; // one bit, inside the body
    std::fs::write(&path, &bytes).expect("write corrupted");

    let err = match brahma::storage::open(file_config(&dir)) {
        Err(e) => e,
        Ok(_) => panic!("open accepted a checkpoint failing its CRC"),
    };
    assert!(
        matches!(err, Error::Corrupt { .. }),
        "expected Error::Corrupt, got {err}"
    );
    assert!(!err.is_retryable_conflict());
    std::fs::remove_dir_all(&dir).ok();
}

/// Deleting every WAL segment but keeping the checkpoint still opens
/// (checkpoint-bounded REDO with an empty log) — the checkpoint alone is
/// a consistent image. This pins the "checkpoint is self-contained"
/// property the shadow-write protocol provides.
#[test]
fn checkpoint_alone_is_openable() {
    let dir = tmpdir("ckpt-only");
    let addr: PhysAddr;
    {
        let out = brahma::storage::open(file_config(&dir)).expect("open");
        let db = out.db;
        let p = db.create_partition();
        let mut txn = db.begin();
        addr = txn
            .create_object(p, NewObject::exact(5, vec![], b"kept".to_vec()))
            .expect("create");
        txn.commit().expect("commit");
        db.checkpoint_durable(1).expect("ckpt");
    }
    for entry in std::fs::read_dir(dir.join("wal")).expect("wal dir") {
        let path = entry.expect("entry").path();
        if path.extension().is_some_and(|e| e == "wal") {
            std::fs::remove_file(path).expect("drop segment");
        }
    }
    let out = brahma::storage::open(file_config(&dir)).expect("reopen from checkpoint only");
    assert!(out.recovered);
    assert_eq!(out.db.raw_read(addr).expect("object").payload, b"kept");
    std::fs::remove_dir_all(&dir).ok();
}

/// The segment writer's lock order: an append takes the segment writer's
/// one mutex, and nothing is taken while it is held but a fault site's
/// state. `lockdep::ORDER` forbids every other nesting under it, so commit,
/// force, rotation and a durable checkpoint with segment deletion run
/// without a violation.
#[cfg(any(debug_assertions, feature = "lockdep"))]
#[test]
fn segment_writer_is_the_one_append_mutex() {
    let before = brahma::lockdep::violations();
    let dir = tmpdir("lock-order");
    let db = brahma::storage::open(file_config(&dir)).expect("open").db;
    let p = db.create_partition();
    for i in 0..40u8 {
        let mut txn = db.begin();
        txn.create_object(p, NewObject::exact(i, vec![], vec![i; 200]))
            .expect("create");
        txn.commit().expect("commit");
    }
    db.checkpoint_durable(1).expect("ckpt");
    assert!(db.obs_snapshot().get("wal.segments_rotated") > 0);
    assert_eq!(brahma::lockdep::violations(), before);
    std::fs::remove_dir_all(&dir).ok();
}

/// A pass that ended stays ended: the next pass on the same partition,
/// interrupted, comes back open at its own floor, not the first pass's.
#[test]
fn an_interrupted_second_pass_reopens_at_its_own_floor() {
    let dir = tmpdir("second-pass");
    let p = {
        let db = brahma::storage::open(file_config(&dir)).expect("open").db;
        let p = db.create_partition();
        db.start_reorg(p).expect("first pass");
        assert_eq!(db.partition(p).expect("p").pass_floor(), Some(0));
        db.end_reorg(p);
        let mut txn = db.begin();
        txn.create_object(p, NewObject::exact(1, vec![], vec![1]))
            .expect("create");
        txn.commit().expect("commit");
        db.start_reorg(p).expect("second pass");
        p
    }; // the crash: the second pass is open
    let out = brahma::storage::open(file_config(&dir)).expect("reopen");
    assert_eq!(out.interrupted_reorgs, vec![p]);
    assert_eq!(out.db.partition(p).expect("p").pass_floor(), Some(1));
    std::fs::remove_dir_all(&dir).ok();
}
