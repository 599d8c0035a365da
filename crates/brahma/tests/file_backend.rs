//! File-backend integration: cold restart through `brahma::storage::open`,
//! durability counters in the obs snapshot, and corrupted-checkpoint
//! rejection (DESIGN.md §14).

use brahma::{Error, NewObject, PhysAddr, StoreConfig};
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

/// The mirror's lock order, as lockdep saw it: appends take the segment
/// writer inside the log mutex, and nothing holding the segment writer
/// goes back for a WAL lock (commit, force, rotation, durable checkpoint
/// and archiving all ran).
#[cfg(any(debug_assertions, feature = "lockdep"))]
#[test]
fn segment_writer_nests_inside_the_log_mutex_only() {
    use brahma::lockdep::LockClass::{self, FileBackend, WalFlushLeader, WalInner, WalPins};
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
    let edges: Vec<(LockClass, LockClass)> = brahma::lockdep::dump_edges()
        .into_iter()
        .map(|(a, b, _)| (a, b))
        .collect();
    assert!(edges.contains(&(WalInner, FileBackend)));
    let back: Vec<_> = edges
        .iter()
        .filter(|e| matches!(e, (FileBackend, WalInner | WalPins | WalFlushLeader)))
        .collect();
    assert!(back.is_empty(), "FileBackend held while taking {back:?}");
    std::fs::remove_dir_all(&dir).ok();
}
