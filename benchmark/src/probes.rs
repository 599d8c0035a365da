//! Layer probes: single-thread, fixed-iteration loops over one public
//! function of each layer, on a freshly built dataset. Each reports the
//! median over [`BATCHES`] batches of the per-call time — ROADMAP item 1's
//! layer budget. A probe should move with the span of the same layer, and
//! through it with the end-to-end metric that span feeds.

use crate::stats::median;
use crate::workloads::{setup_once, store_config, ScratchDir};
use brahma::wal::{LogPayload, Wal};
use brahma::{Ert, LockMode, PartitionId, PhysAddr, RefAction, Trt, TxnId};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

pub const PROBES: &[(&str, &str)] = &[
    ("probe.lock.x_pair_ns", "ns"),
    ("probe.lock.s_shared_ns", "ns"),
    ("probe.txn.empty_ns", "ns"),
    ("probe.db.roots_ns", "ns"),
    ("probe.db.fuzzy_read_refs_ns", "ns"),
    ("probe.handle.locked_read_refs_ns", "ns"),
    ("probe.handle.payload_update_ns", "ns"),
    ("probe.handle.set_ref_ns", "ns"),
    ("probe.handle.set_ref_reorg_ns", "ns"),
    ("probe.wal.append_ns", "ns"),
    ("probe.wal.flush_ns", "ns"),
    ("probe.storage.commit_fsync_us", "us"),
    ("probe.trt.note_ns", "ns"),
    ("probe.ert.insert_remove_ns", "ns"),
    ("probe.ira.traversal_us_per_kobj", "us"),
];

const BATCHES: usize = 20;
/// Calls per batch of a nanosecond-scale probe.
const ITERS: usize = 2000;

/// Median over batches of `timed() / calls` in nanoseconds. `timed` runs
/// one batch of `calls` calls and returns the time they took, so set-up
/// around the timed loop stays out of the number.
fn per_call_ns(calls: usize, mut timed: impl FnMut() -> Duration) -> f64 {
    let per_call: Vec<f64> = (0..BATCHES)
        .map(|_| timed().as_nanos() as f64 / calls as f64)
        .collect();
    median(&per_call)
}

fn time(mut body: impl FnMut()) -> Duration {
    let started = Instant::now();
    body();
    started.elapsed()
}

/// [`per_call_ns`] of `call(i)` for `i` in `0..ITERS`, nothing else timed.
fn loop_ns(mut call: impl FnMut(usize)) -> f64 {
    per_call_ns(ITERS, || time(|| (0..ITERS).for_each(&mut call)))
}

/// Run every probe. `scratch` hosts the file-backed store of the fsync
/// probe for as long as that probe runs.
pub fn run(seed: u64, scratch: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let (db, info) = setup_once(seed, None)?;
    let part = info.data_partitions[0];
    let nodes: Vec<PhysAddr> = info.cluster_roots[0].clone();
    let node = |i: usize| nodes[i % nodes.len()];
    // Transaction ids the store never hands out, for driving the lock
    // manager directly.
    let (t1, t2) = (TxnId(u64::MAX - 1), TxnId(u64::MAX - 2));
    let mut out = BTreeMap::new();

    out.insert(
        "probe.lock.x_pair_ns",
        loop_ns(|i| {
            db.locks
                .lock(t1, node(i), LockMode::Exclusive)
                .expect("uncontended");
            db.locks.unlock(t1, node(i));
        }),
    );

    for &a in &nodes {
        db.locks.lock(t2, a, LockMode::Shared).expect("uncontended");
    }
    out.insert(
        "probe.lock.s_shared_ns",
        loop_ns(|i| {
            db.locks
                .lock(t1, node(i), LockMode::Shared)
                .expect("shared with t2");
            db.locks.unlock(t1, node(i));
        }),
    );
    for &a in &nodes {
        db.locks.unlock(t2, a);
    }

    out.insert(
        "probe.txn.empty_ns",
        loop_ns(|_| {
            db.begin().commit().expect("empty commit");
        }),
    );

    out.insert(
        "probe.db.roots_ns",
        loop_ns(|_| {
            black_box(db.roots());
        }),
    );

    out.insert(
        "probe.db.fuzzy_read_refs_ns",
        loop_ns(|i| {
            black_box(db.fuzzy_read_refs(node(i)));
        }),
    );

    out.insert(
        "probe.handle.locked_read_refs_ns",
        per_call_ns(ITERS, || {
            let mut txn = db.begin();
            for &a in &nodes {
                txn.lock(a, LockMode::Shared).expect("uncontended");
            }
            let d = time(|| {
                for i in 0..ITERS {
                    black_box(txn.read_refs(node(i)).expect("locked"));
                }
            });
            txn.commit().expect("read-only commit");
            d
        }),
    );

    let payload = vec![0xA5u8; workload::WorkloadParams::default().payload_size];
    out.insert(
        "probe.handle.payload_update_ns",
        per_call_ns(ITERS, || {
            let mut txn = db.begin();
            txn.lock(node(0), LockMode::Exclusive).expect("uncontended");
            let d = time(|| {
                for _ in 0..ITERS {
                    txn.set_payload(node(0), &payload).expect("X held");
                }
            });
            txn.commit().expect("commit");
            d
        }),
    );

    // Repoint the extra edge of one cluster root between two objects of
    // its own partition (no ERT traffic), first with no reorganization
    // active, then with one: the second pays the TRT notes.
    let last = db.raw_read(node(0)).map_err(|e| e.to_string())?.refs.len() - 1;
    let set_ref_probe = || {
        per_call_ns(ITERS, || {
            let mut txn = db.begin();
            txn.lock(node(0), LockMode::Exclusive).expect("uncontended");
            let d = time(|| {
                for i in 0..ITERS {
                    txn.set_ref(node(0), last, node(1 + i % 2)).expect("X held");
                }
            });
            txn.commit().expect("commit");
            d
        })
    };
    out.insert("probe.handle.set_ref_ns", set_ref_probe());
    db.start_reorg(part).map_err(|e| e.to_string())?;
    out.insert("probe.handle.set_ref_reorg_ns", set_ref_probe());
    db.end_reorg(part);

    let wal = Wal::new(false, Duration::ZERO);
    out.insert(
        "probe.wal.append_ns",
        loop_ns(|_| {
            wal.append(
                t1,
                LogPayload::SetPayload {
                    addr: node(0),
                    old: payload.clone(),
                    new: payload.clone(),
                },
            );
        }),
    );
    // A commit record and the force that follows it, with no device behind.
    out.insert(
        "probe.wal.flush_ns",
        loop_ns(|_| {
            let lsn = wal.append(t1, LogPayload::Commit);
            wal.flush(lsn);
        }),
    );

    out.insert(
        "probe.trt.note_ns",
        per_call_ns(ITERS, || {
            let trt = Trt::new(part);
            time(|| {
                for i in 0..ITERS {
                    trt.note(node(i), node(i + 1), t1, RefAction::Insert);
                }
            })
        }),
    );

    let ert = Ert::new(PartitionId(u16::MAX));
    out.insert(
        "probe.ert.insert_remove_ns",
        loop_ns(|i| {
            ert.insert(node(i), node(i + 1));
            ert.remove(node(i), node(i + 1));
        }),
    );

    let objects = db
        .partition(part)
        .map_err(|e| e.to_string())?
        .object_count();
    out.insert(
        "probe.ira.traversal_us_per_kobj",
        per_call_ns(objects, || {
            time(|| {
                black_box(ira::approx::find_objects_and_approx_parents(&db, part));
            })
        }),
    );
    drop(db);

    // An empty transaction on the file backend: two records and the
    // group-commit leader's fsync.
    const FSYNC_ITERS: usize = 20;
    let dir = ScratchDir::create(scratch.join(format!("probe-{}", std::process::id())))?;
    let durable = brahma::storage::open(store_config(Some(&dir.0)))
        .map_err(|e| format!("open: {e}"))?
        .db;
    out.insert(
        "probe.storage.commit_fsync_us",
        per_call_ns(FSYNC_ITERS, || {
            time(|| {
                for _ in 0..FSYNC_ITERS {
                    durable.begin().commit().expect("durable commit");
                }
            })
        }) / 1e3,
    );
    drop(durable);
    Ok(out)
}
