//! Test harness for the `ira` crate's integration tests; no product crate
//! depends on it.
//!
//! * [`cell`] — the crash-cell runner (DESIGN.md §9.2): every fault site ×
//!   Nth-hit stride, on a file-backed store, killed, reopened cold and
//!   resumed.
//! * [`replay`] — schedule controllers over [`brahma::sched`] (DESIGN.md
//!   §12): the gate and PCT exploration.
//! * [`with_repro_banner`] and [`assert_trt_reconstruction_covers`], shared
//!   by the chaos, property and replay tests.

pub mod cell;
pub mod replay;

pub use cell::{run_cell, run_multi_partition_kill, CellReport, CrashCell};
pub use replay::{Gate, PctExplorer};

use brahma::wal::analyzer::{rebuild_trt, rebuild_trt_seeded};
use brahma::{LogPayload, LogRecord, RefAction, TrtTuple, TxnId};
use ira::IraCheckpoint;
use std::collections::HashSet;

/// Run `f`, and if it panics print a one-line `REPRO: {banner}` to stderr
/// before resuming the unwind. Every chaos/property test wraps its assertion-bearing
/// body in this so a flake always leaves its seed and cell coordinates
/// behind — the banner is the re-run command's arguments.
pub fn with_repro_banner<T>(banner: &str, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            eprintln!("REPRO: {banner}");
            std::panic::resume_unwind(payload)
        }
    }
}

/// Assert the seeded TRT reconstruction (checkpoint snapshot + the log at
/// or after `trt_lsn`) is a conservative superset of the from-scratch
/// reconstruction over the whole reorganization window — the equivalence
/// the checkpoint-resume path relies on: duplicates are allowed (the exact
/// parent check discards stale tuples under locks), losses are not.
/// Left out: tuples about objects before the checkpoint's queue position,
/// which `Find_Exact_Parents` consumed, and tuples of transactions begun
/// before the reorganization that ended before its first batch began. Those
/// may have noted before the table existed, and Section 4.5's wait ends
/// them before the traversal; one still running then is checked.
pub fn assert_trt_reconstruction_covers(
    pre_crash_log: &[LogRecord],
    ckpt: &IraCheckpoint,
    purge: bool,
) {
    let start = pre_crash_log
        .iter()
        .position(|r| {
            matches!(&r.payload,
                     LogPayload::ReorgStart { partition, .. } if *partition == ckpt.partition)
        })
        .expect("the surviving log must contain the reorganization start");
    let full = rebuild_trt(&pre_crash_log[start..], ckpt.partition, purge);
    let window: Vec<LogRecord> = pre_crash_log
        .iter()
        .filter(|r| r.lsn >= ckpt.trt_lsn)
        .cloned()
        .collect();
    let seeded = rebuild_trt_seeded(&window, ckpt.partition, purge, &ckpt.trt_snapshot);
    let key = |t: &TrtTuple| {
        (
            t.child.to_raw(),
            t.parent.to_raw(),
            t.tid.0,
            t.action == RefAction::Insert,
        )
    };
    let seeded_keys: HashSet<_> = seeded.dump().iter().map(key).collect();
    let since_start = &pre_crash_log[start..];
    let first_batch = since_start
        .iter()
        .position(|r| {
            r.payload
                == LogPayload::Begin {
                    reorg: Some(ckpt.partition),
                }
        })
        .unwrap_or(since_start.len());
    let begun_after: HashSet<TxnId> = since_start
        .iter()
        .filter(|r| matches!(r.payload, LogPayload::Begin { .. }))
        .map(|r| r.tid)
        .collect();
    let quiesced: HashSet<TxnId> = since_start[..first_batch]
        .iter()
        .filter(|r| {
            matches!(r.payload, LogPayload::Commit | LogPayload::Abort)
                && !begun_after.contains(&r.tid)
        })
        .map(|r| r.tid)
        .collect();
    let done = &ckpt.state.order[..ckpt.pos];
    for t in full
        .dump()
        .into_iter()
        .filter(|t| !quiesced.contains(&t.tid) && !done.contains(&t.child))
    {
        assert!(
            seeded_keys.contains(&key(&t)),
            "seeded TRT reconstruction lost tuple {t:?}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{PartitionId, PhysAddr};
    use ira::RelocationPlan;

    /// A transaction begun before the reorganization whose note raced
    /// `start_reorg` (logged after `ReorgStart`, so absent from the live
    /// table and the checkpoint's snapshot) is excused only if it ended
    /// before the reorganizer's first batch began.
    #[test]
    fn pre_start_transaction_is_excused_only_if_it_ended_before_the_first_batch() {
        let p = PartitionId(1);
        let rec = |lsn, tid, payload| LogRecord {
            lsn,
            tid: TxnId(tid),
            payload,
        };
        let log = |commit_lsn, batch_lsn| {
            let mut log = vec![
                rec(0, 5, LogPayload::Begin { reorg: None }),
                rec(
                    1,
                    0,
                    LogPayload::ReorgStart {
                        partition: p,
                        floor: 0,
                    },
                ),
                rec(
                    2,
                    5,
                    LogPayload::InsertRef {
                        parent: PhysAddr::new(PartitionId(2), 0, 0),
                        child: PhysAddr::new(p, 0, 0),
                        index: 0,
                    },
                ),
                rec(commit_lsn, 5, LogPayload::Commit),
                rec(batch_lsn, 9, LogPayload::Begin { reorg: Some(p) }),
            ];
            log.sort_by_key(|r| r.lsn);
            log
        };
        let ckpt = IraCheckpoint {
            partition: p,
            plan: RelocationPlan::CompactInPlace,
            state: Default::default(),
            mapping: Vec::new(),
            pos: 0,
            trt_snapshot: Vec::new(),
            trt_lsn: 5,
        };
        assert_trt_reconstruction_covers(&log(3, 4), &ckpt, true);
        let still_running = log(4, 3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            assert_trt_reconstruction_covers(&still_running, &ckpt, true)
        }));
        assert!(
            caught.is_err(),
            "a transaction still running at the first batch is checked"
        );
    }
}
