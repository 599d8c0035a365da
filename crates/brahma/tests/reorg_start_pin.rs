//! `Database::start_reorg` pins the log before it appends the `ReorgStart`
//! marker. Appending first left a window in which another thread's append
//! could truncate the log past the marker, and the TRT window the marker
//! opens (`carry_window`, the restart rebuild) then began at nothing.
//!
//! The schedule controller stops the reorganizing thread at every
//! instrumented point of `start_reorg` and, each time, has a second thread
//! append until its lane checks for truncation. With the pin taken first, the marker
//! survives every one of those points.

#![cfg(debug_assertions)]

use brahma::sched::{self, Controller};
use brahma::{Database, LogPayload, StoreConfig, TxnId};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;

/// Runs a truncating append on the helper thread at every point the
/// reorganizing thread reaches, and waits for it.
struct TruncateAtEveryPoint {
    reorg: ThreadId,
    run: Mutex<(Sender<()>, Receiver<()>)>,
}

impl Controller for TruncateAtEveryPoint {
    fn at_point(&self, _event: &'static str) {
        if std::thread::current().id() == self.reorg {
            let run = self.run.lock().unwrap();
            run.0.send(()).unwrap();
            run.1.recv().unwrap();
        }
    }
}

/// Append on this thread's lane past the lane's share of the log's 65,536
/// records, so that the lane checks for truncation at least once: with
/// nothing pinned, the check drops everything below its own LSN.
fn truncating_append(db: &Database) {
    for id in 0..=(1 << 16) / brahma::wal::LANES as u64 {
        db.wal.append(TxnId(0), LogPayload::Checkpoint { id });
    }
}

#[test]
fn a_truncation_at_any_point_of_start_reorg_keeps_the_marker() {
    let db = Database::new(StoreConfig {
        wal_retain: false,
        ..StoreConfig::default()
    });
    let partition = db.create_partition();
    let (to_helper, requests) = channel::<()>();
    let (done, from_helper) = channel::<()>();
    let points = std::thread::scope(|s| {
        let db = &db;
        let helper = s.spawn(move || {
            let mut points = 0;
            while requests.recv().is_ok() {
                truncating_append(db);
                points += 1;
                done.send(()).unwrap();
            }
            (points, brahma::txn::thread_slot())
        });
        let slot = brahma::txn::thread_slot();
        sched::install_controller(Arc::new(TruncateAtEveryPoint {
            reorg: std::thread::current().id(),
            run: Mutex::new((to_helper, from_helper)),
        }));
        db.start_reorg(partition).unwrap();
        sched::clear_controller();
        let (points, helper_slot) = helper.join().unwrap();
        assert_ne!(slot, helper_slot, "the helper appends on a lane of its own");
        points
    });
    assert!(points >= 3, "only {points} schedule points in start_reorg");
    let marker = db.wal.records_from(0).into_iter().find(
        |r| matches!(r.payload, LogPayload::ReorgStart { partition: p, .. } if p == partition),
    );
    assert!(
        marker.is_some(),
        "a truncation dropped the ReorgStart marker"
    );
    db.end_reorg(partition);
}
