//! Support for the relaxed-2PL extension (Section 4.1).
//!
//! When workload transactions do not follow strict 2PL, a transaction may
//! have copied a reference out of an object into its local memory and then
//! released the lock. The lock manager therefore tracks, while a
//! reorganization is active, every active transaction that has *ever* held a
//! lock on each object; whenever the reorganizer locks an object it
//! additionally waits for all those transactions to complete, so that
//! "transactions behave as though they were following strict 2PL with
//! respect to the reorganization process".

use brahma::{Database, Error, LockMode, PhysAddr, Result, RetryPolicy, Txn, TxnId};
use std::time::Duration;

/// The settle policy: 300 fixed 100 ms slices — a 30 s bound on the total
/// wait before giving up with a timeout (treated like a lock timeout: the
/// caller releases and retries).
pub const SETTLE_POLICY: RetryPolicy = RetryPolicy::fixed(300, Duration::from_millis(100));

/// Exclusively lock `addr` for the reorganizer and, when history tracking is
/// on, wait for every active transaction that ever held a lock on it.
pub fn lock_and_settle(db: &Database, txn: &mut Txn<'_>, addr: PhysAddr) -> Result<()> {
    txn.lock(addr, LockMode::Exclusive)?;
    settle(db, txn.id(), addr)
}

/// Wait for all other active transactions that ever locked `addr` (no-op
/// under strict 2PL, where tracking is off).
pub fn settle(db: &Database, me: TxnId, addr: PhysAddr) -> Result<()> {
    settle_with(db, me, addr, &SETTLE_POLICY)
}

/// [`settle`] under `policy` (a test tightens it): each exhausted slice
/// re-checks the holder set; policy exhaustion is a lock timeout. The slice
/// wait is performed by [`brahma::txn::TxnManager::wait_for_all`] (a poll
/// interval, not contention backoff), so it is not counted in `retry.*`.
fn settle_with(db: &Database, me: TxnId, addr: PhysAddr, policy: &RetryPolicy) -> Result<()> {
    if !db.locks.history_tracking() {
        return Ok(());
    }
    let mut slices = policy.start();
    loop {
        let others: Vec<TxnId> = db
            .locks
            .ever_holders(addr)
            .into_iter()
            .filter(|t| *t != me && db.txns.is_active(*t))
            .collect();
        if others.is_empty() {
            return Ok(());
        }
        let Some(slice) = slices.next_delay() else {
            return Err(Error::LockTimeout { addr, by: me });
        };
        db.txns.wait_for_all(&others, slice);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use brahma::{NewObject, PartitionId, StoreConfig};
    use std::sync::Arc;
    use std::thread;

    fn relaxed_db() -> Database {
        let config = StoreConfig {
            strict_2pl: false,
            ..StoreConfig::default()
        };
        let db = Database::new(config);
        db.create_partition();
        db
    }

    #[test]
    fn settle_is_noop_without_tracking() {
        let db = Database::new(StoreConfig::default());
        db.create_partition();
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(0), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        t.commit().unwrap();
        let mut rt = db.begin_reorg(PartitionId(0));
        lock_and_settle(&db, &mut rt, a).unwrap();
        rt.commit().unwrap();
    }

    #[test]
    fn settle_waits_for_past_lockers() {
        let db = Arc::new(relaxed_db());
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(0), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        t.commit().unwrap();

        db.start_reorg(PartitionId(0)).unwrap(); // enables tracking

        // A relaxed transaction locks `a`, reads it, releases early, and
        // stays active for a while.
        let db2 = Arc::clone(&db);
        let (tx, rx) = std::sync::mpsc::channel();
        let h = thread::spawn(move || {
            let mut walker = db2.begin();
            walker.lock(a, LockMode::Shared).unwrap();
            let _ = walker.read(a).unwrap();
            walker.early_unlock(a).unwrap();
            tx.send(()).unwrap();
            thread::sleep(Duration::from_millis(200));
            walker.commit().unwrap();
        });
        rx.recv().unwrap();

        // The reorganizer can take the X lock immediately (the walker
        // released it) but settle must wait for the walker to complete.
        let mut rt = db.begin_reorg(PartitionId(0));
        let start = std::time::Instant::now();
        lock_and_settle(&db, &mut rt, a).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "settle must wait for the active past locker"
        );
        rt.commit().unwrap();
        h.join().unwrap();
        db.end_reorg(PartitionId(0));
    }

    #[test]
    fn settle_policy_exhaustion_is_a_lock_timeout() {
        let db = Arc::new(relaxed_db());
        let mut t = db.begin();
        let a = t
            .create_object(PartitionId(0), NewObject::exact(0, vec![], vec![]))
            .unwrap();
        t.commit().unwrap();
        db.start_reorg(PartitionId(0)).unwrap();

        // A relaxed transaction that locked `a`, released it, and stays
        // active until the end of the test.
        let db2 = Arc::clone(&db);
        let (locked_tx, locked_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let h = thread::spawn(move || {
            let mut walker = db2.begin();
            walker.lock(a, LockMode::Shared).unwrap();
            walker.early_unlock(a).unwrap();
            locked_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            walker.commit().unwrap();
        });
        locked_rx.recv().unwrap();

        // A tight test policy exhausts in ~10 ms instead of the default 30 s.
        let tight = RetryPolicy::fixed(2, Duration::from_millis(5));
        let mut rt = db.begin_reorg(PartitionId(0));
        rt.lock(a, LockMode::Exclusive).unwrap();
        let err = settle_with(&db, rt.id(), a, &tight).unwrap_err();
        assert!(matches!(err, Error::LockTimeout { .. }));
        rt.abort();
        release_tx.send(()).unwrap();
        h.join().unwrap();
        db.end_reorg(PartitionId(0));
    }
}
