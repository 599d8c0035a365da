//! Observability integration tests: the substrate counters must tell the
//! paper's contention story. PQR quiesces a partition by exclusively
//! locking every external parent in its ERT, so (a) its lock footprint is
//! at least the ERT's distinct-parent count, and (b) while it runs,
//! essentially every walker is parked on those locks — whereas IRA blocks
//! at most a couple of threads at a time (and deliberately takes the
//! deadlock-timeout hit itself, Section 4.4).

use brahma::{
    fault::site, Database, FaultAction, FaultPlan, FaultRule, LockMode, NewObject, PartitionId,
    PhysAddr, StoreConfig,
};
use ira::{Reorg, Strategy};
use obs::Snapshot;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{build_graph, start_workload, CpuModel, WorkloadParams};

/// No reference churn: the ERT stays stable so its size can be compared
/// against PQR's lock footprint.
fn stable_params() -> WorkloadParams {
    WorkloadParams {
        num_partitions: 3,
        objs_per_partition: 170,
        mpl: 6,
        ref_update_prob: 0.0,
        ..WorkloadParams::default()
    }
}

/// Run `reorg` under workload load and return the substrate counter delta
/// over the reorganization window plus the window's length in µs.
///
/// A lock wait is recorded when it ends, so the delta is read once the
/// walkers have stopped: a wait still in progress when the window closes
/// (every walker PQR parked is, until its commit releases them) counts
/// too. A short lock timeout keeps deadlock-timeout noise (which costs a
/// full timeout per event, on whichever side loses) small relative to the
/// blocking the algorithms *cause*; the CPU model gives the reorganization
/// itself a realistic serial cost, as in the paper's single-CPU runs.
fn counters_under_load(reorg: impl FnOnce(&Database, brahma::PartitionId)) -> (Snapshot, u64) {
    let store = StoreConfig {
        lock_timeout: Duration::from_millis(50),
        ..StoreConfig::default()
    };
    let db = Arc::new(Database::new(store));
    let params = stable_params();
    let info = Arc::new(build_graph(&db, &params).unwrap());
    db.set_cpu_model(Some(Arc::new(CpuModel::new(1, Duration::from_micros(20)))));
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    // Let the walkers reach steady state before the measurement starts.
    std::thread::sleep(Duration::from_millis(50));
    let before = db.obs_snapshot();
    let started = Instant::now();
    reorg(&db, info.data_partitions[0]);
    let window_us = started.elapsed().as_micros().max(1) as u64;
    let metrics = handle.stop_and_join();
    let diff = db.obs_snapshot().diff(&before);
    assert_eq!(metrics.errors, 0, "no walker hit a non-retryable error");
    brahma::sweep::assert_database_consistent(&db);
    (diff, window_us)
}

#[test]
fn pqr_locks_at_least_the_erts_distinct_parents() {
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = stable_params();
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let target = info.data_partitions[0];
    let distinct_parents: HashSet<_> = db
        .partition(target)
        .unwrap()
        .ert
        .snapshot()
        .edges
        .into_iter()
        .map(|(_, parent)| parent)
        .collect();
    assert!(!distinct_parents.is_empty(), "graph has external parents");

    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    let outcome = Reorg::on(&db, target)
        .strategy(Strategy::PartitionQuiesce)
        .run()
        .unwrap();
    handle.stop_and_join();

    let report = outcome.pqr().unwrap();
    assert!(
        report.quiesce_locks >= distinct_parents.len(),
        "PQR held {} quiesce locks but the ERT had {} distinct parents",
        report.quiesce_locks,
        distinct_parents.len()
    );
}

#[test]
fn ira_keeps_fewer_threads_blocked_than_pqr() {
    let (ira_diff, ira_window_us) = counters_under_load(|db, p| {
        let outcome = Reorg::on(db, p).run().unwrap();
        assert_eq!(outcome.migrated(), 170);
    });
    let (pqr_diff, pqr_window_us) = counters_under_load(|db, p| {
        let outcome = Reorg::on(db, p)
            .strategy(Strategy::PartitionQuiesce)
            .run()
            .unwrap();
        assert_eq!(outcome.mapping.len(), 170);
        assert!(outcome.pqr().unwrap().quiesce_locks > 0);
    });

    // PQR holds the partition's entry points exclusively for the whole
    // reorganization: walkers pile up on them and wait.
    assert!(
        pqr_diff.get("lock.waits") > 0,
        "walkers never waited during PQR: {pqr_diff}"
    );

    // The paper's core claim in lock-manager terms. Total wait time alone
    // is window-length-biased (IRA runs longer, and deliberately eats the
    // deadlock timeouts itself), so compare the *average number of blocked
    // threads*: wait-µs accumulated per µs of reorganization window.
    // Observed levels on this workload (40 debug runs, 2 vCPUs): PQR
    // 4.7–6.0 of the 6 walkers parked, IRA 1.4–2.4, which includes the
    // walkers blocking one another; the smallest ratio seen was 2.09.
    let ira_blocked = ira_diff.get("lock.wait_us_sum") as f64 / ira_window_us as f64;
    let pqr_blocked = pqr_diff.get("lock.wait_us_sum") as f64 / pqr_window_us as f64;
    assert!(
        pqr_blocked > 2.0 * ira_blocked,
        "expected PQR to keep >2x more threads blocked than IRA; \
         PQR={pqr_blocked:.2} IRA={ira_blocked:.2}"
    );
}

/// An anchor in `p0` referencing the head of an `n`-object chain in `p1`.
fn chain_fixture(db: &Database, n: usize) -> (PartitionId, PartitionId, PhysAddr) {
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut t = db.begin();
    let mut prev = None;
    for i in 0..n {
        let refs = prev.map(|p| vec![p]).unwrap_or_default();
        prev = Some(
            t.create_object(p1, NewObject::exact(1, refs, vec![i as u8; 8]))
                .unwrap(),
        );
    }
    let anchor = t
        .create_object(p0, NewObject::exact(0, vec![prev.unwrap()], vec![]))
        .unwrap();
    t.commit().unwrap();
    (p0, p1, anchor)
}

/// Injected transient faults on the lock and WAL-flush sites are absorbed
/// by the shared retry policy: the run completes, `retry.attempts` counts
/// the backoffs, and `retry.giveups` stays at zero under the default
/// policy. The fault counters record exactly which sites fired.
#[test]
fn injected_transient_faults_are_retried_to_completion() {
    let db = Database::new(StoreConfig::default());
    let (_p0, p1, _anchor) = chain_fixture(&db, 6);
    db.fault.arm(
        FaultPlan::new(0xFA57)
            .with(FaultRule::burst(
                site::LOCK_ACQUIRE,
                1,
                3,
                FaultAction::Retryable,
            ))
            .with(FaultRule::burst(
                site::WAL_COMMIT_FLUSH,
                1,
                2,
                FaultAction::Retryable,
            )),
    );
    let before = db.obs_snapshot();
    let outcome = Reorg::on(&db, p1)
        .run()
        .expect("transient faults must not kill the reorganization");
    db.fault.disarm();
    let report = outcome.ira().unwrap();
    let mut after = db.obs_snapshot();
    report.export(&mut after);
    let diff = after.diff(&before);

    assert_eq!(outcome.migrated(), 6);
    assert!(
        diff.get("retry.attempts") > 0,
        "injected faults must be retried: {diff}"
    );
    assert_eq!(
        diff.get("retry.giveups"),
        0,
        "the default policy must absorb the burst: {diff}"
    );
    assert!(diff.get("fault.fired.lock.acquire") >= 3, "{diff}");
    assert!(diff.get("fault.fired.wal.commit_flush") >= 2, "{diff}");
    ira::verify::assert_reorganization_clean(&db, report);
}

/// `db.migrations` counts committed migrations only: a batch rolled back
/// by a transient fault at its commit and then retried is counted once.
#[test]
fn rolled_back_batch_is_not_counted_in_db_migrations() {
    let db = Database::new(StoreConfig::default());
    let (_p0, p1, _anchor) = chain_fixture(&db, 6);
    db.fault.arm(FaultPlan::new(0xFA58).with(FaultRule::nth(
        ira::site::MIGRATE_COMMIT,
        1,
        FaultAction::Retryable,
    )));
    let before = db.obs_snapshot();
    let outcome = Reorg::on(&db, p1)
        .batch(4)
        .run()
        .expect("a transient commit fault must not kill the reorganization");
    db.fault.disarm();
    let report = outcome.ira().unwrap();
    let diff = db.obs_snapshot().diff(&before);

    assert!(report.retries >= 1, "the first batch of 4 must roll back");
    assert_eq!(report.migrated(), 6);
    assert_eq!(
        diff.get("db.migrations"),
        report.migrated() as u64,
        "staged moves of the rolled-back batch must not be counted: {diff}"
    );
    ira::verify::assert_reorganization_clean(&db, report);
}

/// An external parent held by a workload transaction makes the batch that
/// must lock it time out and retry (Section 4.4's release-and-retry) until
/// the holder commits; the reorganization still finishes.
#[test]
fn blocked_external_parent_is_retried_to_completion() {
    let store = StoreConfig {
        lock_timeout: Duration::from_millis(5),
        ..StoreConfig::default()
    };
    let db = Arc::new(Database::new(store));
    let (_p0, p1, anchor) = chain_fixture(&db, 6);
    // A blocker parks on the chain's external anchor for 150 ms: the batch
    // that needs to lock it keeps timing out until the blocker commits.
    let db2 = Arc::clone(&db);
    let (held_tx, held_rx) = std::sync::mpsc::channel();
    let blocker = std::thread::spawn(move || {
        let mut t = db2.begin();
        t.lock(anchor, LockMode::Exclusive).unwrap();
        held_tx.send(()).unwrap();
        std::thread::sleep(Duration::from_millis(150));
        t.commit().unwrap();
    });
    held_rx.recv().unwrap();

    let outcome = Reorg::on(&db, p1)
        // The blocker stays open past the start; don't wait the full
        // quiesce period for it.
        .quiesce_wait(Duration::from_millis(30))
        .run()
        .expect("a blocked parent must not kill the reorganization");
    blocker.join().unwrap();
    let report = outcome.ira().unwrap();

    assert_eq!(outcome.migrated(), 6);
    assert!(report.retries >= 1, "the blocked batch must retry");
    brahma::sweep::assert_database_consistent(&db);
}
