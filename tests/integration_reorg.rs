//! Cross-crate integration tests: the full stack (storage manager + IRA +
//! workload) under concurrent load, checking the DESIGN.md invariants at
//! quiescent points.

use brahma::{Database, Error, LockMode, NewObject, StoreConfig};
use ira::{IraVariant, RelocationPlan, Reorg, Strategy};
use std::sync::Arc;
use std::time::Duration;
use workload::{build_graph, start_workload, WorkloadParams};

fn small_params() -> WorkloadParams {
    WorkloadParams {
        num_partitions: 3,
        objs_per_partition: 170,
        mpl: 6,
        ref_update_prob: 0.3,
        ..WorkloadParams::default()
    }
}

fn run_under_load(
    store: StoreConfig,
    params: WorkloadParams,
    reorg: impl FnOnce(&Database, brahma::PartitionId),
) -> Arc<Database> {
    let db = Arc::new(Database::new(store));
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let setup_commits = db.obs_snapshot().get("db.commits");
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    // "Under load" by construction: the pass starts once a walker has
    // committed, so a fast pass cannot finish before the workload begins.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while db.obs_snapshot().get("db.commits") <= setup_commits {
        assert!(std::time::Instant::now() < deadline, "no walker committed");
        std::thread::sleep(Duration::from_millis(1));
    }
    reorg(&db, info.data_partitions[0]);
    let metrics = handle.stop_and_join();
    assert!(metrics.summarize().committed > 0, "workload made progress");
    brahma::sweep::assert_database_consistent(&db);
    db
}

#[test]
fn ira_basic_under_churning_load() {
    run_under_load(StoreConfig::default(), small_params(), |db, p| {
        let outcome = Reorg::on(db, p).run().unwrap();
        assert_eq!(outcome.migrated(), 170);
    });
}

/// After a completed pass beside the walkers, no address from before the
/// pass names anything: the directory, a latch-only read and a locked read
/// all report the object gone at that address, and no later allocation
/// hands one out again. This is what lets a pass end without waiting out
/// the transactions that may still hold such an address.
#[test]
fn stale_addresses_never_alias_after_a_pass() {
    let mut stale = Vec::new();
    let db = run_under_load(StoreConfig::default(), small_params(), |db, p| {
        stale = db.partition(p).unwrap().live_objects();
        assert_eq!(Reorg::on(db, p).run().unwrap().migrated(), 170);
    });
    let p = stale[0].partition();
    let part = db.partition(p).unwrap();
    assert!(
        stale.iter().all(|a| a.page() < part.page_base()),
        "a pre-pass page survived"
    );
    let mut txn = db.begin();
    for &old in &stale {
        assert!(!part.contains_object(old));
        assert_eq!(db.raw_read(old).unwrap_err(), Error::NoSuchObject(old));
        assert!(db.fuzzy_read_refs(old).is_none());
        txn.lock(old, LockMode::Shared).unwrap();
        assert_eq!(txn.read(old).unwrap_err(), Error::NoSuchObject(old));
    }
    txn.commit().unwrap();
    let mut txn = db.begin();
    for _ in 0..stale.len() {
        let fresh = txn
            .create_object(p, NewObject::exact(1, vec![], vec![0; 40]))
            .unwrap();
        assert!(
            !stale.contains(&fresh),
            "{fresh} was handed out before the pass"
        );
    }
    txn.abort();
}

#[test]
fn ira_two_lock_under_churning_load() {
    run_under_load(StoreConfig::default(), small_params(), |db, p| {
        let outcome = Reorg::on(db, p).variant(IraVariant::TwoLock).run().unwrap();
        assert_eq!(outcome.migrated(), 170);
    });
}

#[test]
fn ira_batched_under_churning_load() {
    run_under_load(StoreConfig::default(), small_params(), |db, p| {
        let outcome = Reorg::on(db, p).batch(16).run().unwrap();
        assert_eq!(outcome.migrated(), 170);
    });
}

#[test]
fn ira_with_relaxed_2pl_workload() {
    let store = StoreConfig {
        strict_2pl: false,
        ..StoreConfig::default()
    };
    run_under_load(store, small_params(), |db, p| {
        let outcome = Reorg::on(db, p).run().unwrap();
        assert_eq!(outcome.migrated(), 170);
    });
}

#[test]
fn ira_evacuation_under_load() {
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = small_params();
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let target = db.create_partition();
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    let outcome = Reorg::on(&db, info.data_partitions[1])
        .plan(RelocationPlan::EvacuateTo(target))
        .run()
        .unwrap();
    handle.stop_and_join();
    assert_eq!(outcome.migrated(), 170);
    assert_eq!(
        db.partition(info.data_partitions[1])
            .unwrap()
            .object_count(),
        0
    );
    assert_eq!(db.partition(target).unwrap().object_count(), 170);
    brahma::sweep::assert_database_consistent(&db);
}

#[test]
fn pqr_under_churning_load() {
    run_under_load(StoreConfig::default(), small_params(), |db, p| {
        let outcome = Reorg::on(db, p)
            .strategy(Strategy::PartitionQuiesce)
            .run()
            .unwrap();
        assert_eq!(outcome.mapping.len(), 170);
    });
}

#[test]
fn successive_reorganizations_of_all_partitions() {
    // Reorganize every data partition in turn under load; the graph keeps
    // its shape throughout.
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = small_params();
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);
    for &p in &info.data_partitions {
        let outcome = Reorg::on(&db, p).run().unwrap();
        assert_eq!(outcome.migrated(), 170, "partition {p}");
    }
    handle.stop_and_join();
    brahma::sweep::assert_database_consistent(&db);
    for &p in &info.data_partitions {
        assert_eq!(db.partition(p).unwrap().object_count(), 170);
        assert_eq!(
            brahma::sweep::reachable_in_partition(&db, p).len(),
            170,
            "all objects of {p} remain reachable"
        );
    }
}

#[test]
fn reorganizing_the_root_partition_offline() {
    // The paper keeps the persistent root in its own partition; reorganizing
    // that partition on an idle store (PQR, whose parent locks are then
    // uncontended) must update the root registry.
    let db = Database::new(StoreConfig::default());
    let params = WorkloadParams {
        num_partitions: 2,
        objs_per_partition: 85,
        ..WorkloadParams::default()
    };
    let info = build_graph(&db, &params).unwrap();
    let before_roots = db.roots();
    let outcome = Reorg::on(&db, info.root_partition)
        .strategy(Strategy::PartitionQuiesce)
        .run()
        .unwrap();
    assert_eq!(outcome.mapping.len(), before_roots.len());
    for r in db.roots() {
        assert!(db.raw_read(r).is_ok(), "root {r} must be live");
    }
    brahma::sweep::assert_database_consistent(&db);
}

#[test]
fn trt_pointer_delete_hazard_figure_2() {
    // The motivating Figure 2 scenario, end to end: T deletes the pointer
    // O1 -> O but holds it in local memory; IRA migrates the partition; T
    // aborts, reinserting the pointer — which must land on the *new*
    // location, not dangling at the old one.
    use brahma::{LockMode, NewObject};
    let db = Arc::new(Database::new(StoreConfig::default()));
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut t = db.begin();
    let o = t
        .create_object(p1, NewObject::exact(1, vec![], b"O".to_vec()))
        .unwrap();
    let o1 = t
        .create_object(
            p0,
            NewObject {
                tag: 1,
                refs: vec![o],
                ref_cap: 4,
                payload: vec![],
                payload_cap: 0,
            },
        )
        .unwrap();
    t.commit().unwrap();

    // T cuts the pointer and stays active.
    let t_handle = {
        let mut t = db.begin();
        t.lock(o1, LockMode::Exclusive).unwrap();
        t.delete_ref(o1, o).unwrap();
        t
    };

    // IRA runs concurrently (in this thread, with T's locks outstanding it
    // would block; so run it from another thread and abort T under it).
    let db2 = Arc::clone(&db);
    let reorg = std::thread::spawn(move || Reorg::on(&db2, p1).run().unwrap());
    std::thread::sleep(Duration::from_millis(100));
    // T aborts: the reference to O reappears.
    t_handle.abort();
    let outcome = reorg.join().unwrap();
    assert_eq!(outcome.migrated(), 1);
    let new_o = outcome.mapping[&o];
    assert_eq!(
        db.raw_read(o1).unwrap().refs,
        vec![new_o],
        "the reinserted pointer must follow the migration"
    );
    assert!(db.raw_read(o).is_err(), "old location reclaimed");
    brahma::sweep::assert_database_consistent(&db);
}

#[test]
fn external_parent_grouping_reduces_lock_acquisitions() {
    // Section 7 future work: with batching, grouping objects by shared
    // external parent locks each external parent fewer times than the
    // traversal order does.
    use brahma::NewObject;
    let build = |order| {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        // A 64-object chain in p1 (fixing the traversal order), where
        // object i's external parent is parent[i % 8]: traversal order
        // cycles through all 8 parents, so un-grouped batches of 8 lock 8
        // distinct external parents each.
        let mut txn = db.begin();
        let mut objs: Vec<brahma::PhysAddr> = Vec::new();
        for _ in 0..64 {
            let refs = objs.last().map(|&p| vec![p]).unwrap_or_default();
            objs.push(
                txn.create_object(
                    p1,
                    NewObject {
                        tag: 1,
                        refs,
                        ref_cap: 2,
                        payload: vec![0; 4],
                        payload_cap: 4,
                    },
                )
                .unwrap(),
            );
        }
        objs.reverse(); // objs[i] now reaches objs[i+1..]
        for p in 0..8usize {
            let refs: Vec<_> = (0..64).filter(|i| i % 8 == p).map(|i| objs[i]).collect();
            txn.create_object(p0, NewObject::exact(2, refs, vec![]))
                .unwrap();
        }
        txn.commit().unwrap();
        let outcome = Reorg::on(&db, p1).batch(8).order(order).run().unwrap();
        brahma::sweep::assert_database_consistent(&db);
        outcome.ira().unwrap().external_parent_locks
    };
    let traversal = build(ira::MigrationOrder::Traversal);
    let grouped = build(ira::MigrationOrder::GroupByExternalParent);
    assert!(
        grouped < traversal,
        "grouping must reduce external parent locks ({grouped} vs {traversal})"
    );
}

#[test]
fn concurrent_reorganizations_of_two_partitions() {
    // Two IRA instances on different partitions at the same time, under a
    // churning workload; each keeps its own TRT and page floor.
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = small_params();
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let handle = start_workload(Arc::clone(&db), Arc::clone(&info), &params);

    let dbs: Vec<_> = (0..2).map(|_| Arc::clone(&db)).collect();
    let parts = [info.data_partitions[0], info.data_partitions[1]];
    let threads: Vec<_> = dbs
        .into_iter()
        .zip(parts)
        .map(|(db, p)| std::thread::spawn(move || Reorg::on(&db, p).run().unwrap()))
        .collect();
    for t in threads {
        let outcome = t.join().unwrap();
        assert_eq!(outcome.migrated(), 170);
    }
    handle.stop_and_join();
    brahma::sweep::assert_database_consistent(&db);
}
