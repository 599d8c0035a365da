//! Closed-loop tests for the observe → plan stages: the collector's counts
//! are exact, and the greedy policy's plan scores better than leaving
//! objects where they are.

use brahma::{Database, NewObject, PhysAddr, StoreConfig};
use ira::{EdgeCount, MigrationOrder, StatsGreedy};
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use workload::stats::{EdgeObserver, TraversalStats};
use workload::{build_graph, walk_once_observed, WorkloadParams};

/// Ground-truth observer: every reported edge, verbatim, under a lock.
#[derive(Default)]
struct VecSink {
    edges: Mutex<Vec<(u64, u64)>>,
}

impl EdgeObserver for VecSink {
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr) {
        self.edges.lock().push((parent.to_raw(), child.to_raw()));
    }
}

/// Forward to both observers, so one walker run produces the lock-free
/// counters and the ground truth simultaneously.
struct Tee<'a>(&'a TraversalStats, &'a VecSink);

impl EdgeObserver for Tee<'_> {
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr) {
        self.0.record_edge(parent, child);
        self.1.record_edge(parent, child);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The collector's aggregated counters are *exactly* the multiset of
    /// edges a deterministic walker run traverses — nothing lost, nothing
    /// invented, for any seed.
    #[test]
    fn edge_counters_match_walk_exactly(seed in 0u64..1_000) {
        let db = Database::new(StoreConfig::default());
        let params = WorkloadParams {
            num_partitions: 2,
            objs_per_partition: 170,
            seed,
            // No graph churn: the run must be a pure read walk so the
            // traversed-edge multiset is well defined.
            update_prob: 0.0,
            ref_update_prob: 0.0,
            ..WorkloadParams::default()
        };
        let info = build_graph(&db, &params).unwrap();
        let stats = TraversalStats::new();
        let truth = VecSink::default();
        let tee = Tee(&stats, &truth);

        // SeedTree-pinned walker stream, exactly as the MPL driver derives
        // it for thread 0.
        let tree = brahma::SeedTree::new(params.seed)
            .child("workload.walker")
            .child_idx(0);
        let mut rng = StdRng::seed_from_u64(tree.seed());
        for i in 0..40 {
            walk_once_observed(&db, &info, i % 2, &params, &mut rng, Some(&tee)).unwrap();
        }

        let mut expected: HashMap<(u64, u64), u64> = HashMap::new();
        for &e in truth.edges.lock().iter() {
            *expected.entry(e).or_insert(0) += 1;
        }
        let observed: HashMap<(u64, u64), u64> = stats
            .edges()
            .iter()
            .map(|e| ((e.parent.to_raw(), e.child.to_raw()), e.count))
            .collect();
        prop_assert_eq!(&observed, &expected);
        prop_assert_eq!(stats.recorded(), truth.edges.lock().len() as u64);
        prop_assert_eq!(stats.dropped(), 0);
    }
}

fn mk(db: &Database, p: brahma::PartitionId) -> PhysAddr {
    let mut t = db.begin();
    let a = t
        .create_object(
            p,
            NewObject {
                tag: 7,
                refs: vec![],
                ref_cap: 4,
                payload: vec![0xAB; 120],
                payload_cap: 120,
            },
        )
        .unwrap();
    t.commit().unwrap();
    a
}

/// A known hot chain whose links all cross pages: `StatsGreedy` must emit a
/// priority order that the `workload::cost` model scores *strictly* better
/// than the identity placement.
#[test]
fn stats_greedy_beats_identity_on_hot_chain() {
    let db = Database::new(StoreConfig::default());
    let p = db.create_partition();
    let objs: Vec<PhysAddr> = (0..300).map(|_| mk(&db, p)).collect();

    // Pick one object per distinct page, so every chain link crosses pages
    // under the current placement.
    let mut chain: Vec<PhysAddr> = Vec::new();
    let mut last_page = None;
    for &o in &objs {
        if last_page != Some(o.page()) {
            chain.push(o);
            last_page = Some(o.page());
        }
    }
    assert!(chain.len() >= 3, "need a multi-page chain, got {}", chain.len());

    let edges: Vec<EdgeCount> = chain
        .windows(2)
        .map(|w| EdgeCount {
            parent: w[0],
            child: w[1],
            count: 100,
        })
        .collect();

    let (order, score) = StatsGreedy::new(&edges).plan(&db, p);
    let model = workload::cost::CostModel::default();
    assert_eq!(
        score.identity_cost,
        model.cross_page * 100.0 * (chain.len() - 1) as f64,
        "every link crosses pages today"
    );
    assert!(
        score.planned_cost < score.identity_cost,
        "planned {} must beat identity {}",
        score.planned_cost,
        score.identity_cost
    );
    assert!(score.improvement() > 0.0);
    match order {
        MigrationOrder::Priority(order) => {
            assert_eq!(&order[..chain.len()], &chain[..], "hot chain migrates first, in order");
        }
        other => panic!("expected a priority order, got {other:?}"),
    }
}

/// End to end through the driver: a concurrent observed workload feeds a
/// `StatsGreedy` whose scored order, handed to `Reorg::order`, reorganizes
/// the hot partition.
#[test]
fn observed_workload_drives_a_scored_reorg() {
    let db = Arc::new(Database::new(StoreConfig::default()));
    let params = WorkloadParams {
        num_partitions: 2,
        objs_per_partition: 170,
        mpl: 4,
        ..WorkloadParams::default()
    };
    let info = Arc::new(build_graph(&db, &params).unwrap());
    let stats = Arc::new(TraversalStats::new());
    let handle = workload::start_workload_observed(
        Arc::clone(&db),
        Arc::clone(&info),
        &params,
        Some(Arc::clone(&stats) as Arc<dyn EdgeObserver + Send + Sync>),
    );
    std::thread::sleep(std::time::Duration::from_millis(300));
    let metrics = handle.stop_and_join();
    assert!(metrics.summarize().committed > 0);
    assert!(stats.recorded() > 0, "walkers must have reported edges");

    let target = info.data_partitions[0];
    let (order, score) = StatsGreedy::new(&stats.edges()).plan(&db, target);
    let outcome = ira::Reorg::on(&db, target)
        .order(order)
        .run()
        .expect("stats-driven reorganization completes");
    assert_eq!(outcome.migrated(), 170);
    assert!(score.identity_cost > 0.0, "observed edges cross pages before reorg");
    brahma::sweep::assert_database_consistent(&db);
}
