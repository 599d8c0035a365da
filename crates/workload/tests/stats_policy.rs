//! Closed-loop tests for the observe → plan → reorganize stages: the
//! collector's counts are exact, and a pass in the greedy policy's order
//! packs a hot chain onto fewer pages than it had.

use brahma::{Database, NewObject, PhysAddr, StoreConfig};
use ira::{EdgeCount, StatsGreedy};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use workload::stats::{EdgeObserver, TraversalStats};
use workload::{build_graph, walk_once_observed, WorkloadParams};

/// Ground-truth observer: every reported edge, verbatim, under a lock.
#[derive(Default)]
struct VecSink {
    edges: Mutex<Vec<(u64, u64)>>,
}

impl EdgeObserver for VecSink {
    fn record_edge(&self, parent: PhysAddr, child: PhysAddr) {
        self.edges
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((parent.to_raw(), child.to_raw()));
    }
}

/// Forward to both observers, so one walker run produces the collector's
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

        let truth = truth.edges.into_inner().unwrap_or_else(PoisonError::into_inner);
        let mut expected: HashMap<(u64, u64), u64> = HashMap::new();
        for &e in &truth {
            *expected.entry(e).or_insert(0) += 1;
        }
        let observed: HashMap<(u64, u64), u64> = stats
            .edges()
            .iter()
            .map(|e| ((e.parent.to_raw(), e.child.to_raw()), e.count))
            .collect();
        prop_assert_eq!(&observed, &expected);
        prop_assert_eq!(stats.recorded(), truth.len() as u64);
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

/// A known hot chain whose links all cross pages: `StatsGreedy` must emit
/// the chain first, and the pass run in that order must leave fewer of its
/// links crossing pages than before.
#[test]
fn stats_greedy_beats_identity_on_hot_chain() {
    let db = Database::new(StoreConfig::default());
    let p = db.create_partition();
    let objs: Vec<PhysAddr> = (0..300).map(|_| mk(&db, p)).collect();
    // Roots, so the pass's traversal reaches every object.
    for &o in &objs {
        db.add_root(o);
    }

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
    assert!(
        chain.len() >= 3,
        "need a multi-page chain, got {}",
        chain.len()
    );

    let edges: Vec<EdgeCount> = chain
        .windows(2)
        .map(|w| EdgeCount {
            parent: w[0],
            child: w[1],
            count: 100,
        })
        .collect();

    let order = StatsGreedy::new(&edges).plan(&db, p);
    assert_eq!(
        &order[..chain.len()],
        &chain[..],
        "hot chain migrates first, in order"
    );
    let outcome = ira::Reorg::on(&db, p)
        .order(order)
        .run()
        .expect("stats-driven reorganization completes");
    let crossings = |chain: &[PhysAddr]| {
        chain
            .windows(2)
            .filter(|w| w[0].page() != w[1].page())
            .count()
    };
    let landed: Vec<PhysAddr> = chain.iter().map(|a| outcome.mapping[a]).collect();
    assert_eq!(
        crossings(&chain),
        chain.len() - 1,
        "every link crosses pages today"
    );
    assert!(
        crossings(&landed) < crossings(&chain),
        "after the pass {} of {} links cross pages",
        crossings(&landed),
        chain.len() - 1
    );
    brahma::sweep::assert_database_consistent(&db);
}

/// End to end through the driver: a concurrent observed workload feeds a
/// `StatsGreedy` whose order, handed to `Reorg::order`, reorganizes the hot
/// partition.
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
    let order = StatsGreedy::new(&stats.edges()).plan(&db, target);
    assert!(
        !order.is_empty(),
        "observed edges chain inside the partition"
    );
    let outcome = ira::Reorg::on(&db, target)
        .order(order)
        .run()
        .expect("stats-driven reorganization completes");
    assert_eq!(outcome.migrated(), 170);
    brahma::sweep::assert_database_consistent(&db);
}
