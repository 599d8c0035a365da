//! Property test: IRA preserves the object graph exactly.
//!
//! For random graphs (arbitrary edges, cycles, self-references, multiple
//! edges, garbage), any IRA variant and relocation plan must produce a
//! database where the live graph is isomorphic to the original under the
//! migration mapping: payloads, tags, and edge lists map one-to-one, roots
//! follow, garbage disappears (when collection is on), and the global
//! invariants hold.

use brahma::{Database, NewObject, PhysAddr, StoreConfig};
use harness::with_repro_banner;
use ira::verify::logical_fingerprint;
use ira::{IraVariant, RelocationPlan, Reorg};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct GraphSpec {
    /// Number of objects in the reorganized partition.
    n: usize,
    /// Edges within the partition: (from, to) indices (mod n).
    edges: Vec<(usize, usize)>,
    /// Which objects get an external anchor (making them — and everything
    /// they reach — live).
    anchored: Vec<usize>,
    evacuate: bool,
    two_lock: bool,
    batch: usize,
}

fn graph_strategy() -> impl Strategy<Value = GraphSpec> {
    (2usize..24).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec((0..n, 0..n), 0..n * 3),
            proptest::collection::vec(0..n, 1..4),
            any::<bool>(),
            any::<bool>(),
            1usize..5,
        )
            .prop_map(|(n, edges, anchored, evacuate, two_lock, batch)| GraphSpec {
                n,
                edges,
                anchored,
                evacuate,
                two_lock,
                batch,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn reorganization_preserves_the_graph(spec in graph_strategy()) {
        // The runner prints the failing inputs only after the panic unwinds
        // through it; the banner names the failing spec (and dumps the sched
        // ring under `SCHED_DUMP`) at the assertion site itself, in the
        // one-line re-runnable form the other concurrency suites use.
        with_repro_banner(
            &format!("SEED=proptest CELL={spec:?}"),
            || reorg_preserves_graph_body(&spec),
        );
    }
}

fn reorg_preserves_graph_body(spec: &GraphSpec) {
        let db = Database::new(StoreConfig::default());
        let p0 = db.create_partition();
        let p1 = db.create_partition();
        let target = db.create_partition();

        // Create the objects (with room for the edges), then wire them.
        let mut txn = db.begin();
        let objs: Vec<PhysAddr> = (0..spec.n)
            .map(|i| {
                txn.create_object(
                    p1,
                    NewObject {
                        tag: (i % 250) as u8,
                        refs: vec![],
                        ref_cap: (spec.edges.len() + 1).min(200) as u16,
                        payload: vec![i as u8; 1 + i % 7],
                        payload_cap: 8,
                    },
                )
                .unwrap()
            })
            .collect();
        for &(f, t) in &spec.edges {
            txn.insert_ref(objs[f % spec.n], objs[t % spec.n]).unwrap();
        }
        let anchors: Vec<PhysAddr> = spec
            .anchored
            .iter()
            .map(|&i| {
                txn.create_object(p0, NewObject::exact(200, vec![objs[i % spec.n]], vec![]))
                    .unwrap()
            })
            .collect();
        txn.commit().unwrap();

        let before = logical_fingerprint(&db, &anchors);

        let plan = if spec.evacuate {
            RelocationPlan::EvacuateTo(target)
        } else {
            RelocationPlan::CompactInPlace
        };
        let outcome = Reorg::on(&db, p1)
            .plan(plan)
            .variant(if spec.two_lock { IraVariant::TwoLock } else { IraVariant::Basic })
            .batch(spec.batch)
            .run()
            .unwrap();

        // The live graph is unchanged up to relocation.
        let after = logical_fingerprint(&db, &anchors);
        prop_assert_eq!(before, after);

        // Everything live moved; everything unreachable was collected.
        prop_assert_eq!(
            db.partition(p1).unwrap().object_count(),
            if spec.evacuate { 0 } else { outcome.migrated() }
        );
        for (old, new) in &outcome.mapping {
            prop_assert!(db.raw_read(*new).is_ok(), "new copy {} live", new);
            prop_assert!(!db.partition(old.partition()).unwrap().contains_object(*old)
                || outcome.mapping.values().any(|v| v == old),
                "old address {} reclaimed or reused by a new copy", old);
        }
        ira::verify::assert_reorganization_clean(&db, outcome.ira().unwrap());
}
