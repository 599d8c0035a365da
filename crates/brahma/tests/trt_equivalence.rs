//! DESIGN.md invariant 4: the TRT maintained inline at pointer-update time
//! must equal, tuple for tuple, the TRT the log analyzer reconstructs from
//! the WAL — under arbitrary interleavings of inserts, deletes, ref swaps,
//! commits, and aborts, with and without the Section 4.5 purge
//! optimizations.

use brahma::wal::analyzer::rebuild_trt;
use brahma::{Database, LockMode, NewObject, PhysAddr, StoreConfig};
use proptest::prelude::*;

/// One scripted workload step.
#[derive(Debug, Clone)]
enum Step {
    /// Begin txn (slot), insert ref parent[i] -> child[j].
    Insert(usize, usize),
    /// Delete ref parent[i] -> child[j] if present.
    Delete(usize, usize),
    /// Swap parent[i]'s first ref to child[j].
    Swap(usize, usize),
    Commit,
    Abort,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0usize..4, 0usize..6).prop_map(|(p, c)| Step::Insert(p, c)),
        (0usize..4, 0usize..6).prop_map(|(p, c)| Step::Delete(p, c)),
        (0usize..4, 0usize..6).prop_map(|(p, c)| Step::Swap(p, c)),
        Just(Step::Commit),
        Just(Step::Abort),
    ]
}

fn run_script(steps: &[Step], purge: bool) {
    let config = StoreConfig {
        trt_purge: purge,
        ..StoreConfig::default()
    };
    let db = Database::new(config);
    let p0 = db.create_partition();
    let p1 = db.create_partition();

    // Six children in the reorganized partition, four parents outside.
    let mut setup = db.begin();
    let children: Vec<PhysAddr> = (0..6)
        .map(|i| {
            setup
                .create_object(p1, NewObject::exact(1, vec![], vec![i as u8]))
                .unwrap()
        })
        .collect();
    let parents: Vec<PhysAddr> = (0..4)
        .map(|_| {
            setup
                .create_object(
                    p0,
                    NewObject {
                        tag: 2,
                        refs: vec![],
                        ref_cap: 12,
                        payload: vec![],
                        payload_cap: 0,
                    },
                )
                .unwrap()
        })
        .collect();
    setup.commit().unwrap();

    let trt = db.start_reorg(p1).unwrap();
    let reorg_start = db.wal.next_lsn();

    let mut txn = Some(db.begin());
    for step in steps {
        let t = txn.get_or_insert_with(|| db.begin());
        match step {
            Step::Insert(p, c) => {
                let parent = parents[*p];
                let child = children[*c];
                t.lock(parent, LockMode::Exclusive).unwrap();
                let _ = t.insert_ref(parent, child);
            }
            Step::Delete(p, c) => {
                let parent = parents[*p];
                let child = children[*c];
                t.lock(parent, LockMode::Exclusive).unwrap();
                let _ = t.delete_ref(parent, child);
            }
            Step::Swap(p, c) => {
                let parent = parents[*p];
                let child = children[*c];
                t.lock(parent, LockMode::Exclusive).unwrap();
                if !t.read_refs(parent).unwrap().is_empty() {
                    let _ = t.set_ref(parent, 0, child);
                }
            }
            Step::Commit => {
                txn.take().unwrap().commit().unwrap();
            }
            Step::Abort => {
                txn.take().unwrap().abort();
            }
        }
    }
    if let Some(t) = txn.take() {
        t.commit().unwrap();
    }

    // Reconstruct from the log and compare.
    let records = db.wal.records_from(reorg_start);
    let rebuilt = rebuild_trt(&records, p1, db.trt_purge_enabled());
    assert_eq!(
        trt.dump(),
        rebuilt.dump(),
        "inline TRT and log-analyzer TRT diverge (purge={purge})"
    );
    db.end_reorg(p1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn inline_equals_analyzer_with_purge(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        run_script(&steps, true);
    }

    #[test]
    fn inline_equals_analyzer_without_purge(steps in proptest::collection::vec(step_strategy(), 1..60)) {
        run_script(&steps, false);
    }
}
