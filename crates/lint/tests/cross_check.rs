//! Runtime/static cross-check: drive a real brahma+ira workload under
//! lockdep, dump the held-before edges the runtime checker recorded, and
//! require every one of them to be predicted by the static lock graph
//! (static ⊇ runtime). A runtime edge missing statically means the
//! analyzer has a call-resolution gap — that is a CI failure, because the
//! static pass's cycle verdicts are only trustworthy if its graph covers
//! everything the code actually does.
//!
//! The converse direction is *not* checked: the static graph is an
//! over-approximation (it keeps edges from paths this workload never
//! takes), so static-only edges are expected.
//!
//! Lockdep is armed under `debug_assertions` (the default test profile)
//! or the `lockdep` feature; in a plain release test run `dump_edges()`
//! is empty and the check passes vacuously.

use brahma::{lockdep, Database, NewObject, PhysAddr, StoreConfig};
use ira::Reorg;

/// A small anchored object graph across two partitions: cross-partition
/// references populate the ERTs, commits append to the WAL, and the
/// reorganization exercises the lock manager, TRT, traversal index, and
/// migration map — the lock classes whose ordering the paper cares about.
fn build_and_reorganize() {
    let db = Database::new(StoreConfig::default());
    let p0 = db.create_partition();
    let p1 = db.create_partition();

    let mut prev: Option<PhysAddr> = None;
    let mut chain = Vec::new();
    for i in 0..12u8 {
        let mut t = db.begin();
        let refs = prev.map(|p| vec![p]).unwrap_or_default();
        let a = t
            .create_object(
                p1,
                NewObject {
                    tag: i,
                    refs,
                    ref_cap: 4,
                    payload: vec![i, i.wrapping_mul(31)],
                    payload_cap: 8,
                },
            )
            .expect("build chain");
        t.commit().expect("build chain");
        chain.push(a);
        prev = Some(a);
    }
    let mut t = db.begin();
    t.create_object(
        p0,
        NewObject {
            tag: 200,
            refs: vec![*chain.last().unwrap(), chain[chain.len() / 2]],
            ref_cap: 4,
            payload: vec![1],
            payload_cap: 8,
        },
    )
    .expect("anchor");
    t.commit().expect("anchor");

    let outcome = Reorg::on(&db, p1).workers(2).batch(3).run().expect("reorg");
    assert!(outcome.migrated() > 0, "workload must actually migrate");
    brahma::sweep::assert_database_consistent(&db);

    // Touch the observability path too: it nests DbPartitions over the
    // per-partition ERT locks.
    let _ = db.obs_snapshot();
}

#[test]
fn static_graph_covers_runtime_edges() {
    build_and_reorganize();

    let files = lint::source::load_sources(&lint::source::repo_root());
    assert!(!files.is_empty(), "workspace sources must be discoverable");
    let analysis = lint::lockgraph::analyze(&files);
    assert!(
        !analysis.graph.edges.is_empty(),
        "static analysis found no lock edges at all — the pass is broken"
    );

    let mut missing = Vec::new();
    for (from, to, chain) in lockdep::dump_edges() {
        let (from, to) = (format!("{from:?}"), format!("{to:?}"));
        // The checker's own unit tests use the Test* classes for seeded
        // violations; they are not part of the product lock order.
        if from.starts_with("Test") || to.starts_with("Test") {
            continue;
        }
        if !analysis.graph.has(&from, &to) {
            missing.push(format!("  {from} -> {to} (runtime chain: {chain})"));
        }
    }
    assert!(
        missing.is_empty(),
        "runtime lockdep recorded edges the static graph does not predict \
         (static must over-approximate runtime):\n{}\nstatic edges:\n{}",
        missing.join("\n"),
        analysis
            .graph
            .edges
            .keys()
            .map(|(a, b)| format!("  {a} -> {b}"))
            .collect::<Vec<_>>()
            .join("\n"),
    );
}
