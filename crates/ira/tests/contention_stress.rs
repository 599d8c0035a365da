//! The shared-root-anchor contention cell behind the flat 4-worker
//! scaling at MPL 60 (four workers reorganized *slower* than serial):
//! one external anchor references every object of the
//! reorganized partition, so each singleton component's migration batch
//! needs the anchor's exclusive lock — and with the old planner, four
//! workers race sixty sharers *and each other* for it, one acquisition
//! per object. `MigrationOrder::ParentGroup` fuses the anchor-bound
//! singletons into one scheduling group drained by one worker with
//! batches spanning component boundaries: one acquisition per batch,
//! no inter-worker race. This test pins the claim the planner change
//! rests on: under the same seeded walker storm, the grouped run incurs
//! strictly fewer deferrals-plus-lock-timeouts than the ungrouped one.

use brahma::{Database, LockMode, NewObject, PartitionId, PhysAddr, RetryPolicy, StoreConfig};
use ira::chaos::with_repro_banner;
use ira::{MigrationOrder, Reorg};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SINGLETONS: usize = 96;
const WALKERS: usize = 60;

/// The star: `anchor` lives outside the reorganized partition and holds a
/// reference to every one of the `SINGLETONS` otherwise-parentless
/// objects inside it.
fn build_star(db: &Database) -> (PartitionId, PhysAddr) {
    let p0 = db.create_partition();
    let p1 = db.create_partition();
    let mut children = Vec::new();
    for i in 0..SINGLETONS {
        let mut t = db.begin();
        let a = t
            .create_object(
                p1,
                NewObject {
                    tag: 1,
                    refs: vec![],
                    ref_cap: 0,
                    payload: vec![i as u8],
                    payload_cap: 8,
                },
            )
            .expect("star build");
        t.commit().expect("star build");
        children.push(a);
    }
    let mut t = db.begin();
    let anchor = t
        .create_object(
            p0,
            NewObject {
                tag: 200,
                refs: children,
                ref_cap: SINGLETONS as u16 + 4,
                payload: vec![],
                payload_cap: 0,
            },
        )
        .expect("star build");
    t.commit().expect("star build");
    (p1, anchor)
}

/// One full cell: build the star, storm the anchor with `WALKERS` fail-fast
/// lockers, reorganize with four workers under `order`, and return
/// `(deferred, lock_timeouts, parent_groups)`.
///
/// The walkers use `try_lock`, which never waits and therefore never
/// increments `lock.timeouts` — so the counter this test compares is
/// *reorganizer-only*: each tick is one anchor acquisition the planner
/// exposed to the storm and lost. That ties the measurement causally to
/// the planner (one exposure per object vs one per batch) instead of to
/// walker-vs-walker scheduling luck, which is what made an earlier
/// blocking-walker version of this cell flaky.
fn run_cell(order: MigrationOrder) -> (u64, u64, u64) {
    let config = StoreConfig {
        // Between the two writer camp lengths: a 3 ms camp always hands
        // off inside the timeout (so ordinary holds cost nothing), while
        // landing early in a 9 ms camp overruns it for a countable
        // timeout — and the camp ends within a retry backoff or two, so
        // one long camp can never exhaust the retry budget.
        lock_timeout: Duration::from_millis(5),
        // Simulated group-commit flush, paid by every migration batch
        // *while it still holds its locks* (strict 2PL: the log is forced
        // before release) but not by the read-only walkers (nothing to
        // flush). This is what makes the traversal cell's inter-worker
        // race countable in any build: each per-object batch occupies the
        // anchor for ~2 ms, so the three workers queued behind it overrun
        // the 5 ms timeout after a couple of lost handoffs — in release,
        // without it, batches hold the anchor for microseconds and even
        // four racing workers never wait long enough to time out.
        commit_flush_latency: Duration::from_millis(2),
        ..StoreConfig::default()
    };
    let db = Arc::new(Database::new(config));
    let (p1, anchor) = build_star(&db);

    let stop = Arc::new(AtomicBool::new(false));
    // Successful exclusive camps so far: the reorganization must not start
    // until the writer storm is demonstrably occupying the anchor, or an
    // optimized build migrates all 96 singletons before the 60 walker
    // threads have even been scheduled — both cells then measure zero and
    // the strict-inequality assertion compares nothing.
    let camps = Arc::new(AtomicU64::new(0));
    let walkers: Vec<_> = (0..WALKERS)
        .map(|i| {
            let db = Arc::clone(&db);
            let stop = Arc::clone(&stop);
            let camps = Arc::clone(&camps);
            // Mostly readers, with one writer per five: a writer that wins
            // the anchor camps on it — 3 ms usually, 9 ms every third camp
            // — then thinks for 2 ms. The 9 ms camps overrun the 5 ms lock
            // timeout, so a reorganizer acquisition landing in such a
            // camp's first stretch times out *by construction*: since the
            // walkers never wait (try_lock), the reorganizer is the only
            // registered waiter and otherwise always wins the handoff at
            // camp end — in an optimized build it would never time out at
            // all, and both cells would measure zero. Readers fail fast
            // whenever an X waiter is registered (grants are
            // write-preferring), so they add sharer-drain pressure without
            // ever stalling the writers.
            let mode = if i % 5 == 0 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            };
            std::thread::spawn(move || {
                let mut iter = 0u64;
                // ordering: stop flag; a late extra iteration is harmless
                while !stop.load(Ordering::Relaxed) {
                    let mut t = db.begin();
                    if t.try_lock(anchor, mode) {
                        let _ = t.read(anchor);
                        if mode == LockMode::Exclusive {
                            iter += 1;
                            std::thread::sleep(Duration::from_millis(
                                if iter.is_multiple_of(3) { 9 } else { 3 },
                            ));
                            // ordering: warm-up progress count; monotone
                            camps.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Read-only either way: abort instead of commit, so
                    // the locks release immediately instead of riding the
                    // simulated group-commit flush — a reader herd holding
                    // shared locks 2 ms per cycle would keep the anchor
                    // S-held near-continuously and starve the writer camps
                    // the cell's timing is built on.
                    t.abort();
                    // Think time, success or not: MPL-60 means sixty open
                    // transactions, not sixty busy-spinning threads — and
                    // on a small box a hot walker herd starves the woken
                    // reorganizer of CPU, turning every handoff race into
                    // scheduler lottery instead of lock-protocol behavior.
                    std::thread::sleep(if mode == LockMode::Exclusive {
                        Duration::from_millis(2)
                    } else {
                        Duration::from_micros(500)
                    });
                }
            })
        })
        .collect();

    // Warm-up barrier: wait for a few completed writer camps so the storm
    // is in steady state — writers queued on the anchor back-to-back —
    // before the reorganizer's first acquisition, in debug and release
    // builds alike.
    // ordering: warm-up progress count; monotone
    while camps.load(Ordering::Relaxed) < 3 {
        std::thread::sleep(Duration::from_millis(1));
    }

    let outcome = Reorg::on(&db, p1)
        .order(order)
        .workers(4)
        .batch(8)
        // Deep retry budget: even at ~50% per-attempt loss against the
        // writer storm, 16 attempts make a forced deferral rare (~1e-5)
        // and a fatal serial-tail exhaustion negligible — the cell
        // measures timeouts, it must not die to them.
        .retry(RetryPolicy::new(
            16,
            Duration::from_millis(1),
            Duration::from_millis(8),
            0xC0FFEE,
        ))
        .run()
        .expect("reorganization under storm");
    // ordering: stop flag; walkers observe it on their next iteration
    stop.store(true, Ordering::Relaxed);
    for w in walkers {
        w.join().expect("walker");
    }

    assert_eq!(outcome.migrated(), SINGLETONS);
    let report = outcome.ira().expect("ira report");
    let snap = db.obs_snapshot();
    ira::verify::assert_reorganization_clean(&db, report);
    brahma::sweep::assert_database_consistent(&db);
    (
        report.deferred as u64,
        snap.get("lock.timeouts"),
        report.parent_groups as u64,
    )
}

/// ParentGroup must strictly reduce the contention damage (deferrals +
/// lock timeouts) on the shared-root-anchor shape, and must actually
/// group (parent_groups > 0) while the old planner never does.
#[test]
fn parent_group_beats_traversal_under_anchor_storm() {
    with_repro_banner(
        &format!("SEED=none CELL=anchor_storm,singletons:{SINGLETONS},walkers:{WALKERS},workers:4"),
        || {
            let (old_deferred, old_timeouts, old_groups) = run_cell(MigrationOrder::Traversal);
            let (new_deferred, new_timeouts, new_groups) =
                run_cell(MigrationOrder::ParentGroup);
            eprintln!(
                "traversal: deferred={old_deferred} timeouts={old_timeouts}; \
                 parent-group: deferred={new_deferred} timeouts={new_timeouts}"
            );
            assert_eq!(old_groups, 0, "the old planner never groups");
            assert!(new_groups > 0, "the star must form a parent group");
            assert!(
                new_deferred + new_timeouts < old_deferred + old_timeouts,
                "grouped planning must strictly reduce contention damage: \
                 {new_deferred}+{new_timeouts} vs {old_deferred}+{old_timeouts}"
            );
        },
    );
}
