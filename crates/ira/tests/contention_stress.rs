//! The shared-root-anchor contention cell: one external anchor references
//! every object of the reorganized partition, so every migration batch
//! needs the anchor's exclusive lock, and the migrator races sixty walkers
//! for it. This cell pins that the retry path (Section 4.4) gets every
//! object across and leaves the database clean.

use brahma::{Database, LockMode, NewObject, PartitionId, PhysAddr, RetryPolicy, StoreConfig};
use harness::with_repro_banner;
use ira::Reorg;
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

/// Build the star, storm the anchor with `WALKERS` fail-fast lockers,
/// reorganize, and check the result.
#[test]
fn anchor_storm_migrates_everything_cleanly() {
    with_repro_banner(
        &format!("SEED=none CELL=anchor_storm,singletons:{SINGLETONS},walkers:{WALKERS}"),
        run_cell,
    );
}

fn run_cell() {
    let config = StoreConfig {
        // Between the two writer camp lengths: a 3 ms camp always hands
        // off inside the timeout, while landing early in a 9 ms camp
        // overruns it — so the reorganizer's retry path runs by
        // construction, and the camp ends within a backoff or two.
        lock_timeout: Duration::from_millis(5),
        ..StoreConfig::default()
    };
    let db = Arc::new(Database::new(config));
    let (p1, anchor) = build_star(&db);

    let stop = Arc::new(AtomicBool::new(false));
    // Successful exclusive camps so far: the reorganization must not start
    // until the writer storm is demonstrably occupying the anchor, or an
    // optimized build migrates all 96 singletons before the 60 walker
    // threads have even been scheduled.
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
            // camp end. Readers fail fast whenever an X waiter is
            // registered (grants are write-preferring), so they add
            // sharer-drain pressure without ever stalling the writers.
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
                    // Read-only either way: nothing to commit.
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
        .batch(8)
        // Deep retry budget: even at ~50% per-attempt loss against the
        // writer storm, 16 attempts make a fatal exhaustion negligible —
        // the cell rides out timeouts, it must not die to them.
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
    ira::verify::assert_reorganization_clean(&db, report);
    brahma::sweep::assert_database_consistent(&db);
}
