//! Heap-allocation budget of the write path (DESIGN.md §10.3).
//!
//! The counts repeat exactly — one thread, fixed seed, no clock in the
//! measured code — so a budget is a test, not a benchmark: a clone that
//! creeps back onto the logging path fails here with the number. One test
//! function and a per-thread counter, so neither the harness nor a sibling
//! test can add to a measurement.

use brahma::{Database, LockMode, PhysAddr, StoreConfig, TxnId};
use ira::{RelocationPlan, Reorg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use workload::{build_graph, WorkloadParams};

thread_local! {
    /// Allocator calls (`alloc`, `alloc_zeroed`, `realloc`) on this thread
    /// and the bytes they asked for (a `realloc` counts what it grew by).
    static HEAP: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, where there is nothing left to count into.
    let _ = HEAP.try_with(|h| {
        let (calls, total) = h.get();
        h.set((calls + 1, total + bytes as u64));
    });
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size.saturating_sub(layout.size()));
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls and bytes `f` makes on this thread.
fn heap_of<R>(f: impl FnOnce() -> R) -> (u64, u64, R) {
    let (calls, bytes) = HEAP.with(Cell::get);
    let out = f();
    let (calls_after, bytes_after) = HEAP.with(Cell::get);
    (calls_after - calls, bytes_after - bytes, out)
}

/// Budgets. The parent of the PR that introduced them (a598be4) read 29.20
/// allocations and 3,528 bytes per migrated object, 5.00 per `set_payload`
/// and [`READ_TXN_PARENT`] for the read-only transaction, by this counter,
/// in debug and release builds alike. Per migrated object, 739cb49 read
/// 9.83 (1,503 bytes); the in-place fuzzy traversal, which no longer
/// copies out each visited object's references, reads 8.83 (1,407).
const PER_MIGRATED_OBJECT: f64 = 9.0;
const PER_SET_PAYLOAD: f64 = 2.0;
const READ_TXN_PARENT: u64 = 10;

#[test]
fn the_write_path_stays_inside_its_allocation_budget() {
    // One Table-1 data partition (4080 objects in 48 clusters) beside a
    // second, so the glue edges have somewhere to go.
    let params = WorkloadParams {
        num_partitions: 2,
        ..WorkloadParams::default()
    };
    let db = Database::new(StoreConfig {
        wal_retain: false,
        ..StoreConfig::default()
    });
    let info = build_graph(&db, &params).expect("graph");
    let part = info.data_partitions[0];
    let pass = || {
        Reorg::on(&db, part)
            .plan(RelocationPlan::CompactInPlace)
            .batch(1)
            .run()
            .expect("idle reorganization")
            .migrated()
    };

    // ---- migrate-one-object: a warm pass, then the measured one ----
    assert_eq!(pass(), 4080);
    let (calls, bytes, migrated) = heap_of(pass);
    assert_eq!(migrated, 4080);
    let per_object = calls as f64 / migrated as f64;
    println!(
        "alloc_budget: {per_object:.2} allocations, {:.0} bytes per migrated object",
        bytes as f64 / migrated as f64
    );

    // ---- Txn::set_payload: the old and the new value, nothing else ----
    let nodes: Vec<PhysAddr> = db
        .partition(part)
        .expect("partition")
        .live_objects()
        .into_iter()
        .take(9)
        .collect();
    let value = vec![7u8; params.payload_size];
    let mut txn = db.begin();
    txn.lock(nodes[0], LockMode::Exclusive)
        .expect("uncontended");
    for _ in 0..64 {
        txn.set_payload(nodes[0], &value).expect("X held");
    }
    let (calls, _, ()) = heap_of(|| {
        for _ in 0..1000 {
            txn.set_payload(nodes[0], &value).expect("X held");
        }
    });
    txn.commit().expect("commit");
    let per_call = calls as f64 / 1000.0;
    println!("alloc_budget: {per_call:.2} allocations per set_payload");

    // ---- a walker's read-only transaction: 9 S locks, 9 reads ----
    let read_txn = || {
        let mut txn = db.begin();
        for &node in &nodes {
            txn.lock(node, LockMode::Shared).expect("uncontended");
            txn.read_refs(node).expect("S held");
        }
        txn.commit().expect("commit");
    };
    read_txn();
    let (calls, _, ()) = heap_of(read_txn);
    println!("alloc_budget: {calls} allocations per 9-lock read-only transaction");
    // The same transaction on a second thread, so on another log lane and
    // registry slot: a lane's and a slot's buffers grow once, like the
    // thread's own, and then hold.
    let (other_slot, other_calls) = std::thread::scope(|s| {
        s.spawn(|| {
            (0..64).for_each(|_| read_txn());
            (brahma::txn::thread_slot(), heap_of(read_txn).0)
        })
        .join()
        .expect("second thread")
    });
    assert_ne!(
        other_slot,
        brahma::txn::thread_slot(),
        "a lane and a slot of its own"
    );
    println!(
        "alloc_budget: {other_calls} allocations per read-only transaction on a second thread"
    );

    // ---- held locks: two sharers on each of 1,000 addresses at once ----
    // Straight through the lock manager: `Txn`'s held-list index allocates
    // past 64 locks. A lock entry holds two sharers inline and a shard's
    // colliding entries keep their vector's capacity, so a warm table
    // grants and releases all 2,000 without the heap.
    let spread: Vec<PhysAddr> = db
        .partition(part)
        .expect("partition")
        .live_objects()
        .into_iter()
        .take(1000)
        .collect();
    let hold_and_release = || {
        for tid in [TxnId(u64::MAX - 1), TxnId(u64::MAX)] {
            for &a in &spread {
                db.locks
                    .lock(tid, a, LockMode::Shared)
                    .expect("S is compatible");
            }
        }
        for tid in [TxnId(u64::MAX - 1), TxnId(u64::MAX)] {
            for &a in &spread {
                db.locks.unlock(tid, a);
            }
        }
    };
    hold_and_release();
    let (held_calls, _, ()) = heap_of(hold_and_release);
    println!("alloc_budget: {held_calls} allocations for 2,000 S locks held at once and released");
    assert_eq!(db.locks.table_size(), 0, "every entry reclaimed");
    // Asserted together, after all five are printed.
    assert!(
        per_object <= PER_MIGRATED_OBJECT,
        "{per_object:.2} allocations per migrated object, budget {PER_MIGRATED_OBJECT}"
    );
    assert!(
        per_call <= PER_SET_PAYLOAD,
        "{per_call:.2} allocations per set_payload, budget {PER_SET_PAYLOAD}"
    );
    for calls in [calls, other_calls] {
        assert!(
            calls <= READ_TXN_PARENT,
            "{calls} allocations in a 9-lock read-only transaction, parent {READ_TXN_PARENT}"
        );
    }
    assert_eq!(
        held_calls, 0,
        "allocations for 2,000 S locks held at once and released"
    );
}
