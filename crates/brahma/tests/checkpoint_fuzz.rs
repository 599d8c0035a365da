//! Byte-level fuzz of the `checkpoint.img` decoder (DESIGN.md §14).
//!
//! The fixture is a real checkpoint file: three partitions, two of them
//! with a reorganization pass open at its floor, and two roots. Against it:
//!
//! 0. a file in the earlier format, which also listed the active
//!    reorganizations and carried a log window, is `Corrupt`;
//! 1. every strict prefix is `Corrupt`;
//! 2. every one-byte change is `Corrupt` (the CRC catches it);
//! 3. every one-byte change to the body, with the CRC recomputed to match,
//!    decodes or is `Corrupt` — never a panic — and no allocation the
//!    decoder makes is larger than a small multiple of the file.

use brahma::storage::codec::crc32;
use brahma::storage::decode_checkpoint;
use brahma::{Error, PhysAddr, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// The largest single allocation request made on this thread.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

struct Largest;

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down, where there is nothing left to note into.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(bytes)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the tracker touches no allocator state.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// Bytes of the file a durable checkpoint of the fixture store writes,
/// built in a scratch directory named by `tag`.
fn fixture(tag: &str) -> Vec<u8> {
    let dir = std::env::temp_dir().join(format!("brahma-ckpt-fuzz-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = StoreConfig {
        data_dir: Some(dir.clone()),
        ..StoreConfig::default()
    };
    let db = brahma::storage::open(config).expect("fresh open").db;
    let (p0, p1) = (db.create_partition(), db.create_partition());
    db.start_reorg(p0).expect("reorganize p0");
    db.start_reorg(p1).expect("reorganize p1");
    db.create_partition();
    db.add_root(PhysAddr::new(p0, 0, 0));
    db.add_root(PhysAddr::new(p1, 3, 64));
    db.checkpoint_durable(1).expect("durable checkpoint");
    let bytes = std::fs::read(dir.join("checkpoint.img")).expect("read checkpoint");
    drop(db);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    bytes
}

fn is_corrupt(bytes: &[u8]) -> bool {
    matches!(decode_checkpoint(bytes), Err(Error::Corrupt { .. }))
}

#[test]
fn the_fixture_decodes() {
    let ckpt = decode_checkpoint(&fixture("decodes")).expect("fixture decodes");
    assert_eq!(ckpt.partitions.len(), 3);
    assert_eq!(ckpt.roots.len(), 2);
}

#[test]
fn the_earlier_format_is_corrupt() {
    let mut bytes = fixture("earlier");
    bytes[..8].copy_from_slice(b"BRHMCKP4");
    assert!(is_corrupt(&bytes));
}

#[test]
fn every_strict_prefix_is_corrupt() {
    let bytes = fixture("prefix");
    for len in 0..bytes.len() {
        assert!(is_corrupt(&bytes[..len]), "prefix of {len} bytes");
    }
}

#[test]
fn every_one_byte_change_is_corrupt() {
    let bytes = fixture("change");
    let mut changed = bytes.clone();
    for at in 0..bytes.len() {
        for mask in 1..=u8::MAX {
            changed[at] = bytes[at] ^ mask;
            assert!(is_corrupt(&changed), "byte {at} ^ {mask:#04x}");
        }
        changed[at] = bytes[at];
    }
}

#[test]
fn body_changes_under_a_matching_crc_decode_or_are_corrupt_within_budget() {
    let bytes = fixture("body");
    let budget = 32 * bytes.len();
    let mut changed = bytes.clone();
    let mut decoded = 0;
    for at in 12..bytes.len() {
        for mask in 1..=u8::MAX {
            changed[at] = bytes[at] ^ mask;
            let crc = crc32(&changed[12..]);
            changed[8..12].copy_from_slice(&crc.to_le_bytes());
            LARGEST.with(|l| l.set(0));
            match decode_checkpoint(&changed) {
                Ok(_) => decoded += 1,
                Err(Error::Corrupt { .. }) => {}
                Err(e) => panic!("byte {at} ^ {mask:#04x}: {e}, not Corrupt"),
            }
            let largest = LARGEST.with(Cell::get);
            assert!(
                largest <= budget,
                "byte {at} ^ {mask:#04x}: one allocation of {largest} bytes, budget {budget}"
            );
        }
        changed[at] = bytes[at];
    }
    // Ids, LSNs, roots and record contents are free-form: plenty of
    // changes still decode.
    assert!(decoded > 0);
}
