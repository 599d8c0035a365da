//! Byte-level fuzz of the `checkpoint.img` decoder (DESIGN.md §14).
//!
//! The fixture is a real checkpoint file: three partitions, two of them
//! holding a live object, one referencing the other across partitions,
//! two with a reorganization pass open at its floor, and two roots.
//! Against it:
//!
//! 0. a file in the earlier format, which also stored the allocator
//!    directories and the ERTs, is `Corrupt`;
//! 1. every strict prefix is `Corrupt`;
//! 2. every one-byte change is `Corrupt` (the CRC catches it);
//! 3. every one-byte change to the body, with the CRC recomputed to match,
//!    decodes or is `Corrupt` — never a panic — and no allocation the
//!    decoder makes is larger than a small multiple of the file.
//!
//! Page images are opaque to the decoder, so 2 and 3 try every change of
//! every other byte but sample the images: the first object's header and
//! references, then one byte in 509, each flipped whole.
//!
//! 4. The log-record decoder under the same tracker: for one body per tag,
//!    every strict prefix is `Corrupt`, every one-byte change (all 255, at
//!    every position) decodes or is `Corrupt` — a body the framing passed
//!    is never trusted to be well formed — and no allocation is larger than
//!    the body plus an error message.

use brahma::storage::codec::{crc32, decode_record_body, encode_record_body};
use brahma::storage::decode_checkpoint;
use brahma::wal::{LogPayload, LogRecord};
use brahma::{Checkpoint, Error, NewObject, ObjectView, PartitionId, PhysAddr, StoreConfig};
use brahma::{TxnId, PAGE_SIZE};
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
    let mut t = db.begin();
    let child = NewObject::exact(1, vec![], b"child".to_vec());
    let child = t.create_object(p1, child).expect("child");
    let parent = NewObject::exact(2, vec![child], b"parent".to_vec());
    let parent = t.create_object(p0, parent).expect("parent");
    t.commit().expect("commit");
    db.start_reorg(p0).expect("reorganize p0");
    db.start_reorg(p1).expect("reorganize p1");
    db.create_partition();
    db.add_root(parent);
    db.add_root(child);
    db.checkpoint_durable(1).expect("durable checkpoint");
    let bytes = std::fs::read(dir.join("checkpoint.img")).expect("read checkpoint");
    drop(db);
    std::fs::remove_dir_all(&dir).expect("remove scratch dir");
    bytes
}

fn is_corrupt(bytes: &[u8]) -> bool {
    matches!(decode_checkpoint(bytes), Err(Error::Corrupt { .. }))
}

/// The positions of `bytes` the byte-change tests try, each with the
/// masks it gets: every mask off the page images, the whole-byte flip on
/// the sampled image bytes. The file layout is DESIGN.md §14's.
fn positions(bytes: &[u8]) -> Vec<(usize, std::ops::RangeInclusive<u8>)> {
    let ckpt: Checkpoint = decode_checkpoint(bytes).expect("fixture decodes");
    // magic, crc, id, lsn, root count, roots, partition count
    let mut at = 8 + 4 + 8 + 8 + 4 + 8 * ckpt.roots.len() + 2;
    let mut images = Vec::new();
    for snap in &ckpt.partitions {
        // id, base, floor flag and floor, page count
        at += 2 + 4 + 1 + 4 * usize::from(snap.floor.is_some()) + 4;
        for _ in &snap.pages {
            images.push(at + 1..at + 1 + PAGE_SIZE);
            at += 1 + PAGE_SIZE;
        }
    }
    assert_eq!(at, bytes.len(), "the layout accounts for every byte");
    (0..bytes.len())
        .filter_map(|at| match images.iter().find(|image| image.contains(&at)) {
            None => Some((at, 1..=u8::MAX)),
            Some(image) => {
                let i = at - image.start;
                (i < 64 || i % 509 == 0).then_some((at, u8::MAX..=u8::MAX))
            }
        })
        .collect()
}

#[test]
fn the_fixture_decodes() {
    let ckpt = decode_checkpoint(&fixture("decodes")).expect("fixture decodes");
    assert_eq!(ckpt.partitions.len(), 3);
    assert_eq!(ckpt.roots.len(), 2);
    let held: Vec<usize> = ckpt.partitions.iter().map(|p| p.pages.len()).collect();
    assert_eq!(held, vec![1, 1, 0], "one page under each live object");
}

#[test]
fn the_earlier_format_is_corrupt() {
    let mut bytes = fixture("earlier");
    bytes[..8].copy_from_slice(b"BRHMCKP5");
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
    for (at, masks) in positions(&bytes) {
        for mask in masks {
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
    for (at, masks) in positions(&bytes).into_iter().filter(|(at, _)| *at >= 12) {
        for mask in masks {
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
    // Ids, LSNs, roots and page images are free-form: plenty of changes
    // still decode.
    assert!(decoded > 0);
}

/// One encoded log-record body per `LogPayload` tag, in tag order, each
/// with its references and byte strings non-empty where it has any.
fn one_body_per_tag() -> Vec<Vec<u8>> {
    let a = |page| PhysAddr::new(PartitionId(1), page, 0);
    let image = ObjectView {
        tag: 3,
        refs: vec![a(2), a(3)],
        ref_cap: 4,
        payload: vec![0xAB; 11],
        payload_cap: 16,
    };
    let (p, (old, new)) = (PartitionId(5), (a(1), a(2)));
    #[rustfmt::skip]
    let payloads = [
        LogPayload::Begin,
        LogPayload::Commit,
        LogPayload::Abort,
        LogPayload::Create { addr: a(9), image: image.clone() },
        LogPayload::Free { addr: a(9), image },
        LogPayload::SetPayload { addr: old, old: vec![1, 2, 3], new: vec![4; 9] },
        LogPayload::InsertRef { parent: old, child: new, index: 0 },
        LogPayload::DeleteRef { parent: old, child: new, index: 3 },
        LogPayload::SetRef { parent: old, index: 2, old_child: new, new_child: a(3) },
        LogPayload::ReorgStart { partition: p, floor: 9 },
        LogPayload::ReorgEnd { partition: p, base: 4 },
        LogPayload::Migrate { old, new },
        LogPayload::CreatePartition { id: p },
        LogPayload::Move { old, new },
    ];
    let record = |lsn, payload| LogRecord {
        lsn,
        tid: TxnId(7),
        payload,
    };
    (0..)
        .zip(payloads)
        .map(|(lsn, payload)| encode_record_body(&record(lsn, payload)))
        .collect()
}

/// Property 4: the log-record decoder never panics and allocates within
/// what it was given. Counts come from the bytes, so a decoder that sized a
/// buffer by a count before checking it against the input left would
/// allocate up to 65,535 references or 4 GiB of payload here. `SLACK`
/// covers the reason string of a `Corrupt`: the largest allocation runs at
/// most 35 bytes past the body today.
#[test]
fn every_prefix_and_byte_change_of_every_tag_decodes_or_is_corrupt_within_budget() {
    const SLACK: usize = 64;
    for (tag, body) in one_body_per_tag().iter().enumerate() {
        assert_eq!(usize::from(body[16]), tag, "one body per tag, in tag order");
        let budget = body.len() + SLACK;
        let check = |bytes: &[u8], what: &dyn Fn() -> String| {
            LARGEST.with(|l| l.set(0));
            let decoded = decode_record_body(bytes, 0);
            let largest = LARGEST.with(Cell::get);
            let parsed = match decoded {
                Ok(_) => true,
                Err(Error::Corrupt { .. }) => false,
                Err(e) => panic!("tag {tag}, {}: {e}, not Corrupt", what()),
            };
            assert!(
                largest <= budget,
                "tag {tag}, {}: one allocation of {largest} bytes, budget {budget}",
                what()
            );
            parsed
        };
        assert!(
            check(body, &|| "the whole body".to_string()),
            "tag {tag} decodes"
        );
        for len in 0..body.len() {
            let parsed = check(&body[..len], &|| format!("{len}-byte prefix"));
            assert!(!parsed, "tag {tag}, {len}-byte prefix parsed");
        }
        let mut changed = body.clone();
        for at in 0..body.len() {
            for mask in 1..=u8::MAX {
                changed[at] = body[at] ^ mask;
                check(&changed, &|| format!("byte {at} ^ {mask:#04x}"));
            }
            changed[at] = body[at];
        }
    }
}
