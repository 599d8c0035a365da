//! Round-trip and corruption-rejection properties for the on-disk WAL
//! codec (DESIGN.md §14), plus torn-tail truncation per record type.
//!
//! The properties checked:
//!
//! 1. every `LogPayload` variant survives `encode_record_body` →
//!    `decode_record_body` → re-encode byte-identically;
//! 2. a full frame round-trips through `next_frame`;
//! 3. flipping *any single byte* of a framed record yields `Framed::Torn`
//!    (or, for length-prefix mutations, a torn/over-cap rejection) —
//!    never a successfully parsed record and never a panic;
//! 4. for every record type, a segment file ending in a half-written
//!    frame of that type is truncated at the tear by `scan_segment_file`
//!    and scans clean afterwards;
//! 5. `LogPayload::inverse` is an involution on the eight update records
//!    (and `None` on the rest). That REDO of an update and then its inverse
//!    leaves every page image byte-identical is a `recovery` unit test.

use brahma::storage::codec::{
    crc32, decode_record_body, encode_record_body, next_frame, put_frame, Framed,
    RECORD_HEADER_BYTES,
};
use brahma::storage::scan_segment_file;
use brahma::wal::{LogPayload, LogRecord};
use brahma::{ObjectView, PartitionId, PhysAddr};
use std::io::Write;

/// A record in its segment framing: `[len][crc][body]`.
fn encode_record(rec: &LogRecord) -> Vec<u8> {
    let mut out = Vec::new();
    put_frame(&mut out, &encode_record_body(rec));
    out
}

fn addr(p: u16, page: u32, off: u16) -> PhysAddr {
    PhysAddr::new(PartitionId(p), page, off)
}

fn view(tag: u8) -> ObjectView {
    ObjectView {
        tag,
        refs: vec![addr(1, 2, 3), addr(4, 5, 6)],
        ref_cap: 4,
        payload: vec![0xAB; 11],
        payload_cap: 16,
    }
}

/// One representative record per `LogPayload` variant (all 14), in tag
/// order.
fn sample_records() -> Vec<LogRecord> {
    let mk = |lsn: u64, payload: LogPayload| LogRecord {
        lsn,
        tid: brahma::TxnId(900 + lsn),
        payload,
    };
    vec![
        mk(1, LogPayload::Begin),
        mk(2, LogPayload::Commit),
        mk(3, LogPayload::Abort),
        mk(
            4,
            LogPayload::Create {
                addr: addr(1, 9, 2),
                image: view(3),
            },
        ),
        mk(
            5,
            LogPayload::Free {
                addr: addr(1, 9, 2),
                image: view(4),
            },
        ),
        mk(
            6,
            LogPayload::SetPayload {
                addr: addr(2, 0, 1),
                old: vec![1, 2, 3],
                new: vec![],
            },
        ),
        mk(
            7,
            LogPayload::InsertRef {
                parent: addr(1, 1, 1),
                child: addr(2, 2, 2),
                index: 0,
            },
        ),
        mk(
            8,
            LogPayload::DeleteRef {
                parent: addr(1, 1, 1),
                child: addr(2, 2, 2),
                index: 3,
            },
        ),
        mk(
            9,
            LogPayload::SetRef {
                parent: addr(1, 1, 1),
                index: 2,
                old_child: addr(2, 2, 2),
                new_child: addr(3, 3, 3),
            },
        ),
        mk(
            10,
            LogPayload::ReorgStart {
                partition: PartitionId(5),
                floor: 9,
            },
        ),
        mk(
            11,
            LogPayload::ReorgEnd {
                partition: PartitionId(5),
                base: 4,
            },
        ),
        mk(
            12,
            LogPayload::Migrate {
                old: addr(5, 1, 0),
                new: addr(5, 2, 0),
            },
        ),
        mk(13, LogPayload::CreatePartition { id: PartitionId(9) }),
        mk(
            14,
            LogPayload::Move {
                old: addr(5, 1, 64),
                new: addr(6, 3, 0),
            },
        ),
    ]
}

/// Property 1: byte-stable round trip for every variant, checked on the
/// re-encoded bytes (canonical encoding).
#[test]
fn every_variant_roundtrips_byte_stable() {
    for rec in sample_records() {
        let body = encode_record_body(&rec);
        let decoded = decode_record_body(&body, 0)
            .unwrap_or_else(|e| panic!("decode failed for lsn {}: {e}", rec.lsn));
        assert_eq!(decoded.lsn, rec.lsn);
        assert_eq!(decoded.tid, rec.tid);
        let re = encode_record_body(&decoded);
        assert_eq!(re, body, "re-encode differs for lsn {}", rec.lsn);
    }
}

/// Property 2: a full frame round-trips through `next_frame`.
#[test]
fn framed_roundtrip() {
    for rec in sample_records() {
        let frame = encode_record(&rec);
        match next_frame(&frame, 0, 0) {
            Framed::Body { body, at } => {
                assert_eq!(at, RECORD_HEADER_BYTES as u64);
                let decoded = decode_record_body(body, at).expect("decode framed body");
                assert_eq!(decoded.lsn, rec.lsn);
            }
            other => panic!("expected Body for lsn {}, got {other:?}", rec.lsn),
        }
        // And a two-frame buffer yields both then End.
        let mut buf = frame.clone();
        buf.extend_from_slice(&frame);
        let Framed::Body { .. } = next_frame(&buf, 0, 0) else {
            panic!("first frame");
        };
        let Framed::Body { .. } = next_frame(&buf, frame.len(), 0) else {
            panic!("second frame");
        };
        assert!(matches!(next_frame(&buf, 2 * frame.len(), 0), Framed::End));
    }
}

/// Property 3: every single-byte mutation of a framed record is caught.
/// CRC32 detects all single-byte errors in the body and in the stored
/// CRC itself; length-prefix mutations either run past the buffer end,
/// exceed the cap, or fail the CRC over the re-sliced body. In no case
/// may the frame parse as `Body`, and nothing may panic.
#[test]
fn any_single_byte_flip_is_rejected() {
    for rec in sample_records() {
        let frame = encode_record(&rec);
        for i in 0..frame.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut bad = frame.clone();
                bad[i] ^= flip;
                match next_frame(&bad, 0, 0) {
                    Framed::Torn { .. } => {}
                    Framed::End => {
                        panic!("flip {flip:#x} at byte {i} (lsn {}) read as End", rec.lsn)
                    }
                    Framed::Body { .. } => panic!(
                        "flip {flip:#x} at byte {i} (lsn {}) parsed as a valid frame",
                        rec.lsn
                    ),
                }
            }
        }
    }
}

/// Property 3b: CRC-valid frames whose *body* is structurally bad (an
/// unknown tag, a truncated payload) must return `Error::Corrupt` from
/// `decode_record_body` — a hard error, never a panic, and explicitly
/// not a retryable conflict.
#[test]
fn structurally_bad_bodies_are_corrupt_not_panics() {
    let rec = &sample_records()[3]; // Create — has a nested ObjectView
    let body = encode_record_body(rec);

    // Unknown tag byte (tag lives right after lsn u64 + tid u64).
    let mut bad = body.clone();
    bad[16] = 0xEE;
    let err = decode_record_body(&bad, 0).expect_err("unknown tag must not parse");
    assert!(
        matches!(err, brahma::Error::Corrupt { .. }),
        "expected Corrupt, got {err}"
    );
    assert!(!err.is_retryable_conflict());

    // Truncated body: chop bytes off the tail one at a time.
    for cut in 1..body.len().min(24) {
        let short = &body[..body.len() - cut];
        match decode_record_body(short, 0) {
            Err(brahma::Error::Corrupt { .. }) => {}
            Err(e) => panic!("cut {cut}: expected Corrupt, got {e}"),
            Ok(_) => {
                // A shorter valid parse would have to consume exactly the
                // truncated length — expect_end makes that impossible.
                panic!("cut {cut}: truncated body parsed successfully");
            }
        }
    }
}

/// Property 5: `inverse` swaps the update records pairwise and is its own
/// inverse; every other record has none.
#[test]
fn inverse_is_an_involution_on_update_records() {
    let mut updates = 0;
    for rec in sample_records() {
        let p = rec.payload;
        match p.clone().inverse() {
            Some(inv) => {
                updates += 1;
                assert_ne!(inv, p, "lsn {}: an update is not its own inverse", rec.lsn);
                assert_eq!(inv.inverse(), Some(p), "lsn {}", rec.lsn);
            }
            None => assert!(
                !matches!(
                    p,
                    LogPayload::Create { .. }
                        | LogPayload::Free { .. }
                        | LogPayload::SetPayload { .. }
                        | LogPayload::InsertRef { .. }
                        | LogPayload::DeleteRef { .. }
                        | LogPayload::SetRef { .. }
                        | LogPayload::Migrate { .. }
                        | LogPayload::Move { .. }
                ),
                "lsn {}: update record without an inverse",
                rec.lsn
            ),
        }
    }
    assert_eq!(updates, 8);
}

/// Build a segment file: magic + start_lsn header, `whole` full frames,
/// then the first `torn_bytes` bytes of one more frame.
fn write_segment(
    path: &std::path::Path,
    start_lsn: u64,
    whole: &[LogRecord],
    torn: Option<(&LogRecord, usize)>,
) {
    let mut f = std::fs::File::create(path).expect("create segment");
    f.write_all(b"BRHMWAL4").expect("magic");
    f.write_all(&start_lsn.to_le_bytes()).expect("header lsn");
    for rec in whole {
        f.write_all(&encode_record(rec)).expect("frame");
    }
    if let Some((rec, keep)) = torn {
        let frame = encode_record(rec);
        let keep = keep.min(frame.len().saturating_sub(1));
        f.write_all(&frame[..keep]).expect("torn frame");
    }
    f.sync_all().expect("sync");
}

/// Property 4: for EVERY record type, a segment ending in a half-written
/// frame of that type truncates at the tear, keeps the preceding intact
/// records, and rescans clean (idempotent recovery).
#[test]
fn torn_tail_truncation_per_record_type() {
    let dir = std::env::temp_dir().join(format!("brahma-torn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let samples = sample_records();
    for (i, torn_rec) in samples.iter().enumerate() {
        let path = dir.join(format!("seg-{i}.wal"));
        let whole = &samples[..i]; // everything before it is intact
        let frame_len = encode_record(torn_rec).len();
        // Tear at several depths: header-only, mid-header, mid-body.
        for keep in [
            1usize,
            RECORD_HEADER_BYTES - 1,
            RECORD_HEADER_BYTES + frame_len / 3,
        ] {
            write_segment(&path, 1, whole, Some((torn_rec, keep)));
            let before = std::fs::metadata(&path).expect("meta").len();
            let (recs, tear) = scan_segment_file(&path, true).expect("scan with truncation");
            assert_eq!(recs.len(), whole.len(), "variant {i} keep {keep}");
            for (r, w) in recs.iter().zip(whole) {
                assert_eq!(r.lsn, w.lsn);
            }
            let tear_at =
                tear.unwrap_or_else(|| panic!("variant {i} keep {keep}: no tear reported"));
            assert!(tear_at < before, "tear offset past old EOF");
            let after = std::fs::metadata(&path).expect("meta").len();
            assert_eq!(after, tear_at, "file not truncated to the tear");
            // Second scan of the truncated file is clean: same records, no tear.
            let (recs2, tear2) = scan_segment_file(&path, true).expect("rescan");
            assert_eq!(recs2.len(), whole.len());
            assert!(tear2.is_none(), "variant {i}: rescan still torn");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A segment whose *interior* frame fails its CRC is a hard corruption:
/// the tail beyond it was durably acknowledged, so silently dropping it
/// is not an option — but the scan itself reports the tear position and
/// (by the torn-tail model) truncates there. What must never happen is a
/// parse of the mutated frame. This pins the interior-flip behavior.
#[test]
fn interior_flip_never_parses() {
    let dir = std::env::temp_dir().join(format!("brahma-intflip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    let samples = sample_records();
    let path = dir.join("seg.wal");
    write_segment(&path, 1, &samples, None);
    let bytes = std::fs::read(&path).expect("read");
    // Flip one byte inside the *first* frame's body; scan must stop at
    // frame 0 with zero records, not mis-parse.
    let mut bad = bytes.clone();
    bad[16 + RECORD_HEADER_BYTES + 4] ^= 0x40;
    std::fs::write(&path, &bad).expect("write corrupted");
    let (recs, tear) = scan_segment_file(&path, false).expect("scan");
    assert!(recs.is_empty(), "corrupted first frame yielded records");
    assert_eq!(tear, Some(16), "tear should be at the first frame start");
    std::fs::remove_dir_all(&dir).ok();
}

/// crc32 sanity: the common test vector, so a silent table regression in
/// the hand-rolled implementation can't hide behind self-consistency.
#[test]
fn crc32_test_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}
