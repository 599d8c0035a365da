//! The disk-chaos kill sweep (DESIGN.md §14): for every file fault site
//! — `file.pwrite`, `file.fsync`, `file.torn_write`, `ckpt.rename` — run
//! a cell that kills the "process" (the backend goes dead, exactly as a
//! kill -9 leaves the files) at the Nth hit of that site while a
//! checkpointed reorganization runs under concurrent walkers. Each cell
//! then reopens the directory cold, recovers (truncating torn tails),
//! arms a *second* kill during recovery itself (the double-crash), opens
//! again, resumes the interrupted reorganization from its durable blob,
//! and verifies graph isomorphism + store consistency.
//!
//! `DISK_CHAOS_ROOT_SEED` overrides the seed tree root to re-run a
//! reported matrix verbatim; failing cells print a `REPRO: …` banner with
//! their exact coordinates.

use brahma::env_cfg;
use brahma::SeedTree;
use ira::chaos::with_repro_banner;
use ira::{run_disk_cell, run_multi_partition_kill, DiskChaosCell};
use std::collections::HashMap;

fn root_seed() -> u64 {
    env_cfg::disk_chaos_root_seed()
}

/// Nth-hit strides. File sites are hit far more often than logical fault
/// sites (every log append is a pwrite), so the strides sit deeper than
/// the in-memory chaos sweep's: stride 1 kills during the very first
/// durable write of the reorganization, the deep strides land mid-run.
const STRIDES: [u64; 4] = [1, 7, 12, 30];

#[test]
fn disk_kill_sweep_over_every_file_site() {
    let root = root_seed();
    let tree = SeedTree::new(root);
    let mut fired: HashMap<&'static str, u64> = HashMap::new();
    let mut killed_cells = 0usize;
    let mut interrupted_cells = 0usize;
    let mut double_crashes = 0usize;
    let mut resumed = 0usize;
    let mut torn = 0u64;
    let lockdep_before = brahma::lockdep::violations();

    for &site in brahma::fault::site::FILE_ALL {
        for stride in STRIDES {
            let cell = DiskChaosCell {
                site,
                nth_hit: stride,
                seed: tree.child(site).child_idx(stride).seed(),
            };
            // run_disk_cell panics on any invariant violation; reaching
            // here means the cell's graph verified isomorphic after every
            // open it performed.
            let outcome = with_repro_banner(
                &format!(
                    "DISK_CHAOS_ROOT_SEED={root} CELL=site:{site},nth_hit:{stride},seed:{:#x}",
                    cell.seed
                ),
                || run_disk_cell(&cell),
            );
            *fired.entry(site).or_default() += outcome.fired;
            killed_cells += outcome.killed as usize;
            interrupted_cells += outcome.interrupted as usize;
            double_crashes += outcome.double_crashed as usize;
            resumed += outcome.resumed_from_checkpoint as usize;
            torn += outcome.torn_truncations;
        }
    }

    // The kill path must actually have been exercised: at least one cell
    // died mid-run, and every file site fired somewhere (stride 1 fires on
    // the first durable write).
    assert!(
        killed_cells > 0,
        "REPRO: DISK_CHAOS_ROOT_SEED={root} — no cell was killed; the \
         sweep never exercised crash recovery"
    );
    for &site in brahma::fault::site::FILE_ALL {
        assert!(
            fired.get(site).copied().unwrap_or(0) > 0,
            "REPRO: DISK_CHAOS_ROOT_SEED={root} CELL=site:{site} \
             — file site never fired in any cell of the matrix"
        );
    }
    // Torn-write cells must have produced (and truncated) at least one
    // torn tail; at least one recovery must itself have been crashed and
    // survived a third open; and at least one deep-stride cell must have
    // killed the process with the reorganization still open (ReorgStart on
    // disk, no ReorgEnd).
    assert!(
        torn > 0,
        "REPRO: DISK_CHAOS_ROOT_SEED={root} — torn-write cells \
         truncated no tails"
    );
    assert!(
        double_crashes > 0,
        "REPRO: DISK_CHAOS_ROOT_SEED={root} — no cell double-crashed \
         during recovery"
    );
    assert!(
        interrupted_cells > 0,
        "REPRO: DISK_CHAOS_ROOT_SEED={root} — no cell killed the \
         process mid-reorganization"
    );
    // Whether a kill lands in the window after the first durable blob but
    // before ReorgEnd depends on walker scheduling, so blob-resume counts
    // are reported rather than asserted here — the deterministic
    // resume-from-blob coverage is `multi_partition_kill_resumes_both`
    // (and the blob branch of `run_disk_cell` asserts TRT-superset and
    // isomorphism whenever a cell does take it).
    eprintln!(
        "disk sweep: {killed_cells} killed, {double_crashes} double-crashed, \
         {resumed} resumed from blob, {torn} torn tails truncated"
    );
    assert_eq!(
        brahma::lockdep::violations(),
        lockdep_before,
        "REPRO: DISK_CHAOS_ROOT_SEED={root} — the disk sweep must run \
         clean under lockdep"
    );
}

/// A mid-reorg kill with reorganizations of TWO partitions in flight:
/// restart hands back both as interrupted, both resume from their
/// on-disk checkpoint blobs, and the resumed runs complete the exact
/// migration totals.
#[test]
fn multi_partition_kill_resumes_both() {
    let lockdep_before = brahma::lockdep::violations();
    let (resumed_migrations, expected_total) = with_repro_banner(
        "DISK_MULTI seed:0xD15C2",
        || run_multi_partition_kill(0xD15C2),
    );
    assert_eq!(
        resumed_migrations, expected_total,
        "resumed reorganizations must finish every live object"
    );
    assert_eq!(brahma::lockdep::violations(), lockdep_before);
}
