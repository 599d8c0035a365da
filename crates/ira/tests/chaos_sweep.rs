//! The chaos crash-point sweep (DESIGN.md §9.2): for every registered fault
//! site — substrate, file and IRA-level — run a crash cell at several
//! Nth-hit strides. Each cell runs on a file-backed store, kills it at that
//! coordinate, reopens cold (with a second kill armed during recovery),
//! resumes or restarts the interrupted reorganization, and verifies every
//! reorganization invariant; a cell whose site never reaches its stride
//! completes clean and is verified the same way.
//!
//! A failing cell prints a `REPRO: …` banner with its exact coordinates
//! (and dumps the schedule ring when `SCHED_DUMP=path` is set);
//! `CHAOS_ROOT_SEED` overrides the root of the sweep's
//! [`brahma::SeedTree`] to re-run a reported seed.

use brahma::env_cfg;
use brahma::fault::site::{ALL, FILE_ALL};
use brahma::SeedTree;
use harness::{run_cell, run_multi_partition_kill, with_repro_banner, CrashCell};

/// Nth-hit strides of the in-memory and IRA sites.
const STRIDES: [u64; 4] = [1, 2, 3, 7];
/// File sites are hit far more often (every log append is a pwrite), so
/// their strides sit deeper: stride 1 kills during the first durable write
/// of the reorganization, the deep strides land mid-run.
const FILE_STRIDES: [u64; 4] = [1, 7, 12, 30];

#[test]
fn crash_point_sweep_over_every_site() {
    let root = env_cfg::chaos_root_seed();
    let tree = SeedTree::new(root);
    let matrix = ALL
        .iter()
        .chain(ira::site::ALL)
        .map(|&site| (site, STRIDES))
        .chain(FILE_ALL.iter().map(|&site| (site, FILE_STRIDES)));
    let (mut torn, mut double_crashed, mut interrupted, mut resumed) = (0, 0, 0, 0);
    // Lockdep runs armed throughout the sweep (debug builds / the `lockdep`
    // feature): any lock-order cycle or IRA footprint breach inside a cell
    // panics the cell. The counter check below catches the release-with-
    // lockdep configuration, where violations count instead of panicking.
    let lockdep_before = brahma::lockdep::violations();

    for (site, strides) in matrix {
        let mut site_fired = 0;
        for stride in strides {
            let cell = CrashCell {
                site,
                nth_hit: stride,
                seed: tree.child(site).child_idx(stride).seed(),
            };
            let banner = format!(
                "CHAOS_ROOT_SEED={root} CELL=site:{site},nth_hit:{stride},seed:{:#x}",
                cell.seed
            );
            // run_cell panics on any invariant violation; reaching here
            // means the cell verified after every open it performed.
            let out = with_repro_banner(&banner, || run_cell(&cell));
            assert!(
                !out.killed || out.fired >= 1,
                "REPRO: {banner} — the cell crashed without firing its rule"
            );
            site_fired += out.fired;
            torn += (out.torn_truncations > 0) as usize;
            double_crashed += out.double_crashed as usize;
            interrupted += out.interrupted as usize;
            resumed += out.resumed as usize;
        }
        // The stride-1 cells fire deterministically (the primer transaction
        // touches every substrate site, the reorganizer the IRA and file
        // sites), so every site must fire somewhere.
        assert!(
            site_fired > 0,
            "REPRO: CHAOS_ROOT_SEED={root} CELL=site:{site} — site never fired in any cell"
        );
    }
    let coverage = [
        (torn, "truncated a torn tail"),
        (double_crashed, "double-crashed during recovery"),
        (interrupted, "was interrupted mid-reorganization"),
        (resumed, "resumed from a durable blob"),
    ];
    eprintln!("chaos sweep: {coverage:?}");
    for (cells, what) in coverage {
        assert!(cells > 0, "REPRO: CHAOS_ROOT_SEED={root} — no cell {what}");
    }
    assert_eq!(
        brahma::lockdep::violations(),
        lockdep_before,
        "REPRO: CHAOS_ROOT_SEED={root} — the chaos sweep must run clean under lockdep"
    );
}

/// A mid-reorg kill with reorganizations of TWO partitions in flight:
/// restart hands back both as interrupted, both resume from their
/// on-disk checkpoint blobs, and the resumed runs complete the exact
/// migration totals.
#[test]
fn multi_partition_kill_resumes_both() {
    let lockdep_before = brahma::lockdep::violations();
    let (resumed_migrations, expected_total) =
        with_repro_banner("MULTI seed:0xD15C2", || run_multi_partition_kill(0xD15C2));
    assert_eq!(
        resumed_migrations, expected_total,
        "resumed reorganizations must finish every live object"
    );
    assert_eq!(brahma::lockdep::violations(), lockdep_before);
}
