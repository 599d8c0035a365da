//! The chaos crash-point sweep (DESIGN.md §9): for every registered fault
//! site — substrate and IRA-level — run a crash cell at several Nth-hit
//! strides. Each cell crashes the database at that coordinate (when the
//! site reaches the stride), recovers, resumes from the durable
//! [`ira::IraCheckpoint`], and verifies all reorganization invariants; a
//! cell whose site never reaches its stride completes clean and is
//! verified the same way.
//!
//! The sweep also asserts that every site actually fired in at least one
//! cell. A failing cell prints a `REPRO: …` banner with its exact
//! coordinates (and dumps the schedule ring when `SCHED_DUMP=path` is
//! set); `CHAOS_ROOT_SEED` overrides the root of the sweep's
//! [`brahma::SeedTree`] to re-run a reported seed.

use brahma::env_cfg;
use brahma::SeedTree;
use ira::chaos::{all_sites, run_crash_cell, with_repro_banner, ChaosCell};
use std::collections::HashMap;

/// Root of the sweep's seed tree: every cell seed derives from it, so the
/// whole matrix is reproducible from this one number.
fn root_seed() -> u64 {
    env_cfg::chaos_root_seed()
}

const STRIDES: [u64; 4] = [1, 2, 3, 7];

#[test]
fn crash_point_sweep_over_every_site() {
    let root = root_seed();
    let tree = SeedTree::new(root);
    let mut fired: HashMap<&'static str, u64> = HashMap::new();
    let mut crashed_cells = 0usize;
    let mut total_cells = 0usize;
    // Lockdep runs armed throughout the sweep (debug builds / the `lockdep`
    // feature): any lock-order cycle or IRA footprint breach inside a cell
    // panics the cell. The counter check below catches the release-with-
    // lockdep configuration, where violations count instead of panicking.
    let lockdep_before = brahma::lockdep::violations();

    for &site in &all_sites() {
        for stride in STRIDES {
            let cell = ChaosCell {
                site,
                nth_hit: stride,
                seed: tree.child(site).child_idx(stride).seed(),
            };
            // run_crash_cell panics on any invariant violation; reaching
            // here means the cell verified.
            let outcome = with_repro_banner(
                &format!(
                    "CHAOS_ROOT_SEED={root} CELL=site:{site},nth_hit:{stride},seed:{:#x}",
                    cell.seed
                ),
                || run_crash_cell(&cell),
            );
            *fired.entry(site).or_default() += outcome.fired;
            total_cells += 1;
            if outcome.crashed {
                crashed_cells += 1;
                assert!(
                    outcome.fired >= 1,
                    "REPRO: CHAOS_ROOT_SEED={root} CELL=site:{site},nth_hit:{stride} \
                     — cell {cell:?} crashed without firing"
                );
            }
        }
    }

    // The stride-1 cells fire deterministically (the primer transaction
    // touches every substrate site; the reorganizer touches the IRA sites),
    // so every site must have fired somewhere.
    for &site in &all_sites() {
        assert!(
            fired.get(site).copied().unwrap_or(0) > 0,
            "REPRO: CHAOS_ROOT_SEED={root} CELL=site:{site} \
             — site never fired in any cell of the matrix"
        );
    }
    assert!(
        crashed_cells > 0,
        "REPRO: CHAOS_ROOT_SEED={root} — the sweep must exercise the \
         crash/recover/resume path ({total_cells} cells ran)"
    );
    assert_eq!(
        brahma::lockdep::violations(),
        lockdep_before,
        "REPRO: CHAOS_ROOT_SEED={root} — the chaos sweep must run clean under lockdep"
    );
}
