//! Schedule exploration over the crash cells (DESIGN.md §12): a PCT
//! controller perturbs the walkers' and the reorganizer's interleaving at
//! every instrumented point while a cell crashes at a batch boundary,
//! recovers cold and restarts the interrupted pass from its floor.

#![cfg(debug_assertions)]

use harness::{run_cell, with_repro_banner, CrashCell, PctExplorer};
use std::sync::Arc;

/// Schedule exploration over the batch-boundary crash cell:
/// `EXPLORE_ROOTS` fault/workload seeds × `EXPLORE_PRIOS` PCT priority
/// seeds, every cell verified. Bounded so ci.sh can run a small smoke;
/// crank the env vars to hunt.
#[test]
#[ignore = "exploration sweep; run with --ignored, bound via EXPLORE_ROOTS/EXPLORE_PRIOS"]
fn explore_chaos() {
    let roots = harness::env_cfg::explore_roots(4);
    let prios = harness::env_cfg::explore_prios(4);
    let tree = brahma::SeedTree::new(harness::env_cfg::chaos_root_seed()).child("explore");
    let site = ira::site::BATCH;
    for r in 0..roots {
        let root = tree.child(site).child_idx(r).seed();
        for p in 0..prios {
            let prio = brahma::SeedTree::new(root)
                .child("prio")
                .child_idx(p)
                .seed();
            // 3 preemption points over a ~400-point horizon, after PCT:
            // enough to flip who wins each instrumented race without
            // degenerating into uniform noise.
            brahma::sched::install_controller(Arc::new(PctExplorer::new(prio, 3, 400)));
            let cell = CrashCell {
                site,
                nth_hit: 3,
                seed: root,
            };
            with_repro_banner(
                &format!("EXPLORE CELL=site:{site},root:{root:#x},prio:{prio:#x}"),
                || run_cell(&cell),
            );
            brahma::sched::clear_controller();
        }
    }
}
