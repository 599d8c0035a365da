//! A schedule controller over [`brahma::sched`] (DESIGN.md §12).
//!
//! [`PctExplorer`] perturbs schedules à la PCT (Burckhardt et al.,
//! "probabilistic concurrency testing"): every thread draws a seeded
//! priority, low-priority threads are delayed at instrumented points, and
//! a small set of seeded *change points* re-draw the acting thread's
//! priority mid-run, forcing preemptions where a naive run never has one.
//!
//! The substrate's threads block on *real* locks and condvars the
//! controller cannot see through, so it is not a bit-exact scheduler: it
//! only ever sleeps, and never parks a thread.

use brahma::sched::{splitmix64, Controller};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn poisoned<T>(e: std::sync::PoisonError<T>) -> T {
    // Controllers must keep working while a failing test unwinds.
    e.into_inner()
}

// ------------------------------------------------------------- explore --

/// Random-priority schedule perturbation, after PCT: every thread draws a
/// seeded priority on first contact; at each instrumented point the
/// non-top-priority threads are delayed a little (seeded duration), letting
/// the top-priority thread race ahead; and `change_points` seeded global
/// point-indices re-draw the acting thread's priority, flipping who is
/// "fast" mid-run. Two runs with the same `(root seed, priority seed)` and
/// SeedTree-determinized RNGs perturb the schedule the same way.
///
/// The delays are real sleeps, not cooperative gates — threads blocked in
/// substrate locks keep the system live no matter what the explorer does.
pub struct PctExplorer {
    seed: u64,
    /// Global point indices at which the acting thread's priority re-draws.
    change_points: Vec<u64>,
    /// Delay ceiling for non-top threads, per point.
    max_delay: Duration,
    state: Mutex<PctState>,
}

#[derive(Default)]
struct PctState {
    priorities: HashMap<String, u64>,
    points: u64,
}

impl PctExplorer {
    /// `n_change_points` are drawn from `[0, horizon)` — pick `horizon`
    /// near the expected number of instrumented points per run (a chaos cell
    /// produces a few thousand).
    pub fn new(seed: u64, n_change_points: usize, horizon: u64) -> Self {
        let mut change_points: Vec<u64> = (0..n_change_points as u64)
            .map(|i| splitmix64(seed ^ (0xC4A0 + i)) % horizon.max(1))
            .collect();
        change_points.sort_unstable();
        change_points.dedup();
        PctExplorer {
            seed,
            change_points,
            max_delay: Duration::from_micros(300),
            state: Mutex::new(PctState::default()),
        }
    }

    /// Instrumented points seen so far (for sizing `horizon`).
    pub fn points(&self) -> u64 {
        self.state.lock().unwrap_or_else(poisoned).points
    }
}

impl Controller for PctExplorer {
    /// Threads are told apart by their `std::thread` name (`walker-3` for
    /// a workload or crash-cell walker; empty for an unnamed thread).
    fn at_point(&self, _event: &'static str) {
        let me = std::thread::current();
        let thread = me.name().unwrap_or("");
        let delay = {
            let mut st = self.state.lock().unwrap_or_else(poisoned);
            let n = st.points;
            st.points += 1;
            let seed = self.seed;
            let prio = *st
                .priorities
                .entry(thread.to_string())
                .or_insert_with(|| splitmix64(seed ^ fnv1a(thread)));
            if self.change_points.binary_search(&n).is_ok() {
                // Preemption point: demote the acting thread below everyone
                // (PCT's priority change), deterministically from (seed, n).
                let demoted = splitmix64(seed ^ n) >> 32; // below any initial draw
                st.priorities.insert(thread.to_string(), demoted);
            }
            let top = st.priorities.values().copied().max().unwrap_or(prio);
            if prio >= top {
                Duration::ZERO
            } else {
                // Seeded sub-millisecond delay: long enough to let the top
                // thread cross a racy window, short enough to keep a cell
                // fast.
                let span = self.max_delay.as_nanos() as u64;
                Duration::from_nanos(splitmix64(seed ^ n ^ prio) % span.max(1))
            }
        };
        if !delay.is_zero() {
            #[expect(
                clippy::disallowed_methods,
                reason = "PCT perturbation (DESIGN.md §12): a cooperative wait could deadlock"
            )]
            std::thread::sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_priorities_are_deterministic() {
        let a = PctExplorer::new(9, 4, 1000);
        let b = PctExplorer::new(9, 4, 1000);
        assert_eq!(a.change_points, b.change_points);
        let c = PctExplorer::new(10, 4, 1000);
        assert!(a.change_points != c.change_points || a.seed != c.seed);
        // Driving the same point sequence twice yields the same priority
        // tables (delays are seeded by (seed, point index, priority)).
        for n in 0..20u64 {
            let th = if n % 2 == 0 { "t0" } else { "t1" };
            std::thread::scope(|s| {
                std::thread::Builder::new()
                    .name(th.to_string())
                    .spawn_scoped(s, || {
                        a.at_point("e");
                        b.at_point("e");
                    })
                    .unwrap();
            });
        }
        let names: Vec<String> = a.state.lock().unwrap().priorities.keys().cloned().collect();
        assert_eq!(names.len(), 2, "one priority per thread name: {names:?}");
        assert_eq!(
            a.state.lock().unwrap().priorities,
            b.state.lock().unwrap().priorities
        );
        assert_eq!(a.points(), 20);
    }
}
