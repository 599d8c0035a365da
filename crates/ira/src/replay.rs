//! Schedule replay and exploration over [`brahma::sched`] (DESIGN.md §12).
//!
//! Three controllers, in increasing order of ambition:
//!
//! * [`Gate`] — surgical: trap the first matching event and hold its thread
//!   there until the test releases it. This is how the TRT lost-tuple
//!   regression test reconstructs the 1-in-300 interleaving exactly: park a
//!   walker between its WAL append and its TRT note (or, post-fix, prove
//!   the window no longer exists), run the fuzzy checkpoint, release.
//! * [`TraceReplay`] — replay a dumped schedule: threads arriving at
//!   instrumented points wait until the trace cursor reaches their line.
//! * [`PctExplorer`] — perturb schedules à la PCT (Burckhardt et al.,
//!   "probabilistic concurrency testing"): every thread draws a seeded
//!   priority, low-priority threads are delayed at instrumented points, and
//!   a small set of seeded *change points* re-draw the acting thread's
//!   priority mid-run, forcing preemptions where a naive run never has one.
//!
//! ## The honesty caveat
//!
//! The substrate's threads block on *real* locks and condvars the
//! controller cannot see through, so replay cannot be a bit-exact scheduler
//! (that would need a user-level scheduler under every primitive). Every
//! wait in this module is therefore **time-bounded**: a thread that cannot
//! be gated safely (because the thread it waits for is blocked in a real
//! lock) escapes after a short timeout and the divergence is *counted*, not
//! hidden. In practice the interesting races live between instrumented
//! points, the SeedTree makes all RNG streams identical across runs, and
//! gating at the points themselves recovers the schedule with high
//! probability — [`TraceReplay::divergences`] tells you how faithful a
//! given replay was.

use brahma::sched::{splitmix64, Controller};
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

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

// ---------------------------------------------------------------- Gate --

/// Trap the first occurrence of one event and hold the thread that hit it
/// until [`Gate::release`]. All other events pass through untouched.
///
/// The test thread meanwhile does its half of the interleaving and then
/// releases the gate; [`Gate::wait_arrived`] synchronizes the hand-off. A
/// trapped thread escapes on its own after `max_hold` (default 5 s) so a
/// buggy test cannot deadlock the suite — an escape before release is
/// observable via [`Gate::escaped`].
pub struct Gate {
    event: &'static str,
    /// Trap only events whose key matches, when set.
    key: Option<u64>,
    max_hold: Duration,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    arrived: bool,
    released: bool,
    escaped: bool,
}

impl Gate {
    pub fn new(event: &'static str) -> Self {
        Gate {
            event,
            key: None,
            max_hold: Duration::from_secs(5),
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
        }
    }

    /// Only trap occurrences with this exact event key.
    pub fn with_key(mut self, key: u64) -> Self {
        self.key = Some(key);
        self
    }

    /// Block until a thread is parked at the gate. Returns `false` on
    /// timeout (the event never happened).
    pub fn wait_arrived(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(poisoned);
        while !st.arrived {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(poisoned);
            st = guard;
        }
        true
    }

    /// Let the trapped thread continue (idempotent).
    pub fn release(&self) {
        self.state.lock().unwrap_or_else(poisoned).released = true;
        self.cv.notify_all();
    }

    /// Whether the trapped thread timed out of the gate before `release` —
    /// a replay that escaped did not reproduce the intended schedule.
    pub fn escaped(&self) -> bool {
        self.state.lock().unwrap_or_else(poisoned).escaped
    }
}

impl Controller for Gate {
    fn at_point(&self, _thread: &str, event: &'static str, key: u64) {
        if event != self.event || self.key.is_some_and(|k| k != key) {
            return;
        }
        let deadline = Instant::now() + self.max_hold;
        let mut st = self.state.lock().unwrap_or_else(poisoned);
        if st.arrived {
            return; // only the first occurrence is trapped
        }
        st.arrived = true;
        self.cv.notify_all();
        while !st.released {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                st.escaped = true;
                break;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(poisoned);
            st = guard;
        }
    }
}

// -------------------------------------------------------------- replay --

/// One line of a dumped schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    pub thread: String,
    pub event: String,
    pub key: u64,
}

/// A parsed schedule dump (the `seq<TAB>thread<TAB>event<TAB>key` format
/// written by [`brahma::sched::dump_to`]).
#[derive(Debug, Clone, Default)]
pub struct SchedTrace {
    pub steps: Vec<TraceStep>,
}

impl SchedTrace {
    /// Parse dump text; `#`-prefixed and malformed lines are skipped.
    pub fn parse(text: &str) -> SchedTrace {
        let steps = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with('#'))
            .filter_map(|l| {
                let mut cols = l.split('\t');
                let _seq = cols.next()?;
                let thread = cols.next()?.to_string();
                let event = cols.next()?.to_string();
                let key = cols.next()?.trim().parse().ok()?;
                Some(TraceStep { thread, event, key })
            })
            .collect();
        SchedTrace { steps }
    }

    /// Read and parse a dump file.
    pub fn load(path: &str) -> std::io::Result<SchedTrace> {
        Ok(SchedTrace::parse(&std::fs::read_to_string(path)?))
    }
}

/// Replay a dumped schedule: each thread arriving at an instrumented point
/// waits until the trace cursor points at a step matching its
/// `(thread, event)` — then consumes it and proceeds. Points the trace
/// never mentions (and threads the trace doesn't know) pass through
/// ungated, so a trace may be *pruned* to just the schedule-critical lines.
///
/// Event keys are not matched by default: keys embed physical addresses
/// and LSNs that legitimately shift between the recording run and the
/// replay run.
pub struct TraceReplay {
    state: Mutex<ReplayState>,
    cv: Condvar,
    /// How long an arriving thread waits for the cursor before diverging.
    step_timeout: Duration,
}

struct ReplayState {
    steps: Vec<TraceStep>,
    cursor: usize,
    divergences: u64,
    /// Threads named anywhere in the trace; others are never gated.
    known_threads: Vec<String>,
}

impl TraceReplay {
    pub fn new(trace: SchedTrace) -> Self {
        let mut known_threads: Vec<String> =
            trace.steps.iter().map(|s| s.thread.clone()).collect();
        known_threads.sort();
        known_threads.dedup();
        TraceReplay {
            state: Mutex::new(ReplayState {
                steps: trace.steps,
                cursor: 0,
                divergences: 0,
                known_threads,
            }),
            cv: Condvar::new(),
            step_timeout: Duration::from_millis(50),
        }
    }

    /// Points where a thread gave up waiting for its turn (0 = the whole
    /// schedule replayed in recorded order).
    pub fn divergences(&self) -> u64 {
        self.state.lock().unwrap_or_else(poisoned).divergences
    }

    /// Steps consumed so far.
    pub fn progress(&self) -> usize {
        self.state.lock().unwrap_or_else(poisoned).cursor
    }
}

impl Controller for TraceReplay {
    fn at_point(&self, thread: &str, event: &'static str, _key: u64) {
        let deadline = Instant::now() + self.step_timeout;
        let mut st = self.state.lock().unwrap_or_else(poisoned);
        if !st.known_threads.iter().any(|t| t == thread) {
            return;
        }
        loop {
            if st.cursor >= st.steps.len() {
                return; // trace exhausted: free-run
            }
            let cur = &st.steps[st.cursor];
            if cur.thread == thread && cur.event == event {
                st.cursor += 1;
                self.cv.notify_all();
                return;
            }
            // If the trace will never again ask for this (thread, event),
            // waiting cannot help — pass through without counting.
            if !st.steps[st.cursor..]
                .iter()
                .any(|s| s.thread == thread && s.event == event)
            {
                return;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                // The thread whose turn it is must be stuck in un-
                // instrumented code (a real lock): skip the stranger's
                // steps up to our next match so the replay can make
                // progress, and count the divergence.
                st.divergences += 1;
                while st.cursor < st.steps.len() {
                    let cur = &st.steps[st.cursor];
                    if cur.thread == thread && cur.event == event {
                        break;
                    }
                    st.cursor += 1;
                }
                if st.cursor < st.steps.len() {
                    st.cursor += 1;
                }
                self.cv.notify_all();
                return;
            }
            let (guard, _) = self
                .cv
                .wait_timeout(st, left)
                .unwrap_or_else(poisoned);
            st = guard;
        }
    }
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
    /// near the expected number of captured events per run (a chaos cell
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
    fn at_point(&self, thread: &str, _event: &'static str, _key: u64) {
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
                reason = "the PCT explorer's seeded perturbation (DESIGN.md §12): a cooperative wait would deadlock against threads parked in substrate locks"
            )]
            std::thread::sleep(delay);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn trace_parses_dump_format() {
        let text = "# sched trace: 3 events (0 dropped)\n\
                    0\twalker-0\twal.append.rec\t7\n\
                    1\tcell-driver\tira.ckpt.lsn\t12\n\
                    garbage line without tabs\n\
                    2\twalker-0\tdb.note_insert\t281474976710656\n";
        let t = SchedTrace::parse(text);
        assert_eq!(t.steps.len(), 3);
        assert_eq!(t.steps[0].thread, "walker-0");
        assert_eq!(t.steps[1].event, "ira.ckpt.lsn");
        assert_eq!(t.steps[2].key, 281474976710656);
    }

    #[test]
    fn gate_traps_first_match_and_releases() {
        let gate = Arc::new(Gate::new("test.trap"));
        let done = Arc::new(AtomicBool::new(false));
        let t = {
            let gate = Arc::clone(&gate);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                gate.at_point("worker", "test.other", 0); // passes through
                gate.at_point("worker", "test.trap", 1); // parks here
                done.store(true, Ordering::SeqCst);
            })
        };
        assert!(gate.wait_arrived(Duration::from_secs(2)), "thread must park");
        assert!(!done.load(Ordering::SeqCst), "still parked after arrival");
        gate.release();
        t.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert!(!gate.escaped());
        // Second occurrence passes straight through a released gate.
        gate.at_point("worker", "test.trap", 2);
    }

    #[test]
    fn gate_with_key_ignores_other_keys() {
        let gate = Gate::new("test.keyed").with_key(42);
        gate.at_point("worker", "test.keyed", 41); // not trapped: returns
        assert!(!gate.wait_arrived(Duration::from_millis(10)));
    }

    #[test]
    fn replay_orders_two_threads() {
        // Recorded order: a, b, a. Thread b arriving first must wait for a.
        let trace = SchedTrace::parse(
            "0\ta\te1\t0\n\
             1\tb\te1\t0\n\
             2\ta\te2\t0\n",
        );
        let replay = Arc::new(TraceReplay::new(trace));
        let order = Arc::new(Mutex::new(Vec::new()));
        let tb = {
            let replay = Arc::clone(&replay);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                replay.at_point("b", "e1", 0);
                order.lock().unwrap().push("b:e1");
            })
        };
        // Give b a head start so it is genuinely waiting on the cursor.
        std::thread::sleep(Duration::from_millis(10));
        replay.at_point("a", "e1", 0);
        order.lock().unwrap().push("a:e1");
        tb.join().unwrap();
        replay.at_point("a", "e2", 0);
        order.lock().unwrap().push("a:e2");
        let order = order.lock().unwrap();
        assert_eq!(order[0], "a:e1", "trace order, not arrival order");
        assert_eq!(replay.progress(), 3);
        assert_eq!(replay.divergences(), 0);
        // Unknown threads and unlisted events are never gated.
        replay.at_point("stranger", "e1", 0);
    }

    #[test]
    fn replay_diverges_instead_of_hanging() {
        // The trace wants thread "ghost" first, but ghost never arrives.
        let trace = SchedTrace::parse(
            "0\tghost\te1\t0\n\
             1\treal\te1\t0\n",
        );
        let replay = TraceReplay::new(trace);
        let start = Instant::now();
        replay.at_point("real", "e1", 0);
        assert!(start.elapsed() < Duration::from_secs(2), "bounded wait");
        assert_eq!(replay.divergences(), 1);
        assert_eq!(replay.progress(), 2, "skipped ghost's step, consumed ours");
    }

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
            a.at_point(th, "e", n);
            b.at_point(th, "e", n);
        }
        assert_eq!(
            a.state.lock().unwrap().priorities,
            b.state.lock().unwrap().priorities
        );
        assert_eq!(a.points(), 20);
    }
}
