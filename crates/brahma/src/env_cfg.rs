//! The workspace's environment knobs, in one place.
//!
//! Every test/CI tunable lives behind a typed accessor here instead of a
//! raw `std::env::var` at its point of use: numbers parse through one
//! shared parser, and DESIGN.md §16 documents the full table. Adding a
//! knob means adding an accessor *and* a table row — the pairing is what
//! keeps the knobs discoverable.

/// Parse a `u64` knob; unset, empty, or unparsable falls back to
/// `default`.
pub fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

// --- chaos sweep (crates/ira/tests/chaos_sweep.rs) ---

/// `CHAOS_ROOT_SEED`: root of the chaos sweep's seed tree (also feeds the
/// schedule-exploration sweep).
pub fn chaos_root_seed() -> u64 {
    env_u64("CHAOS_ROOT_SEED", 0xC4A05)
}

// --- schedule exploration (crates/ira/tests/replay_regression.rs) ---

/// `EXPLORE_ROOTS`: fault/workload seeds per site in the exploration
/// sweep.
pub fn explore_roots(default: u64) -> u64 {
    env_u64("EXPLORE_ROOTS", default)
}

/// `EXPLORE_PRIOS`: PCT priority seeds per root in the exploration sweep.
pub fn explore_prios(default: u64) -> u64 {
    env_u64("EXPLORE_PRIOS", default)
}

// --- schedule capture (crates/brahma/src/sched.rs) ---

/// `SCHED_DUMP`: path to dump the captured schedule ring on a test
/// failure; unset/empty disables.
pub fn sched_dump() -> Option<String> {
    match std::env::var("SCHED_DUMP") {
        Ok(p) if !p.trim().is_empty() => Some(p),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    // Env mutations race across tests in one process; serialize them.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn u64_knob_falls_back_on_garbage() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::remove_var("ENV_CFG_TEST_U64");
        assert_eq!(env_u64("ENV_CFG_TEST_U64", 7), 7);
        std::env::set_var("ENV_CFG_TEST_U64", " 42 ");
        assert_eq!(env_u64("ENV_CFG_TEST_U64", 7), 42);
        std::env::set_var("ENV_CFG_TEST_U64", "not a number");
        assert_eq!(env_u64("ENV_CFG_TEST_U64", 7), 7);
        std::env::remove_var("ENV_CFG_TEST_U64");
    }

    #[test]
    fn defaults_without_environment() {
        let _g = ENV_LOCK.lock().unwrap();
        for name in ["CHAOS_ROOT_SEED", "SCHED_DUMP"] {
            std::env::remove_var(name);
        }
        assert_eq!(chaos_root_seed(), 0xC4A05);
        assert_eq!(explore_roots(4), 4);
        assert_eq!(sched_dump(), None);
    }

    #[test]
    fn sched_dump_ignores_blank() {
        let _g = ENV_LOCK.lock().unwrap();
        std::env::set_var("SCHED_DUMP", "   ");
        assert_eq!(sched_dump(), None);
        std::env::set_var("SCHED_DUMP", "/tmp/x");
        assert_eq!(sched_dump(), Some("/tmp/x".into()));
        std::env::remove_var("SCHED_DUMP");
    }
}
