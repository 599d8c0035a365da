//! The workspace's environment knobs, in one place: typed accessors over
//! one parser, each a row of DESIGN.md §16's table (`ci.sh` checks both).

/// Parse a `u64` knob; unset, empty, or unparsable falls back to
/// `default`.
pub(crate) fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// `CHAOS_ROOT_SEED`: root of the chaos sweep's seed tree (also feeds the
/// schedule-exploration sweep).
pub fn chaos_root_seed() -> u64 {
    env_u64("CHAOS_ROOT_SEED", 0xC4A05)
}

/// `EXPLORE_ROOTS`: fault/workload seeds per site in the exploration
/// sweep.
pub fn explore_roots(default: u64) -> u64 {
    env_u64("EXPLORE_ROOTS", default)
}

/// `EXPLORE_PRIOS`: PCT priority seeds per root in the exploration sweep.
pub fn explore_prios(default: u64) -> u64 {
    env_u64("EXPLORE_PRIOS", default)
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
        std::env::remove_var("CHAOS_ROOT_SEED");
        assert_eq!(chaos_root_seed(), 0xC4A05);
        assert_eq!(explore_roots(4), 4);
    }
}
