//! Test harness for the `ira` crate's integration tests; no product crate
//! depends on it.
//!
//! * [`cell`] — the crash-cell runner (DESIGN.md §9.2): every fault site ×
//!   Nth-hit stride, on a file-backed store, killed, reopened cold and
//!   restarted from the interrupted pass's floor.
//! * [`replay`] — the PCT schedule explorer over [`brahma::sched`]
//!   (DESIGN.md §12).
//! * [`env_cfg`] — the environment knobs of the chaos and exploration
//!   sweeps (DESIGN.md §16).
//! * [`with_repro_banner`], shared by the chaos, property and replay tests.

pub mod cell;
pub mod env_cfg;
pub mod replay;

pub use cell::{run_cell, run_multi_partition_kill, CellReport, CrashCell};
pub use replay::PctExplorer;

/// Run `f`, and if it panics print a one-line `REPRO: {banner}` to stderr
/// before resuming the unwind. Every chaos/property test wraps its assertion-bearing
/// body in this so a flake always leaves its seed and cell coordinates
/// behind — the banner is the re-run command's arguments.
pub fn with_repro_banner<T>(banner: &str, f: impl FnOnce() -> T) -> T {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(payload) => {
            eprintln!("REPRO: {banner}");
            std::panic::resume_unwind(payload)
        }
    }
}
