//! # Bench — the paper's Section 5 evaluation, regenerated
//!
//! This crate reruns every table and figure of *On-line Reorganization in
//! Object Databases* against this repository's implementation:
//!
//! * Figures 6/7 — MPL scaleup (throughput, average response time);
//! * Table 2 — response-time analysis at MPL 30 (avg, max, stddev);
//! * Figures 8/9 — partition-size scaleup;
//! * Figures 10/11 — update-probability sweep;
//! * Section 5.3.4 — glue factor, path length, partition count, and the
//!   equal-duration PQR comparison (full-version experiments);
//! * ablations over the design choices of Sections 4.1-4.5.
//!
//! Run with:
//!
//! ```text
//! cargo run -p bench --release --bin paper_figures -- all [--quick]
//! ```
//!
//! Results are printed as table rows and written as CSV under `results/`.
//! The cells run under the modelled CPU, so they assert the paper's *shape*
//! (`table2` exits nonzero on [`Experiment::shape_violations`]); raw speed
//! and per-layer timings are measured and gated by the standalone
//! `benchmark/` crate.

pub mod experiments;
pub mod locality;
pub mod report;
pub mod runner;

pub use experiments::HarnessOptions;
pub use locality::{run_locality, LocalityOptions, LocalityResult, LocalityWindow};
pub use report::{Experiment, Row};
pub use runner::{run_cell, Algo, CellConfig, CellResult};
