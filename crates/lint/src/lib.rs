//! Line-rule linter for the repo's concurrency conventions (DESIGN.md
//! §11.2). Six rules over a comment-stripped, test-region-aware line model
//! of every workspace source file (no external deps, no execution):
//! `sleep`, `unwrap`, `obs-doc`, `fault-site`, `raw-parking-lot`
//! ([`rules`]) and `atomic-ordering` ([`ordering`]). All report through
//! `lint-baseline.toml`.
//!
//! Lock order is not checked here: `brahma::lockdep` checks it at runtime,
//! and `raw-parking-lot` is what makes every substrate lock one it sees.

pub mod baseline;
pub mod ordering;
pub mod report;
pub mod rules;
pub mod source;

use std::fs;
use std::path::Path;

use baseline::{AllowEntry, Baseline};
use report::{sort_findings, Violation};

pub struct RunResult {
    /// Findings that survived the baseline, in committed output order.
    pub violations: Vec<Violation>,
    /// Baseline entries that waived nothing (stale debt — an error).
    pub unused: Vec<AllowEntry>,
    pub files: usize,
}

/// Run every rule over the workspace rooted at `root`.
pub fn run(root: &Path) -> Result<RunResult, String> {
    let files = source::load_sources(root);
    if files.is_empty() {
        return Err(format!("no sources found under {}", root.display()));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap_or_default();

    let mut violations = Vec::new();
    violations.extend(rules::rule_sleep(&files));
    violations.extend(rules::rule_unwrap(&files));
    violations.extend(rules::rule_obs_doc(&files, &design));
    violations.extend(rules::rule_fault_site(&files));
    violations.extend(rules::rule_parking_lot(&files));
    violations.extend(ordering::check(&files));

    let baseline_path = root.join("lint-baseline.toml");
    let mut baseline = match fs::read_to_string(&baseline_path) {
        Ok(text) => Baseline::parse(&text)?,
        Err(_) => Baseline::parse("")?,
    };
    violations.retain(|v| !baseline.waives(v));
    sort_findings(&mut violations);
    let unused: Vec<AllowEntry> = baseline.unused().cloned().collect();

    Ok(RunResult {
        violations,
        unused,
        files: files.len(),
    })
}

/// Run the atomic-ordering audit over an explicit set of (path, text)
/// sources — used by the fixture golden tests on files the workspace walk
/// skips.
pub fn analyze_sources(srcs: &[(&str, &str)]) -> Vec<Violation> {
    let files: Vec<source::SourceFile> = srcs
        .iter()
        .map(|(rel, text)| source::preprocess(rel, text))
        .collect();
    let mut violations = ordering::check(&files);
    sort_findings(&mut violations);
    violations
}
