//! Whole-source static analyzer for the repo's concurrency invariants.
//!
//! Three analysis passes run over a hand-rolled token/item model of
//! every workspace source file (no external deps, no execution):
//!
//! 1. **lock-graph** — build the static held-before graph over the
//!    `LockClass` universe and report any cycle (ABBA hazard) with
//!    file:line provenance for each edge.
//! 2. **guard-blocking** — flag `thread::sleep`, `retry_backoff`, and
//!    fault-site evaluation while a guard is lexically held.
//! 3. **atomic-ordering** — every atomic `Ordering::` use outside
//!    `crates/obs` needs an `// ordering:` justification.
//!
//! The legacy line-oriented rules (sleep, unwrap, obs-doc, fault-site,
//! raw-parking-lot) ride on the same source model.
//! All passes report through `lint-baseline.toml`. See DESIGN.md §17.

pub mod baseline;
pub mod lockgraph;
pub mod ordering;
pub mod parser;
pub mod report;
pub mod rules;
pub mod source;
pub mod tokens;

use std::fs;
use std::path::Path;

use baseline::{AllowEntry, Baseline};
use report::{sort_findings, Violation};

pub struct RunResult {
    /// Findings that survived the baseline, in committed output order.
    pub violations: Vec<Violation>,
    /// Baseline entries that waived nothing (stale debt — an error).
    pub unused: Vec<AllowEntry>,
    pub graph: lockgraph::StaticGraph,
    pub files: usize,
    pub debug: Vec<String>,
}

/// Run every pass over the workspace rooted at `root`.
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

    let analysis = lockgraph::analyze(&files);
    violations.extend(analysis.violations);
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
        graph: analysis.graph,
        files: files.len(),
        debug: analysis.debug,
    })
}

/// Analyze an explicit set of (path, text) sources — used by the fixture
/// golden tests to run the passes over files the workspace walk skips.
pub fn analyze_sources(srcs: &[(&str, &str)]) -> (Vec<Violation>, lockgraph::StaticGraph) {
    let files: Vec<source::SourceFile> = srcs
        .iter()
        .map(|(rel, text)| source::preprocess(rel, text))
        .collect();
    let analysis = lockgraph::analyze(&files);
    let mut violations = analysis.violations;
    violations.extend(ordering::check(&files));
    sort_findings(&mut violations);
    (violations, analysis.graph)
}
