//! Golden test for the atomic-ordering rule: the fixture must yield exactly
//! one finding, with a stable file:line, and nothing else. It lives under
//! `crates/lint/fixtures/` — a directory the workspace walk deliberately
//! skips, so the deliberate violation never leaks into the CI run over the
//! real tree.

static BARE_ORDERING: &str = include_str!("../fixtures/bare_ordering.rs");

#[test]
fn bare_ordering_fixture_reports_exactly_one_finding() {
    let rel = "crates/fixture/src/bare_ordering.rs";
    let violations = lint::analyze_sources(&[(rel, BARE_ORDERING)]);

    assert_eq!(violations.len(), 1, "exactly one finding: {violations:#?}");
    let v = &violations[0];
    assert_eq!(v.rule, "atomic-ordering");
    assert_eq!(v.file, rel);
    assert_eq!(v.line, 8);
}

/// Findings come out sorted by (file, line, rule) whatever order the
/// sources went in — the deterministic output order ci.sh depends on.
#[test]
fn findings_sort_deterministically() {
    let violations = lint::analyze_sources(&[
        ("crates/fixture/src/b.rs", BARE_ORDERING),
        ("crates/fixture/src/a.rs", BARE_ORDERING),
    ]);
    let files: Vec<&str> = violations.iter().map(|v| v.file.as_str()).collect();
    assert_eq!(
        files,
        ["crates/fixture/src/a.rs", "crates/fixture/src/b.rs"]
    );
}
