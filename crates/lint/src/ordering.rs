//! The atomic-ordering audit. Every atomic `Ordering::` use outside
//! `crates/obs` must carry an `// ordering:` justification on the same
//! or the immediately preceding line (or a baseline entry). The point is
//! not to forbid `Relaxed` — most counters want it — but to force each
//! site to say *why* its ordering is sufficient, so a reviewer can check
//! the claim instead of guessing.

use crate::report::{violation, Violation};
use crate::source::SourceFile;

/// Atomic variants only; `cmp::Ordering::{Less, Equal, Greater}` in sort
/// comparators is not a memory-ordering decision.
const ATOMIC_VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

pub const JUSTIFICATION: &str = "// ordering:";

pub fn check(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if f.rel.starts_with("crates/obs/") {
            continue; // the observability crate is the documented-idiom home
        }
        for (no, line) in f.code_lines() {
            let variant = ATOMIC_VARIANTS
                .iter()
                .find(|v| line.code.contains(&format!("Ordering::{v}")));
            let Some(variant) = variant else { continue };
            let here = line.raw.contains(JUSTIFICATION);
            let above = no >= 2
                && f.lines
                    .get(no - 2)
                    .is_some_and(|l| l.raw.contains(JUSTIFICATION));
            if here || above {
                continue;
            }
            out.push(violation(
                "atomic-ordering",
                &f.rel,
                no,
                format!(
                    "Ordering::{variant} without an `// ordering:` justification on this or \
                     the preceding line; state why this ordering is sufficient"
                ),
                &line.raw,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::preprocess;

    #[test]
    fn unjustified_atomic_ordering_is_flagged_once_per_line() {
        let f = preprocess(
            "crates/brahma/src/x.rs",
            "fn f(a: &AtomicU32) {\n    a.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        let v = check(&[f]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 2);
        assert!(v[0].message.contains("Relaxed"));
    }

    #[test]
    fn same_line_and_preceding_line_justifications_pass() {
        let f = preprocess(
            "crates/brahma/src/x.rs",
            "fn f(a: &AtomicU32) {\n    a.fetch_add(1, Ordering::Relaxed); // ordering: stat counter\n    // ordering: pairs with the Acquire load in g()\n    a.store(2, Ordering::Release);\n}\n",
        );
        assert!(check(&[f]).is_empty());
    }

    #[test]
    fn cmp_ordering_and_obs_crate_are_exempt(
    ) {
        let f = preprocess(
            "crates/brahma/src/x.rs",
            "fn f(a: u32, b: u32) -> Ordering {\n    if a < b { Ordering::Less } else { Ordering::Greater }\n}\n",
        );
        assert!(check(&[f]).is_empty(), "cmp variants are not audited");
        let f = preprocess(
            "crates/obs/src/lib.rs",
            "fn f(a: &AtomicU32) { a.load(Ordering::Acquire); }\n",
        );
        assert!(check(&[f]).is_empty(), "crates/obs is exempt");
    }

    #[test]
    fn test_code_is_exempt() {
        let f = preprocess(
            "crates/brahma/src/x.rs",
            "#[cfg(test)]\nmod tests {\n    fn t(a: &AtomicU32) { a.load(Ordering::SeqCst); }\n}\n",
        );
        assert!(check(&[f]).is_empty());
    }
}
