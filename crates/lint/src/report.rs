//! The finding type every rule reports through, and its deterministic
//! ordering (path, line, rule — machine-diffable).

#[derive(Debug, Clone)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: usize,
    pub message: String,
    /// The offending line text, matched against baseline `pattern`s.
    pub excerpt: String,
}

pub fn violation(
    rule: &'static str,
    file: &str,
    line: usize,
    message: String,
    excerpt: &str,
) -> Violation {
    Violation {
        rule,
        file: file.to_string(),
        line,
        message,
        excerpt: excerpt.trim().to_string(),
    }
}

/// Sort findings into the committed output order: path, then line, then
/// rule id. Every caller that prints findings sorts first, so two runs
/// over the same tree emit byte-identical reports.
pub fn sort_findings(violations: &mut [Violation]) {
    violations.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
}
