//! Five of the six rules (DESIGN.md §11.2): `sleep`, `unwrap`, `obs-doc`,
//! `fault-site`, `raw-parking-lot`. `atomic-ordering` lives in
//! [`crate::ordering`].

use std::collections::{BTreeMap, BTreeSet};

use crate::report::{violation, Violation};
use crate::source::SourceFile;

// ---------------------------------------------------------------------------
// Rule: sleep
// ---------------------------------------------------------------------------

/// `thread::sleep` in non-test code parks a thread the scheduler knows
/// nothing about; only `RetryPolicy`'s backoff may sleep.
pub fn rule_sleep(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if f.rel == "crates/brahma/src/retry.rs" {
            continue;
        }
        for (no, line) in f.code_lines() {
            if line.code.contains("thread::sleep") {
                out.push(violation(
                    "sleep",
                    &f.rel,
                    no,
                    "thread::sleep outside RetryPolicy/test code (use RetryPolicy backoff or a Condvar wait)"
                        .to_string(),
                    &line.raw,
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: unwrap
// ---------------------------------------------------------------------------

/// Substrate code must surface failures as `Error` values, not panics.
pub fn rule_unwrap(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if !(f.rel.starts_with("crates/brahma/src") || f.rel.starts_with("crates/ira/src")) {
            continue;
        }
        for (no, line) in f.code_lines() {
            for pat in [".unwrap()", ".expect("] {
                if line.code.contains(pat) {
                    out.push(violation(
                        "unwrap",
                        &f.rel,
                        no,
                        format!("`{pat}` in substrate non-test code (return an Error, or baseline with a documented invariant)"),
                        &line.raw,
                    ));
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: obs-doc
// ---------------------------------------------------------------------------

/// Pull every string literal that directly follows `pat` on the line.
pub fn literals_after<'a>(code: &'a str, pat: &str) -> Vec<&'a str> {
    let mut out = Vec::new();
    let mut rest = code;
    while let Some(idx) = rest.find(pat) {
        let tail = &rest[idx + pat.len()..];
        if let Some(end) = tail.find('"') {
            out.push(&tail[..end]);
            rest = &tail[end..];
        } else {
            break;
        }
    }
    out
}

/// `format!("fault.fired.{site}")` templates → the §8 placeholder
/// spelling `fault.fired.<site>`.
fn normalize_template(key: &str) -> String {
    key.replace('{', "<").replace('}', ">")
}

/// Expand one §8 key cell: `` `lock.wait_us_sum` / `wait_us_max` `` means
/// both keys share the first key's `lock.` prefix.
fn expand_key_cell(cell: &str) -> Vec<String> {
    let keys: Vec<&str> = cell
        .split('`')
        .enumerate()
        .filter(|(i, _)| i % 2 == 1)
        .map(|(_, k)| k)
        .collect();
    let prefix = keys
        .first()
        .and_then(|k| k.find('.').map(|i| k[..=i].to_string()))
        .unwrap_or_default();
    keys.iter()
        .enumerate()
        .map(|(i, k)| {
            if i == 0 || k.contains('.') {
                (*k).to_string()
            } else {
                format!("{prefix}{k}")
            }
        })
        .collect()
}

/// Keys documented in the DESIGN.md §8 table, with their line numbers.
fn design_section8_keys(design: &str) -> BTreeMap<String, usize> {
    let mut keys = BTreeMap::new();
    let mut in_section8 = false;
    for (idx, raw) in design.lines().enumerate() {
        if raw.starts_with("## ") {
            in_section8 = raw.starts_with("## 8");
            continue;
        }
        if !in_section8 {
            continue;
        }
        let trimmed = raw.trim();
        if !trimmed.starts_with("| `") {
            continue;
        }
        let Some(cell) = trimmed.split('|').nth(1) else {
            continue;
        };
        for key in expand_key_cell(cell) {
            keys.entry(key).or_insert(idx + 1);
        }
    }
    keys
}

/// Counter keys set in non-test code, with one representative site each.
/// Works over the file's joined code text so a `.set(` whose key literal
/// sits on the next line (rustfmt wraps long calls) is still found.
fn code_obs_keys(files: &[SourceFile]) -> BTreeMap<String, (String, usize)> {
    let mut keys = BTreeMap::new();
    for f in files {
        let mut joined = String::new();
        for line in &f.lines {
            if !line.test && !line.doc {
                joined.push_str(&line.code);
            }
            joined.push('\n');
        }
        let mut pos = 0;
        while let Some(idx) = joined[pos..].find(".set(") {
            let after = pos + idx + ".set(".len();
            let mut key_src = joined[after..].trim_start();
            let mut template = false;
            if let Some(rest) = key_src.strip_prefix("&format!(") {
                key_src = rest.trim_start();
                template = true;
            }
            if let Some(rest) = key_src.strip_prefix('"') {
                if let Some(end) = rest.find('"') {
                    let key = if template {
                        normalize_template(&rest[..end])
                    } else {
                        rest[..end].to_string()
                    };
                    let line_no = joined[..after].matches('\n').count() + 1;
                    keys.entry(key).or_insert((f.rel.clone(), line_no));
                }
            }
            pos = after;
        }
    }
    keys
}

/// Every counter key set in code must appear in the §8 table, and every
/// documented key must still be set somewhere (no dead rows).
pub fn rule_obs_doc(files: &[SourceFile], design: &str) -> Vec<Violation> {
    let documented = design_section8_keys(design);
    let in_code = code_obs_keys(files);
    let mut out = Vec::new();
    for (key, (file, line)) in &in_code {
        if !documented.contains_key(key) {
            out.push(violation(
                "obs-doc",
                file,
                *line,
                format!("counter key `{key}` is set here but missing from the DESIGN.md \u{a7}8 table"),
                key,
            ));
        }
    }
    for (key, line) in &documented {
        if !in_code.contains_key(key) {
            out.push(violation(
                "obs-doc",
                "DESIGN.md",
                *line,
                format!("documented counter key `{key}` is never set in code (dead row)"),
                key,
            ));
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: fault-site
// ---------------------------------------------------------------------------

/// The two files whose `pub mod site` blocks form the fault-site catalog.
const SITE_CATALOG_FILES: [&str; 2] = ["crates/brahma/src/fault.rs", "crates/ira/src/chaos.rs"];

#[derive(Debug)]
struct SiteConst {
    name: String,
    value: String,
    file: String,
    line: usize,
}

/// `pub const NAME: &str = "dotted.value";` declarations in a catalog file.
fn catalog_consts(f: &SourceFile) -> Vec<SiteConst> {
    let mut out = Vec::new();
    for (no, line) in f.code_lines() {
        let Some(idx) = line.code.find("pub const ") else {
            continue;
        };
        let tail = &line.code[idx + "pub const ".len()..];
        let Some((name, rest)) = tail.split_once(':') else {
            continue;
        };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("&str") else {
            continue;
        };
        let Some(value) = literals_after(rest, "\"").first().copied() else {
            continue;
        };
        out.push(SiteConst {
            name: name.trim().to_string(),
            value: value.to_string(),
            file: f.rel.clone(),
            line: no,
        });
    }
    out
}

/// The identifiers listed in a catalog file's sweep arrays: every
/// `…ALL: &[&str] = &[…];` declaration (e.g. `ALL` and `FILE_ALL`),
/// concatenated — the caller only tokenizes this text.
fn catalog_all_list(f: &SourceFile) -> String {
    let mut collecting = false;
    let mut text = String::new();
    for (_, line) in f.code_lines() {
        if !collecting {
            if let Some(idx) = line.code.find("ALL: &[&str]") {
                let tail = &line.code[idx..];
                text.push_str(tail);
                text.push(' ');
                collecting = !tail.contains("];");
            }
        } else {
            text.push_str(&line.code);
            text.push(' ');
            collecting = !line.code.contains("];");
        }
    }
    text
}

/// Fault-site literals must come from the catalog; every catalog const
/// must be swept (listed in its module's `ALL`).
pub fn rule_fault_site(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut registered: BTreeSet<String> = BTreeSet::new();
    for f in files {
        if !SITE_CATALOG_FILES.contains(&f.rel.as_str()) {
            continue;
        }
        let consts = catalog_consts(f);
        let all = catalog_all_list(f);
        for c in &consts {
            registered.insert(c.value.clone());
            let listed = all
                .split(|ch: char| !(ch.is_alphanumeric() || ch == '_'))
                .any(|tok| tok == c.name);
            if !listed {
                out.push(violation(
                    "fault-site",
                    &c.file,
                    c.line,
                    format!(
                        "site const `{}` (\"{}\") is not listed in its module's `ALL` sweep array",
                        c.name, c.value
                    ),
                    &c.name,
                ));
            }
        }
    }
    for f in files {
        for (no, line) in f.code_lines() {
            for pat in [".observe(\"", "site: \""] {
                for lit in literals_after(&line.code, pat) {
                    if !registered.contains(lit) {
                        out.push(violation(
                            "fault-site",
                            &f.rel,
                            no,
                            format!(
                                "fault-site literal \"{lit}\" is not registered in a `site` catalog (use the catalog const)"
                            ),
                            &line.raw,
                        ));
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Rule: raw-parking-lot
// ---------------------------------------------------------------------------

/// All substrate locking must flow through the `lockdep`-instrumented
/// wrappers, or lock-order checking silently loses coverage.
pub fn rule_parking_lot(files: &[SourceFile]) -> Vec<Violation> {
    let mut out = Vec::new();
    for f in files {
        if !(f.rel.starts_with("crates/brahma/src") || f.rel.starts_with("crates/ira/src")) {
            continue;
        }
        if f.rel == "crates/brahma/src/lockdep.rs" {
            continue; // the instrumentation layer itself
        }
        for (no, line) in f.code_lines() {
            if line.code.contains("parking_lot") {
                out.push(violation(
                    "raw-parking-lot",
                    &f.rel,
                    no,
                    "direct parking_lot primitive outside the lockdep wrappers (use brahma::lockdep::{Mutex, RwLock, Condvar})"
                        .to_string(),
                    &line.raw,
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::preprocess;

    fn src(rel: &str, text: &str) -> SourceFile {
        preprocess(rel, text)
    }

    #[test]
    fn sleep_rule_fires_outside_retry_and_tests() {
        let hot = src(
            "crates/ira/src/pqr.rs",
            "fn f() {\n    std::thread::sleep(d);\n}\n",
        );
        let retry = src(
            "crates/brahma/src/retry.rs",
            "fn f() {\n    std::thread::sleep(d);\n}\n",
        );
        let test = src(
            "crates/ira/src/pqr.rs",
            "#[cfg(test)]\nmod tests {\n    fn f() { std::thread::sleep(d); }\n}\n",
        );
        assert_eq!(rule_sleep(&[hot]).len(), 1);
        assert_eq!(rule_sleep(&[retry]).len(), 0);
        assert_eq!(rule_sleep(&[test]).len(), 0);
    }

    #[test]
    fn unwrap_rule_scopes_to_substrate_crates() {
        let brahma = src("crates/brahma/src/lock.rs", "fn f() { x.unwrap(); }\n");
        let ira = src("crates/ira/src/driver.rs", "fn f() { x.expect(\"m\"); }\n");
        let workload = src("crates/workload/src/driver.rs", "fn f() { x.unwrap(); }\n");
        let doc = src(
            "crates/brahma/src/lib.rs",
            "/// let v = x.unwrap();\nfn f() {}\n",
        );
        assert_eq!(rule_unwrap(&[brahma]).len(), 1);
        assert_eq!(rule_unwrap(&[ira]).len(), 1);
        assert_eq!(rule_unwrap(&[workload]).len(), 0);
        assert_eq!(rule_unwrap(&[doc]).len(), 0);
    }

    const DESIGN_FIXTURE: &str = "\
## 8. Observability

| Key | Incremented at |
|---|---|
| `lock.waits` / `wait_us_sum` | the lock manager |
| `fault.fired.<site>` | the injector |
| `dead.key` | nowhere |

## 9. Next section
| `not.parsed` | outside section 8 |
";

    #[test]
    fn design_key_expansion_handles_prefix_shorthand() {
        let keys = design_section8_keys(DESIGN_FIXTURE);
        assert!(keys.contains_key("lock.waits"));
        assert!(keys.contains_key("lock.wait_us_sum"), "prefix carried over");
        assert!(keys.contains_key("fault.fired.<site>"));
        assert!(!keys.contains_key("not.parsed"), "only §8 rows count");
    }

    #[test]
    fn obs_doc_rule_catches_drift_both_ways() {
        let code = src(
            "crates/brahma/src/lock.rs",
            "fn export(s: &mut Snapshot) {\n    s.set(\"lock.waits\", 1);\n    s.set(\n        \"lock.wait_us_sum\",\n        2,\n    );\n    s.set(\"lock.rogue\", 3);\n    s.set(&format!(\"fault.fired.{site}\"), 4);\n}\n",
        );
        let vs = rule_obs_doc(&[code], DESIGN_FIXTURE);
        let msgs: Vec<&str> = vs.iter().map(|v| v.message.as_str()).collect();
        assert_eq!(vs.len(), 2, "{msgs:?}");
        assert!(
            msgs.iter().any(|m| m.contains("lock.rogue")),
            "undocumented key flagged"
        );
        assert!(
            msgs.iter().any(|m| m.contains("dead.key")),
            "dead doc row flagged; wrapped .set( calls must still count"
        );
    }

    const CATALOG_FIXTURE: &str = "\
pub mod site {
    pub const A: &str = \"x.a\";
    pub const B: &str = \"x.b\";
    pub const ALL: &[&str] = &[A];
}
";

    #[test]
    fn fault_site_rule_checks_all_list_and_literals() {
        let catalog = src("crates/brahma/src/fault.rs", CATALOG_FIXTURE);
        let user = src(
            "crates/ira/src/driver.rs",
            "fn f(db: &Db) {\n    db.fault.observe(\"x.a\");\n    db.fault.observe(\"x.rogue\");\n}\n",
        );
        let vs = rule_fault_site(&[catalog, user]);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert!(vs.iter().any(|v| v.message.contains("`B`")), "B not in ALL");
        assert!(vs.iter().any(|v| v.message.contains("x.rogue")));
    }

    #[test]
    fn parking_lot_rule_exempts_lockdep_only() {
        let lockdep = src(
            "crates/brahma/src/lockdep.rs",
            "use parking_lot::Mutex;\n",
        );
        let raw = src("crates/brahma/src/lock.rs", "use parking_lot::Mutex;\n");
        assert_eq!(rule_parking_lot(&[lockdep]).len(), 0);
        assert_eq!(rule_parking_lot(&[raw]).len(), 1);
    }
}
