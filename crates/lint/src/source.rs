//! Workspace walking and the line-oriented source model shared by every
//! rule: comment stripping, `#[cfg(test)]` region tracking, doc-comment
//! flagging (DESIGN.md §11.2).

use std::fs;
use std::path::{Path, PathBuf};

/// One source line, pre-classified for the rules.
#[derive(Debug)]
pub struct Line {
    /// The raw text, for diagnostics and baseline pattern matching.
    pub raw: String,
    /// The raw text with comments removed (string literal contents are
    /// kept — several rules match keys inside them).
    pub code: String,
    /// Inside a `#[cfg(test)]` item, or in a file under a `tests/` dir.
    pub test: bool,
    /// A `///` or `//!` doc-comment line (doc examples are not real code).
    pub doc: bool,
}

#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the repo root, `/`-separated.
    pub rel: String,
    pub lines: Vec<Line>,
}

impl SourceFile {
    /// Lines a code rule should look at: 1-based number + line, excluding
    /// test regions and doc comments.
    pub fn code_lines(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines
            .iter()
            .enumerate()
            .filter(|(_, l)| !l.test && !l.doc)
            .map(|(i, l)| (i + 1, l))
    }
}

/// Lexer state carried across lines (strings and block comments span
/// lines; a trailing `\` keeps a normal string open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LexState {
    Code,
    Str,
    /// Raw string with this many `#`s in its delimiter.
    RawStr(usize),
    BlockComment,
}

/// Scan one line: append everything that is not a comment to `code`,
/// count braces that appear outside strings and comments into `depth`,
/// and return the state to carry into the next line.
pub fn scan_line(line: &str, state: LexState, code: &mut String, depth: &mut i64) -> LexState {
    let b = line.as_bytes();
    let mut st = state;
    let mut i = 0;
    while i < b.len() {
        match st {
            LexState::BlockComment => {
                if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                    st = LexState::Code;
                    i += 2;
                } else {
                    i += 1;
                }
            }
            LexState::Str => {
                if b[i] == b'\\' {
                    if let Some(&c) = b.get(i + 1) {
                        code.push(c as char);
                    }
                    code.push('\\');
                    i += 2;
                } else {
                    if b[i] == b'"' {
                        st = LexState::Code;
                    }
                    code.push(b[i] as char);
                    i += 1;
                }
            }
            LexState::RawStr(hashes) => {
                if b[i] == b'"' && b[i + 1..].iter().take_while(|&&c| c == b'#').count() >= hashes
                {
                    for &c in &b[i..=i + hashes] {
                        code.push(c as char);
                    }
                    st = LexState::Code;
                    i += 1 + hashes;
                } else {
                    code.push(b[i] as char);
                    i += 1;
                }
            }
            LexState::Code => {
                let c = b[i];
                if c == b'/' && b.get(i + 1) == Some(&b'/') {
                    break; // line comment: drop the rest of the line
                }
                if c == b'/' && b.get(i + 1) == Some(&b'*') {
                    st = LexState::BlockComment;
                    i += 2;
                    continue;
                }
                if c == b'r' || c == b'b' {
                    // Possible raw-string opener r"…", r#"…"#, br"…".
                    let mut j = i + 1;
                    if c == b'b' && b.get(j) == Some(&b'r') {
                        j += 1;
                    }
                    let hashes = b[j..].iter().take_while(|&&x| x == b'#').count();
                    if b.get(j + hashes) == Some(&b'"') {
                        for &x in &b[i..=j + hashes] {
                            code.push(x as char);
                        }
                        st = LexState::RawStr(hashes);
                        i = j + hashes + 1;
                        continue;
                    }
                }
                if c == b'"' {
                    st = LexState::Str;
                    code.push('"');
                    i += 1;
                    continue;
                }
                if c == b'\'' {
                    // Char literal ('x', '\n', '\'') vs lifetime ('a in
                    // <'a>). A literal closes within a few bytes; copy it
                    // whole so a '{' char cannot skew the brace depth.
                    if b.get(i + 1) == Some(&b'\\') {
                        let end = b[i + 2..].iter().position(|&x| x == b'\'');
                        if let Some(off) = end {
                            for &x in &b[i..=i + 2 + off] {
                                code.push(x as char);
                            }
                            i += 3 + off;
                            continue;
                        }
                    } else if b.get(i + 2) == Some(&b'\'') {
                        for &x in &b[i..i + 3] {
                            code.push(x as char);
                        }
                        i += 3;
                        continue;
                    }
                    code.push('\'');
                    i += 1;
                    continue;
                }
                if c == b'{' {
                    *depth += 1;
                } else if c == b'}' {
                    *depth -= 1;
                }
                code.push(c as char);
                i += 1;
            }
        }
    }
    st
}

/// Classify a whole file: strip comments, track `#[cfg(test)]` brace
/// regions, flag doc-comment lines.
pub fn preprocess(rel: &str, text: &str) -> SourceFile {
    let whole_file_test = rel.starts_with("tests/") || rel.contains("/tests/");
    let mut lines = Vec::new();
    let mut st = LexState::Code;
    let mut depth: i64 = 0;
    // Brace depths at which a `#[cfg(test)]` item opened a region.
    let mut test_regions: Vec<i64> = Vec::new();
    let mut pending_cfg_test = false;

    for raw in text.lines() {
        let depth_before = depth;
        let st_before = st;
        let mut code = String::new();
        st = scan_line(raw, st, &mut code, &mut depth);

        let trimmed_raw = raw.trim_start();
        let doc = st_before == LexState::Code
            && (trimmed_raw.starts_with("///") || trimmed_raw.starts_with("//!"));

        let trimmed = code.trim();
        if !trimmed.is_empty() {
            if trimmed.contains("#[cfg(test)]") || trimmed.contains("#[cfg(all(test") {
                pending_cfg_test = true;
            } else if pending_cfg_test && !trimmed.starts_with("#[") {
                if depth > depth_before {
                    // The gated item opens a brace region (mod/fn/impl).
                    test_regions.push(depth_before);
                    pending_cfg_test = false;
                } else if trimmed.ends_with(';') {
                    // Braceless gated item (`use …;`): just this line.
                    pending_cfg_test = false;
                }
            }
        }
        let test = whole_file_test || !test_regions.is_empty() || pending_cfg_test;
        while let Some(&d) = test_regions.last() {
            if depth <= d && depth < depth_before {
                test_regions.pop();
            } else {
                break;
            }
        }

        lines.push(Line {
            raw: raw.to_string(),
            code,
            test,
            doc,
        });
    }
    SourceFile {
        rel: rel.to_string(),
        lines,
    }
}

pub fn repo_root() -> PathBuf {
    // crates/lint/ → repo root is two levels up from this manifest.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn collect_paths(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name == "target" || name == "shims" || path.ends_with("crates/lint") {
                continue;
            }
            collect_paths(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

pub fn load_sources(root: &Path) -> Vec<SourceFile> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_paths(&root.join(top), &mut paths);
    }
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root)
                .unwrap_or(p)
                .to_string_lossy()
                .replace('\\', "/");
            let text = fs::read_to_string(p).unwrap_or_default();
            preprocess(&rel, &text)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(rel: &str, text: &str) -> SourceFile {
        preprocess(rel, text)
    }

    #[test]
    fn scanner_strips_comments_and_keeps_strings() {
        let mut code = String::new();
        let mut depth = 0;
        let st = scan_line(
            "let x = \"a // not a comment {\"; // real comment {",
            LexState::Code,
            &mut code,
            &mut depth,
        );
        assert_eq!(st, LexState::Code);
        assert_eq!(code, "let x = \"a // not a comment {\"; ");
        assert_eq!(depth, 0, "braces inside strings must not count");
    }

    #[test]
    fn scanner_carries_strings_and_block_comments_across_lines() {
        let mut code = String::new();
        let mut depth = 0;
        let st = scan_line("let s = \"open \\", LexState::Code, &mut code, &mut depth);
        assert_eq!(st, LexState::Str);
        let st = scan_line("still inside\";", st, &mut code, &mut depth);
        assert_eq!(st, LexState::Code);

        let mut code = String::new();
        let st = scan_line("/* begin {", LexState::Code, &mut code, &mut depth);
        assert_eq!(st, LexState::BlockComment);
        let st = scan_line("end } */ let y = 1;", st, &mut code, &mut depth);
        assert_eq!(st, LexState::Code);
        assert_eq!(code.trim(), "let y = 1;");
        assert_eq!(depth, 0);
    }

    #[test]
    fn scanner_handles_raw_strings_and_char_literals() {
        let mut code = String::new();
        let mut depth = 0;
        let st = scan_line(
            "let r = r#\"{ // not code \"#; let c = '{';",
            LexState::Code,
            &mut code,
            &mut depth,
        );
        assert_eq!(st, LexState::Code);
        assert_eq!(depth, 0, "raw-string and char-literal braces must not count");
    }

    #[test]
    fn cfg_test_regions_are_excluded() {
        let f = src(
            "crates/brahma/src/x.rs",
            "fn hot() {\n    work();\n}\n#[cfg(test)]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\nfn after() {}\n",
        );
        let flags: Vec<bool> = f.lines.iter().map(|l| l.test).collect();
        assert!(!flags[0] && !flags[1], "real code is not test");
        assert!(flags[5] && flags[6], "inside the cfg(test) mod is test");
        assert!(!flags[9], "code after the mod closes is not test");
    }

    #[test]
    fn cfg_all_test_regions_are_excluded_too() {
        let f = src(
            "crates/brahma/src/x.rs",
            "fn hot() {}\n#[cfg(all(test, feature = \"x\"))]\nmod tests {\n    fn t() {\n        x.unwrap();\n    }\n}\n",
        );
        let flags: Vec<bool> = f.lines.iter().map(|l| l.test).collect();
        assert!(!flags[0], "real code is not test");
        assert!(flags[1..].iter().all(|&t| t), "gated mod: {flags:?}");
    }

    #[test]
    fn files_under_tests_dirs_are_all_test() {
        let f = src("crates/ira/tests/sweep.rs", "fn x() { y.unwrap(); }\n");
        assert!(f.lines[0].test);
    }
}
