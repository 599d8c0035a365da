//! CI driver: run every rule over the workspace and report through the
//! baseline. Exits nonzero on any finding or unused baseline entry.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

fn main() -> ExitCode {
    let start = Instant::now();
    let root: PathBuf = lint::source::repo_root();

    let result = match lint::run(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("lint: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed_ms = start.elapsed().as_millis();

    let mut failed = false;
    for v in &result.violations {
        println!("{}:{}: [{}] {}", v.file, v.line, v.rule, v.message);
        failed = true;
    }
    for entry in &result.unused {
        println!(
            "lint-baseline.toml:{}: unused [[allow]] entry (rule `{}`, file `{}`): remove it",
            entry.toml_line, entry.rule, entry.file
        );
        failed = true;
    }

    if failed {
        println!(
            "lint: FAILED ({} findings, {} unused baseline entries)",
            result.violations.len(),
            result.unused.len()
        );
        ExitCode::FAILURE
    } else {
        println!("lint: OK ({} files, {elapsed_ms}ms)", result.files);
        ExitCode::SUCCESS
    }
}
