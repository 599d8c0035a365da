//! CLI harness regenerating the paper's tables and figures.
//!
//! Usage: `paper_figures <experiment>... [--quick] [--out DIR]`
//! where experiment is `all` or a slug of [`EXPERIMENTS`]. `table2` is also
//! the paper-shape gate: it exits nonzero when
//! [`bench::Experiment::shape_violations`] reports anything.
//!
//! `paper_figures locality [--quick]` runs only the closed clustering loop
//! (observe → plan → reorganize → measure) and exits nonzero unless the
//! stats-derived plan improved the placement-cost metric — the CI locality
//! smoke.

use bench::experiments::{ExperimentFn, HarnessOptions, EXPERIMENTS};
use bench::locality::{run_locality, LocalityOptions};
use std::path::PathBuf;

fn run_locality_cli(quick: bool) {
    println!(
        "# Locality loop ({} mode): observe -> plan -> reorganize -> measure",
        if quick { "quick" } else { "full" }
    );
    let r = run_locality(&LocalityOptions { quick });
    println!(
        "pre:  {:>8.1} ops/s, p99 {:>6} us, hit rate {:.3} ({} committed)",
        r.pre.ops_per_sec, r.pre.p99_us, r.pre.hit_rate, r.pre.committed
    );
    println!(
        "post: {:>8.1} ops/s, p99 {:>6} us, hit rate {:.3} ({} committed)",
        r.post.ops_per_sec, r.post.p99_us, r.post.hit_rate, r.post.committed
    );
    println!(
        "placement cost: identity {:.0} -> planned {:.0} -> achieved {:.0} ({:.1}% better)",
        r.identity_cost,
        r.planned_cost,
        r.achieved_cost,
        r.achieved_improvement() * 100.0
    );
    println!(
        "migrated {} objects from {} observed traversals over {} distinct edges",
        r.migrated, r.edges_recorded, r.edges_distinct
    );
    if r.achieved_cost >= r.identity_cost {
        eprintln!("error: stats-derived plan did not improve the locality metric");
        std::process::exit(1);
    }
    println!("locality improved");
}

fn usage() -> String {
    let slugs: Vec<&str> = EXPERIMENTS.iter().map(|(slug, _)| *slug).collect();
    format!(
        "usage: paper_figures <all|{}>... [--quick] [--out DIR]\n       \
         paper_figures locality [--quick]   (closed clustering loop; fails unless it improves)",
        slugs.join("|")
    )
}

/// A parsed command line: (experiments to run, `--quick`, `--out` dir).
type Cli = (Vec<(&'static str, ExperimentFn)>, bool, PathBuf);

/// Parse `<experiment>... [--quick] [--out DIR]`. Every name is resolved
/// here, before the first cell runs, and `--out` takes its value by
/// position.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (mut exps, mut quick, mut out_dir) = (Vec::new(), false, PathBuf::from("results"));
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out_dir = PathBuf::from(it.next().ok_or("--out needs a directory")?),
            "all" => exps.extend(EXPERIMENTS),
            flag if flag.starts_with("--") => return Err(format!("unknown option: {flag}")),
            name => match EXPERIMENTS.iter().find(|(slug, _)| *slug == name) {
                Some(exp) => exps.push(*exp),
                None => return Err(format!("unknown experiment: {name}")),
            },
        }
    }
    if exps.is_empty() {
        return Err("no experiment named".into());
    }
    Ok((exps, quick, out_dir))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("locality") {
        run_locality_cli(args.iter().any(|a| a == "--quick"));
        return;
    }
    let (exps, quick, out_dir) = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{}", usage());
        std::process::exit(2);
    });
    let opts = HarnessOptions { quick };
    println!(
        "# Paper-figure harness ({} mode); Table 1 defaults unless swept.",
        if quick { "quick" } else { "full" }
    );
    let mut shape_ok = true;
    for (slug, run) in exps {
        let exp = run(&opts);
        if slug == "table2" {
            println!("{}", exp.render_table2());
            for v in exp.shape_violations() {
                eprintln!("error: table2 is not paper-shaped: {v}");
                shape_ok = false;
            }
        } else {
            println!("{}", exp.render());
        }
        if let Err(e) = exp.write_csv(&out_dir, slug) {
            eprintln!("warning: could not write CSV for {slug}: {e}");
        }
    }
    if !shape_ok {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(Vec<&'static str>, bool, PathBuf), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args)
            .map(|(exps, quick, out)| (exps.iter().map(|(slug, _)| *slug).collect(), quick, out))
    }

    #[test]
    fn out_value_is_consumed_by_position_not_by_equality() {
        // In `mpl --out mpl` the second `mpl` is a directory, not a name.
        let cases: [(&[&str], &[&str], bool, &str); 4] = [
            (&["mpl", "--out", "mpl"], &["mpl"], false, "mpl"),
            (
                &["--out", "table2", "table2", "--quick"],
                &["table2"],
                true,
                "table2",
            ),
            (&["glue", "ops"], &["glue", "ops"], false, "results"),
            (
                &["--quick", "ablation", "--out", "/tmp/o"],
                &["ablation"],
                true,
                "/tmp/o",
            ),
        ];
        for (args, slugs, quick, out) in cases {
            let want = (slugs.to_vec(), quick, PathBuf::from(out));
            assert_eq!(parse(args), Ok(want), "{args:?}");
        }
    }

    #[test]
    fn all_expands_to_the_table_in_order() {
        let (slugs, _, _) = parse(&["all"]).unwrap();
        let table: Vec<&str> = EXPERIMENTS.iter().map(|(slug, _)| *slug).collect();
        assert_eq!(slugs, table);
        for slug in table {
            assert!(usage().contains(slug), "usage names {slug}");
        }
    }

    #[test]
    fn bad_arguments_fail_before_anything_runs() {
        // A bad name after a good one is an error for the whole command
        // line: nothing is returned to run.
        let cases: [(&[&str], &str); 5] = [
            (&["mpl", "nosuch"], "unknown experiment: nosuch"),
            (&["mpl", "--out"], "--out needs a directory"),
            (&["mpl", "--fast"], "unknown option: --fast"),
            (&["--quick"], "no experiment named"),
            (&[], "no experiment named"),
        ];
        for (args, msg) in cases {
            assert_eq!(parse(args), Err(msg.to_string()), "{args:?}");
        }
    }
}
