//! Raw-mode benchmark of the `brahma` store and the IRA reorganizer.
//!
//! ```text
//! odb-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! odb-benchmark suite [--smoke] [--seeds a,b,..] [--out file]
//! odb-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the benchmark contract: one workload in this process,
//! output checks, every metric printed by name and unit, and as the last
//! line of standard output one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). See README.md.

mod client;
mod json;
mod metrics;
mod probes;
mod stats;
mod suite;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use workloads::Workload;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 42;

/// The benchmark's own directory, where `out/` and `scratch/` go. Every
/// subcommand runs from the repository root.
pub const BENCH_HOME: &str = "benchmark";

/// Flags of the form `--name value`, plus positional arguments.
struct Args {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: impl Iterator<Item = String>, switches: &[&str]) -> Result<Args, String> {
        let mut flags = BTreeMap::new();
        let mut positional = Vec::new();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.strip_prefix("--") {
                Some(name) if switches.contains(&name) => {
                    flags.insert(name.to_string(), "1".to_string());
                }
                Some(name) => {
                    let value = args.next().ok_or(format!("--{name} needs a value"))?;
                    flags.insert(name.to_string(), value);
                }
                None => positional.push(arg),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.flags
            .get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|_| format!("bad value for --{name}: {v}"))
            })
            .transpose()
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let name: String = args.get("workload")?.ok_or("missing --workload")?;
    let workload = Workload::from_name(&name).ok_or(format!(
        "unknown workload {name}; one of {}",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    let seed = args.get("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds: f64 = args.get("seconds")?.ok_or("missing --seconds")?;
    if !(0.5..=60.0).contains(&seconds) {
        return Err("--seconds must be between 0.5 and 60".into());
    }
    let trace = match args.get::<u8>("trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    let scratch = args
        .get::<PathBuf>("scratch")?
        .unwrap_or_else(|| Path::new(BENCH_HOME).join("scratch"));
    let out_dir = Path::new(BENCH_HOME).join("out");

    let measured = workloads::run(workload, seed, seconds, trace, &scratch);
    let probes = if trace && measured.is_ok() {
        probes::run(seed, &scratch)
    } else {
        Ok(BTreeMap::new())
    };
    // The data directories are gone by now, whatever happened; this takes
    // the empty scratch directory itself away.
    let _ = std::fs::remove_dir(&scratch);
    let (measured, probes) = (measured?, probes?);
    let values = metrics::compute(&measured, &probes);

    if trace {
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("trace-{}.jsonl", workload.name()));
        let names: Vec<String> = (0..measured.client_spans.len())
            .map(|t| format!("client-{t}"))
            .collect();
        let mut threads: Vec<(&str, &trace::SpanBuf)> = names
            .iter()
            .map(String::as_str)
            .zip(&measured.client_spans)
            .collect();
        threads.push(("reorganizer", &measured.reorg_spans));
        trace::write_jsonl(&path, &threads)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    // Every metric by name and unit, then the contract's result line with
    // the set this mode measures.
    let (end_to_end, per_layer) = (metrics::end_to_end(), metrics::per_layer());
    println!(
        "workload {} seed {seed} seconds {seconds} trace {} threads {} nproc {} fsync every-commit-leader",
        workload.name(),
        u8::from(trace),
        workloads::THREADS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for spec in end_to_end.iter().chain(&per_layer) {
        if trace || !spec.traced_only {
            println!(
                "{:<40} {:>16.4} {}",
                spec.name, values[&spec.name], spec.unit
            );
        }
    }
    let reported = if trace { &per_layer } else { &end_to_end };
    let metrics = Json::obj(reported.iter().map(|spec| {
        (
            spec.name.as_str(),
            Json::obj([
                ("value", Json::Num(values[&spec.name])),
                ("unit", Json::Str(spec.unit.to_string())),
            ]),
        )
    }));
    let line = Json::obj([
        ("correct", Json::Bool(true)),
        ("attempted", Json::Num(metrics::attempted(&measured) as f64)),
        ("failed", Json::Num(0.0)),
        ("metrics", metrics),
    ]);
    println!("{}", line.render());
    Ok(())
}

fn main() {
    let mut argv = std::env::args().skip(1).peekable();
    let result = match argv.peek().map(String::as_str) {
        Some("suite") => {
            Args::parse(argv.skip(1), &["smoke"]).and_then(|a| suite::run_suite(&a.flags))
        }
        Some("compare") => {
            Args::parse(argv.skip(1), &[]).and_then(|a| match a.positional.as_slice() {
                [first, second] => suite::compare(first, second),
                _ => Err("usage: compare <a.json> <b.json>".into()),
            })
        }
        _ => Args::parse(argv, &[]).and_then(|a| run_one(&a)),
    };
    if let Err(e) = result {
        eprintln!("odb-benchmark: {e}");
        std::process::exit(1);
    }
}
