#!/usr/bin/env bash
# Build the benchmark (offline, release) and run it.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh suite [--seeds a,b,..] [--out file]
#   benchmark/run.sh --smoke              # the suite at 1 s windows, one seed
#   benchmark/run.sh compare <a.json> <b.json>
#
# Run from the repository root: BENCHMARK.json is read from there, and
# benchmark/out and benchmark/scratch are written relative to it. The build
# goes to $CARGO_TARGET_DIR when set, else to benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac

# Cargo's progress goes to stderr; the result line must stay the last line
# of stdout.
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
  --manifest-path "$here/Cargo.toml" >&2

if [ "${1:-}" = "--smoke" ]; then
  shift
  set -- suite --smoke "$@"
fi
exec "$target/release/odb-benchmark" "$@"
