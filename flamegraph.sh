#!/bin/sh
# Flame-graph helper for the hot paths this repo optimizes (allocator,
# wave executor): wraps `perf record` around any command and leaves a
# perf.data + folded-stack report next to it.
#
# Usage:
#   ./flamegraph.sh cargo run -p bench --release --bin paper_figures -- table2 --quick
#   ./flamegraph.sh target/release/paper_figures mpl --quick
#
# Output goes to flamegraph.out/ (git-ignored):
#   perf.data      — raw samples (open with `perf report`)
#   folded.txt     — collapsed stacks, one line per unique stack, ready to
#                    feed to any flamegraph renderer (e.g. flamegraph.pl)
#
# Degrades gracefully: when `perf` is not installed (the common case in
# minimal containers), prints what it *would* have run and executes the
# command unprofiled, so scripts can call it unconditionally.
set -eu

if [ "$#" -eq 0 ]; then
    echo "usage: $0 <command> [args...]" >&2
    exit 2
fi

if ! command -v perf >/dev/null 2>&1; then
    echo "flamegraph.sh: 'perf' not found; running unprofiled: $*" >&2
    exec "$@"
fi

OUT_DIR=${FLAMEGRAPH_OUT:-flamegraph.out}
mkdir -p "$OUT_DIR"

# 997 Hz (prime, avoids lockstep with periodic work), DWARF unwinding for
# good Rust stacks without requiring frame pointers.
perf record -F 997 --call-graph dwarf -o "$OUT_DIR/perf.data" -- "$@"

# Collapse to folded stacks if perf script works here; keep going on
# failure — perf.data alone is already useful.
if perf script -i "$OUT_DIR/perf.data" >"$OUT_DIR/script.txt" 2>/dev/null; then
    # Minimal folder: count identical ";"-joined stacks. Equivalent to
    # stackcollapse-perf.pl for the common single-event case.
    awk '
        /^\S/ { comm = $1; next }
        /^\s+[0-9a-f]+/ {
            # frame lines: "addr symbol (dso)"
            sym = $2
            if (sym == "[unknown]") next
            stack = (stack == "" ? sym : sym ";" stack)
            next
        }
        /^$/ {
            if (stack != "") { counts[comm ";" stack]++ }
            stack = ""
        }
        END { for (s in counts) print s, counts[s] }
    ' "$OUT_DIR/script.txt" | sort >"$OUT_DIR/folded.txt"
    rm -f "$OUT_DIR/script.txt"
    echo "flamegraph.sh: wrote $OUT_DIR/perf.data and $OUT_DIR/folded.txt" >&2
else
    echo "flamegraph.sh: wrote $OUT_DIR/perf.data (perf script unavailable)" >&2
fi
