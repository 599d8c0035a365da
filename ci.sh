#!/bin/sh
# Tier-1 gate: source guards, rustfmt, clippy's product lints, release
# build, full test suite with lockdep armed, paper-shape and example runs,
# the benchmark smoke, clippy clean over every target.
set -eux

# Doc paths must exist: every backticked dir/file.{rs,toml,sh,json,md}
# in the top-level docs resolves from the repo root, so a rename or a
# deletion cannot leave the docs pointing at nothing.
missing=$(grep -oh '`[A-Za-z0-9_./-]*/[A-Za-z0-9_.-]*\.\(rs\|toml\|sh\|json\|md\)`' \
  README.md DESIGN.md EXPERIMENTS.md | tr -d '`' | sort -u |
  while read -r path; do [ -e "$path" ] || echo "$path"; done)
if [ -n "$missing" ]; then
  echo "doc-referenced paths that do not exist:" >&2
  echo "$missing" >&2
  exit 1
fi
# Doc code names must exist too. A backticked `crate::name` (crate one of
# brahma, ira, workload, bench, harness, obs; name lowercase) in the
# top-level docs names a module file or a `fn`/`mod` of that crate, and a
# backticked span that is exactly `Type::member` (member lowercase) names
# a `fn`, `const`, `static`, `mod` or field somewhere in the workspace,
# benchmark/src included.
unnamed=$(
  grep -oh '`[^`]*`' README.md DESIGN.md EXPERIMENTS.md |
    grep -oE '(^|[^A-Za-z0-9_])(brahma|ira|workload|bench|harness|obs)::[a-z_][a-z0-9_]*' |
    sed 's/^[^a-z]*//' | sort -u | while IFS=: read -r crate _ name; do
      src=crates/$crate/src
      [ -e "$src/$name.rs" ] || [ -e "$src/$name/mod.rs" ] ||
        grep -rqE "(fn|mod) $name\b" "$src" || echo "$crate::$name"
    done
  grep -oh '`[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*`' README.md DESIGN.md EXPERIMENTS.md |
    tr -d '`' | sort -u | while read -r span; do
      m=${span#*::}
      grep -rqE --include='*.rs' "\b(fn|const|static|mod) $m\b|^ *(pub(\([a-z]+\))? )?$m:" \
        crates/*/src src examples tests benchmark/src shims || echo "$span"
    done
)
if [ -n "$unnamed" ]; then
  echo "doc-named code that does not exist:" >&2
  echo "$unnamed" >&2
  exit 1
fi
# DESIGN.md stays at the size of what it must say: at most 45,000 bytes.
if [ "$(wc -c < DESIGN.md)" -gt 45000 ]; then
  echo "DESIGN.md is $(wc -c < DESIGN.md) bytes, over its 45000-byte budget" >&2
  exit 1
fi
# Non-test code of a source file: everything before its `#[cfg(test)]` or
# `#[cfg(all(test, …))]` module. The guards and the size counter below
# share this one cut.
nontest() { sed -e '/^#\[cfg(test)\]/,$d' -e '/^#\[cfg(all(test/,$d' "$@"; }
# One owner of what an update record does to a page (DESIGN.md §11.2):
# outside object.rs, non-test code in at most one file under
# crates/brahma/src may call the page mutators — today db.rs, inside
# `Database::apply_update` — so a second copy of the record semantics fails
# here, before anything is built.
owners=$(for f in crates/brahma/src/*.rs crates/brahma/src/*/*.rs; do
  if [ "$f" != crates/brahma/src/object.rs ] && nontest "$f" |
    grep -Eq 'object::(init_object|place_image|mark_free|set_payload|set_ref|insert_ref|insert_ref_at|remove_ref_at)\('
  then echo "$f"; fi
done)
if [ "$(printf '%s\n' "$owners" | grep -c .)" -gt 1 ]; then
  echo "object:: page mutators called from more than one file:" >&2
  echo "$owners" >&2
  exit 1
fi
# One charged page access in the transaction handle (DESIGN.md §11.2):
# non-test handle.rs calls `charge_access*` from one place and
# `with_page_read`/`with_page_write` from one place (`Txn::charge` and
# `Txn::access` today), so every read and forward mutator takes the same
# page path, and a second copy of it fails here.
for call in 'charge_access[a-z_]*' 'with_page_(read|write)'; do
  sites=$(nontest crates/brahma/src/handle.rs | grep -nE "\.$call\(" || true)
  if [ "$(printf '%s\n' "$sites" | grep -c .)" -gt 1 ]; then
    echo "handle.rs calls $call from more than one place:" >&2
    echo "$sites" >&2
    exit 1
  fi
done
# Env knobs (DESIGN.md §16): the "UPPER_CASE" names non-test code of
# harness's env_cfg.rs reads and the rows of §16's table must be the same
# set.
code_knobs=$(nontest crates/harness/src/env_cfg.rs |
  grep -o '"[A-Z][A-Z0-9_]*"' | tr -d '"' | sort -u)
doc_knobs=$(sed -n '/^## 16\./,$p' DESIGN.md |
  grep -o '^| `[A-Z][A-Z0-9_]*`' | tr -d '|` ' | sort -u)
if [ "$code_knobs" != "$doc_knobs" ]; then
  printf 'env_cfg.rs reads:\n%s\nDESIGN.md §16 lists:\n%s\n' "$code_knobs" "$doc_knobs" >&2
  exit 1
fi
# Lock classes (DESIGN.md §11.1): the `LockClass` variants, `TestA`/`TestB`
# aside, and the first-column names of §11.1's catalog must be the same set.
code_classes=$(sed -n '/^pub enum LockClass {/,/^}/p' crates/brahma/src/lockdep.rs |
  grep -o '^    [A-Z][A-Za-z]*' | tr -d ' ' | grep -v '^Test[AB]$' | sort -u)
doc_classes=$(sed -n '/^### 11\.1 /,/^### 11\.2 /p' DESIGN.md | grep '^| `' |
  cut -d'|' -f2 | grep -o '`[A-Z][A-Za-z]*`' | tr -d '`' | grep -v '^Test[AB]$' | sort -u)
if [ "$code_classes" != "$doc_classes" ]; then
  printf 'lockdep.rs defines:\n%s\nDESIGN.md §11.1 lists:\n%s\n' "$code_classes" "$doc_classes" >&2
  exit 1
fi
# The declared order too: the `(held, taken)` pairs of `ORDER` in
# lockdep.rs, test classes aside, and the catalog's "May be taken under"
# column (each row's classes taken under each class that column names) are
# the same set, so a new nesting edits the code and the doc together.
code_order=$(sed -n '/^const ORDER: /,/^];/p' crates/brahma/src/lockdep.rs |
  sed -n 's/^ *(\([A-Z][A-Za-z]*\), \([A-Z][A-Za-z]*\)),.*/\1 \2/p' | grep -v Test | sort -u)
doc_order=$(sed -n '/^### 11\.1 /,/^### 11\.2 /p' DESIGN.md | grep '^| `' | grep -v '`TestA`' |
  awk -F'|' '{ n = split($2, t, "`"); m = split($5, h, "`")
    for (i = 2; i <= n; i += 2) for (j = 2; j <= m; j += 2) print h[j], t[i] }' | sort -u)
if [ -z "$code_order" ] || [ "$code_order" != "$doc_order" ]; then
  printf 'lockdep.rs ORDER:\n%s\nDESIGN.md §11.1 may-be-taken-under:\n%s\n' \
    "$code_order" "$doc_order" >&2
  exit 1
fi
# On-disk format versions (DESIGN.md §14): the segment and checkpoint
# magics storage/mod.rs writes are the two that §14 introduces as
# "magic BRHM…", so a format bump cannot leave the doc behind.
code_magics=$(sed -n 's/^const [A-Z]*_MAGIC: &\[u8; 8\] = b"\(BRHM[A-Z0-9]*\)";/\1/p' \
  crates/brahma/src/storage/mod.rs | sort -u)
doc_magics=$(sed -n '/^## 14\./,/^## 15\./p' DESIGN.md |
  grep -o 'magic `\{0,1\}BRHM[A-Z0-9]*' | grep -o 'BRHM[A-Z0-9]*' | sort -u)
if [ "$(printf '%s\n' "$code_magics" | grep -c .)" -ne 2 ] || [ "$code_magics" != "$doc_magics" ]; then
  printf 'storage/mod.rs writes:\n%s\nDESIGN.md §14 names:\n%s\n' "$code_magics" "$doc_magics" >&2
  exit 1
fi
# Counter keys (DESIGN.md §8): the keys non-test code sets with
# `.set("…"` or `.set(&format!("…"` (lines joined, since rustfmt wraps long
# calls; `{site}` reads as §8's `<site>`) and the keys §8's table lists
# (`a.b` / `c` is shorthand for `a.b` and `a.c`) must be the same set: no
# undocumented counter, no dead row.
code_keys=$(find crates/*/src src examples -name '*.rs' | while read -r f; do nontest "$f"; done |
  grep -v '^ *//' | tr '\n' ' ' |
  grep -o '\.set( *\(&format!( *\)\?"[^"]*"' | cut -d'"' -f2 | tr '{}' '<>' | sort -u)
doc_keys=$(sed -n '/^## 8\./,/^## 9\./p' DESIGN.md | awk -F'|' '/^\| `/ {
    n = split($2, t, "`")
    for (i = 2; i <= n; i += 2) {
      k = t[i]
      if (i == 2) p = substr(k, 1, index(k, "."))
      else if (index(k, ".") == 0) k = p k
      print k
    }
  }' | sort -u)
if [ "$code_keys" != "$doc_keys" ]; then
  echo "counter keys set in code but missing from DESIGN.md §8:" >&2
  printf '%s\n' "$code_keys" | grep -vxF "$doc_keys" >&2 || true
  echo "DESIGN.md §8 rows no code sets:" >&2
  printf '%s\n' "$doc_keys" | grep -vxF "$code_keys" >&2 || true
  exit 1
fi
# Fault sites (DESIGN.md §9.1): every `site` const of the two catalogs,
# `pub` or `pub(crate)`, is listed in its module's `ALL` or `FILE_ALL`
# sweep array, so the chaos sweep reaches it, and non-test code names a
# site by its const, never by a string literal. A catalog file that is
# gone fails the guard too.
unswept=$(for f in crates/brahma/src/fault.rs crates/ira/src/site.rs; do
  [ -f "$f" ] || { echo "$f: no such file"; continue; }
  swept=$(nontest "$f" | awk '/ALL: &\[&str\] = / { on = 1 } on { print } /\];/ { on = 0 }')
  nontest "$f" | sed -n 's/^ *pub\((crate)\)\{0,1\} const \([A-Z][A-Z0-9_]*\): &str = .*/\2/p' |
    while read -r c; do
      printf '%s\n' "$swept" | grep -qw "$c" || echo "$f: $c"
    done
done)
site_literals=$(find crates/*/src src examples -name '*.rs' | while read -r f; do
  nontest "$f" | grep -n '\.observe("\|site: "' | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done)
if [ -n "$unswept$site_literals" ]; then
  echo "site consts missing from ALL/FILE_ALL, then fault-site literals:" >&2
  printf '%s\n' "$unswept" "$site_literals" >&2
  exit 1
fi
# Atomic orderings (DESIGN.md §11.2): every `Ordering::` use in non-test
# brahma and ira code carries an `// ordering:` line, on it or just above,
# saying what it pairs with or why staleness is benign.
unjustified=$(find crates/brahma/src crates/ira/src -name '*.rs' | while read -r f; do
  nontest "$f" | awk -v f="$f" '/Ordering::(Relaxed|Acquire|Release|AcqRel|SeqCst)/ &&
    !/^ *\/\// && !/\/\/ ordering:/ && prev !~ /\/\/ ordering:/ { print f ":" NR ": " $0 }
    { prev = $0 }'
done)
if [ -n "$unjustified" ]; then
  echo "atomic orderings without an // ordering: justification:" >&2
  echo "$unjustified" >&2
  exit 1
fi
# Address-keyed tables (DESIGN.md §11.2): non-test brahma and ira code
# declares no HashMap/HashSet keyed by PhysAddr with the default hasher;
# `AddrMap`/`AddrSet` carry the store's fixed one (`FibState`).
sip_tables=$(find crates/brahma/src crates/ira/src -name '*.rs' | while read -r f; do
  nontest "$f" | grep -n 'Hash\(Map\|Set\)<PhysAddr' | grep -v 'FibState' | sed "s|^|$f:|"
done)
if [ -n "$sip_tables" ]; then
  echo "PhysAddr-keyed HashMap/HashSet with the default hasher (use AddrMap/AddrSet):" >&2
  echo "$sip_tables" >&2
  exit 1
fi
# Every product lock is one lockdep sees (DESIGN.md §11.2): non-test code
# of every crate hand-rolls no spin lock — no `spin_loop`, no
# `compare_exchange` — which neither lockdep nor the schedule hook could
# observe.
spins=$(find crates/*/src -name '*.rs' | while read -r f; do
  nontest "$f" | grep -n 'spin_loop\|compare_exchange' | grep -v '^[0-9]*: *//' | sed "s|^|$f:|"
done)
if [ -n "$spins" ]; then
  echo "hand-rolled spin locks (use lockdep::Mutex):" >&2
  echo "$spins" >&2
  exit 1
fi
# No builder option without a caller: every `pub fn` of `ira::Reorg` is
# called (`Reorg::name(` or `.name(`) from non-test code of the programs
# that use the crate, benchmark/src, crates/bench/src, examples/ and src/.
# The harness crate and the tests do not count, so an option only a test
# sets fails here.
callers=$(find benchmark/src crates/bench/src examples src -name '*.rs' |
  while read -r f; do nontest "$f"; done | grep -v '^ *//')
uncalled=$(sed -n "/^impl<'a> Reorg<'a> {/,/^}/p" crates/ira/src/builder.rs |
  sed -n 's/^    pub fn \([a-z_][a-z0-9_]*\).*/\1/p' | while read -r m; do
    printf '%s\n' "$callers" | grep -qE "(Reorg::|\.)$m\(" || echo "Reorg::$m"
  done)
if [ -n "$uncalled" ]; then
  echo "ira::Reorg options no non-test program calls:" >&2
  echo "$uncalled" >&2
  exit 1
fi
# Line width: rustfmt leaves a whole statement as written when a string
# literal in it runs past `max_width` (100), so `cargo fmt --check` below
# cannot see that statement's indentation. Every Rust file under
# crates/*/src (test modules included), crates/*/tests, src/, examples/ and
# tests/ keeps every line but comments within 100 bytes (benchmark/ is its
# own workspace and stays out); comment lines are exempt so `// ordering:`
# justifications stay whole.
wide=$(find crates/*/src crates/*/tests src examples tests -name '*.rs' | while read -r f; do
  LC_ALL=C awk -v f="$f" 'length($0) > 100 && !/^ *\/\// { print f ":" NR ": " $0 }' "$f"
done)
if [ -n "$wide" ]; then
  echo "non-comment lines over 100 bytes (shorten the literal so rustfmt formats the statement):" >&2
  echo "$wide" >&2
  exit 1
fi
# The tree is rustfmt-clean (benchmark/ is its own workspace).
cargo fmt --all --check
# Product lints (DESIGN.md §11.2), on non-test targets only. clippy.toml
# disallows std::thread::sleep, and crates/{brahma,ira}/clippy.toml also
# the raw std::sync lock types lockdep cannot see; those two crates'
# Cargo.toml warn on unwrap/expect. Each waiver is an #[expect] with a
# reason at its site, so a waiver whose cause is gone fails here too
# (unfulfilled_lint_expectations).
cargo clippy --workspace --lib --bins --examples -- -D warnings
# The public docs link only to public items: a doc that links into a
# private module (most of `brahma`'s and `ira`'s are) fails here.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
# The workspace tests include the full chaos matrix (DESIGN.md §9.2):
# every fault site at every stride, fixed seeds.
cargo test --workspace -q
# Schedule exploration smoke (DESIGN.md §12): this bounded PCT sweep over
# the batch-boundary crash cell (2 fault seeds × 2 priority seeds, fixed
# root) must verify every cell.
EXPLORE_ROOTS=2 EXPLORE_PRIOS=2 cargo test -q -p ira --test replay_regression \
  -- --ignored explore_chaos
# Runtime lock-order checker in its release configuration (DESIGN.md §11):
# debug/test builds above already run with lockdep armed via
# debug_assertions; this pass proves the `lockdep` feature also composes
# with optimized code, where violations count instead of panicking — which
# is why `lock_order.rs` and the chaos sweep assert the counter itself.
cargo test --release --features lockdep -q -p brahma -p ira -p harness
# Paper-shape gate (DESIGN.md §13): Table 2's trio at MPL 30 must be
# healthy and hold the paper's three inequalities, or this exits nonzero.
# The CSV goes under target/ so the checked-in full-run results/ stay put.
cargo run --release -p bench --bin paper_figures -- table2 --quick --out target/shape
# Locality smoke (DESIGN.md §15): observe walkers on a fragmented
# placement, reorganize from the collected stats, and fail unless the
# stats-derived plan beat the fragmented placement on the cost metric.
cargo run --release -p bench --bin paper_figures -- locality --quick
# The examples assert what they demonstrate (objects moved, garbage
# reclaimed, a crash restarted); `cargo test` only compiles them, so run
# every one (~2 s together).
for ex in examples/*.rs; do
  cargo run --release -q --example "$(basename "$ex" .rs)"
done
# Clippy over every target, tests included. Tests may sleep, unwrap and use
# raw locks, so the four lints the product pass enforces are allowed here.
cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed_methods \
  -A clippy::disallowed_types -A clippy::unwrap_used -A clippy::expect_used
# The raw-mode benchmark's output checks (benchmark/README.md): exact
# `db.migrations`, logical fingerprint, live counts and
# `assert_database_consistent` over every `reorg_idle` and `mix_ira` pass
# gate every migrator change. Smoke length; the numbers are not compared
# here.
bash benchmark/run.sh --smoke
# The benchmark crate's own unit tests pin facts a `brahma` change can break
# without failing anything above: `wal.records_per_txn` = 2 and
# `lock.acquisitions_per_txn` = 9 on `walk_read`, same seed same counters,
# the exact `db.migrations` of fixed work. Reuses the smoke run's release
# build of the crates under test.
cargo test --offline --release --manifest-path benchmark/Cargo.toml
# The write path's allocation budget (DESIGN.md §10.3) — allocations per
# migrated object, per `set_payload`, per read-only transaction — ran in
# the debug workspace tests above; the counts must hold optimized too.
cargo test --release -q --test alloc_budget
# One size counter, so "least code" (ROADMAP) is the same number in every
# PR: non-test Rust lines under crates/*/src and shims/*/src (the `nontest`
# cut the guards above use) outside the test harness crate, the harness's
# own, then test and benchmark lines, and the bytes of DESIGN.md, so the
# docs' size is a number too, and the public surface of the store and the
# reorganizer: non-test `pub fn|struct|enum|trait|use` lines under
# crates/brahma/src and crates/ira/src. CHANGES.md quotes this line for the
# parent and the change.
lines() { find "$@" -name '*.rs' | while read -r f; do nontest "$f"; done | wc -l; }
src=$(lines crates/*/src shims/*/src -not -path 'crates/harness/*')
count() { find "$@" -name '*.rs' -exec cat {} + | wc -l; }
pub=$(find crates/brahma/src crates/ira/src -name '*.rs' | while read -r f; do nontest "$f"; done |
  grep -cE '^[[:space:]]*pub (fn|struct|enum|trait|use) ')
echo "size: src=$src harness=$(lines crates/harness/src) crate-tests=$(count crates/*/tests) tests=$(count tests) benchmark-src=$(count benchmark/src) design=$(wc -c < DESIGN.md) pub=$pub"
