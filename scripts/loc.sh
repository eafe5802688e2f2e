#!/usr/bin/env bash
# Line counts for the engine-runtime files and the workspace, as ROADMAP's
# line tables use them:
#   non-test  — the lines before a file's first top-level `#[cfg(test)]`
#               (its test module);
#   code-only — the same lines without blank lines and `//` comment lines.
# The workspace total covers every .rs file under crates/*/src and src/
# (library and binary sources; tests/, examples/, benches and the separate
# jbof_bench workspace are left out).
# A knob census follows: the `pub` fields of every `*Config`, `*Spec`,
# `Params` and `FaultPlan` struct under crates/*/src, outside test modules —
# each an independently settable value tests and the benchmark must cover.
# Usage: scripts/loc.sh [FILE…]   (defaults to the engine-runtime files)
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        { total++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        END { printf "%d %d\n", total, code }
    ' "$1"
}

if [ "$#" -gt 0 ]; then
    files=("$@")
else
    files=()
    for f in crates/testbed/src/engine.rs crates/testbed/src/kv.rs \
        crates/rack/src/engine.rs crates/testbed/src/node.rs \
        crates/testbed/src/reactor.rs crates/testbed/src/initiator.rs; do
        [ -f "$f" ] && files+=("$f")
    done
fi

printf '%-32s %9s %9s\n' file non-test code-only
sum_t=0 sum_c=0
for f in "${files[@]}"; do
    read -r t c < <(count "$f")
    printf '%-32s %9d %9d\n' "$f" "$t" "$c"
    sum_t=$((sum_t + t)) sum_c=$((sum_c + c))
done
printf '%-32s %9d %9d\n' "(these files)" "$sum_t" "$sum_c"

ws_t=0 ws_c=0
while IFS= read -r f; do
    read -r t c < <(count "$f")
    ws_t=$((ws_t + t)) ws_c=$((ws_c + c))
done < <(find crates/*/src src -name '*.rs' | sort)
printf '%-32s %9d %9d\n' "(workspace)" "$ws_t" "$ws_c"

# Knob census: per struct, then the total.
knobs() {
    awk '
        /^#\[cfg\(test\)\]/ { exit }
        /^pub struct [A-Za-z0-9_]+ *\{/ {
            name = $3; sub(/[^A-Za-z0-9_].*/, "", name)
            if (name ~ /(Config|Spec)$/ || name == "Params" || name == "FaultPlan") { inside = 1; next }
        }
        inside && /^\}/ { inside = 0; next }
        inside && /^    pub [a-z_0-9]+:/ { print name }
    ' "$1"
}
while IFS= read -r f; do
    knobs "$f"
done < <(find crates/*/src -name '*.rs' | sort) | sort | uniq -c |
    awk '{ printf "%-32s %9d\n", $2, $1; n += $1 } END { printf "%-32s %9d\n", "(config knobs)", n }'
