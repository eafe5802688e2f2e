#!/usr/bin/env bash
# The full gate. CI (.github/workflows/ci.yml) runs exactly this script.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo build --release"
cargo build --release --offline

# tests/lint_clean.rs runs `cargo clippy --workspace --all-targets -- -D
# warnings`, the determinism rules included (DESIGN.md §12).
echo "==> cargo test (clippy gate included)"
cargo test --workspace --offline -q

# The workspace tests above already ran every suite (the test profile is
# opt-level 2). Only the scale suite runs again: without debug assertions it
# switches to its full 1k-tenant point.
echo "==> scale suite (1k-tenant double-run bit-identity on the wheel hot path, release)"
cargo test --release --offline --test scale -q

echo "==> scale smoke (1k tenants, batched wheel hot path, 5 min wall budget)"
timeout 300 cargo run --release --offline -q --bin jbofsim -- \
    --workers 1000x4k-read --ssds 8 --batch 32 --duration-ms 200 --warmup-ms 50 --seed 42

echo "==> divergence sanitizer smoke (double run, journal comparison)"
cargo run --release --offline -q --bin jbofsim -- \
    --scheme gimbal --duration-ms 100 --warmup-ms 20 --seed 42 \
    --sanitize --workers 2x4k-read,1x4k-write > /dev/null

# A partition drives suspect → clear through the shared escalation ladder.
# Each node fault has its own reader: the ToR reads death and partitions,
# the node's devices read GC storms.
for fault in node-death partition gc-storm; do
    echo "==> rack chaos smoke (2-node replicated rack, $fault, sanitized double run)"
    cargo run --release --offline -q --bin jbofsim -- \
        --rack-nodes 2 --rack-ssds-per-node 2 --rack-fault "$fault" \
        --duration-ms 100 --warmup-ms 20 --seed 42 --sanitize > /dev/null
done

echo "==> write-back smoke (fragmented SSD under a 16 MiB write-back cache; jbofsim runs the crash-consistency oracle)"
cargo run --release --offline -q --bin jbofsim -- \
    --precondition fragmented --cache-mb 16 --cache-policy always --cache-write-policy back \
    --duration-ms 100 --warmup-ms 20 --seed 42 --workers 2x4k-read-zipf,4x4k-write-zipf \
    | grep '^oracle: '

echo "==> trace-export smoke (one traced run per format: cache, broker and stealing events)"
trace_dir=$(mktemp -d)
for fmt in chrome jsonl; do
    cargo run --release --offline -q --bin jbofsim -- \
        --ssds 2 --cores 1 --cache-mb 4 --cache-write-policy back --borrow --steal \
        --duration-ms 100 --warmup-ms 20 --seed 42 --workers 2x4k-read,1x4k-write \
        --trace-out "$trace_dir/t.$fmt" --trace-format "$fmt" > /dev/null
    test -s "$trace_dir/t.$fmt" || { echo "empty $fmt trace"; exit 1; }
done
rm -rf "$trace_dir"

echo "==> CLI-contract smoke (a rack run writes its trace; a flag the run does not read exits 2)"
trace_dir=$(mktemp -d)
cargo run --release --offline -q --bin jbofsim -- \
    --rack-nodes 2 --duration-ms 50 --warmup-ms 10 --seed 42 \
    --trace-out "$trace_dir/rack.json" > /dev/null
test -s "$trace_dir/rack.json" || { echo "empty rack trace"; exit 1; }
rm -rf "$trace_dir"
status=0
cargo run --release --offline -q --bin jbofsim -- --rack-nodes 2 --cache-mb 4 \
    > /dev/null 2>&1 || status=$?
test "$status" -eq 2 || { echo "--cache-mb on a rack run exited $status, not 2"; exit 1; }

echo "==> broker chaos smoke (bursty borrowing mix through node death, sanitized double run)"
cargo test --release --offline -p gimbal-rack -q \
    broker_chaos_node_death_forgives_and_conserves

echo "==> steal-flip localization smoke (perturbed steal ring diverges under component 'cores')"
cargo test --release --offline -p gimbal-testbed -q \
    sanitizer_localizes_injected_steal_order_flip

echo "==> KV cadence smoke (spurious pumps at seeded instants leave every KV result bit-identical)"
cargo test --release --offline -p gimbal-testbed -q extra_kv_pumps_change_nothing

echo "==> figures smoke (registry listing, argument handling on the static Table 2)"
cargo run --release --offline -q -p gimbal-bench --bin figures -- list > /dev/null
cargo run --release --offline -q -p gimbal-bench --bin figures -- --quick tab2_comparison > /dev/null

# Outside tests these figures are the only callers that set Gimbal's kept
# Params (thresh_max, slots_per_tenant, the three ablation switches) or the
# cache admission policy to non-default values (~10 s on 2 vCPUs).
echo "==> figures smoke (the ablations and the P3600 profile: every non-default Params and cache policy)"
cargo run --release --offline -q -p gimbal-bench --bin figures -- \
    --quick abl_threshold abl_slots abl_bucket_cost abl_cache gen_p3600 > /dev/null

echo "==> jbof_bench (the standalone benchmark crate still builds against the core crates: its tests, then quick mixed_frag, cache_wb_zipf, burst_skew, kv_ycsb_a and rack_failover runs through every gate)"
cargo test --offline -q --manifest-path jbof_bench/Cargo.toml
for w in mixed_frag cache_wb_zipf burst_skew kv_ycsb_a rack_failover; do
    cargo run --release --offline -q --manifest-path jbof_bench/Cargo.toml \
        --bin jbof-bench -- run "$w" --quick > /dev/null
done

echo "==> line counts (informational, never gates)"
scripts/loc.sh || true

echo "All checks passed."
