#!/usr/bin/env bash
# The full gate. CI (.github/workflows/ci.yml) runs exactly this script.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo build --release"
cargo build --release --offline

echo "==> cargo test"
cargo test --workspace --offline -q

# The workspace tests above already ran every suite (the test profile is
# opt-level 2). Only the scale suite runs again: without debug assertions it
# switches to its full 1k-tenant point.
echo "==> scale suite (1k-tenant double-run bit-identity on the wheel hot path, release)"
cargo test --release --offline --test scale -q

echo "==> scale smoke (1k tenants, batched wheel hot path, 5 min wall budget)"
timeout 300 cargo run --release --offline -q --bin jbofsim -- \
    --scale 1000 --ssds 8 --duration-ms 200 --warmup-ms 50 --seed 42

echo "==> divergence sanitizer smoke (double run, journal comparison)"
cargo run --release --offline -q --bin jbofsim -- \
    --scheme gimbal --duration-ms 100 --warmup-ms 20 --seed 42 \
    --sanitize --workers 2x4k-read,1x4k-write > /dev/null

# A partition drives suspect → clear through the shared escalation ladder.
for fault in node-death partition; do
    echo "==> rack chaos smoke (2-node replicated rack, $fault, sanitized double run)"
    cargo run --release --offline -q --bin jbofsim -- \
        --rack-nodes 2 --rack-ssds-per-node 2 --rack-fault "$fault" \
        --duration-ms 100 --warmup-ms 20 --seed 42 --sanitize > /dev/null
done

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

echo "==> zero-alloc gates (disabled telemetry; all-denied broker poll + engine drains)"
cargo bench --offline -q -p gimbal-bench --bench micro -- zero_alloc

echo "==> jbof_bench (the standalone benchmark crate still builds against the core crates: its tests, then quick burst_skew, kv_ycsb_a and rack_failover runs through every gate)"
cargo test --offline -q --manifest-path jbof_bench/Cargo.toml
for w in burst_skew kv_ycsb_a rack_failover; do
    cargo run --release --offline -q --manifest-path jbof_bench/Cargo.toml \
        --bin jbof-bench -- run "$w" --quick > /dev/null
done

echo "==> line counts (informational, never gates)"
scripts/loc.sh || true

echo "==> gimbal-lint (determinism policy)"
cargo run --offline -q -p gimbal-lint

echo "==> gimbal-lint --waivers (waiver ledger: no expired/orphaned/malformed)"
cargo run --offline -q -p gimbal-lint -- --waivers

echo "All checks passed."
