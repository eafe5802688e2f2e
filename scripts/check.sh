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

echo "==> chaos suite (fault injection + conservation audit, release)"
cargo test --release --offline --test chaos -q

echo "==> trace conformance (telemetry invariants + Perfetto round-trip, release)"
cargo test --release --offline --test trace_conformance -q

echo "==> cache tier (hit-ratio/latency e2e + device-bypass accounting, release)"
cargo test --release --offline --test cache -q

echo "==> durability suite (write-back crash consistency + latency win, release)"
cargo test --release --offline --test durability -q

echo "==> rack suite (multi-node fault domains: node death, GC routing, determinism, release)"
cargo test --release --offline --test rack -q

echo "==> broker suite (token borrowing: conservation, forgiveness, floor, placement, release)"
cargo test --release --offline --test broker -q

echo "==> cores suite (core scheduler: steal-off inertness, steal-on determinism, steal win, release)"
cargo test --release --offline --test cores -q

echo "==> scale suite (1k-tenant double-run bit-identity on the wheel hot path, release)"
cargo test --release --offline --test scale -q

echo "==> bench smoke (deterministic jbofsim runs; committed summaries must be fresh)"
scripts/bench_smoke.sh
git diff --exit-code BENCH_smoke.json BENCH_smoke_wb.json BENCH_rack.json \
    BENCH_broker_strict.json BENCH_broker.json BENCH_cores.json

echo "==> scale smoke (1k tenants, batched wheel hot path, 5 min wall budget)"
timeout 300 cargo run --release --offline -q --bin jbofsim -- \
    --scale 1000 --ssds 8 --duration-ms 200 --warmup-ms 50 --seed 42

echo "==> divergence sanitizer smoke (double run, journal comparison)"
cargo run --release --offline -q --bin jbofsim -- \
    --scheme gimbal --duration-ms 100 --warmup-ms 20 --seed 42 \
    --sanitize --workers 2x4k-read,1x4k-write > /dev/null

echo "==> rack chaos smoke (2-node replicated rack, node death, sanitized double run)"
cargo run --release --offline -q --bin jbofsim -- \
    --rack-nodes 2 --rack-ssds-per-node 2 --rack-fault node-death \
    --duration-ms 100 --warmup-ms 20 --seed 42 --sanitize > /dev/null

echo "==> broker chaos smoke (bursty borrowing mix through node death, sanitized double run)"
cargo test --release --offline -p gimbal-rack -q \
    broker_chaos_node_death_forgives_and_conserves

echo "==> steal-flip localization smoke (perturbed steal ring diverges under component 'cores')"
cargo test --release --offline -p gimbal-testbed -q \
    sanitizer_localizes_injected_steal_order_flip

echo "==> zero-alloc gates (disabled telemetry; all-denied broker poll + engine drains)"
cargo bench --offline -q -p gimbal-bench --bench micro -- zero_alloc

echo "==> jbof_bench (the standalone benchmark crate still builds against the core crates: its tests, then a quick burst_skew run through every gate)"
cargo test --offline -q --manifest-path jbof_bench/Cargo.toml
cargo run --release --offline -q --manifest-path jbof_bench/Cargo.toml \
    --bin jbof-bench -- run burst_skew --quick > /dev/null

echo "==> gimbal-lint (determinism policy)"
cargo run --offline -q -p gimbal-lint

echo "==> gimbal-lint --waivers (waiver ledger: no expired/orphaned/malformed)"
cargo run --offline -q -p gimbal-lint -- --waivers

echo "==> bench gate (blocking: >10% drift vs committed baselines, headline claims hold)"
scripts/bench_gate.sh

echo "All checks passed."
