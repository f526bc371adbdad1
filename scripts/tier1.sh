#!/usr/bin/env sh
# Tier-1 verification gate (CI-runnable, fully offline).
#
# The workspace follows a hermetic-build policy: every dependency is an
# in-tree path crate, so a clean checkout with an empty registry cache
# must build and test with --offline.  Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: cargo build --release --offline"
cargo build --release --offline --workspace

echo "== tier1: cargo clippy --offline -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== tier1: cargo test -q --offline"
cargo test -q --offline --workspace

echo "== tier1: cargo build --offline --features trace (probes compiled in)"
cargo build --offline -p ferrum-cli --features trace

echo "== tier1: cargo test -q --offline --features trace (trace transparency)"
cargo test -q --offline --features trace --test trace_transparency

echo "== tier1: ferrum selfcheck (every catalog self-check + the pinned 200-program fuzz window, one process)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum -- selfcheck

echo "== tier1: bench_check.sh --quick (bench.json regression gate vs committed baseline)"
sh scripts/bench_check.sh --quick

echo "== tier1: perfbench tests (the benchmark's own workspace: smoke runs of both workloads)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier1: OK"
