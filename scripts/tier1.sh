#!/usr/bin/env sh
# Tier-1 verification gate (CI-runnable, fully offline).
#
# The workspace follows a hermetic-build policy: every dependency is an
# in-tree path crate, so a clean checkout with an empty registry cache
# must build and test with --offline.  Clippy and the tests run with
# --all-features, so code behind a cargo feature compiles and runs here
# or fails the gate.  Run from anywhere.
set -eu

cd "$(dirname "$0")/.."

echo "== tier1: cargo fmt --all --check (the workspace stays rustfmt-clean)"
cargo fmt --all --check

echo "== tier1: cargo build --release --offline"
cargo build --release --offline --workspace

echo "== tier1: cargo clippy --offline --all-features -- -D warnings"
cargo clippy --offline --workspace --all-targets --all-features -- -D warnings

echo "== tier1: cargo test -q --offline --all-features"
cargo test -q --offline --workspace --all-features

echo "== tier1: cargo doc --offline -D warnings (no broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== tier1: ferrum selfcheck (every catalog self-check + the pinned 200-program fuzz window, one process)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum -- selfcheck

echo "== tier1: ferrum fuzz deep-campaign window (100 programs from seed 5000, 400-fault campaigns)"
cargo run --release --offline -q -p ferrum-cli --bin ferrum -- fuzz --programs 100 --seed 5000 --samples 400

echo "== tier1: repro check (every deterministic artifact under results/ regenerates from the code)"
cargo run --release --offline -q -p ferrum-bench --bin repro -- check

echo "== tier1: examples (the public walkthrough runs, and its assertions hold)"
for example in quickstart fault_campaign coverage_gap protect_binary trace_detection; do
    cargo run --release --offline -q --example "$example" > /dev/null
done

echo "== tier1: perfbench tests (the benchmark's own workspace: smoke runs of both workloads)"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== tier1: OK"
