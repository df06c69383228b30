#!/usr/bin/env bash
# Builds the `deepn` binary and the benchmark from source, then runs one
# workload. From the repository root:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark writes its tables artifact, reports, and spans under
# $CARGO_TARGET_DIR/perfbench.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin deepn >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/deepn-perfbench" \
    --deepn "$CARGO_TARGET_DIR/release/deepn" \
    --out "$CARGO_TARGET_DIR/perfbench" \
    "$@"
