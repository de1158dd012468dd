#!/usr/bin/env bash
# Builds the benchmark and the mla-serve daemon from source, then runs
# one workload from the repository root:
#
#   bash mlabench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line on stdout is the JSON result.
# Honours CARGO_TARGET_DIR (default: mlabench/target).
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-mlabench/target}"
cargo build --release --quiet --offline --manifest-path mlabench/Cargo.toml \
    -p mlabench -p mla-serve >&2
exec "$target/release/mlabench" "$@"
