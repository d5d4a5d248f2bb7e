#!/bin/sh
# Builds the benchmark into the repository's shared target directory, then
# runs the whole suite twice: untraced (end-to-end numbers) and traced
# (per-layer numbers, spans in benchmark/out/trace-<workload>.json).
# Extra arguments go to both runs, e.g. `benchmark/run.sh --seed 7`.
set -eu
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"
"$bin" run "$@"
"$bin" run --traced "$@"
