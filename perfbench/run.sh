#!/usr/bin/env bash
# Builds the `cardopc` binary under test (from the repository's own
# workspace, as `cargo build --release` ships it) and the benchmark, then
# runs one workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Build outputs go to $CARGO_TARGET_DIR
# (default .bench_build); generated inputs and program outputs to
# .bench_work.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p cardopc-serve --bin cardopc --target-dir "$target" >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --target-dir "$target" >&2
exec "$target/release/perfbench" --cardopc "$target/release/cardopc" "$@"
