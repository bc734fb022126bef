#!/usr/bin/env bash
# Builds the workspace's `fleet_shard` worker and the benchmark from source,
# then runs the benchmark with every argument passed through:
#
#   bash perfbench/run.sh --workload table1-sweep --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); cargo's messages go to stderr so the last line of
# stdout stays the benchmark's JSON result.
set -euo pipefail

bench_dir="$(dirname "$0")"
root="$bench_dir/.."
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p zhuyi-distd --bin fleet_shard >&2
cargo build --release --offline --quiet --manifest-path "$bench_dir/Cargo.toml" >&2

exec "$target/release/zhuyi-perfbench" --worker-binary "$target/release/fleet_shard" "$@"
