#!/usr/bin/env bash
# Build the server and the benchmark from source (a no-op when up to date),
# then run the benchmark with the caller's arguments. Both builds share one
# target directory so mpcbench finds `mpcskew` next to its own executable.
# Run from the repository root: bash mpcbench/run.sh --workload uniform_hit \
#   --seed 1 --seconds 10 --trace 0
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"
cargo build --release --offline --quiet --bin mpcskew
cargo build --release --offline --quiet --manifest-path mpcbench/Cargo.toml
exec "$CARGO_TARGET_DIR/release/mpcbench" "$@"
