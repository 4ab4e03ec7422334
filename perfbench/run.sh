#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. The build uses $CARGO_TARGET_DIR when set
# (perfbench/target otherwise) and needs no network. The run is pinned to
# one CPU, the first this process may use: the bench host the ROADMAP
# targets has one core, and on a larger machine the pin keeps the client
# and server threads from being spread over cores differently from run to
# run. Without `taskset` the run is not pinned.
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
bin="${CARGO_TARGET_DIR:-perfbench/target}/release/perfbench"
cpu="$(awk '/^Cpus_allowed_list:/ { split($2, a, /[-,]/); print a[1] }' /proc/self/status 2>/dev/null || true)"
if [[ -n "$cpu" ]] && taskset -c "$cpu" true 2>/dev/null; then
    echo "perfbench: pinned to CPU $cpu" >&2
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
