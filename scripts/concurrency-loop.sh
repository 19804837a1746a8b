#!/usr/bin/env bash
# Run the concurrency tests many times in a row, stopping at the first
# failure, so a torn snapshot cannot hide as a rare flake.
#
#   scripts/concurrency-loop.sh [ROUNDS]      (default 500)
#
# The test binaries are built once (debug profile, as `cargo test`
# builds them); each round runs every listed test once.
set -euo pipefail

rounds="${1:-500}"

# Path of the test executable of target `$2` in package `$1`.
exe() {
    cargo test -q -p "$1" --no-run --message-format=json |
        jq -r --arg t "$2" 'select(.executable != null and .target.name == $t) | .executable'
}

# Run the named tests of one executable; all of them must run and pass.
run() {
    local bin=$1 out
    shift
    out=$("$bin" -q --exact "$@" 2>&1) || { echo "$out" >&2; return 1; }
    grep -q "ok. $# passed" <<<"$out" || { echo "expected $# tests: $out" >&2; return 1; }
}

agentsim_lib=$(exe qelect-agentsim qelect_agentsim)
span_props=$(exe qelect-agentsim span_properties)
graph_lib=$(exe qelect-graph qelect_graph)

for round in $(seq 1 "$rounds"); do
    run "$agentsim_lib" \
        coverage::tests::snapshot_is_consistent_under_concurrent_observers \
        metrics::tests::snapshot_is_consistent_under_concurrent_increments &&
        run "$span_props" span_snapshot_is_torn_read_free_under_concurrent_spans &&
        run "$graph_lib" cache::tests::stats_snapshot_is_consistent_under_concurrent_lookups ||
        { echo "concurrency tests failed in round $round of $rounds" >&2; exit 1; }
done
echo "concurrency tests: $rounds of $rounds rounds passed"
