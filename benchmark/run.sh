#!/usr/bin/env bash
# Entry point of the repo benchmark (the `command` of BENCHMARK.json):
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash benchmark/run.sh --smoke
#
# Builds only the binary the run needs — `bench-e2e` for --trace 0,
# `bench-trace` for --trace 1 — so a kernel signature change that breaks
# the trace binary cannot break the gated end-to-end numbers. Cargo's own
# output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

build() {
    cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bin "$1" >&2
}

if [[ "${1:-}" == "--smoke" ]]; then
    # Every workload through both binaries with 2 s windows, all checks on,
    # one set-up and a short replay. The runner's four runs go side by side
    # with the trace binary's four: smoke numbers are not measurements.
    build bench-e2e
    build bench-trace
    mkdir -p "$here/out"
    workloads=(stream_352 tile_1408 serve_352 serve_64)
    smoke() { # smoke <e2e|trace> <trace flag>: one result line per workload
        for workload in "${workloads[@]}"; do
            "$target/release/bench-$1" --workload "$workload" --seconds 2 --trace "$2" --smoke \
                | tail -n 1 >"$here/out/smoke.$1.$workload" || true
        done
    }
    smoke e2e 0 &
    smoke trace 1
    wait
    status=0
    for workload in "${workloads[@]}"; do
        for kind in e2e trace; do
            line="$(cat "$here/out/smoke.$kind.$workload")"
            rm -f "$here/out/smoke.$kind.$workload"
            case "$line" in
            '{"correct": true,'*) echo "smoke $workload $kind: ok (${line:0:60}...)" ;;
            *)
                echo "smoke $workload $kind: FAILED: $line"
                status=1
                ;;
            esac
        done
    done
    exit "$status"
fi

bin=bench-e2e
previous=""
for arg in "$@"; do
    if [[ "$previous" == "--trace" && "$arg" == "1" ]]; then
        bin=bench-trace
    fi
    previous="$arg"
done
build "$bin"
exec "$target/release/$bin" "$@"
