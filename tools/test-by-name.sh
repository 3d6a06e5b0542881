#!/usr/bin/env bash
# Runs `cargo test ARGS -- FILTER...` after checking that every FILTER
# selects at least one test, so a renamed or deleted test fails the step
# instead of turning it into a green no-op. A filter selects the tests
# whose full name contains it, as libtest matches them.
#
# Usage: tools/test-by-name.sh [cargo test options] -- FILTER...
set -euo pipefail

args=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
    args+=("$1")
    shift
done
if [ $# -lt 2 ]; then
    echo "usage: $0 [cargo test options] -- FILTER..." >&2
    exit 2
fi
shift

names=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
for filter in "$@"; do
    n=$(grep -cF -- "$filter" <<<"$names" || true)
    if [ "$n" -eq 0 ]; then
        echo "test filter '$filter' selects no test (cargo test ${args[*]})" >&2
        exit 1
    fi
    echo "test filter '$filter' selects $n tests"
done
cargo test "${args[@]}" -- "$@"
