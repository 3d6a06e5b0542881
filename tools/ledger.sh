#!/usr/bin/env bash
# Non-test line ledger (PR 14's method): for every .rs file under
# crates/*/src, the lines before the first `#[cfg(test)]`, minus blank lines
# and `//` comment lines; printed per crate and in total.
# Then the settable-value count: `pub` fields of every
# `pub struct *Config|*Spec|*Limits` under crates/*/src, before the first
# `#[cfg(test)]` of its file.
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for crate in crates/*/; do
    n=$(find "${crate}src" -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_tests = 0 }
        /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }')
    printf '%-10s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"

settable=$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
    FNR == 1 { in_tests = 0; in_struct = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests { next }
    in_struct && /^}/ { in_struct = 0 }
    in_struct && /^[[:space:]]+pub [a-z_0-9]+:/ { n++ }
    /^pub struct [A-Za-z0-9_]*(Config|Spec|Limits) *\{/ { in_struct = 1 }
    END { print n + 0 }')
printf '%-10s %6d\n' settable "$settable"
