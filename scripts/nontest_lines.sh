#!/usr/bin/env bash
# Non-test lines of the product crates: for each `crates/*/src/**/*.rs`
# file (`crates/bench` excluded), the lines above its first
# `#[cfg(test)]` or `#![cfg(test)]`. Prints the total and the five
# largest files, and fails if any file is over the ceiling.
#
#   scripts/nontest_lines.sh            # ceiling 1000
set -euo pipefail
cd "$(dirname "$0")/.."
ceiling=1000
counts=$(find crates -path crates/bench -prune -o -path 'crates/*/src/*' -name '*.rs' -print |
    sort |
    xargs awk '
        FNR == 1 && NR > 1 { print n + 0, prev }
        FNR == 1 { n = 0; done = 0; prev = FILENAME }
        /^[[:space:]]*#!?\[cfg\(test\)\]/ { done = 1 }
        !done { n++ }
        END { print n + 0, prev }')
total=$(awk '{ t += $1 } END { print t }' <<<"$counts")
echo "non-test lines: $total"
sort -rn <<<"$counts" | head -n 5 | awk '{ printf "%7d  %s\n", $1, $2 }'
over=$(awk -v c="$ceiling" '$1 > c' <<<"$counts")
if [ -n "$over" ]; then
    echo "over the $ceiling-line ceiling:" >&2
    awk '{ printf "%7d  %s\n", $1, $2 }' <<<"$over" >&2
    exit 1
fi
