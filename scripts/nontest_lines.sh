#!/usr/bin/env bash
# Non-test lines of the product crates: for each `crates/*/src/**/*.rs`
# file (`crates/bench` excluded), every line that is not part of a
# `#[cfg(test)]` item, whatever its indentation, and none after a
# `#![cfg(test)]`. An item runs from its attribute to the `;` that ends
# it or to the `}` that closes its first `{`, counted with string, raw
# string (`r#"…"#`) and char literals and `//` comments blanked. Prints the total and the five
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
        FNR == 1 { n = 0; whole = 0; skip = 0; raw = 0; prev = FILENAME }
        whole { next }
        /^[[:space:]]*#!\[cfg\(test\)\]/ { whole = 1; next }
        !skip && /^[[:space:]]*#\[cfg\(test\)\]/ {
            skip = 1; depth = 0; opened = 0
            sub(/^[[:space:]]*#\[cfg\(test\)\]/, "")
        }
        !skip { n++; next }
        {
            line = $0
            if (raw) {
                at = index(line, "\"#")
                if (!at) next
                line = substr(line, at + 2); raw = 0
            }
            while (at = index(line, "r#\"")) {
                end = index(substr(line, at + 3), "\"#")
                if (!end) { line = substr(line, 1, at - 1); raw = 1; break }
                line = substr(line, 1, at - 1) substr(line, at + end + 4)
            }
            gsub(/"([^"\\]|\\.)*"/, "\"\"", line)
            gsub(/'\''([^'\''\\]|\\.)'\''/, "'\'''\''", line)
            sub(/\/\/.*$/, "", line)
            t = line; opens = gsub(/\{/, "", t)
            t = line; closes = gsub(/\}/, "", t)
            depth += opens - closes
            if (opens > 0) opened = 1
            if (opened ? depth <= 0 : line ~ /;[[:space:]]*$/) skip = 0
        }
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
