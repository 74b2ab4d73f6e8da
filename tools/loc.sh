#!/usr/bin/env bash
# Non-test code lines, the one count a change's line delta is quoted in.
# Reads every .rs file git tracks or would track under crates/*/src,
# crates/*/benches and examples/; a file counts up to its first
# `#[cfg(test)]` line, and only lines that are neither blank nor
# comment-only (`//`, `///`, `//!`). Prints one line per crate, one for
# examples, then the total.
#
#   tools/loc.sh        # from anywhere inside a checkout
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files --cached --others --exclude-standard \
    'crates/*/src/*.rs' 'crates/*/benches/*.rs' 'examples/*.rs' |
    awk '
    {
        split($0, part, "/")
        unit = part[1] == "crates" ? "crates/" part[2] : part[1]
        while ((getline line < $0) > 0) {
            if (line ~ /^[ \t]*#\[cfg\(test\)\]/) break
            if (line ~ /^[ \t]*(\/\/.*)?$/) continue
            count[unit]++
            total++
        }
        close($0)
    }
    END {
        for (unit in count) printf "%-22s %6d\n", unit, count[unit] | "sort"
        close("sort")
        printf "%-22s %6d\n", "total", total
    }'
