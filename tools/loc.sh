#!/usr/bin/env bash
# Non-test code lines, the one count a change's line delta is quoted in.
# Reads every .rs file git tracks or would track under crates/*/src,
# crates/*/benches and examples/; a file counts up to its first
# `#[cfg(test)]` line, and only lines that are neither blank nor
# comment-only (`//`, `///`, `//!`). Prints one line per crate, one for
# examples, then the total. Outside a git work tree it fails rather
# than count nothing.
#
#   tools/loc.sh        # the checkout the working directory is in
#   tools/loc.sh DIR    # the checkout DIR is in (a parent's clone, say)
set -euo pipefail
if [ $# -gt 1 ]; then
    echo "usage: tools/loc.sh [DIR]" >&2
    exit 2
fi
cd "${1:-.}"
if ! top=$(git rev-parse --show-toplevel 2>/dev/null); then
    echo "loc.sh: $(pwd) is not inside a git work tree" >&2
    exit 1
fi
cd "$top"
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
