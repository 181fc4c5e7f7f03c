#!/usr/bin/env bash
# Code lines per crate: non-blank, non-comment (`//`, `///`, `//!`) lines of
# every src/**/*.rs, counted up to the file's first top-level `#[cfg(test)]`.
# The number ROADMAP item 4 tracks; run from anywhere, optionally with a
# repository root as the argument (to count another checkout).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
for crate in crates/*/; do
    find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk -v name="vibe-$(basename "$crate")" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { code++ }
        END { printf "%-14s %6d\n", name, code }'
done
