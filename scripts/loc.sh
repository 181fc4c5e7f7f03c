#!/usr/bin/env bash
# Code lines per crate: non-blank, non-comment (`//`, `///`, `//!`) lines of
# the non-test part (scripts/non_test.awk) of every src/**/*.rs that is not
# itself compiled only for tests (`#[cfg(test)]` on its `mod name;`).
# The number ROADMAP item 4 tracks; run from anywhere, optionally with a
# repository root as the argument (to count another checkout).
set -euo pipefail
non_test=$(cd "$(dirname "$0")" && pwd)/non_test.awk
cd "${1:-$(dirname "$0")/..}"
for crate in crates/*/; do
    test_only=$(grep -rA1 --include='*.rs' '^#\[cfg(test)\]$' "${crate}src" |
        sed -nE 's|^(.*)/[^/]+\.rs-(pub(\([a-z]+\))? )?mod ([a-z_0-9]+);$|\1/\4.rs|p')
    # ("/" equals no path: nothing to skip.)
    find "${crate}src" -name '*.rs' | grep -vxF "${test_only:-/}" |
        xargs awk -f "$non_test" |
        awk -v name="vibe-$(basename "$crate")" '
            /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
            { code++ }
            END { printf "%-14s %6d\n", name, code }'
done
