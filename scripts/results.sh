#!/usr/bin/env bash
# Regenerates results/*.txt — stdout of the 16 figure binaries and of the 6
# archived examples, all byte-deterministic (wall-clock numbers go to
# stderr) — two at a time. With --check the outputs go to target/results
# and must equal the archive byte for byte; scripts/ci.sh ends with that.
set -euo pipefail
cd "$(dirname "$0")/.."
out=results
if [ "${1:-}" = --check ]; then
    out=target/results
    rm -rf "$out"
fi
mkdir -p "$out"
cargo build --release --offline --workspace --bins --examples
{
    for src in crates/bench/src/bin/*.rs; do
        name=$(basename "$src" .rs)
        echo "target/release/$name $out/$name.txt"
    done
    for name in blast_wave checkpoint_restart memory_planner platform_compare quickstart rank_sweep; do
        echo "target/release/examples/$name $out/example_$name.txt"
    done
} | xargs -P 2 -L 1 sh -c '"$0" >"$1"'
diff -r results "$out"
