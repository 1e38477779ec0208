#!/usr/bin/env bash
# Build the benchmark harness (--release --offline) and run it.
#
#   benchmark/run.sh                      whole suite -> benchmark/out/results.json
#   benchmark/run.sh --quick              ~1 % of the points, all checks, a few seconds
#   benchmark/run.sh --selfcheck          suite twice, then `compare --exact` on the two files
#   benchmark/run.sh --workload W [--seed N] [--seconds S] [--trace 0|1]
#                                         one run of one workload; last stdout line is the result
#   benchmark/run.sh compare A.json B.json
#
# Run it from the repository root. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Every end-to-end run pins threads = 1 in its StreamConfig; unsetting
# the override keeps `threads = 0` call sites inside the product (none
# on the measured paths today) from picking up a stray value.
unset DUAL_THREADS

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/benchmark"

suite() { # suite <out-dir> [flags...]
    local out="$1"
    shift
    "$bin" suite --out "$out" \
        --meta "nproc=$(nproc)" \
        --meta "rustc=$(rustc -V)" \
        --meta "commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)" \
        --meta "profile=release" \
        "$@"
}

case "${1:-}" in
compare)
    shift
    exec "$bin" compare --spec "$root/BENCHMARK.json" "$@"
    ;;
--selfcheck)
    shift
    suite "$here/out/selfcheck-a" "$@"
    suite "$here/out/selfcheck-b" "$@"
    exec "$bin" compare --spec "$root/BENCHMARK.json" --exact \
        "$here/out/selfcheck-a/results.json" "$here/out/selfcheck-b/results.json"
    ;;
esac

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run --out "$here/out" "$@"
    fi
done
suite "$here/out" "$@"
