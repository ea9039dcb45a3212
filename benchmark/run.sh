#!/usr/bin/env bash
# Builds the benchmark (Release, into benchmark/build) and runs it.
#
#   benchmark/run.sh [--smoke] [--seed N] [--reps N] [--out FILE] [--trace DIR]
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Build output goes to stderr, so the last line of stdout is the result
# line. --trace 1 writes the traced pass to benchmark/results/trace and
# --trace 0 skips it. See README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/build"

args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --trace)
            [ $# -ge 2 ] || { echo "run.sh: --trace needs a value" >&2; exit 2; }
            case "$2" in
                0) ;;
                1) args+=(--trace "$here/results/trace") ;;
                *) args+=(--trace "$2") ;;
            esac
            shift 2
            ;;
        *)
            args+=("$1")
            shift
            ;;
    esac
done

cmake -S "$here" -B "$build" >&2
cmake --build "$build" --target m4x4_benchmark -j 2 >&2

revision=unknown
if [ -d "$root/.git" ]; then
    revision="$(git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/m4x4_benchmark" --revision "$revision" "${args[@]}"
