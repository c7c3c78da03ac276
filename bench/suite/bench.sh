#!/usr/bin/env bash
# Benchmark entry point: build the harness from this checkout, then run
# one measurement.
#
#   bash bench/suite/bench.sh --workload NAME --seed N --seconds S --trace 0|1
#   bash bench/suite/bench.sh --smoke
#
# The build goes to $CARGO_TARGET_DIR (default .bench_build), relative
# to the current directory; build output goes to build.log there and is
# shown on stderr only when the build fails. --trace 1 writes the
# Chrome trace to trace-<workload>-<seed>.json in the same directory.
# Every other argument is passed to hyqsat_bench unchanged; its last
# stdout line is the result JSON.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

build_harness() {
    local generator=() jobs
    command -v ninja >/dev/null && generator=(-G Ninja)
    if [ ! -f "$build/CMakeCache.txt" ]; then
        cmake -S "$here" -B "$build" "${generator[@]}" \
            -DCMAKE_BUILD_TYPE=RelWithDebInfo ||
            { rm -f "$build/CMakeCache.txt"; return 1; }
    fi
    jobs="$(nproc 2>/dev/null || echo 2)"
    cmake --build "$build" --target hyqsat_bench -j "$((jobs < 4 ? jobs : 4))"
}

if ! build_harness >"$build/build.log" 2>&1; then
    tail -n 40 "$build/build.log" >&2
    echo "bench.sh: build failed (full log: $build/build.log)" >&2
    exit 1
fi

args=()
workload="" seed=""
while [ $# -gt 0 ]; do
    case "$1" in
    --trace)
        [ $# -ge 2 ] || { echo "bench.sh: --trace needs 0 or 1" >&2; exit 2; }
        trace="$2"
        shift 2
        continue
        ;;
    --workload) workload="${2:-}" ;;
    --seed) seed="${2:-}" ;;
    esac
    args+=("$1")
    shift
done
if [ "${trace:-0}" = 1 ]; then
    args+=(--trace "$build/trace-$workload-$seed.json")
fi

exec "$build/hyqsat_bench" "${args[@]}" --scratch "$build"
