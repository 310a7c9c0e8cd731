#!/bin/sh
# Reproduce everything: build, test, regenerate every table/figure.
# Usage: scripts/reproduce.sh [build-dir]
# Test and bench output are copied to test_output.txt and
# bench_output.txt; the script exits non-zero if any test or bench
# failed (after running all of them).
set -e
BUILD="${1:-build}"

# logged LOG CMD...: run CMD, copy its output to LOG, return CMD's
# status. /bin/sh has no pipefail (a pipeline returns tee's status),
# so the status travels through a file.
logged() {
    log=$1
    shift
    { rc=0; "$@" 2>&1 || rc=$?; echo "$rc" > "$BUILD/reproduce.rc"; } |
        tee "$log"
    return "$(cat "$BUILD/reproduce.rc")"
}

run_benches() {
    failed=0
    for b in "$BUILD"/bench/bench_*; do
        echo "==== $b ===="
        "$b" || { echo "FAILED: $b (exit $?)"; failed=1; }
    done
    return "$failed"
}

cmake -B "$BUILD" -G Ninja
cmake --build "$BUILD"
status=0
logged test_output.txt ctest --test-dir "$BUILD" --output-on-failure ||
    status=1
logged bench_output.txt run_benches || status=1
exit "$status"
