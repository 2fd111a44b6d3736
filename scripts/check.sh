#!/usr/bin/env bash
# Full local gate: the optimized tier-1 suite plus the same suite under
# ASan/UBSan in a separate Debug build tree, then the smoke batch (the
# fuzz oracles and the trace_smoke record+parse+invariant check). The
# robustness suite (budgets, cancellation, fault injection — label
# `robust`, docs/ROBUSTNESS.md) gates explicitly so a label mishap in
# tests/CMakeLists.txt cannot silently drop it, and again under a
# standalone UBSan build where the governor's unsigned accounting is
# most likely to trip. The daemon conformance suite (label `daemon`,
# docs/DAEMON.md) gets the same explicit gate: framing/protocol edge
# cases plus the daemon_smoke end-to-end byte-identity check (which
# now covers the 4-shard router topology), the src/client unit suite
# (test_client), and the in-process router suite (test_router), rerun
# under ASan (threaded dispatcher) and UBSan. The telemetry suite
# (label `metrics`, docs/OBSERVABILITY.md) gates the same way: the
# registry unit tests plus the stats-verb conformance and live
# msctool-stats round trips, rerun under both sanitizers (the metrics
# hot path is lock-free atomics — exactly where a race or overflow
# would hide). The same two labels run once more under TSan, which is
# what checks the callback/writer threading of src/serve.
#
# Where each simulator-core gate lives: cycle/event byte-identity is
# test_eventcore (label `eventcore`: SimStats, traces, budget trips)
# and bench_smoke (tier1: its sweep JSON under both cores in one
# process); "event core not slower" is stage 1b below, timed on
# bench_figure5, which runs only the core it is given. Cross-commit
# simulator comparisons are scripts/abprobe.sh, run by hand; stage 1
# compiles both halves of its wrapper (syntax only) so an interface
# change that breaks the probe fails here rather than when it is next
# needed.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # optimized tier1 only (no sanitizers)
#
# Exits non-zero on the first failing stage.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc)
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

run() { echo "== $*"; "$@"; }

# Stage 1: optimized build, tier-1 suite + robustness gate + smoke.
run cmake -B build -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo
run cmake --build build -j "$JOBS"
run ctest --test-dir build -L tier1 -j "$JOBS" --output-on-failure
robust_count=$(ctest --test-dir build -L robust -N 2>/dev/null |
    sed -n 's/^Total Tests: //p')
if [[ -z "$robust_count" || "$robust_count" -lt 3 ]]; then
    echo "error: robust label matches ${robust_count:-0} tests" \
         "(expected >= 3) — check tests/CMakeLists.txt labels" >&2
    exit 1
fi
run ctest --test-dir build -L robust --output-on-failure
daemon_count=$(ctest --test-dir build -L daemon -N 2>/dev/null |
    sed -n 's/^Total Tests: //p')
if [[ -z "$daemon_count" || "$daemon_count" -lt 4 ]]; then
    echo "error: daemon label matches ${daemon_count:-0} tests" \
         "(expected >= 4: protocol, client, router, smoke) —" \
         "check tests/CMakeLists.txt labels" >&2
    exit 1
fi
run ctest --test-dir build -L daemon --output-on-failure
metrics_count=$(ctest --test-dir build -L metrics -N 2>/dev/null |
    sed -n 's/^Total Tests: //p')
if [[ -z "$metrics_count" || "$metrics_count" -lt 2 ]]; then
    echo "error: metrics label matches ${metrics_count:-0} tests" \
         "(expected >= 2) — check tests/CMakeLists.txt labels" >&2
    exit 1
fi
run ctest --test-dir build -L metrics --output-on-failure
run ctest --test-dir build -L smoke --output-on-failure
run g++ -std=c++20 -fsyntax-only -Isrc -Ibench scripts/abprobe.cc
run g++ -std=c++20 -fsyntax-only -Isrc -Darch=arch_proto -DABPROBE_OTHER \
    scripts/abprobe.cc

# Stage 1b: the two-core performance contract (docs/PERFORMANCE.md).
# test_eventcore proves cycle/event byte-identity across programs,
# workloads, the fuzz corpus, and Governor budget trips; the timing
# gate proves the event core actually pays for itself: the small-scale
# figure5 grid under --core event must not be slower than under
# --core cycle (best-of-3 wall clock each, run serially, 10% guard
# band for machine noise). bench_figure5 simulates only under the core
# it is given; bench_smoke would not do here, as it also runs its grid
# under the other core for the byte-identity check, which dilutes the
# ratio.
run ctest --test-dir build -L eventcore --output-on-failure

# best_ms <cmd...>: the fastest of three runs' wall clock, in ms.
# External load only ever adds time, so the minimum is the cleanest
# estimate.
best_ms() {
    local best="" t0 t1 i
    for i in 1 2 3; do
        t0=$(date +%s%N)
        "$@" >/dev/null || return 1
        t1=$(( ($(date +%s%N) - t0) / 1000000 ))
        [[ -z "$best" || "$t1" -lt "$best" ]] && best=$t1
    done
    echo "$best"
}
F5_JSON=$(mktemp)
trap 'rm -f "$F5_JSON"' EXIT
echo "== event core not slower than cycle core (bench_figure5, small)"
cycle_ms=$(MSC_SMALL=1 best_ms build/bench/bench_figure5 --jobs 2 \
    --core cycle --json "$F5_JSON")
event_ms=$(MSC_SMALL=1 best_ms build/bench/bench_figure5 --jobs 2 \
    --core event --json "$F5_JSON")
echo "   cycle best ${cycle_ms}ms, event best ${event_ms}ms"
if (( event_ms * 10 > cycle_ms * 11 )); then
    echo "error: event core slower than cycle core on bench_figure5" \
         "(${event_ms}ms vs ${cycle_ms}ms, guard band 10%)" >&2
    exit 1
fi

if [[ "$FAST" == 1 ]]; then
    echo "== fast mode: skipping sanitizer stages"
    exit 0
fi

# Stage 2: Debug + ASan/UBSan, tier-1 suite and the fuzz tests again —
# memory errors in the harness itself should surface here, not in CI.
run cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DMSC_SANITIZE="address;undefined"
run cmake --build build-asan -j "$JOBS"
run ctest --test-dir build-asan -L tier1 -j "$JOBS" --output-on-failure
run ctest --test-dir build-asan -L daemon --output-on-failure
run ctest --test-dir build-asan -L metrics --output-on-failure
run ctest --test-dir build-asan -L smoke --output-on-failure

# Stage 3: standalone UBSan at optimization (catches overflow UB the
# Debug ASan tree masks), robustness + fuzz labels only.
run cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMSC_SANITIZE="undefined"
run cmake --build build-ubsan -j "$JOBS"
run ctest --test-dir build-ubsan -L robust -j "$JOBS" --output-on-failure
run ctest --test-dir build-ubsan -L daemon -j "$JOBS" --output-on-failure
run ctest --test-dir build-ubsan -L metrics -j "$JOBS" --output-on-failure
run ctest --test-dir build-ubsan -L fuzz -j "$JOBS" --output-on-failure

# Stage 4: ThreadSanitizer over the threaded service code — the
# connection reader/writer pair, dispatcher workers completing cells
# through callbacks, and shard-link readers demuxing into other
# connections' writers. Any report fails the test that triggered it.
run cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DMSC_SANITIZE="thread"
run cmake --build build-tsan -j "$JOBS"
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1"
run ctest --test-dir build-tsan -L daemon --output-on-failure
run ctest --test-dir build-tsan -L metrics --output-on-failure

echo "== all checks passed"
