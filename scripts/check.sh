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

# Stage 1b: the two-core performance contract (docs/PERFORMANCE.md).
# test_eventcore proves cycle/event byte-identity across programs,
# workloads, the fuzz corpus, and Governor budget trips; the snapshot
# gate proves the event core actually pays for itself (byte-identical
# bench_smoke output AND not slower than the cycle core).
run ctest --test-dir build -L eventcore --output-on-failure
run scripts/bench_snapshot.sh --verify

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
