#!/usr/bin/env bash
# Single CI entry point: configure, build src/ with warnings-as-errors,
# build tests/benches/examples, run the test suite, re-run it under
# ASan+UBSan (a second cmake preset, including a routing bench smoke so
# the interleaved scheduler's hot path runs sanitized), run the routing
# and daemon smokes under ThreadSanitizer (a third preset — per-context
# parallel routing and the compile service are the threaded paths),
# smoke the perf benches at tiny sizes so the hot paths are exercised,
# not just compiled, diff the smoke BENCH_JSON counters against the
# pinned baselines (scripts/bench_guard.py) so queue-traffic regressions
# fail CI even when every QoR gate still passes, and build and run the
# repo benchmark (perfbench/) for one second per workload so a library
# change that breaks what perfbench reads fails here, not only in the
# benchmark run; each workload runs untraced and traced, because only a
# traced run exercises perfbench's per-layer report (the stage spans it
# books from the library's observer steps).  The TSan lane also runs the
# design-cache and daemon test suites, whose concurrent-hit stress tests
# restore from the shared cache while other threads publish into it and
# evict from it, and the cross-context routing suite, whose worker-count
# determinism tests fan the independent baseline out over threads in both
# cross-context modes.
#
# Usage: scripts/check.sh [build-dir]   (default: build-check)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-check}"

cmake -B "$BUILD_DIR" -S . -DMCFPGA_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "--- sanitizer (ASan+UBSan) test run ---"
SAN_DIR="${BUILD_DIR}-asan"
cmake -B "$SAN_DIR" -S . -DMCFPGA_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$SAN_DIR" -j "$(nproc)"
ctest --test-dir "$SAN_DIR" --output-on-failure -j "$(nproc)"
echo "--- sanitizer bench smoke (engines + interleaved cross-context pass) ---"
"$SAN_DIR"/bench_routing_delay --smoke > /dev/null

echo "--- sanitizer (TSan) bench smoke + cache/daemon/routing tests ---"
# The routing smoke runs per-context parallel routing (its compiled
# designs and the serial-vs-parallel section route with one worker per
# hardware thread), the daemon smoke runs the compile service's worker
# threads, test_cache / test_serve run concurrent cache hits against
# publishes and evictions (the lock-free restore path), and
# test_route_schedule routes the independent baseline on up to 8 workers
# before the interleaved pass takes over the same pooled cores — the
# places real concurrency lives.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . -DMCFPGA_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target bench_routing_delay bench_serve test_cache test_serve \
  test_route_schedule
"$TSAN_DIR"/bench_routing_delay --smoke > /dev/null
"$TSAN_DIR"/bench_serve --smoke > /dev/null
"$TSAN_DIR"/test_cache
"$TSAN_DIR"/test_serve
"$TSAN_DIR"/test_route_schedule

echo "--- bench smoke runs ---"
"$BUILD_DIR"/bench_placer --smoke
"$BUILD_DIR"/bench_flow_end2end --smoke
"$BUILD_DIR"/bench_routing_delay --smoke | tee "$BUILD_DIR"/bench_routing_smoke.log
"$BUILD_DIR"/bench_incremental --smoke | tee "$BUILD_DIR"/bench_incremental_smoke.log

echo "--- compile daemon smoke (in-process: repeat hit + cancel + teardown) ---"
# bench_serve starts an in-process daemon, runs the same job twice (the
# second must be a pure cache hit, byte-identical to a direct compile),
# cancels a queued job on a saturated daemon, and tears down cleanly;
# its internal gates fail the lane on any wrong status or bitstream.
"$BUILD_DIR"/bench_serve --smoke | tee "$BUILD_DIR"/bench_serve_smoke.log

echo "--- bench regression guard ---"
python3 scripts/bench_guard.py --baseline BENCH_ROUTING.json \
  --log "$BUILD_DIR"/bench_routing_smoke.log
python3 scripts/bench_guard.py --baseline BENCH_INCREMENTAL.json \
  --log "$BUILD_DIR"/bench_incremental_smoke.log
python3 scripts/bench_guard.py --baseline BENCH_SERVE.json \
  --log "$BUILD_DIR"/bench_serve_smoke.log

echo "--- repo benchmark (perfbench): 1 s per workload, traced and not ---"
# run.py builds perfbench (Release, under .bench_build/) on first use and
# exits non-zero on a build failure, a wrong op, or metrics that differ
# from BENCHMARK.json.
for workload in cold_flow edit_loop serve_mix; do
  for trace in 0 1; do
    python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace "$trace" > /dev/null
  done
done
