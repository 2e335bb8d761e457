#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# (optionally) repeat the build+tests under ASan+UBSan.
#
# Usage:
#   tools/check.sh            # release-with-asserts build + ctest
#   tools/check.sh --sanitize # additionally build/test with -DOMEGA_SANITIZE=ON
#   tools/check.sh --tsan     # additionally build/test with -DOMEGA_TSAN=ON
#   tools/check.sh --faults   # additionally run the fault-injection suites
#                             # (fault/stream/golden) under a Debug+ASan build
#   tools/check.sh --async    # additionally smoke the async-staging path
#                             # (buffer_test + bench_ablation_tiers --smoke --async)
#   tools/check.sh --serve    # additionally smoke the serving layer
#                             # (serve_test + bench_serving --smoke)
#   tools/check.sh --dynamic  # additionally run the dynamic-graph suites
#                             # (dynamic_test under Debug+ASan +
#                             # bench_update_throughput --smoke)
#   tools/check.sh --pim      # additionally run the PIM-offload suites
#                             # (pim_test + fault_test under Debug+ASan +
#                             # bench_pim_offload --smoke)
#   tools/check.sh --durable  # additionally run the durability suites
#                             # (durable_test + fault_test under Debug+ASan +
#                             # bench_recovery --smoke)
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
FAULTS=0
ASYNC=0
SERVE=0
DYNAMIC=0
PIM=0
DURABLE=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --faults) FAULTS=1 ;;
    --async) ASYNC=1 ;;
    --serve) SERVE=1 ;;
    --dynamic) DYNAMIC=1 ;;
    --pim) PIM=1 ;;
    --durable) DURABLE=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

run_suite() {
  local build_dir="$1"; shift
  cmake -B "$build_dir" -S . "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS"
}

echo "== tier-1: build + ctest =="
run_suite build

if [[ "$SANITIZE" == 1 ]]; then
  echo "== sanitizers: ASan + UBSan build + ctest =="
  run_suite build-asan -DOMEGA_SANITIZE=ON
fi

if [[ "$FAULTS" == 1 ]]; then
  echo "== fault injection: Debug + ASan fault-path suites =="
  # The retry/degrade/surface paths are branch-heavy and mostly dormant in
  # healthy runs; exercise them with asserts and ASan on. The golden test is
  # excluded here (it pins release-build report bytes and runs the full fig12
  # sweep); it runs in the tier-1 suite above.
  cmake -B build-faults -S . -DCMAKE_BUILD_TYPE=Debug -DOMEGA_SANITIZE=ON
  cmake --build build-faults -j "$JOBS" --target fault_test stream_test memsim_test
  ctest --test-dir build-faults --output-on-failure -j "$JOBS" \
    -R '^(fault_test|stream_test|memsim_test)$'
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== sanitizers: TSan build + threaded suites =="
  # The threaded kernels (pool, SpMM, plan reuse incl. the per-worker WoFP
  # store and meta scans, NadpExecute's pooled compute pass followed by its
  # per-worker charge pass, the BufferManager's concurrent pin/unpin, and the
  # pooled CSDB/ProNE matrix builds and QR, the chunked R-MAT generator, the
  # engines' SpMM executor and checkpointer, and memsim::WorkerFrame's pool run
  # that every parallel charge phase and the baseline executors go through)
  # are what TSan is after; the full suite under TSan is prohibitively slow.
  cmake -B build-tsan -S . -DOMEGA_TSAN=ON
  cmake --build build-tsan -j "$JOBS" --target common_test graph_test spmm_test plan_test buffer_test serve_test dynamic_test pim_test durable_test csdb_test embed_test engine_test linalg_test sparse_ops_test numa_test multisocket_test prefetch_test memsim_test systems_test
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(common_test|graph_test|spmm_test|plan_test|buffer_test|serve_test|dynamic_test|pim_test|durable_test|csdb_test|embed_test|engine_test|linalg_test|sparse_ops_test|numa_test|multisocket_test|prefetch_test|memsim_test|systems_test)$'
fi

if [[ "$ASYNC" == 1 ]]; then
  echo "== async staging: buffer suite + overlap smoke =="
  # Reuses the tier-1 build from above: the buffer/staging suite plus a
  # PK-sized tier-ablation run with overlapped staging on.
  ctest --test-dir build --output-on-failure -R '^buffer_test$'
  ./build/bench/bench_ablation_tiers --smoke --async
fi

if [[ "$SERVE" == 1 ]]; then
  echo "== serving layer: serve suite + batched-vs-per-request smoke =="
  # Reuses the tier-1 build from above: the serving suite plus a small
  # closed-loop run of both scheduler modes.
  ctest --test-dir build --output-on-failure -R '^serve_test$'
  ./build/bench/bench_serving --smoke
fi

if [[ "$DYNAMIC" == 1 ]]; then
  echo "== dynamic graphs: Debug+ASan suites + update-throughput smoke =="
  # Op-log merge, CSDB delta overlays, and the incremental refresh are
  # pointer-heavy rebuild paths; run them with asserts and ASan on, then
  # smoke the end-to-end update pipeline from the tier-1 build.
  cmake -B build-dynamic -S . -DCMAKE_BUILD_TYPE=Debug -DOMEGA_SANITIZE=ON
  cmake --build build-dynamic -j "$JOBS" --target dynamic_test
  ctest --test-dir build-dynamic --output-on-failure -R '^dynamic_test$'
  ./build/bench/bench_update_throughput --smoke
fi

if [[ "$PIM" == 1 ]]; then
  echo "== PIM offload: Debug+ASan suites + placement smoke =="
  # The bank-link retry/degrade path and the subset allocators are the
  # branch-heavy parts; run them with asserts and ASan on, then smoke the
  # three placement policies end to end from the tier-1 build (the harness
  # itself fails on any cross-policy embedding mismatch).
  cmake -B build-pim -S . -DCMAKE_BUILD_TYPE=Debug -DOMEGA_SANITIZE=ON
  cmake --build build-pim -j "$JOBS" --target pim_test fault_test
  ctest --test-dir build-pim --output-on-failure -R '^(pim_test|fault_test)$'
  ./build/bench/bench_pim_offload --smoke
fi

if [[ "$DURABLE" == 1 ]]; then
  echo "== durability: Debug+ASan crash matrix + recovery smoke =="
  # The torn-write scan, snapshot-group fallback, and shared-log replay are
  # byte-walking state machines best run with asserts and ASan poisoning;
  # then smoke the cadence-vs-recovery sweep from the tier-1 build.
  cmake -B build-durable -S . -DCMAKE_BUILD_TYPE=Debug -DOMEGA_SANITIZE=ON
  cmake --build build-durable -j "$JOBS" --target durable_test fault_test
  ctest --test-dir build-durable --output-on-failure \
    -R '^(durable_test|fault_test)$'
  ./build/bench/bench_recovery --smoke
fi

echo "OK"
