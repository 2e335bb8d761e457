#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# (optionally) the sanitizer builds and the bench smokes.
#
# Usage:
#   tools/check.sh              # release-with-asserts build + ctest
#   tools/check.sh --sanitize   # additionally build/test with -DOMEGA_SANITIZE=ON
#   tools/check.sh --tsan       # additionally build/test with -DOMEGA_TSAN=ON
#   tools/check.sh --debug-asan # additionally run the branch-heavy suites
#                               # (fault/stream/memsim/buffer/serve/dynamic/
#                               # pim/durable/numa/plan) under one Debug+ASan
#                               # build
#   tools/check.sh --smoke      # additionally run every bench --smoke from
#                               # the tier-1 build, and a full
#                               # bench_update_throughput run that must
#                               # match BENCH_update_throughput.json
#   tools/check.sh --release    # additionally build a Release (-O3) tree in
#                               # build-release with -Werror and run the
#                               # full suite there
set -euo pipefail

cd "$(dirname "$0")/.."

SANITIZE=0
TSAN=0
DEBUG_ASAN=0
SMOKE=0
RELEASE=0
for arg in "$@"; do
  case "$arg" in
    --sanitize) SANITIZE=1 ;;
    --tsan) TSAN=1 ;;
    --debug-asan) DEBUG_ASAN=1 ;;
    --smoke) SMOKE=1 ;;
    --release) RELEASE=1 ;;
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

if [[ "$RELEASE" == 1 ]]; then
  echo "== Release (-O3) with -Werror: build + ctest =="
  # GCC warns at -O3 about code it does not analyse at the default level, so
  # a warning-free tier-1 build does not make a warning-free Release build.
  run_suite build-release -DCMAKE_BUILD_TYPE=Release \
    "-DCMAKE_CXX_FLAGS=${CXXFLAGS:-} -Werror"
fi

if [[ "$SANITIZE" == 1 ]]; then
  echo "== sanitizers: ASan + UBSan build + ctest =="
  run_suite build-asan -DOMEGA_SANITIZE=ON
fi

if [[ "$DEBUG_ASAN" == 1 ]]; then
  echo "== Debug + ASan: fault, staging, serving, dynamic, PIM, durability, NaDP and plan suites =="
  # Retry/degrade/surface paths (memsim's one bounded-retry loop and every
  # site that calls it: ASL's StageFetch, HotCache's cold read, the PIM
  # bank-link transfers, checkpoint and shared-log writes), op-log merges and
  # delta overlays, the PIM subset allocators, and the torn-write scan and
  # shared-log replay are branch-heavy and mostly dormant in healthy runs,
  # and NadpExecute branches between all-row and row-subset charging;
  # exercise them with asserts and ASan on. The golden test is excluded (it
  # pins release-build report bytes and runs the full fig12 sweep); it runs
  # in the tier-1 suite above.
  cmake -B build-debug-asan -S . -DCMAKE_BUILD_TYPE=Debug -DOMEGA_SANITIZE=ON
  cmake --build build-debug-asan -j "$JOBS" --target fault_test stream_test \
    memsim_test buffer_test serve_test dynamic_test pim_test durable_test \
    numa_test plan_test
  ctest --test-dir build-debug-asan --output-on-failure -j "$JOBS" \
    -R '^(fault_test|stream_test|memsim_test|buffer_test|serve_test|dynamic_test|pim_test|durable_test|numa_test|plan_test)$'
fi

if [[ "$TSAN" == 1 ]]; then
  echo "== sanitizers: TSan build + threaded suites =="
  # The threaded kernels (pool, SpMM, plan reuse incl. the per-worker WoFP
  # store and meta scans, NadpExecute's pooled compute pass followed by its
  # per-worker charge pass, the BufferManager's concurrent pin/unpin, and the
  # pooled CSDB/ProNE matrix builds and QR, the chunked R-MAT generator, the
  # engines' SpMM executor and checkpointer, and memsim::WorkerFrame's pool run
  # that every parallel charge phase and the baseline executors go through,
  # the QR's cross-worker reflector hand-off, and the pooled producers that
  # write into reused buffers: QR group lanes, ToOriginalOrder's scatter) are
  # what TSan is after; the full suite under TSan is prohibitively slow.
  cmake -B build-tsan -S . -DOMEGA_TSAN=ON
  cmake --build build-tsan -j "$JOBS" --target common_test graph_test spmm_test plan_test buffer_test serve_test dynamic_test pim_test durable_test csdb_test embed_test engine_test linalg_test sparse_ops_test numa_test multisocket_test prefetch_test memsim_test systems_test output_reuse_test
  ctest --test-dir build-tsan --output-on-failure \
    -R '^(common_test|graph_test|spmm_test|plan_test|buffer_test|serve_test|dynamic_test|pim_test|durable_test|csdb_test|embed_test|engine_test|linalg_test|sparse_ops_test|numa_test|multisocket_test|prefetch_test|memsim_test|systems_test|output_reuse_test)$'
fi

if [[ "$SMOKE" == 1 ]]; then
  echo "== bench smokes =="
  # Reuses the tier-1 build from above: one small run of every harness that
  # has a smoke mode (bench_pim_offload also fails on any cross-policy
  # embedding mismatch).
  ./build/bench/bench_ablation_tiers --smoke --async
  ./build/bench/bench_serving --smoke
  ./build/bench/bench_update_throughput --smoke
  # Every field of the update-throughput report is simulated or derived from
  # embedding bits, so a full run reproduces the committed file byte for byte.
  ./build/bench/bench_update_throughput \
    --bench-json=build/bench-update-throughput.json > /dev/null
  cmp build/bench-update-throughput.json BENCH_update_throughput.json
  ./build/bench/bench_pim_offload --smoke
  ./build/bench/bench_recovery --smoke
  ./build/bench/bench_micro_kernels --benchmark_filter='BM_Gemm|BM_CsdbFromGraph|BM_Build|BM_ReducedQr|BM_PackedSpmmFr|BM_ChebyshevFilterFr' \
    --benchmark_min_time=0.05 --smoke
fi

echo "OK"
