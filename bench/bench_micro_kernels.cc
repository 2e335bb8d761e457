// Micro benchmarks (google-benchmark) of the hot kernels and data
// structures: CSDB construction, traversal and indexing, ProNE's derived
// matrices, SpMM host kernels (on FR's propagation matrix too, and its
// Chebyshev stage), the thread allocators, the top-M store, the entropy
// accumulator, R-MAT generation and graph construction, plus one whole warm
// FR embedding run.
// These measure real host time (not simulated time) — they are about the
// library's own efficiency.

#include <benchmark/benchmark.h>

#include <sys/resource.h>

#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "embed/chebyshev.h"
#include "embed/prone.h"
#include "graph/datasets.h"
#include "graph/rmat.h"
#include "sched/entropy.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "memsim/memory_system.h"
#include "omega/engine.h"
#include "prefetch/topm_store.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"
#include "sparse/spmm_kernels.h"
#include "sparse/spmm_plan.h"

namespace {

using namespace omega;

const graph::Graph& TestGraph() {
  static const graph::Graph kGraph = [] {
    graph::RmatParams params;
    params.scale = 13;
    params.num_edges = 200000;
    return graph::GenerateRmat(params).value();
  }();
  return kGraph;
}

const graph::CsdbMatrix& TestMatrix() {
  static const graph::CsdbMatrix kMatrix = graph::CsdbMatrix::FromGraph(TestGraph());
  return kMatrix;
}

// The set-up passes of every embedding run, on a pool of range(0) threads:
// the CSDB build and ProNE's two derived matrices.
void BM_CsdbFromGraph(benchmark::State& state) {
  const graph::Graph& g = TestGraph();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::CsdbMatrix::FromGraph(g, &pool));
  }
  state.SetItemsProcessed(state.iterations() * g.num_arcs());
}
BENCHMARK(BM_CsdbFromGraph)->Arg(1)->Arg(4)->UseRealTime();

void BM_BuildTargetMatrix(benchmark::State& state) {
  const graph::CsdbMatrix& a = TestMatrix();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::BuildTargetMatrix(a, 1.0, &pool));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_BuildTargetMatrix)->Arg(1)->Arg(4)->UseRealTime();

void BM_BuildPropagationMatrix(benchmark::State& state) {
  const graph::CsdbMatrix& a = TestMatrix();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(embed::BuildPropagationMatrix(a, &pool));
  }
  state.SetItemsProcessed(state.iterations() * a.nnz());
}
BENCHMARK(BM_BuildPropagationMatrix)->Arg(1)->Arg(4)->UseRealTime();

void BM_CsdbCursorTraversal(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto cur = m.Rows(0); !cur.AtEnd(); cur.Next()) sum += cur.degree();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * m.num_rows());
}
BENCHMARK(BM_CsdbCursorTraversal);

void BM_CsdbRandomRowPtr(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  uint32_t r = 12345;
  for (auto _ : state) {
    r = r * 1103515245 + 12345;
    benchmark::DoNotOptimize(m.RowPtr(r % m.num_rows()));
  }
}
BENCHMARK(BM_CsdbRandomRowPtr);

void BM_ReferenceSpmm(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  const linalg::DenseMatrix b =
      linalg::GaussianMatrix(m.num_cols(), state.range(0), 3);
  linalg::DenseMatrix c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::ReferenceSpmm(m, b, &c));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz() * state.range(0));
}
BENCHMARK(BM_ReferenceSpmm)->Arg(8)->Arg(32);

void BM_AllocatorEata(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  sched::AllocatorOptions opts;
  opts.num_threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::Allocate(m, sched::AllocatorKind::kEntropyAware, opts));
  }
}
BENCHMARK(BM_AllocatorEata)->Arg(8)->Arg(36);

void BM_AllocatorWata(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  sched::AllocatorOptions opts;
  opts.num_threads = 36;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sched::Allocate(m, sched::AllocatorKind::kWorkloadBalanced, opts));
  }
}
BENCHMARK(BM_AllocatorWata);

void BM_EntropyAccumulator(benchmark::State& state) {
  for (auto _ : state) {
    sched::EntropyAccumulator acc;
    for (uint32_t d = 1; d <= 4096; ++d) acc.AddRow(d & 1023);
    benchmark::DoNotOptimize(acc.Entropy());
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_EntropyAccumulator);

void BM_TopMBuild(benchmark::State& state) {
  std::vector<prefetch::ScoredKey> candidates;
  Rng rng(9);
  for (int i = 0; i < 50000; ++i) {
    candidates.push_back(
        {static_cast<graph::NodeId>(i), rng.Next() % 100000});
  }
  for (auto _ : state) {
    auto copy = candidates;
    benchmark::DoNotOptimize(
        prefetch::TopMStore::Build(std::move(copy), 5000, 60000));
  }
  state.SetItemsProcessed(state.iterations() * candidates.size());
}
BENCHMARK(BM_TopMBuild);

void BM_TopMLookup(benchmark::State& state) {
  std::vector<prefetch::ScoredKey> candidates;
  for (int i = 0; i < 10000; ++i) {
    candidates.push_back({static_cast<graph::NodeId>(i * 3), uint64_t(i)});
  }
  const auto store = prefetch::TopMStore::Build(candidates, 4000, 40000);
  uint32_t key = 1;
  for (auto _ : state) {
    key = key * 1103515245 + 12345;
    benchmark::DoNotOptimize(store.Contains(key % 40000));
  }
}
BENCHMARK(BM_TopMLookup);

// R-MAT generation over four 2^16-edge chunks on a pool of state.range(0)
// threads: the chunks' jumped streams run in parallel, so wall time (not the
// calling thread's CPU time) shows the scaling.
void BM_RmatGeneration(benchmark::State& state) {
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 4 << 16;
  for (auto _ : state) {
    params.seed++;
    benchmark::DoNotOptimize(graph::GenerateRmat(params, &pool));
  }
  state.SetItemsProcessed(state.iterations() * params.num_edges);
}
BENCHMARK(BM_RmatGeneration)->Arg(1)->Arg(4)->UseRealTime();

// Graph::FromEdges over a fixed skewed edge list (2^20 edges on 2^16 nodes,
// endpoints drawn as n*u^2 so low ids are hubs and duplicates and self-loops
// occur), built undirected: the validation, bucketing and merge cost of
// graph construction without the R-MAT draws.
void BM_GraphFromEdges(benchmark::State& state) {
  constexpr graph::NodeId kNodes = 1 << 16;
  static const std::vector<graph::Edge> kEdges = [] {
    Rng rng(7);
    auto draw = [&rng] {
      const double u = rng.NextDouble();
      return static_cast<graph::NodeId>(kNodes * u * u);
    };
    std::vector<graph::Edge> edges(1 << 20);
    for (graph::Edge& e : edges) e = graph::Edge{draw(), draw(), 1.0f};
    return edges;
  }();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::Graph::FromEdges(kNodes, kEdges));
  }
  state.SetItemsProcessed(state.iterations() * kEdges.size());
}
BENCHMARK(BM_GraphFromEdges);

void BM_WofpBuild(benchmark::State& state) {
  const graph::CsdbMatrix& m = TestMatrix();
  auto ms = memsim::MemorySystem::CreateDefault();
  const auto in_degrees = sparse::ComputeInDegrees(m);
  sched::Workload w;
  w.ranges.push_back(sched::RowRange{0, m.num_rows()});
  sched::RefreshCounts(m, &w);
  prefetch::WofpOptions opts;
  opts.charge_build = false;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        prefetch::WofpPrefetcher::Build(m, w, in_degrees, opts, ms.get(), nullptr));
  }
  state.SetItemsProcessed(state.iterations() * m.nnz());
}
BENCHMARK(BM_WofpBuild);

// ---------------------------------------------------------------------------
// Dense GEMM host kernels: the pre-blocking reference vs the register/cache-
// blocked kernel, serial and on an 8-worker pool.

ThreadPool& GemmPool() {
  static ThreadPool pool(8);
  return pool;
}

void BM_GemmNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const linalg::DenseMatrix a = linalg::GaussianMatrix(n, n, 1);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(n, n, 2);
  linalg::DenseMatrix c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GemmNaive(a, b, &c));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmNaive)->Arg(256)->Arg(512);

void BM_GemmBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const linalg::DenseMatrix a = linalg::GaussianMatrix(n, n, 1);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(n, n, 2);
  linalg::DenseMatrix c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Gemm(a, b, &c));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlocked)->Arg(256)->Arg(512);

void BM_GemmBlockedPool8(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const linalg::DenseMatrix a = linalg::GaussianMatrix(n, n, 1);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(n, n, 2);
  linalg::DenseMatrix c;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Gemm(a, b, &c, &GemmPool()));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmBlockedPool8)->Arg(256)->Arg(512);

// Wall milliseconds per call of the last BM_ReducedQr run at each pool
// size, for the --bench-json report.
std::map<int, double> g_reduced_qr_ms;

// The randomized range finder's orthonormalization at FR's factorize shape
// (dim + oversample = 40 columns) on a pool of range(0) threads (1 = serial).
void BM_ReducedQr(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const linalg::DenseMatrix a = linalg::GaussianMatrix(65536, 40, 3);
  const auto pool = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  linalg::DenseMatrix q, r;
  double wall_s = 0.0;
  for (auto _ : state) {
    bench::WallTimer timer;
    benchmark::DoNotOptimize(linalg::ReducedQr(a, &q, &r, pool.get()));
    wall_s += timer.Seconds();
    benchmark::DoNotOptimize(q.data());
    benchmark::ClobberMemory();
  }
  g_reduced_qr_ms[threads] = 1e3 * wall_s / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ReducedQr)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// The range finder's Gaussian sketch at the same shape on a pool of range(0)
// threads (1 = serial).
void BM_GaussianMatrix(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  const auto pool = threads > 1 ? std::make_unique<ThreadPool>(threads) : nullptr;
  for (auto _ : state) {
    const linalg::DenseMatrix m = linalg::GaussianMatrix(65536, 40, 3, pool.get());
    benchmark::DoNotOptimize(m.data());
  }
}
BENCHMARK(BM_GaussianMatrix)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// perfbench embed-fr's graph and its ProNE propagation matrix, built once.
const graph::Graph& FrGraph() {
  static const graph::Graph kFr =
      graph::GenerateRmat(graph::FindDataset("FR").value().rmat).value();
  return kFr;
}

const graph::CsdbMatrix& FrPropagation() {
  static const graph::CsdbMatrix kS =
      embed::BuildPropagationMatrix(graph::CsdbMatrix::FromGraph(FrGraph()));
  return kS;
}

// Gflop/s of the last BM_PackedSpmmFr run at each width, for the
// --bench-json report.
std::map<int, double> g_packed_spmm_fr_gflops;

// The packed SpMM kernel alone over FR's propagation matrix at width
// range(0) (ASL's 20-column factorize partitions, the propagate width 32,
// the factorize width 40) on a pool of 4: rows split as every CSDB driver
// splits them, the operand packed once outside the loop, C column-major.
void BM_PackedSpmmFr(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const graph::CsdbMatrix& s = FrPropagation();
  ThreadPool pool(4);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(s.num_cols(), d, 5);
  sparse::kernels::PackedOperand packed;
  sparse::PackDense(b, &pool, &packed);
  linalg::DenseMatrix c = linalg::DenseMatrix::Uninitialized(s.num_rows(), d);
  double wall_s = 0.0;
  for (auto _ : state) {
    bench::WallTimer timer;
    graph::ForEachRowRange(s, &pool, [&](size_t, uint32_t row_begin, uint32_t row_end) {
      sparse::kernels::CsdbPackedSpmm(s, packed, &c, row_begin, row_end);
    });
    wall_s += timer.Seconds();
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  const double flops = 2.0 * static_cast<double>(s.nnz()) * static_cast<double>(d) *
                       static_cast<double>(state.iterations());
  state.counters["gflops"] = flops / wall_s / 1e9;
  g_packed_spmm_fr_gflops[static_cast<int>(d)] = flops / wall_s / 1e9;
}
BENCHMARK(BM_PackedSpmmFr)->Arg(20)->Arg(32)->Arg(40)->Unit(benchmark::kMillisecond)->UseRealTime();

// Wall milliseconds per call of the last BM_ChebyshevFilterFr run.
double g_chebyshev_filter_fr_ms = 0.0;

// ProNE's stage 2 on FR as embed-fr runs it (d = 32, Chebyshev order 8) on
// a pool of range(0) threads, through an uncharged executor over the packed
// kernel: the seven term SpMMs with their epilogues, the packing of R and
// the unpacking of the result.
void BM_ChebyshevFilterFr(benchmark::State& state) {
  const graph::CsdbMatrix& s = FrPropagation();
  ThreadPool pool(static_cast<size_t>(state.range(0)));
  const linalg::DenseMatrix r = linalg::GaussianMatrix(s.num_rows(), 32, 7);
  const std::vector<double> coeffs =
      embed::ChebyshevCoefficients(embed::ProneBandPass(0.2, 0.5), 8);
  const embed::SpmmExecutor spmm = [&](const graph::CsdbMatrix& m,
                                       const sparse::SpmmOperands& dense) {
    dense.SizeOutput(m.num_rows());
    sparse::ComputeAllRowsCsdb(m, dense, &pool);
    return Result<double>(0.0);
  };
  linalg::DenseMatrix out;
  double wall_s = 0.0;
  for (auto _ : state) {
    bench::WallTimer timer;
    if (!embed::ChebyshevFilterApply(s, coeffs, r, &out, spmm, &pool).ok()) {
      state.SkipWithError("ChebyshevFilterApply failed");
      return;
    }
    wall_s += timer.Seconds();
    benchmark::DoNotOptimize(out.data());
  }
  g_chebyshev_filter_fr_ms = 1e3 * wall_s / static_cast<double>(state.iterations());
}
BENCHMARK(BM_ChebyshevFilterFr)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// What the last BM_RunEmbeddingFr measured, for the --bench-json report
// (threads stays 0 when the filter skipped it).
struct EmbedFrSample {
  int threads = 0;
  double wall_ms = 0.0;       ///< per run
  double minor_faults = 0.0;  ///< per run
};
EmbedFrSample g_embed_fr;

uint64_t MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<uint64_t>(usage.ru_minflt);
}

// One warm OMeGa run of the FR analogue with perfbench embed-fr's options
// (d = 32, oversample 8, Chebyshev order 8) on a pool of range(0) threads:
// wall time and minor page faults per run, the faults a getrusage delta over
// this process. Each fault is a fresh page a run's buffers touched. Run it
// with MALLOC_MMAP_THRESHOLD_=4194304, as perfbench does: under glibc's
// adaptive threshold, the order of earlier frees decides which buffers are
// mmapped.
void BM_RunEmbeddingFr(benchmark::State& state) {
  const graph::Graph& fr = FrGraph();
  const int threads = static_cast<int>(state.range(0));
  engine::EngineOptions options;
  options.system = engine::SystemKind::kOmega;
  options.num_threads = threads;
  options.prone.dim = 32;
  options.prone.oversample = 8;
  options.prone.chebyshev_order = 8;
  const auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(threads);
  const exec::Context ctx(ms.get(), &pool, threads);
  if (!engine::RunEmbedding(fr, "FR", options, ctx).ok()) {  // warm-up
    state.SkipWithError("RunEmbedding failed");
    return;
  }
  uint64_t faults = 0;
  double wall_s = 0.0;
  for (auto _ : state) {
    const uint64_t before = MinorFaults();
    bench::WallTimer timer;
    auto report = engine::RunEmbedding(fr, "FR", options, ctx);
    wall_s += timer.Seconds();
    faults += MinorFaults() - before;
    if (!report.ok()) {
      state.SkipWithError("RunEmbedding failed");
      return;
    }
    benchmark::DoNotOptimize(report.value().embedding.data());
  }
  const double runs = static_cast<double>(state.iterations());
  state.counters["minor_faults"] =
      benchmark::Counter(static_cast<double>(faults), benchmark::Counter::kAvgIterations);
  g_embed_fr = {threads, 1e3 * wall_s / runs, static_cast<double>(faults) / runs};
}
BENCHMARK(BM_RunEmbeddingFr)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

// Timed GEMM section behind the custom main: GFLOP/s of the three variants
// at a few square sizes, printed as a table and (optionally) written to the
// --bench-json file for perf tracking, together with BM_ReducedQr's,
// BM_ChebyshevFilterFr's and BM_RunEmbeddingFr's per-call wall time (and the
// latter's page faults) and BM_PackedSpmmFr's Gflop/s when they ran.
template <typename Fn>
double BestSeconds(int reps, const Fn& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    bench::WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

void RunGemmReport(const std::string& json_path) {
  bench::BenchJson json;
  std::printf("\nGEMM host kernels (best of 3, wall clock):\n");
  std::printf("%8s %14s %14s %14s %10s %10s\n", "n", "naive GF/s",
              "blocked GF/s", "blocked8 GF/s", "blk/naive", "blk8/naive");
  // Sizes where the operands exceed L2: this is the regime the blocked
  // kernel exists for (and where ProNE/NetMF-scale dense stages live).
  for (const size_t n : {1024, 2048}) {
    const linalg::DenseMatrix a = linalg::GaussianMatrix(n, n, 1);
    const linalg::DenseMatrix b = linalg::GaussianMatrix(n, n, 2);
    linalg::DenseMatrix c;
    const double flops = 2.0 * static_cast<double>(n) * n * n;
    const double naive_s =
        BestSeconds(3, [&] { (void)linalg::GemmNaive(a, b, &c); });
    const double blocked_s =
        BestSeconds(3, [&] { (void)linalg::Gemm(a, b, &c); });
    const double pool_s =
        BestSeconds(3, [&] { (void)linalg::Gemm(a, b, &c, &GemmPool()); });
    const double naive_gf = flops / naive_s / 1e9;
    const double blocked_gf = flops / blocked_s / 1e9;
    const double pool_gf = flops / pool_s / 1e9;
    std::printf("%8zu %14.2f %14.2f %14.2f %9.2fx %9.2fx\n", n, naive_gf,
                blocked_gf, pool_gf, naive_s / blocked_s, naive_s / pool_s);
    const std::string entry = "gemm_" + std::to_string(n);
    json.Add(entry, "naive_gflops", naive_gf);
    json.Add(entry, "blocked_gflops", blocked_gf);
    json.Add(entry, "blocked_pool8_gflops", pool_gf);
    json.Add(entry, "speedup_blocked", naive_s / blocked_s);
    json.Add(entry, "speedup_blocked_pool8", naive_s / pool_s);
  }
  for (const auto& [threads, ms] : g_reduced_qr_ms) {
    json.Add("reduced_qr_" + std::to_string(threads), "wall_ms", ms);
  }
  for (const auto& [d, gflops] : g_packed_spmm_fr_gflops) {
    json.Add("packed_spmm_fr_" + std::to_string(d), "gflops", gflops);
  }
  if (g_chebyshev_filter_fr_ms > 0.0) {
    json.Add("chebyshev_filter_fr_4", "wall_ms", g_chebyshev_filter_fr_ms);
  }
  if (g_embed_fr.threads > 0) {
    const std::string entry = "run_embedding_fr_" + std::to_string(g_embed_fr.threads);
    json.Add(entry, "wall_ms", g_embed_fr.wall_ms);
    json.Add(entry, "minor_faults", g_embed_fr.minor_faults);
  }
  if (!json_path.empty() && json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
}

// "Packed" is the serial all-rows path (sparse::ComputeAllRowsCsdb without a
// pool), so its time includes allocating and packing the dense slice.
double PackedSeconds(int reps, const graph::CsdbMatrix& m,
                     const linalg::DenseMatrix& b, linalg::DenseMatrix* c) {
  return BestSeconds(reps, [&] { sparse::ComputeAllRowsCsdb(m, {b, c}, nullptr); });
}

// The CSR flavour: a serial PackDense, then every CSR row through the packed
// kernel (ParallelCsrSpmm's compute step without a pool).
double PackedSeconds(int reps, const graph::CsrMatrix& m,
                     const linalg::DenseMatrix& b, linalg::DenseMatrix* c) {
  return BestSeconds(reps, [&] {
    sparse::kernels::PackedOperand packed;
    sparse::PackDense(b, nullptr, &packed);
    sparse::kernels::CsrPackedSpmm(m, packed, c, 0, m.num_rows());
  });
}

// FR-shaped widths: the ProNE factorize SpMM multiplies by dim + oversample =
// 40 columns, which ASL streams as two 20-column partitions, and propagation
// by dim = 32. The packed kernel and the scalar-panel oracle run serially on
// FR's adjacency and must agree bit for bit.
void RunSpmmFrReport(bench::BenchJson* json) {
  const graph::Graph g = graph::LoadDatasetByName("FR").value();
  const graph::CsdbMatrix m = graph::CsdbMatrix::FromGraph(g);
  std::printf("\nSpMM on FR (%u rows, %llu nnz), serial, best of 3:\n",
              m.num_rows(), static_cast<unsigned long long>(m.nnz()));
  std::printf("%8s %12s %12s %10s %8s\n", "d", "scalar GF/s", "packed GF/s",
              "pk/scalar", "bitwise");
  for (const size_t d : {size_t{20}, size_t{32}, size_t{40}}) {
    const linalg::DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), d, 7);
    linalg::DenseMatrix scalar(m.num_rows(), d);
    linalg::DenseMatrix packed(m.num_rows(), d);
    const double flops = 2.0 * static_cast<double>(m.nnz()) * d;
    const double scalar_s = BestSeconds(3, [&] {
      sparse::kernels::CsdbPanelSpmmScalar(m, b, &scalar, 0, m.num_rows(), 0, d);
    });
    const double packed_s = PackedSeconds(3, m, b, &packed);
    const bool equal =
        std::memcmp(scalar.data(), packed.data(), scalar.bytes()) == 0;
    std::printf("%8zu %12.2f %12.2f %9.2fx %8s\n", d, flops / scalar_s / 1e9,
                flops / packed_s / 1e9, scalar_s / packed_s,
                equal ? "yes" : "NO");
    const std::string entry = "spmm_csdb_fr_" + std::to_string(d);
    json->Add(entry, "panel_scalar_gflops", flops / scalar_s / 1e9);
    json->Add(entry, "packed_gflops", flops / packed_s / 1e9);
    json->Add(entry, "bitwise_equal", equal ? 1.0 : 0.0);
  }
}

// Timed SpMM section: the per-column oracle vs the scalar-panel oracle and
// the packed kernel for CSDB, and vs the packed kernel for CSR, on the bench
// R-MAT graph; plus, outside --smoke, the FR widths. GFLOP/s counts 2*nnz*d
// flops; effective GB/s charges the algorithmic traffic of a one-pass kernel
// (one index+value load per nonzero, d dense reads per nonzero, d writes per
// row) to every variant so the column is comparable — the per-column loop
// actually re-reads the sparse side d times, which is exactly the host cost
// the packed kernel removes.
void RunSpmmReport(const std::string& json_path, bool smoke) {
  const graph::CsdbMatrix& m = TestMatrix();
  const graph::CsrMatrix csr = sparse::ToCsr(m).value();
  sched::Workload w;
  w.ranges.push_back(sched::RowRange{0, m.num_rows()});
  const int reps = smoke ? 1 : 3;
  const std::vector<size_t> widths = smoke ? std::vector<size_t>{128}
                                           : std::vector<size_t>{8, 32, 128};

  bench::BenchJson json;
  std::printf("\nSpMM host kernels, serial (best of %d, wall clock; simd=%s):\n",
              reps, sparse::kernels::SpmmSimdEnabled() ? "on" : "off");
  std::printf("%14s %12s %12s %12s %10s %10s\n", "kernel", "percol GF/s",
              "scalar GF/s", "best GF/s", "best/pc", "eff GB/s");
  for (const size_t d : widths) {
    const linalg::DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), d, 7);
    linalg::DenseMatrix c(m.num_rows(), d);
    const double flops = 2.0 * static_cast<double>(m.nnz()) * d;
    const double bytes = 8.0 * m.nnz() + 4.0 * d * m.nnz() + 4.0 * d * m.num_rows();

    const double csdb_percol_s = BestSeconds(
        reps, [&] { sparse::ComputeWorkloadCsdbPerColumn(m, b, &c, w); });
    const double csdb_scalar_s = BestSeconds(reps, [&] {
      sparse::kernels::CsdbPanelSpmmScalar(m, b, &c, 0, m.num_rows(), 0, d);
    });
    const double csdb_packed_s = PackedSeconds(reps, m, b, &c);
    const double csr_percol_s = BestSeconds(reps, [&] {
      sparse::ComputeWorkloadCsrPerColumn(csr, b, &c, 0, csr.num_rows());
    });
    const double csr_packed_s = PackedSeconds(reps, csr, b, &c);

    std::printf("%10s d=%-3zu %12.2f %12.2f %12.2f %9.2fx %10.1f\n", "csdb", d,
                flops / csdb_percol_s / 1e9, flops / csdb_scalar_s / 1e9,
                flops / csdb_packed_s / 1e9, csdb_percol_s / csdb_packed_s,
                bytes / csdb_packed_s / 1e9);
    std::printf("%10s d=%-3zu %12.2f %12s %12.2f %9.2fx %10.1f\n", "csr", d,
                flops / csr_percol_s / 1e9, "-", flops / csr_packed_s / 1e9,
                csr_percol_s / csr_packed_s, bytes / csr_packed_s / 1e9);

    const std::string entry = "spmm_csdb_" + std::to_string(d);
    json.Add(entry, "percol_gflops", flops / csdb_percol_s / 1e9);
    json.Add(entry, "panel_scalar_gflops", flops / csdb_scalar_s / 1e9);
    json.Add(entry, "packed_gflops", flops / csdb_packed_s / 1e9);
    json.Add(entry, "speedup_packed", csdb_percol_s / csdb_packed_s);
    json.Add(entry, "effective_gbs", bytes / csdb_packed_s / 1e9);
    const std::string csr_entry = "spmm_csr_" + std::to_string(d);
    json.Add(csr_entry, "percol_gflops", flops / csr_percol_s / 1e9);
    json.Add(csr_entry, "packed_gflops", flops / csr_packed_s / 1e9);
    json.Add(csr_entry, "speedup_packed", csr_percol_s / csr_packed_s);
    json.Add(csr_entry, "effective_gbs", bytes / csr_packed_s / 1e9);
  }
  if (!smoke) RunSpmmFrReport(&json);
  json.Add("spmm_build", "simd_enabled",
           sparse::kernels::SpmmSimdEnabled() ? 1.0 : 0.0);
  if (!json_path.empty() && json.WriteFile(json_path)) {
    std::printf("wrote %s\n", json_path.c_str());
  }
}

// Extracts `--spmm-json=<path>` and `--smoke` from argv (compacting argv in
// place, mirroring BenchJsonPathFromArgs) before google-benchmark parses it.
std::string SpmmArgsFromArgv(int* argc, char** argv, bool* smoke) {
  std::string path;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--spmm-json=", 0) == 0) {
      path = arg.substr(std::string("--spmm-json=").size());
    } else if (arg == "--smoke") {
      *smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
  return path;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const std::string spmm_json = SpmmArgsFromArgv(&argc, argv, &smoke);
  const std::string json_path = omega::bench::BenchJsonPathFromArgs(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  RunGemmReport(json_path);
  RunSpmmReport(spmm_json, smoke);
  return 0;
}
