// Property-based tests: invariants swept over graph shapes, thread counts,
// and dimensions with TEST_P / INSTANTIATE_TEST_SUITE_P.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sched/entropy.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm_plan.h"
#include "sparse/spmm.h"

namespace omega {
namespace {

// ---------------------------------------------------------------------------
// Sweep 1: CSDB structural invariants over graph shape (scale, edges, skew).
// ---------------------------------------------------------------------------

using GraphShape = std::tuple<uint32_t /*scale*/, uint64_t /*edges*/, double /*a*/>;

class CsdbInvariants : public ::testing::TestWithParam<GraphShape> {
 protected:
  graph::Graph MakeGraph() const {
    auto [scale, edges, a] = GetParam();
    graph::RmatParams params;
    params.scale = scale;
    params.num_edges = edges;
    params.a = a;
    const double rest = (1.0 - a) / 3.0;
    params.b = rest;
    params.c = rest;
    params.d = 1.0 - a - 2 * rest;
    return graph::GenerateRmat(params).value();
  }
};

TEST_P(CsdbInvariants, BlockMetadataIsConsistent) {
  const graph::Graph g = MakeGraph();
  const graph::CsdbMatrix m = graph::CsdbMatrix::FromGraph(g);
  // Invariant 1: degrees non-increasing across rows.
  for (uint32_t r = 1; r < m.num_rows(); ++r) {
    ASSERT_LE(m.RowDegree(r), m.RowDegree(r - 1));
  }
  // Invariant 2: deg_list strictly decreasing, deg_ind strictly increasing.
  for (uint32_t b = 1; b < m.num_blocks(); ++b) {
    ASSERT_LT(m.deg_list()[b], m.deg_list()[b - 1]);
    ASSERT_LT(m.deg_ind()[b], m.deg_ind()[b + 1]);
  }
  // Invariant 3: Eq. 1 row pointers tile the nnz array exactly.
  uint64_t ptr = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    ASSERT_EQ(m.RowPtr(r), ptr);
    ptr += m.RowDegree(r);
  }
  ASSERT_EQ(ptr, m.nnz());
  // Invariant 4: block count equals distinct degrees.
  ASSERT_EQ(m.num_blocks(), g.num_distinct_degrees());
  // Invariant 5: index bytes are degree-bounded, not node-bounded.
  ASSERT_LE(m.IndexBytes(), (m.num_blocks() + 1) * 16 + 16);
}

TEST_P(CsdbInvariants, SpmmMatchesReferenceUnderAllAllocators) {
  const graph::Graph g = MakeGraph();
  const graph::CsdbMatrix m = graph::CsdbMatrix::FromGraph(g);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), 4, 11);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(m, b, &expected).ok());
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(6);
  for (auto kind :
       {sched::AllocatorKind::kRoundRobin, sched::AllocatorKind::kWorkloadBalanced,
        sched::AllocatorKind::kEntropyAware}) {
    sched::AllocatorOptions opts;
    opts.num_threads = 6;
    const auto workloads = sched::Allocate(m, kind, opts);
    linalg::DenseMatrix c(m.num_rows(), 4);
    sparse::ParallelSpmm(m, b, &c, workloads, sparse::SpmmPlacements{}, exec::Context(ms.get(), &pool));
    ASSERT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4)
        << sched::AllocatorName(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    GraphShapes, CsdbInvariants,
    ::testing::Values(GraphShape{6, 100, 0.25}, GraphShape{8, 1500, 0.45},
                      GraphShape{10, 8000, 0.57}, GraphShape{11, 20000, 0.65},
                      GraphShape{12, 60000, 0.57}),
    [](const auto& info) {
      return "scale" + std::to_string(std::get<0>(info.param)) + "_a" +
             std::to_string(static_cast<int>(std::get<2>(info.param) * 100));
    });

// ---------------------------------------------------------------------------
// Sweep 2: allocator invariants over thread counts.
// ---------------------------------------------------------------------------

class AllocatorThreadSweep
    : public ::testing::TestWithParam<std::tuple<sched::AllocatorKind, int>> {};

TEST_P(AllocatorThreadSweep, CoverageAndBudgetInvariants) {
  auto [kind, threads] = GetParam();
  graph::RmatParams params;
  params.scale = 11;
  params.num_edges = 25000;
  params.a = 0.6;
  params.b = 0.15;
  params.c = 0.15;
  params.d = 0.1;
  const graph::CsdbMatrix a =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  sched::AllocatorOptions opts;
  opts.num_threads = threads;
  const auto workloads = sched::Allocate(a, kind, opts);
  ASSERT_EQ(workloads.size(), static_cast<size_t>(threads));
  uint64_t nnz = 0;
  uint32_t rows = 0;
  for (const auto& w : workloads) {
    nnz += w.nnz;
    rows += w.num_rows;
    // Entropy bounded by log |V|.
    ASSERT_LE(w.entropy, std::log(static_cast<double>(a.num_cols())) + 1e-9);
  }
  ASSERT_EQ(nnz, a.nnz());
  ASSERT_EQ(rows, a.num_rows());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AllocatorThreadSweep,
    ::testing::Combine(::testing::Values(sched::AllocatorKind::kRoundRobin,
                                         sched::AllocatorKind::kWorkloadBalanced,
                                         sched::AllocatorKind::kEntropyAware),
                       ::testing::Values(1, 2, 3, 8, 17, 36)),
    [](const auto& info) {
      return std::string(sched::AllocatorName(std::get<0>(info.param))) + "_t" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Sweep 3: NaDP correctness over (threads, dims).
// ---------------------------------------------------------------------------

class NadpSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(NadpSweep, MatchesReference) {
  auto [threads, dim] = GetParam();
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 5000;
  const graph::CsdbMatrix a =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), dim, 21);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(a, b, &expected).ok());
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(static_cast<size_t>(threads));
  for (bool enabled : {true, false}) {
    numa::NadpOptions opts;
    opts.num_threads = threads;
    opts.enabled = enabled;
    opts.use_wofp = (dim % 2 == 0);  // exercise both cache paths
    linalg::DenseMatrix c(a.num_rows(), dim);
    numa::NadpSpmm(a, b, &c, opts, exec::Context(ms.get(), &pool));
    ASSERT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4)
        << "threads=" << threads << " dim=" << dim << " nadp=" << enabled;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, NadpSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 8),
                                            ::testing::Values(1, 3, 8, 16)),
                         [](const auto& info) {
                           // Appends only: GCC 12 at -O3 flags "lit" + string
                           // with a false -Wrestrict.
                           std::string name = "t";
                           name += std::to_string(std::get<0>(info.param));
                           name += "_d";
                           name += std::to_string(std::get<1>(info.param));
                           return name;
                         });

// ---------------------------------------------------------------------------
// Sweep 4: WoFP invariants over (eta, sigma).
// ---------------------------------------------------------------------------

class WofpParamSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(WofpParamSweep, CapacityAndHitRateInvariants) {
  auto [eta, sigma] = GetParam();
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 10000;
  params.a = 0.62;
  params.b = 0.16;
  params.c = 0.16;
  params.d = 0.06;
  const graph::CsdbMatrix a =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  auto ms = memsim::MemorySystem::CreateDefault();
  sched::Workload w;
  w.ranges.push_back(sched::RowRange{0, a.num_rows()});
  sched::RefreshCounts(a, &w);
  prefetch::WofpOptions opts;
  opts.eta = eta;
  opts.sigma = sigma;
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  const auto in_degrees = sparse::ComputeInDegrees(a);
  auto p = prefetch::WofpPrefetcher::Build(a, w, in_degrees, opts, ms.get(), &ctx);
  ASSERT_NE(p, nullptr);
  // Capacity bound: M <= W_i * sigma.
  ASSERT_LE(p->store().size(),
            static_cast<size_t>(static_cast<double>(w.nnz) * sigma) + 1);
  // Every cached key is a real column of the workload.
  for (const auto& e : p->store().entries()) {
    ASSERT_LT(e.key, a.num_cols());
    ASSERT_GT(in_degrees[e.key], 0u);
  }
  // Hit counting is consistent with Contains.
  uint64_t hits = 0;
  for (graph::NodeId c : a.col_list()) hits += p->Contains(c);
  if (p->store().size() > 0) {
    ASSERT_GT(hits, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, WofpParamSweep,
    ::testing::Combine(::testing::Values(0.0, 1e-3, 5e-2, 1.0),
                       ::testing::Values(0.01, 0.1, 0.3)),
    [](const auto& info) {
      return "eta" + std::to_string(static_cast<int>(std::get<0>(info.param) * 1000)) +
             "_sigma" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

// ---------------------------------------------------------------------------
// Sweep 5: entropy formula equivalence H = log(S1) - S2/S1 vs direct Eq. 3.
// ---------------------------------------------------------------------------

class EntropySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EntropySweep, IncrementalMatchesDirect) {
  Rng rng(GetParam());
  sched::EntropyAccumulator acc;
  std::vector<uint32_t> degrees;
  for (int i = 0; i < 200; ++i) {
    const uint32_t d = static_cast<uint32_t>(rng.NextBounded(50));
    degrees.push_back(d);
    acc.AddRow(d);
  }
  uint64_t w = 0;
  for (uint32_t d : degrees) w += d;
  double direct = 0.0;
  for (uint32_t d : degrees) {
    if (d == 0) continue;
    const double p = static_cast<double>(d) / static_cast<double>(w);
    direct += -p * std::log(p);
  }
  ASSERT_NEAR(acc.Entropy(), direct, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropySweep, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace omega
