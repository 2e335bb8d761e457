// Edge-case and failure-injection tests: pathological graph shapes, empty
// workloads, capacity pressure, concurrent accounting, and invalid inputs
// across the stack.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "omega/engine.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"
#include "stream/asl.h"

namespace omega {
namespace {

using graph::CsdbMatrix;
using graph::Edge;
using graph::Graph;

Graph StarGraph(graph::NodeId leaves) {
  std::vector<Edge> edges;
  for (graph::NodeId i = 1; i <= leaves; ++i) edges.push_back({0, i, 1.0f});
  return Graph::FromEdges(leaves + 1, edges, true).value();
}

Graph PathGraph(graph::NodeId n) {
  std::vector<Edge> edges;
  for (graph::NodeId i = 0; i + 1 < n; ++i) edges.push_back({i, i + 1u, 1.0f});
  return Graph::FromEdges(n, edges, true).value();
}

Graph CompleteGraph(graph::NodeId n) {
  std::vector<Edge> edges;
  for (graph::NodeId i = 0; i < n; ++i) {
    for (graph::NodeId j = i + 1; j < n; ++j) edges.push_back({i, j, 1.0f});
  }
  return Graph::FromEdges(n, edges, true).value();
}

// --- Pathological graph shapes through CSDB + SpMM ---------------------------

class ShapeTest : public ::testing::TestWithParam<const char*> {
 protected:
  Graph MakeGraph() const {
    const std::string name = GetParam();
    if (name == "star") return StarGraph(63);
    if (name == "path") return PathGraph(64);
    if (name == "complete") return CompleteGraph(24);
    // Two disconnected cliques + isolated nodes.
    std::vector<Edge> edges;
    for (graph::NodeId i = 0; i < 8; ++i) {
      for (graph::NodeId j = i + 1; j < 8; ++j) {
        edges.push_back({i, j, 1.0f});
        edges.push_back({i + 8u, j + 8u, 1.0f});
      }
    }
    return Graph::FromEdges(20, edges, true).value();  // nodes 16..19 isolated
  }
};

TEST_P(ShapeTest, CsdbInvariantsHold) {
  const Graph g = MakeGraph();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  EXPECT_EQ(m.nnz(), g.num_arcs());
  EXPECT_EQ(m.num_blocks(), g.num_distinct_degrees());
  uint64_t ptr = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    ASSERT_EQ(m.RowPtr(r), ptr);
    ptr += m.RowDegree(r);
  }
}

TEST_P(ShapeTest, SpmmCorrectUnderEveryAllocator) {
  const Graph g = MakeGraph();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  const linalg::DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), 4, 2);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(m, b, &expected).ok());
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(4);
  for (auto kind :
       {sched::AllocatorKind::kRoundRobin, sched::AllocatorKind::kWorkloadBalanced,
        sched::AllocatorKind::kEntropyAware}) {
    sched::AllocatorOptions opts;
    opts.num_threads = 4;
    linalg::DenseMatrix c(m.num_rows(), 4);
    sparse::ParallelSpmm(m, b, &c, sched::Allocate(m, kind, opts),
                         sparse::SpmmPlacements{}, exec::Context(ms.get(), &pool));
    ASSERT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4)
        << GetParam() << "/" << sched::AllocatorName(kind);
  }
}

TEST_P(ShapeTest, EmbeddingPipelineSurvives) {
  const Graph g = MakeGraph();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  embed::ProneOptions opts;
  opts.dim = 4;
  opts.oversample = 2;
  opts.chebyshev_order = 4;
  auto result = embed::ProneEmbed(
      m, opts,
      [](const CsdbMatrix& a,
         const sparse::SpmmOperands& dense) -> Result<double> {
        dense.SizeOutput(a.num_rows());
        sparse::ComputeAllRowsCsdb(a, dense, nullptr);
        return 0.0;
      });
  ASSERT_TRUE(result.ok()) << GetParam() << ": " << result.status().ToString();
  EXPECT_EQ(result.value().vectors.rows(), g.num_nodes());
  // No NaNs, even for isolated nodes.
  for (size_t r = 0; r < result.value().vectors.rows(); ++r) {
    for (size_t c = 0; c < result.value().vectors.cols(); ++c) {
      EXPECT_FALSE(std::isnan(result.value().vectors.At(r, c)))
          << GetParam() << " row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeTest,
                         ::testing::Values("star", "path", "complete",
                                           "cliques_with_isolated"),
                         [](const auto& info) { return std::string(info.param); });

// --- Allocators on degenerate degree distributions ----------------------------

TEST(DegenerateAllocatorTest, SingleHubDoesNotStarveThreads) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(StarGraph(500));
  sched::AllocatorOptions opts;
  opts.num_threads = 8;
  for (auto kind : {sched::AllocatorKind::kWorkloadBalanced,
                    sched::AllocatorKind::kEntropyAware}) {
    const auto workloads = sched::Allocate(m, kind, opts);
    uint64_t total = 0;
    for (const auto& w : workloads) total += w.nnz;
    EXPECT_EQ(total, m.nnz()) << sched::AllocatorName(kind);
    // The hub row dominates; thread 0 holds it, others share the leaves.
    EXPECT_GE(workloads[0].nnz, 500u) << sched::AllocatorName(kind);
  }
}

TEST(DegenerateAllocatorTest, RegularGraphSplitsEvenly) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(PathGraph(1025));
  sched::AllocatorOptions opts;
  opts.num_threads = 8;
  const auto eata = sched::AllocateEata(m, opts);
  const double fair = static_cast<double>(m.nnz()) / 8.0;
  for (const auto& w : eata) {
    if (w.empty()) continue;
    EXPECT_NEAR(static_cast<double>(w.nnz), fair, fair * 0.35);
  }
}

// --- Empty / tiny workloads ------------------------------------------------------

TEST(EmptyWorkloadTest, SpmmOnEmptyWorkloadIsFree) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(PathGraph(16));
  auto ms = memsim::MemorySystem::CreateDefault();
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  sched::Workload empty;
  const auto bd = sparse::ChargeWorkloadCsdb(
      m, 2, sparse::ScanChargeMetaCsdb(m, empty),
      sparse::SpmmPlacements{}, ms.get(), &ctx);
  EXPECT_DOUBLE_EQ(bd.Total(), 0.0);
  EXPECT_DOUBLE_EQ(clock.seconds(), 0.0);
}

TEST(EmptyWorkloadTest, WofpOnEmptyWorkload) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(PathGraph(16));
  auto ms = memsim::MemorySystem::CreateDefault();
  sched::Workload empty;
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  const auto in_degrees = sparse::ComputeInDegrees(m);
  auto p = prefetch::WofpPrefetcher::Build(m, empty, in_degrees,
                                           prefetch::WofpOptions{}, ms.get(), &ctx);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->store().size(), 0u);
}

TEST(TinyGraphTest, EngineRejectsDimLargerThanGraph) {
  const Graph g = PathGraph(8);
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(2);
  engine::EngineOptions opts;
  opts.system = engine::SystemKind::kOmega;
  opts.num_threads = 2;
  opts.prone.dim = 16;  // dim + oversample > 8 nodes
  const auto report = engine::RunEmbedding(g, "tiny", opts, exec::Context(ms.get(), &pool));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsInvalidArgument());
}

// --- Concurrency / capacity pressure ----------------------------------------------

TEST(ConcurrencyTest, ReserveReleaseIsThreadSafe) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(8);
  std::atomic<int> failures{0};
  pool.RunOnAll([&](size_t worker) {
    const memsim::Placement p{memsim::Tier::kPm, static_cast<int>(worker % 2)};
    for (int i = 0; i < 2000; ++i) {
      if (ms->Reserve(p, 1024).ok()) {
        ms->Release(p, 1024);
      } else {
        failures++;
      }
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(ms->UsedBytes(memsim::Tier::kPm, 0), 0u);
  EXPECT_EQ(ms->UsedBytes(memsim::Tier::kPm, 1), 0u);
}

TEST(ConcurrencyTest, TrafficCountersAreAtomicAcrossWorkers) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(8);
  ms->ResetTraffic();
  pool.RunOnAll([&](size_t) {
    for (int i = 0; i < 1000; ++i) {
      ms->AccessSeconds({memsim::Tier::kDram, 0}, 0, memsim::MemOp::kRead,
                        memsim::Pattern::kSequential, 64, 1, 8);
    }
  });
  EXPECT_EQ(ms->Traffic().TotalBytes(), 8u * 1000 * 64);
}

TEST(CapacityPressureTest, EngineFailsCleanlyAndReleasesOnPartialReserve) {
  // Fill PM almost fully; the OMeGa run must fail with CapacityExceeded and
  // leave no leaked reservations behind.
  auto ms = memsim::MemorySystem::CreateDefault();
  const size_t cap = ms->CapacityBytes(memsim::Tier::kPm);
  ASSERT_TRUE(ms->Reserve({memsim::Tier::kPm, 0}, cap - 1024).ok());
  ASSERT_TRUE(ms->Reserve({memsim::Tier::kPm, 1}, cap - 1024).ok());
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 10000;
  const Graph g = graph::GenerateRmat(params).value();
  ThreadPool pool(4);
  engine::EngineOptions opts;
  opts.system = engine::SystemKind::kOmega;
  opts.num_threads = 4;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  const auto report = engine::RunEmbedding(g, "full", opts, exec::Context(ms.get(), &pool));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsCapacityExceeded());
  EXPECT_EQ(ms->UsedBytes(memsim::Tier::kPm, 0), cap - 1024);
  EXPECT_EQ(ms->UsedBytes(memsim::Tier::kPm, 1), cap - 1024);
  ms->Release({memsim::Tier::kPm, 0}, cap - 1024);
  ms->Release({memsim::Tier::kPm, 1}, cap - 1024);
}

// --- ASL degenerate configurations -----------------------------------------------

TEST(AslEdgeTest, SinglePartitionWhenBudgetIsHuge) {
  auto ms = memsim::MemorySystem::CreateDefault();
  stream::AslConfig cfg;
  cfg.dense_rows = 1024;
  cfg.dense_cols = 8;
  cfg.sparse_bytes = 1024;
  cfg.dram_budget = 1ULL << 40;
  const auto n = stream::OptimalPartitions(cfg);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  stream::AslStreamer streamer(exec::Context(ms.get()), cfg,
                               {memsim::Tier::kPm, 0},
                               {memsim::Tier::kDram, 0});
  int calls = 0;
  auto run = streamer.Run([&](size_t, size_t b, size_t e) {
    ++calls;
    EXPECT_EQ(b, 0u);
    EXPECT_EQ(e, 8u);
    return 0.001;
  });
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(calls, 1);
}

TEST(AslEdgeTest, PartitionCountClampedToColumns) {
  stream::AslConfig cfg;
  cfg.dense_rows = 1 << 20;
  cfg.dense_cols = 3;  // fewer columns than the Eq. 9 partition count
  cfg.sparse_bytes = 0;
  cfg.dram_budget = 2 * cfg.dense_rows * cfg.dense_cols * 4 + (1 << 20);
  const auto n = stream::OptimalPartitions(cfg);
  ASSERT_TRUE(n.ok());
  EXPECT_LE(n.value(), 3u);
}

// --- NaDP degenerate thread counts ------------------------------------------------

TEST(NadpEdgeTest, SingleThreadSingleSocketStillCorrect) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(StarGraph(100));
  const linalg::DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), 4, 9);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(m, b, &expected).ok());
  memsim::TopologyConfig topo;
  topo.num_sockets = 1;
  memsim::MemorySystem one_socket(topo, memsim::DefaultProfiles());
  ThreadPool pool(1);
  numa::NadpOptions opts;
  opts.num_threads = 1;
  linalg::DenseMatrix c(m.num_rows(), 4);
  numa::NadpSpmm(m, b, &c, opts, exec::Context(&one_socket, &pool));
  EXPECT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4);
}

}  // namespace
}  // namespace omega
