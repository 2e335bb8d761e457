// Tests for the graph analytics utilities (BFS, components, PageRank) and
// the GNN forward pass on the charged SpMM kernels.

#include <gtest/gtest.h>

#include <cmath>

#include "embed/gnn.h"
#include "graph/rmat.h"
#include "graph/traversal.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"

namespace omega {
namespace {

using graph::Edge;
using graph::Graph;

Graph TwoTriangles() {
  // Triangle {0,1,2} and triangle {3,4,5}, disconnected.
  std::vector<Edge> edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 1},
                             {3, 4, 1}, {4, 5, 1}, {3, 5, 1}};
  return Graph::FromEdges(6, edges, true).value();
}

TEST(BfsTest, DistancesOnPath) {
  std::vector<Edge> edges = {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}};
  const Graph g = Graph::FromEdges(4, edges, true).value();
  const auto dist = graph::BfsDistances(g, 0);
  EXPECT_EQ(dist, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(BfsTest, UnreachableNodesAreMax) {
  const Graph g = TwoTriangles();
  const auto dist = graph::BfsDistances(g, 0);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], UINT32_MAX);
  EXPECT_EQ(dist[5], UINT32_MAX);
  EXPECT_EQ(graph::BfsDistances(g, 99)[0], UINT32_MAX);  // bad source
}

TEST(ComponentsTest, TwoTrianglesHaveTwoComponents) {
  const Graph g = TwoTriangles();
  EXPECT_EQ(graph::CountComponents(g), 2u);
  const auto labels = graph::ConnectedComponents(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[0], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
}

TEST(ComponentsTest, RmatIsMostlyOneGiantComponent) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 10000;
  const Graph g = graph::GenerateRmat(params).value();
  const auto labels = graph::ConnectedComponents(g);
  uint32_t giant = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) giant += labels[v] == labels[0];
  EXPECT_GT(static_cast<double>(giant) / g.num_nodes(), 0.5);
}

TEST(PageRankTest, SumsToOneAndConverges) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  const Graph g = graph::GenerateRmat(params).value();
  auto pr = graph::PageRank(g);
  ASSERT_TRUE(pr.ok());
  double sum = 0.0;
  for (double s : pr.value().scores) sum += s;
  EXPECT_NEAR(sum, 1.0, 1e-6);
  EXPECT_LT(pr.value().iterations, 100);
  EXPECT_LT(pr.value().final_delta, 1e-8);
}

TEST(PageRankTest, HubScoresHighest) {
  // Star: the hub must dominate.
  std::vector<Edge> edges;
  for (graph::NodeId i = 1; i <= 20; ++i) edges.push_back({0, i, 1});
  const Graph g = Graph::FromEdges(21, edges, true).value();
  auto pr = graph::PageRank(g);
  ASSERT_TRUE(pr.ok());
  const auto top = graph::TopPageRankNodes(pr.value(), 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 0u);
  EXPECT_GT(pr.value().scores[0], 5.0 * pr.value().scores[1]);
}

TEST(PageRankTest, UniformOnRegularGraph) {
  // Cycle: every node has the same score.
  std::vector<Edge> edges;
  for (graph::NodeId i = 0; i < 32; ++i) edges.push_back({i, (i + 1u) % 32, 1});
  const Graph g = Graph::FromEdges(32, edges, true).value();
  auto pr = graph::PageRank(g);
  ASSERT_TRUE(pr.ok());
  for (double s : pr.value().scores) EXPECT_NEAR(s, 1.0 / 32, 1e-9);
}

TEST(PageRankTest, ValidatesOptions) {
  const Graph g = TwoTriangles();
  graph::PageRankOptions bad;
  bad.damping = 1.5;
  EXPECT_FALSE(graph::PageRank(g, bad).ok());
  bad.damping = 0.85;
  bad.max_iterations = 0;
  EXPECT_FALSE(graph::PageRank(g, bad).ok());
}

// --- GNN forward pass ----------------------------------------------------------

// Uncharged executor: the reference kernel for column-major operands (all a
// GNN layer sends), so the charged executor below is checked against a
// kernel other than its own; the packed kernel for packed Chebyshev terms,
// which have no other implementation.
embed::SpmmExecutor PlainExecutor() {
  return [](const graph::CsdbMatrix& m,
            const sparse::SpmmOperands& dense) -> Result<double> {
    if (dense.packed()) {
      sparse::ComputeAllRowsCsdb(m, dense, nullptr);
    } else {
      OMEGA_RETURN_NOT_OK(sparse::ReferenceSpmm(m, *dense.in, dense.out));
    }
    return 0.01;
  };
}

class GnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 8;
    params.num_edges = 2000;
    adjacency_ = graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  }
  graph::CsdbMatrix adjacency_;
};

TEST_F(GnnTest, ProducesNormalizedEmbeddings) {
  embed::GnnOptions opts;
  opts.output_dim = 16;
  auto result =
      embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts, PlainExecutor());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().embeddings.rows(), adjacency_.num_rows());
  EXPECT_EQ(result.value().embeddings.cols(), 16u);
  // One SpMM per layer.
  EXPECT_NEAR(result.value().spmm_seconds, 0.02, 1e-12);
  EXPECT_GT(result.value().dense_seconds, 0.0);
  for (size_t r = 0; r < result.value().embeddings.rows(); ++r) {
    double norm = 0.0;
    for (size_t c = 0; c < 16; ++c) {
      const double v = result.value().embeddings.At(r, c);
      EXPECT_FALSE(std::isnan(v));
      norm += v * v;
    }
    EXPECT_NEAR(norm, 1.0, 1e-3);
  }
}

TEST_F(GnnTest, DeterministicForSeed) {
  embed::GnnOptions opts;
  auto a = embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts,
                             PlainExecutor());
  auto b = embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts,
                             PlainExecutor());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(linalg::DenseMatrix::MaxAbsDiff(a.value().embeddings,
                                            b.value().embeddings),
            0.0);
  opts.seed = 99;
  auto c = embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts,
                             PlainExecutor());
  ASSERT_TRUE(c.ok());
  EXPECT_GT(linalg::DenseMatrix::MaxAbsDiff(a.value().embeddings,
                                            c.value().embeddings),
            0.01);
}

TEST_F(GnnTest, AcceptsExplicitFeatures) {
  const linalg::DenseMatrix features =
      linalg::GaussianMatrix(adjacency_.num_rows(), 8, 3);
  embed::GnnOptions opts;
  opts.num_layers = 3;
  opts.hidden_dim = 12;
  opts.output_dim = 6;
  auto result = embed::GnnForward(adjacency_, features, opts, PlainExecutor());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().embeddings.cols(), 6u);
  EXPECT_NEAR(result.value().spmm_seconds, 0.03, 1e-12);  // 3 layers
}

TEST_F(GnnTest, ValidatesInput) {
  embed::GnnOptions opts;
  opts.num_layers = 0;
  EXPECT_FALSE(
      embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts, PlainExecutor())
          .ok());
  opts.num_layers = 2;
  const linalg::DenseMatrix wrong = linalg::GaussianMatrix(7, 4, 1);
  EXPECT_FALSE(embed::GnnForward(adjacency_, wrong, opts, PlainExecutor()).ok());
}

TEST_F(GnnTest, RunsOnChargedOmegaKernels) {
  // The §VI claim: the same optimizations serve GNN aggregation unchanged.
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(4);
  auto charged = [&](const graph::CsdbMatrix& m,
                     const sparse::SpmmOperands& dense) -> Result<double> {
    dense.SizeOutput(m.num_rows());
    numa::NadpOptions opts;
    opts.num_threads = 4;
    const exec::Context ctx(ms.get(), &pool);
    return numa::NadpExecute(numa::NadpPlan::Build(m, opts, ctx), m, dense, ctx)
        .phase_seconds;
  };
  embed::GnnOptions opts;
  auto charged_result =
      embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts, charged);
  ASSERT_TRUE(charged_result.ok()) << charged_result.status().ToString();
  EXPECT_GT(charged_result.value().spmm_seconds, 0.0);
  // Numerically identical to the reference executor.
  auto reference =
      embed::GnnForward(adjacency_, linalg::DenseMatrix(), opts, PlainExecutor());
  ASSERT_TRUE(reference.ok());
  EXPECT_LT(linalg::DenseMatrix::MaxAbsDiff(charged_result.value().embeddings,
                                            reference.value().embeddings),
            1e-4);
}

}  // namespace
}  // namespace omega
