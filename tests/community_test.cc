// Tests for the SBM community generator, node-classification evaluation, and
// MatrixMarket I/O — the downstream-task substrate of the paper's §I
// applications (classification, clustering, recommendation).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "embed/classification.h"
#include "embed/prone.h"
#include "embed/quality.h"
#include "graph/community.h"
#include "graph/graph_io.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"

namespace omega {
namespace {

TEST(SbmTest, GeneratesBlockStructure) {
  graph::SbmParams params;
  params.nodes_per_block = 50;
  params.blocks = 4;
  params.p_in = 0.25;
  params.p_out = 0.01;
  auto sbm = graph::GenerateSbm(params);
  ASSERT_TRUE(sbm.ok());
  const auto& g = sbm.value().graph;
  EXPECT_EQ(g.num_nodes(), 200u);
  ASSERT_EQ(sbm.value().labels.size(), 200u);
  EXPECT_EQ(sbm.value().labels[0], 0u);
  EXPECT_EQ(sbm.value().labels[199], 3u);

  // Intra-block edges dominate.
  uint64_t intra = 0;
  uint64_t inter = 0;
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const graph::NodeId* nbrs = g.neighbors(v);
    for (uint32_t i = 0; i < g.degree(v); ++i) {
      (sbm.value().labels[v] == sbm.value().labels[nbrs[i]] ? intra : inter)++;
    }
  }
  EXPECT_GT(intra, 4 * inter);
}

TEST(SbmTest, DeterministicAndValidated) {
  graph::SbmParams params;
  auto a = graph::GenerateSbm(params);
  auto b = graph::GenerateSbm(params);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().graph.num_arcs(), b.value().graph.num_arcs());
  params.p_in = 1.5;
  EXPECT_FALSE(graph::GenerateSbm(params).ok());
  params.p_in = 0.2;
  params.blocks = 0;
  EXPECT_FALSE(graph::GenerateSbm(params).ok());
}

TEST(ClassificationTest, PerfectEmbeddingGetsPerfectScore) {
  // One-hot class embeddings classify perfectly.
  std::vector<uint32_t> labels;
  linalg::DenseMatrix vectors(120, 3);
  for (size_t r = 0; r < 120; ++r) {
    const uint32_t label = static_cast<uint32_t>(r % 3);
    labels.push_back(label);
    vectors.At(r, label) = 1.0f;
  }
  auto result = embed::EvaluateClassification(vectors, labels);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().micro_f1, 1.0);
  EXPECT_EQ(result.value().num_classes, 3u);
  EXPECT_EQ(result.value().train_size + result.value().test_size, 120u);
}

TEST(ClassificationTest, RandomEmbeddingNearChance) {
  std::vector<uint32_t> labels;
  for (size_t r = 0; r < 400; ++r) labels.push_back(static_cast<uint32_t>(r % 4));
  const linalg::DenseMatrix vectors = linalg::GaussianMatrix(400, 8, 3);
  auto result = embed::EvaluateClassification(vectors, labels);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value().micro_f1, 0.25, 0.12);
}

TEST(ClassificationTest, ValidatesInput) {
  const linalg::DenseMatrix vectors = linalg::GaussianMatrix(10, 2, 1);
  std::vector<uint32_t> labels(9, 0);
  EXPECT_FALSE(embed::EvaluateClassification(vectors, labels).ok());
  labels.resize(10, 0);
  embed::ClassificationOptions opts;
  opts.train_fraction = 1.5;
  EXPECT_FALSE(embed::EvaluateClassification(vectors, labels, opts).ok());
}

TEST(ClassificationTest, ProneEmbeddingClassifiesSbmCommunities) {
  // The paper's classification story end-to-end: embed a planted-partition
  // graph with ProNE and recover the communities far above chance.
  graph::SbmParams params;
  params.nodes_per_block = 40;
  params.blocks = 4;
  params.p_in = 0.3;
  params.p_out = 0.02;
  auto sbm = graph::GenerateSbm(params);
  ASSERT_TRUE(sbm.ok());
  const graph::CsdbMatrix adjacency =
      graph::CsdbMatrix::FromGraph(sbm.value().graph);
  embed::ProneOptions prone;
  prone.dim = 16;
  prone.oversample = 8;
  auto emb = embed::ProneEmbed(
      adjacency, prone,
      [](const graph::CsdbMatrix& m,
         const sparse::SpmmOperands& dense) -> Result<double> {
        dense.SizeOutput(m.num_rows());
        sparse::ComputeAllRowsCsdb(m, dense, nullptr);
        return 0.0;
      });
  ASSERT_TRUE(emb.ok());
  auto result = embed::EvaluateClassification(emb.value().ToOriginalOrder(),
                                              sbm.value().labels);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.value().micro_f1, 0.7);  // chance = 0.25
}

class MatrixMarketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "omega_mm_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(MatrixMarketTest, RoundTrip) {
  graph::RmatParams params;
  params.scale = 8;
  params.num_edges = 1500;
  const graph::Graph g = graph::GenerateRmat(params).value();
  ASSERT_TRUE(graph::SaveMatrixMarket(g, Path("g.mtx")).ok());
  auto loaded = graph::LoadMatrixMarket(Path("g.mtx"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_arcs(), g.num_arcs());
  EXPECT_EQ(loaded.value().neighbor_array(), g.neighbor_array());
}

TEST_F(MatrixMarketTest, ParsesPatternAndGeneral) {
  {
    std::ofstream out(Path("p.mtx"));
    out << "%%MatrixMarket matrix coordinate pattern symmetric\n"
        << "% a comment\n"
        << "3 3 2\n"
        << "2 1\n"
        << "3 2\n";
  }
  auto g = graph::LoadMatrixMarket(Path("p.mtx"));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(g.value().num_nodes(), 3u);
  EXPECT_EQ(g.value().num_arcs(), 4u);
  EXPECT_FLOAT_EQ(g.value().weights(0)[0], 1.0f);
}

TEST_F(MatrixMarketTest, RejectsMalformedFiles) {
  auto write = [&](const std::string& name, const std::string& content) {
    std::ofstream out(Path(name));
    out << content;
    return Path(name);
  };
  EXPECT_FALSE(graph::LoadMatrixMarket(Path("missing.mtx")).ok());
  EXPECT_FALSE(
      graph::LoadMatrixMarket(write("nobanner.mtx", "1 1 0\n")).ok());
  EXPECT_FALSE(graph::LoadMatrixMarket(
                   write("rect.mtx",
                         "%%MatrixMarket matrix coordinate real general\n"
                         "2 3 1\n1 1 1.0\n"))
                   .ok());
  EXPECT_FALSE(graph::LoadMatrixMarket(
                   write("oob.mtx",
                         "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 1\n5 1 1.0\n"))
                   .ok());
  EXPECT_FALSE(graph::LoadMatrixMarket(
                   write("short.mtx",
                         "%%MatrixMarket matrix coordinate real general\n"
                         "2 2 3\n1 2 1.0\n"))
                   .ok());
  EXPECT_FALSE(graph::LoadMatrixMarket(
                   write("dense.mtx", "%%MatrixMarket matrix array real general\n"
                                      "2 2\n1\n2\n3\n4\n"))
                   .ok());
}

}  // namespace
}  // namespace omega
