// Unit tests for the graph substrate: construction, relabeling, R-MAT, the
// dataset registry, text/binary I/O, and degree statistics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/md5.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/rmat.h"
#include "graph/stats.h"

namespace omega::graph {
namespace {

// The example graph of the paper's Fig. 5: |V|=7, |E|=11, degrees 4,4,4,3,3,2,2.
std::vector<Edge> PaperExampleEdges() {
  return {
      {0, 1, 1.0f}, {0, 2, 1.0f}, {0, 3, 1.0f}, {0, 4, 1.0f},
      {1, 3, 1.0f}, {1, 4, 1.0f}, {1, 6, 1.0f},
      {2, 4, 1.0f}, {2, 5, 1.0f}, {2, 6, 1.0f},
      {3, 5, 1.0f},
  };
}

Graph MakePaperGraph() {
  auto g = Graph::FromEdges(7, PaperExampleEdges(), /*undirected=*/true);
  EXPECT_TRUE(g.ok()) << g.status().ToString();
  return std::move(g).value();
}

TEST(GraphTest, FromEdgesBuildsSymmetricAdjacency) {
  const Graph g = MakePaperGraph();
  EXPECT_EQ(g.num_nodes(), 7u);
  EXPECT_EQ(g.num_arcs(), 22u);  // 11 undirected edges
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(1), 4u);
  EXPECT_EQ(g.degree(2), 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_EQ(g.degree(4), 3u);
  EXPECT_EQ(g.degree(5), 2u);
  EXPECT_EQ(g.degree(6), 2u);
  EXPECT_EQ(g.max_degree(), 4u);
}

TEST(GraphTest, NeighborsAreSorted) {
  const Graph g = MakePaperGraph();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const NodeId* nbrs = g.neighbors(v);
    for (uint32_t i = 1; i < g.degree(v); ++i) EXPECT_LT(nbrs[i - 1], nbrs[i]);
  }
}

TEST(GraphTest, SelfLoopsDropped) {
  auto g = Graph::FromEdges(3, {{0, 0, 1.0f}, {0, 1, 1.0f}}, true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_arcs(), 2u);
}

TEST(GraphTest, DuplicateEdgesMergeWeights) {
  auto g = Graph::FromEdges(2, {{0, 1, 1.0f}, {0, 1, 2.5f}}, true);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_arcs(), 2u);
  EXPECT_FLOAT_EQ(g.value().weights(0)[0], 3.5f);
}

// Float addition is not associative, so the merge order is observable: 1.0f
// vanishes when added to 1e8f, so summed in input order both lists cancel to
// exactly 0, while adding 1e8f and -1e8f first leaves 1.0f. The second list
// also tells input order from reverse order.
TEST(GraphTest, DuplicateWeightsSumInInputOrder) {
  const std::vector<std::vector<float>> weight_lists = {{1e8f, 1.0f, -1e8f},
                                                         {1.0f, 1e8f, -1e8f}};
  for (const auto& weights : weight_lists) {
    std::vector<Edge> edges;
    for (const float w : weights) edges.push_back(Edge{0, 1, w});
    for (const bool undirected : {false, true}) {
      auto g = Graph::FromEdges(2, edges, undirected);
      ASSERT_TRUE(g.ok());
      ASSERT_EQ(g.value().degree(0), 1u);
      EXPECT_EQ(g.value().weights(0)[0], 0.0f)
          << weights[0] << " first, undirected=" << undirected;
    }
  }
  // An undirected edge given as (1, 0) still lands at its input position in
  // row 0's sum.
  auto g = Graph::FromEdges(2, {{0, 1, 1e8f}, {1, 0, 1.0f}, {0, 1, -1e8f}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().weights(0)[0], 0.0f);
  EXPECT_EQ(g.value().weights(1)[0], 0.0f);
}

// The comparator-sort construction FromEdges used before its counting sort:
// copy every arc, sort by (src, dst), merge equal runs. Its merge order is
// unspecified, so it is compared only on weights whose sums are exact.
struct SortOracleGraph {
  std::vector<uint64_t> offsets;
  std::vector<NodeId> neighbors;
  std::vector<float> weights;
};

Result<SortOracleGraph> SortOracle(NodeId num_nodes, const std::vector<Edge>& edges,
                                   bool undirected) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("graph must have at least one node");
  }
  std::vector<Edge> arcs;
  for (const Edge& e : edges) {
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Status::OutOfRange("edge endpoint out of range: " +
                                std::to_string(e.src) + "->" + std::to_string(e.dst));
    }
    if (e.src == e.dst) continue;
    arcs.push_back(e);
    if (undirected) arcs.push_back(Edge{e.dst, e.src, e.weight});
  }
  std::sort(arcs.begin(), arcs.end(), [](const Edge& a, const Edge& b) {
    return a.src != b.src ? a.src < b.src : a.dst < b.dst;
  });
  SortOracleGraph g;
  g.offsets.assign(num_nodes + 1, 0);
  for (size_t i = 0; i < arcs.size(); ++i) {
    if (i > 0 && arcs[i].src == arcs[i - 1].src && arcs[i].dst == arcs[i - 1].dst) {
      g.weights.back() += arcs[i].weight;
      continue;
    }
    g.neighbors.push_back(arcs[i].dst);
    g.weights.push_back(arcs[i].weight);
    g.offsets[arcs[i].src + 1]++;
  }
  for (NodeId v = 0; v < num_nodes; ++v) g.offsets[v + 1] += g.offsets[v];
  return g;
}

TEST(GraphTest, FromEdgesMatchesSortOracle) {
  Rng rng(20241016);
  int empty = 0;
  int out_of_range = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Few nodes and many edges give duplicates and self-loops; many nodes
    // and few edges give isolated nodes.
    const NodeId num_nodes = static_cast<NodeId>(rng.Next() % 40);
    const size_t num_edges = rng.Next() % 120;
    const bool undirected = rng.Next() % 2 == 0;
    std::vector<Edge> edges(num_edges);
    for (Edge& e : edges) {
      // One edge in fifty may point up to three past the last node.
      const NodeId span = std::max<NodeId>(num_nodes + 3 * (rng.Next() % 50 == 0), 1);
      e.src = static_cast<NodeId>(rng.Next() % span);
      e.dst = static_cast<NodeId>(rng.Next() % span);
      e.weight = static_cast<float>(1 + rng.Next() % 4);  // small integers: exact sums
    }
    auto oracle = SortOracle(num_nodes, edges, undirected);
    auto g = Graph::FromEdges(num_nodes, edges, undirected);
    ASSERT_EQ(g.ok(), oracle.ok()) << "trial " << trial;
    if (!oracle.ok()) {
      // Same code and message: the first bad edge in input order is reported.
      EXPECT_EQ(g.status().ToString(), oracle.status().ToString()) << "trial " << trial;
      (oracle.status().IsOutOfRange() ? out_of_range : empty)++;
      continue;
    }
    EXPECT_EQ(g.value().offsets(), oracle.value().offsets) << "trial " << trial;
    EXPECT_EQ(g.value().neighbor_array(), oracle.value().neighbors) << "trial " << trial;
    EXPECT_EQ(g.value().weight_array(), oracle.value().weights) << "trial " << trial;
    uint32_t max_degree = 0;
    for (NodeId v = 0; v < num_nodes; ++v) {
      max_degree = std::max(max_degree, g.value().degree(v));
    }
    EXPECT_EQ(g.value().max_degree(), max_degree) << "trial " << trial;
  }
  // Both rejections were exercised.
  EXPECT_GT(empty, 10);
  EXPECT_GT(out_of_range, 10);
}

TEST(GraphTest, RejectsOutOfRangeEndpoints) {
  auto g = Graph::FromEdges(2, {{0, 5, 1.0f}}, true);
  EXPECT_FALSE(g.ok());
  EXPECT_TRUE(g.status().IsOutOfRange());
}

TEST(GraphTest, RejectsEmptyGraph) {
  auto g = Graph::FromEdges(0, {}, true);
  EXPECT_FALSE(g.ok());
}

TEST(GraphTest, DistinctDegreesMatchesPaperExample) {
  const Graph g = MakePaperGraph();
  EXPECT_EQ(g.num_distinct_degrees(), 3u);  // degrees {4, 3, 2}
}

TEST(GraphTest, DegreeDescendingOrderIsSortedAndStable) {
  const Graph g = MakePaperGraph();
  const auto order = g.DegreeDescendingOrder();
  ASSERT_EQ(order.size(), 7u);
  for (size_t i = 1; i < order.size(); ++i) {
    EXPECT_GE(g.degree(order[i - 1]), g.degree(order[i]));
  }
  // Stability: equal-degree nodes keep original relative order.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 1u);
  EXPECT_EQ(order[2], 2u);
}

TEST(GraphTest, RelabelPreservesStructure) {
  const Graph g = MakePaperGraph();
  const auto order = g.DegreeDescendingOrder();
  auto relabeled = g.Relabel(order);
  ASSERT_TRUE(relabeled.ok());
  const Graph& r = relabeled.value();
  EXPECT_EQ(r.num_arcs(), g.num_arcs());
  // New node i is old node order[i] and keeps its degree.
  for (NodeId i = 0; i < r.num_nodes(); ++i) {
    EXPECT_EQ(r.degree(i), g.degree(order[i]));
  }
}

TEST(GraphTest, RelabelRejectsNonPermutation) {
  const Graph g = MakePaperGraph();
  EXPECT_FALSE(g.Relabel({0, 0, 1, 2, 3, 4, 5}).ok());
  EXPECT_FALSE(g.Relabel({0, 1}).ok());
}

// The serial generator as it stood before chunking: one stream drawn edge by
// edge in order, self-loops filtered before FromEdges.
Result<Graph> SerialRmatOracle(const RmatParams& params) {
  Rng rng(params.seed);
  std::vector<Edge> edges;
  for (uint64_t e = 0; e < params.num_edges; ++e) {
    NodeId row = 0;
    NodeId col = 0;
    for (uint32_t level = 0; level < params.scale; ++level) {
      const double na = params.a * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nb = params.b * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nc = params.c * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double nd = params.d * (1.0 + params.noise * (rng.NextDouble() - 0.5));
      const double total = na + nb + nc + nd;
      const double r = rng.NextDouble() * total;
      const NodeId half = NodeId{1} << (params.scale - level - 1);
      const double ab = na + nb;
      const double abc = ab + nc;
      const bool past_a = !(r < na);
      const bool past_b = !(r < ab);
      const bool past_c = !(r < abc);
      row += half * (past_a & past_b);
      col += half * (past_a & (!past_b | past_c));
    }
    if (row != col) edges.push_back(Edge{row, col, 1.0f});
  }
  return Graph::FromEdges(NodeId{1} << params.scale, edges, /*undirected=*/true);
}

TEST(GraphTest, RmatChunkedMatchesSerialOracle) {
  ThreadPool one(1);
  ThreadPool two(2);
  ThreadPool eight(8);
  RmatParams multi;  // three full 2^16-edge chunks and a partial fourth
  multi.scale = 10;
  multi.num_edges = 3 * 65536 + 12345;
  multi.seed = 7;
  RmatParams single = multi;  // one partial chunk
  single.num_edges = 5000;
  for (const RmatParams& params : {multi, single}) {
    auto oracle = SerialRmatOracle(params);
    ASSERT_TRUE(oracle.ok());
    for (ThreadPool* pool : {&one, &two, &eight, static_cast<ThreadPool*>(nullptr)}) {
      const size_t threads = pool == nullptr ? 0 : pool->size();
      auto g = GenerateRmat(params, pool);
      ASSERT_TRUE(g.ok());
      EXPECT_EQ(g.value().offsets(), oracle.value().offsets())
          << params.num_edges << " edges, threads " << threads;
      EXPECT_EQ(g.value().neighbor_array(), oracle.value().neighbor_array())
          << params.num_edges << " edges, threads " << threads;
      EXPECT_EQ(g.value().weight_array(), oracle.value().weight_array())
          << params.num_edges << " edges, threads " << threads;
    }
  }
}

TEST(RmatTest, GeneratesRequestedScale) {
  RmatParams params;
  params.scale = 10;
  params.num_edges = 8000;
  auto g = GenerateRmat(params);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 1024u);
  EXPECT_GT(g.value().num_arcs(), 8000u);       // most edges kept, doubled
  EXPECT_LE(g.value().num_arcs(), 16000u);      // bounded by 2x requested
}

TEST(RmatTest, DeterministicForSeed) {
  RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  auto g1 = GenerateRmat(params);
  auto g2 = GenerateRmat(params);
  ASSERT_TRUE(g1.ok());
  ASSERT_TRUE(g2.ok());
  EXPECT_EQ(g1.value().num_arcs(), g2.value().num_arcs());
  EXPECT_EQ(g1.value().neighbor_array(), g2.value().neighbor_array());
}

TEST(RmatTest, SkewedParametersProduceSkew) {
  RmatParams skewed;
  skewed.scale = 11;
  skewed.num_edges = 30000;
  skewed.a = 0.7;
  skewed.b = 0.15;
  skewed.c = 0.1;
  skewed.d = 0.05;
  RmatParams uniform = skewed;
  uniform.a = uniform.b = uniform.c = uniform.d = 0.25;
  auto gs = GenerateRmat(skewed);
  auto gu = GenerateRmat(uniform);
  ASSERT_TRUE(gs.ok());
  ASSERT_TRUE(gu.ok());
  EXPECT_GT(gs.value().max_degree(), 2 * gu.value().max_degree());
  EXPECT_LT(ComputeDegreeStats(gs.value()).normalized_entropy,
            ComputeDegreeStats(gu.value()).normalized_entropy);
}

TEST(RmatTest, RejectsBadProbabilities) {
  RmatParams params;
  params.a = 0.9;  // sums to > 1
  EXPECT_FALSE(GenerateRmat(params).ok());
}

TEST(DatasetsTest, RegistryHasAllSixPaperDatasets) {
  const auto& all = AllDatasets();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "PK");
  EXPECT_EQ(all[5].name, "FR");
  EXPECT_EQ(all[4].paper_edges, 2410000000ULL);  // Table I: TW-2010, 2.41 B
}

TEST(DatasetsTest, FindByShortAndFullName) {
  EXPECT_TRUE(FindDataset("LJ").ok());
  EXPECT_TRUE(FindDataset("soc-LiveJournal").ok());
  EXPECT_FALSE(FindDataset("nope").ok());
}

TEST(DatasetsTest, AnaloguesScaleRoughlyOneThousandth) {
  for (const auto& spec : AllDatasets()) {
    auto g = LoadDataset(spec);
    ASSERT_TRUE(g.ok()) << spec.name;
    const double node_ratio =
        static_cast<double>(spec.paper_nodes) / g.value().num_nodes();
    EXPECT_GT(node_ratio, 200.0) << spec.name;
    EXPECT_LT(node_ratio, 5000.0) << spec.name;
    // Undirected arc count within 2x of the scaled edge budget.
    EXPECT_GT(g.value().num_arcs(), spec.rmat.num_edges / 2) << spec.name;
  }
}

// Byte-level pins of every registry graph. The digests were recorded with the
// comparator-sort FromEdges and the if/else R-MAT quadrant chain, so they
// hold the linear-time construction to those bytes; any change to the
// generator's draws or to the construction's order or merge shows up here.
TEST(DatasetsTest, RegistryGraphsArePinned) {
  struct Pin {
    const char* name;
    const char* offsets_md5;
    const char* neighbors_md5;
    const char* weights_md5;
  };
  const Pin pins[] = {
      {"PK", "04d0aaa813e2ea52b58b23105a6ad0be",
       "7900e8f9597961b007ad40c88f7cf1f1",
       "a19e0cd91f9a93c445b21b4e6d365362"},
      {"LJ", "b57f97bfc0042d127a9bd355784a385d",
       "9477357e4de81e5039e242e7220bd05f",
       "e1302f5b2e33caf01963ff847cfb8b03"},
      {"OR", "067a4535a7b4e5ae7d4ff733aeb75777",
       "5c76ea2f0284bab22eb6fd79e713fdf1",
       "7999db3c342728eb9edeaa66741154c2"},
      {"TW", "770b5120d57b9268ab8cddd9d922b883",
       "ed6f82bdf2621b5bb8addb2bc5bed11a",
       "72485d36c2e150270d00071d39bb81ca"},
      {"TW-2010", "5f16038a37d1038c773cdd10de12d5f9",
       "69eece3770490e1bf33c1a6454ff76ad",
       "c6a36a891f8d6ae85e53ff353cf7a996"},
      {"FR", "a081754f91be2068c888efd6bd0d8009",
       "c3d51bc14a14d0ab17223fc20353c593",
       "121591ec14140348a8336aa4c921b99b"},
  };
  for (const Pin& pin : pins) {
    auto g = LoadDatasetByName(pin.name);
    ASSERT_TRUE(g.ok()) << pin.name;
    const auto& off = g.value().offsets();
    const auto& nbr = g.value().neighbor_array();
    const auto& wts = g.value().weight_array();
    EXPECT_EQ(Md5Hex(off.data(), off.size() * sizeof(off[0])), pin.offsets_md5)
        << pin.name;
    EXPECT_EQ(Md5Hex(nbr.data(), nbr.size() * sizeof(nbr[0])), pin.neighbors_md5)
        << pin.name;
    EXPECT_EQ(Md5Hex(wts.data(), wts.size() * sizeof(wts[0])), pin.weights_md5)
        << pin.name;
  }
}

TEST(DatasetsTest, LoadByName) {
  auto g = LoadDatasetByName("PK");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 2048u);
}

class GraphIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "omega_graph_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(GraphIoTest, TextRoundTrip) {
  const Graph g = MakePaperGraph();
  ASSERT_TRUE(SaveEdgeListText(g, Path("g.txt")).ok());
  auto loaded = LoadEdgeListText(Path("g.txt"), /*undirected=*/false);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_arcs(), g.num_arcs());
}

TEST_F(GraphIoTest, TextParserHandlesCommentsAndWeights) {
  {
    std::FILE* f = std::fopen(Path("w.txt").c_str(), "w");
    std::fputs("# comment\n% also comment\n10 20 2.5\n20 30\n", f);
    std::fclose(f);
  }
  auto g = LoadEdgeListText(Path("w.txt"));
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g.value().num_nodes(), 3u);  // densified ids
  EXPECT_EQ(g.value().num_arcs(), 4u);
  EXPECT_FLOAT_EQ(g.value().weights(0)[0], 2.5f);
}

TEST_F(GraphIoTest, TextParserRejectsGarbage) {
  {
    std::FILE* f = std::fopen(Path("bad.txt").c_str(), "w");
    std::fputs("hello world again\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadEdgeListText(Path("bad.txt")).ok());
  EXPECT_FALSE(LoadEdgeListText(Path("missing.txt")).ok());
}

TEST_F(GraphIoTest, BinaryRoundTrip) {
  RmatParams params;
  params.scale = 9;
  params.num_edges = 3000;
  const Graph g = GenerateRmat(params).value();
  ASSERT_TRUE(SaveBinary(g, Path("g.bin")).ok());
  auto loaded = LoadBinary(Path("g.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().num_nodes(), g.num_nodes());
  EXPECT_EQ(loaded.value().num_arcs(), g.num_arcs());
  EXPECT_EQ(loaded.value().neighbor_array(), g.neighbor_array());
}

TEST_F(GraphIoTest, BinaryRejectsWrongMagic) {
  {
    std::FILE* f = std::fopen(Path("junk.bin").c_str(), "wb");
    const char junk[64] = {1, 2, 3};
    std::fwrite(junk, 1, sizeof(junk), f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadBinary(Path("junk.bin")).ok());
}

TEST(StatsTest, DegreeStatsOnPaperExample) {
  const Graph g = MakePaperGraph();
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_EQ(s.num_nodes, 7u);
  EXPECT_EQ(s.num_arcs, 22u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.distinct_degrees, 3u);
  EXPECT_NEAR(s.mean_degree, 22.0 / 7.0, 1e-9);
  EXPECT_GT(s.degree_entropy, 0.0);
  EXPECT_LE(s.normalized_entropy, 1.0);
}

TEST(StatsTest, RegularGraphHasMaximalEntropy) {
  // A cycle: every node degree 2 -> entropy = log |V|.
  std::vector<Edge> edges;
  const NodeId n = 64;
  for (NodeId v = 0; v < n; ++v) edges.push_back({v, (v + 1u) % n, 1.0f});
  const Graph g = Graph::FromEdges(n, edges, true).value();
  const DegreeStats s = ComputeDegreeStats(g);
  EXPECT_NEAR(s.normalized_entropy, 1.0, 1e-9);
}

TEST(StatsTest, DegreeHistogramSumsToNodeCount) {
  const Graph g = MakePaperGraph();
  const auto hist = DegreeHistogram(g);
  uint64_t total = 0;
  for (uint64_t c : hist) total += c;
  EXPECT_EQ(total, g.num_nodes());
  EXPECT_EQ(hist[4], 3u);
  EXPECT_EQ(hist[3], 2u);
  EXPECT_EQ(hist[2], 2u);
}

}  // namespace
}  // namespace omega::graph
