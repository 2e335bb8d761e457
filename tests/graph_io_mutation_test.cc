// Seeded mutation tests for the graph readers: the edge-list, MatrixMarket
// and binary loaders get byte-flipped, truncated and header-edited copies of
// valid files, and every one must come back as a Status (an error, or a graph
// whose invariants hold) rather than a crash, an abort or an out-of-bounds
// access. Run under the ASan/UBSan build, an unchecked index or a header
// count trusted before allocating shows up here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "graph/rmat.h"

namespace omega::graph {
namespace {

using Loader = std::function<Result<Graph>(const std::string&)>;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// A loaded graph must be internally consistent: offsets partition the arcs,
// rows are strictly ascending, ids are in range.
void ExpectWellFormed(const Graph& g) {
  const auto& offsets = g.offsets();
  ASSERT_EQ(offsets.size(), size_t{g.num_nodes()} + 1);
  ASSERT_EQ(offsets.front(), 0u);
  ASSERT_EQ(offsets.back(), g.num_arcs());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_LE(offsets[v], offsets[v + 1]);
    const NodeId* nbrs = g.neighbors(v);
    for (uint32_t i = 0; i < g.degree(v); ++i) {
      ASSERT_LT(nbrs[i], g.num_nodes());
      ASSERT_NE(nbrs[i], v);
      if (i > 0) {
        ASSERT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
  }
}

class GraphIoMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("omega_graph_io_mutation_" +
            std::string(::testing::UnitTest::GetInstance()->current_test_info()->name()));
    std::filesystem::create_directories(dir_);
    RmatParams params;
    params.scale = 6;
    params.num_edges = 300;
    graph_ = std::make_unique<Graph>(GenerateRmat(params).value());
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const { return (dir_ / name).string(); }

  // Writes `bytes`, loads them, and checks the outcome is a Status. Returns
  // whether the load succeeded.
  bool LoadMutant(const Loader& load, const std::string& bytes) {
    const std::string path = Path("mutant");
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    Result<Graph> g = load(path);
    if (g.ok()) ExpectWellFormed(g.value());
    return g.ok();
  }

  // Byte flips and truncations of `valid`.
  void FlipAndTruncate(const Loader& load, const std::string& valid, uint64_t seed) {
    Rng rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
      std::string bytes = valid;
      const int flips = 1 + static_cast<int>(rng.Next() % 4);
      for (int f = 0; f < flips; ++f) {
        bytes[rng.Next() % bytes.size()] ^= static_cast<char>(1 + rng.Next() % 255);
      }
      LoadMutant(load, bytes);
    }
    // Every cut inside the first 256 bytes (banners, headers, size lines),
    // then cuts spread over the rest.
    for (size_t len = 0; len < std::min<size_t>(valid.size(), 256); ++len) {
      LoadMutant(load, valid.substr(0, len));
    }
    for (int trial = 0; trial < 100; ++trial) {
      LoadMutant(load, valid.substr(0, rng.Next() % valid.size()));
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<Graph> graph_;
};

TEST_F(GraphIoMutationTest, EdgeListSurvivesMutation) {
  ASSERT_TRUE(SaveEdgeListText(*graph_, Path("g.txt")).ok());
  const std::string valid = ReadFile(Path("g.txt"));
  const Loader load = [](const std::string& p) { return LoadEdgeListText(p); };
  ASSERT_TRUE(LoadMutant(load, valid));
  FlipAndTruncate(load, valid, 1);

  // Line edits: unparsable, overflowing, negative and non-finite fields.
  for (const char* line :
       {"1\n", "x y\n", "18446744073709551616 1\n", "-1 2\n", "1 2 nan\n",
        "1 2 1e999\n", "1 2 1e300\n", "1 2 inf\n", "\t\t\n", ",,,\n", "1 1\n"}) {
    LoadMutant(load, valid + line);
    LoadMutant(load, std::string(line) + valid);
  }
  EXPECT_FALSE(LoadMutant(load, ""));
  EXPECT_FALSE(LoadMutant(load, "# only a comment\n"));
}

TEST_F(GraphIoMutationTest, MatrixMarketSurvivesMutation) {
  ASSERT_TRUE(SaveMatrixMarket(*graph_, Path("g.mtx")).ok());
  const std::string valid = ReadFile(Path("g.mtx"));
  const Loader load = [](const std::string& p) { return LoadMatrixMarket(p); };
  ASSERT_TRUE(LoadMutant(load, valid));
  FlipAndTruncate(load, valid, 2);

  // Header edits: replace the size line "n n entries".
  const size_t size_begin = valid.find('\n', valid.find("% written")) + 1;
  const size_t size_end = valid.find('\n', size_begin);
  const std::string body = valid.substr(size_end);
  const std::string banner = valid.substr(0, size_begin);
  const std::string n = std::to_string(graph_->num_nodes());
  const std::string entries =
      valid.substr(size_begin, size_end - size_begin).substr(2 * n.size() + 2);
  auto with_size = [&](const std::string& size_line, const std::string& extra = "") {
    return LoadMutant(load, banner + size_line + body + extra);
  };
  EXPECT_TRUE(with_size(n + " " + n + " " + entries));
  EXPECT_FALSE(with_size("0 0 " + entries));
  EXPECT_FALSE(with_size(n + " 7 " + entries));
  EXPECT_FALSE(with_size("4294967296 4294967296 " + entries));  // past NodeId
  EXPECT_FALSE(with_size("99999999999999999999999 1 1"));        // unparsable
  EXPECT_FALSE(with_size(n + " " + n + " 4611686018427387904"));  // 2^62 entries
  EXPECT_FALSE(with_size(n + " " + n + " 18446744073709551615"));
  EXPECT_FALSE(with_size(n + " " + n + " " + std::to_string(std::stoull(entries) + 1)));
  EXPECT_FALSE(with_size(n + " " + n + " 0"));
  EXPECT_FALSE(with_size(n + " " + n));
  EXPECT_FALSE(with_size("-5 -5 " + entries));
  // More rows than any entry names: the extra nodes are isolated.
  const std::string wide = std::to_string(10 * graph_->num_nodes());
  EXPECT_TRUE(with_size(wide + " " + wide + " " + entries));

  // Banner and entry edits.
  EXPECT_FALSE(LoadMutant(load, "%%MatrixMarket matrix array real general\n1 1 1\n"));
  EXPECT_FALSE(LoadMutant(load, "%%MatrixMarket matrix coordinate complex general\n"));
  EXPECT_FALSE(LoadMutant(load, "%%MatrixMarket matrix\n"));
  for (const char* entry :
       {"0 1\n", "65 1\n", "1\n", "a b\n", "1 2 x\n", "1 2 1e300\n"}) {
    EXPECT_FALSE(
        with_size(n + " " + n + " " + std::to_string(std::stoull(entries) + 1), entry))
        << entry;
  }
}

TEST_F(GraphIoMutationTest, BinarySurvivesMutation) {
  ASSERT_TRUE(SaveBinary(*graph_, Path("g.bin")).ok());
  const std::string valid = ReadFile(Path("g.bin"));
  const Loader load = [](const std::string& p) { return LoadBinary(p); };
  ASSERT_TRUE(LoadMutant(load, valid));
  FlipAndTruncate(load, valid, 3);

  // Layout: magic, nodes, arcs (8 bytes each), then nodes + 1 offsets
  // (8 bytes each), arcs neighbors and arcs weights (4 bytes each).
  const uint64_t nodes = graph_->num_nodes();
  const uint64_t arcs = graph_->num_arcs();
  auto with_word = [&](size_t offset, uint64_t value) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return LoadMutant(load, bytes);
  };
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const uint64_t bad_nodes : {uint64_t{0}, uint64_t{0xFFFFFFFF}, uint64_t{1} << 32,
                                    uint64_t{1} << 40, kMax / 8, kMax}) {
    EXPECT_FALSE(with_word(8, bad_nodes)) << bad_nodes;
  }
  // Off by one: the arrays shift against each other; whatever loads must be
  // well formed.
  with_word(8, nodes - 1);
  with_word(8, nodes + 1);
  for (const uint64_t bad_arcs :
       {uint64_t{0}, arcs - 1, arcs + 1, uint64_t{1} << 40, kMax / 8 + 1, kMax}) {
    EXPECT_FALSE(with_word(16, bad_arcs)) << bad_arcs;
  }
  // Offsets that are not a monotone partition of [0, arcs).
  const size_t offsets_at = 24;
  auto offset = [&](uint64_t v) { return graph_->offsets()[v]; };
  EXPECT_FALSE(with_word(offsets_at, 1));                           // first != 0
  EXPECT_FALSE(with_word(offsets_at + 8 * nodes, arcs - 1));        // last != arcs
  EXPECT_FALSE(with_word(offsets_at + 8 * nodes, arcs + 1));
  EXPECT_FALSE(with_word(offsets_at + 8 * 5, offset(6) + 1));       // decreasing
  EXPECT_FALSE(with_word(offsets_at + 8 * 5, arcs + 1000));         // past the arcs
  EXPECT_FALSE(with_word(offsets_at + 8 * 5, uint64_t{1} << 63));
  // A neighbor id past the last node.
  const size_t neighbors_at = offsets_at + 8 * (nodes + 1);
  for (const uint32_t bad_id : {static_cast<uint32_t>(nodes), uint32_t{0xFFFFFFFF}}) {
    std::string bytes = valid;
    std::memcpy(bytes.data() + neighbors_at, &bad_id, sizeof(bad_id));
    EXPECT_FALSE(LoadMutant(load, bytes));
  }
}

// The mutation replay reader gets the same treatment: every mutant streams
// to a list of mutations or a Status, batch by batch.
TEST_F(GraphIoMutationTest, MutationStreamSurvivesMutation) {
  const std::string valid =
      "# replay\n"
      "a 0 1 2.5\n"
      "d 2 3\n"
      "u 1 2 0.5\n"
      "% another comment\n"
      "+ 7 9\n"
      "- 9 7\n"
      "4 5\n"
      "4294967295 0 1e-3\n";
  const std::string path = Path("mutations");
  auto read = [&](const std::string& bytes) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    MutationStreamReader reader;
    EXPECT_TRUE(reader.Open(path).ok());
    std::vector<Mutation> mutations;
    while (true) {
      const Result<size_t> got = reader.ReadBatch(3, &mutations);
      if (!got.ok() || got.value() == 0) return got.ok();
    }
  };
  ASSERT_TRUE(read(valid));
  ASSERT_EQ(LoadMutationsText(path).value().size(), 7u);

  Rng rng(4);
  for (int trial = 0; trial < 400; ++trial) {
    std::string bytes = valid;
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      bytes[rng.Next() % bytes.size()] ^= static_cast<char>(1 + rng.Next() % 255);
    }
    read(bytes);
  }
  for (size_t len = 0; len < valid.size(); ++len) read(valid.substr(0, len));
  // Long digit runs spliced anywhere: ids and weights past every range.
  for (int trial = 0; trial < 200; ++trial) {
    std::string digits(1 + rng.Next() % 400, '0');
    for (char& d : digits) d = static_cast<char>('0' + rng.Next() % 10);
    std::string bytes = valid;
    bytes.insert(rng.Next() % bytes.size(), digits);
    read(bytes);
  }
  for (const char* line : {"a 1 2 1e300\n", "u 1 2 -1e39\n", "a 4294967296 1\n",
                           "a 1 2 1e999\n", "d 18446744073709551616 1\n"}) {
    EXPECT_FALSE(read(valid + line)) << line;
  }
}

}  // namespace
}  // namespace omega::graph
