// Unit tests for CSDB (§III-A) against the paper's worked example (Fig. 5):
// Deg_list = [4, 3, 2], Deg_ind = [0, 3, 5] (we append the end sentinels),
// Deg_ptr per Eq. 1, and the O(|degrees|) index-size claim.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <numeric>

#include "csdb_test_inputs.h"
#include "embed/prone.h"
#include "graph/csdb.h"
#include "graph/csr.h"
#include "graph/graph.h"
#include "common/rng.h"
#include "graph/rmat.h"

namespace omega::graph {
namespace {

Graph MakePaperGraph() {
  // Fig. 5(a): degrees come out as [4,4,4,3,3,2,2] for v0..v6.
  std::vector<Edge> edges = {
      {0, 1, 1.0f}, {0, 2, 1.0f}, {0, 3, 1.0f}, {0, 4, 1.0f},
      {1, 3, 1.0f}, {1, 4, 1.0f}, {1, 6, 1.0f},
      {2, 4, 1.0f}, {2, 5, 1.0f}, {2, 6, 1.0f},
      {3, 5, 1.0f},
  };
  return Graph::FromEdges(7, edges, true).value();
}

TEST(CsdbTest, PaperExampleBlockMetadata) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  EXPECT_EQ(m.num_rows(), 7u);
  EXPECT_EQ(m.nnz(), 22u);
  // Fig. 5(b): Deg_list = [4, 3, 2]; Deg_ind starts = [0, 3, 5].
  ASSERT_EQ(m.num_blocks(), 3u);
  EXPECT_EQ(m.deg_list(), (std::vector<uint32_t>{4, 3, 2}));
  EXPECT_EQ(m.deg_ind(), (std::vector<uint32_t>{0, 3, 5, 7}));
  EXPECT_EQ(m.block_ptr(), (std::vector<uint64_t>{0, 12, 18, 22}));
}

TEST(CsdbTest, RowPtrMatchesEquationOne) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  // Deg_ptr(v_i) = sum of degrees of previous rows (Eq. 1).
  uint64_t expected = 0;
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    EXPECT_EQ(m.RowPtr(r), expected) << "row " << r;
    expected += m.RowDegree(r);
  }
  EXPECT_EQ(expected, m.nnz());
}

TEST(CsdbTest, RowDegreesNonIncreasing) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  for (uint32_t r = 1; r < m.num_rows(); ++r) {
    EXPECT_LE(m.RowDegree(r), m.RowDegree(r - 1));
  }
}

TEST(CsdbTest, PermMapsBackToOriginalDegrees) {
  const Graph g = MakePaperGraph();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  ASSERT_EQ(m.perm().size(), 7u);
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    EXPECT_EQ(m.RowDegree(r), g.degree(m.perm()[r]));
  }
}

TEST(CsdbTest, NeighborsOfV1ViaDegPtr) {
  // The paper's §III-A walkthrough: v1 has degree 4 and Deg_ptr 4; its
  // neighbors come from col_list[4..8). In CSDB id space row 1 is the
  // second degree-4 node (original v1).
  const Graph g = MakePaperGraph();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  EXPECT_EQ(m.perm()[1], 1u);
  EXPECT_EQ(m.RowDegree(1), 4u);
  EXPECT_EQ(m.RowPtr(1), 4u);
  // Map CSDB columns back to original ids and compare with the graph.
  std::vector<NodeId> nbrs;
  for (uint32_t k = 0; k < 4; ++k) {
    nbrs.push_back(m.perm()[m.col_list()[m.RowPtr(1) + k]]);
  }
  std::sort(nbrs.begin(), nbrs.end());
  EXPECT_EQ(nbrs, (std::vector<NodeId>{0, 3, 4, 6}));
}

TEST(CsdbTest, BlockOfRowBinarySearch) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  EXPECT_EQ(m.BlockOfRow(0), 0u);
  EXPECT_EQ(m.BlockOfRow(2), 0u);
  EXPECT_EQ(m.BlockOfRow(3), 1u);
  EXPECT_EQ(m.BlockOfRow(4), 1u);
  EXPECT_EQ(m.BlockOfRow(5), 2u);
  EXPECT_EQ(m.BlockOfRow(6), 2u);
}

TEST(CsdbTest, CursorWalksAllRowsInOrder) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  uint32_t row = 0;
  uint64_t ptr = 0;
  for (auto cur = m.Rows(0); !cur.AtEnd(); cur.Next()) {
    EXPECT_EQ(cur.row(), row);
    EXPECT_EQ(cur.ptr(), ptr);
    EXPECT_EQ(cur.degree(), m.RowDegree(row));
    ptr += cur.degree();
    ++row;
  }
  EXPECT_EQ(row, m.num_rows());
  EXPECT_EQ(ptr, m.nnz());
}

TEST(CsdbTest, CursorFromMiddleRow) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  auto cur = m.Rows(4);
  EXPECT_EQ(cur.row(), 4u);
  EXPECT_EQ(cur.ptr(), m.RowPtr(4));
  cur.Next();
  cur.Next();
  cur.Next();
  EXPECT_TRUE(cur.AtEnd());
}

TEST(CsdbTest, CursorAtEndImmediately) {
  const CsdbMatrix m = CsdbMatrix::FromGraph(MakePaperGraph());
  EXPECT_TRUE(m.Rows(7).AtEnd());
}

TEST(CsdbTest, IndexBytesAreDegreeBounded) {
  // The CSDB claim: index metadata is O(|distinct degrees|), far below CSR's
  // O(|V|) row pointers on a skewed graph.
  RmatParams params;
  params.scale = 12;
  params.num_edges = 60000;
  const Graph g = GenerateRmat(params).value();
  const CsdbMatrix csdb = CsdbMatrix::FromGraph(g);
  const CsrMatrix csr = CsrMatrix::FromGraph(g);
  EXPECT_LT(csdb.IndexBytes() * 5, csr.IndexBytes());
  EXPECT_EQ(csdb.num_blocks(), g.num_distinct_degrees());
}

TEST(CsdbTest, FromPartsValidation) {
  // Degrees must be non-increasing.
  auto bad = CsdbMatrix::FromParts(2, 2, {1, 2}, {0, 0, 1}, {1, 1, 1});
  EXPECT_FALSE(bad.ok());
  // Sizes must agree.
  auto bad2 = CsdbMatrix::FromParts(2, 2, {2, 1}, {0, 1}, {1, 1});
  EXPECT_FALSE(bad2.ok());
  // Columns in range.
  auto bad3 = CsdbMatrix::FromParts(2, 2, {2, 1}, {0, 5, 1}, {1, 1, 1});
  EXPECT_FALSE(bad3.ok());
  // A valid construction round-trips.
  auto ok = CsdbMatrix::FromParts(3, 3, {2, 1, 0}, {1, 2, 0}, {1, 2, 3});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().RowDegree(0), 2u);
  EXPECT_EQ(ok.value().RowDegree(2), 0u);
  EXPECT_EQ(ok.value().RowPtr(1), 2u);
}

TEST(CsdbTest, HandlesZeroDegreeTailRows) {
  // Isolated nodes form a trailing degree-0 block.
  std::vector<Edge> edges = {{0, 1, 1.0f}};
  const Graph g = Graph::FromEdges(4, edges, true).value();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  EXPECT_EQ(m.num_blocks(), 2u);
  EXPECT_EQ(m.deg_list().back(), 0u);
  EXPECT_EQ(m.RowDegree(3), 0u);
  uint32_t rows_seen = 0;
  for (auto cur = m.Rows(0); !cur.AtEnd(); cur.Next()) ++rows_seen;
  EXPECT_EQ(rows_seen, 4u);
}

TEST(CsdbTest, LargeGraphRoundTripAgainstGraph) {
  RmatParams params;
  params.scale = 10;
  params.num_edges = 10000;
  const Graph g = GenerateRmat(params).value();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  EXPECT_EQ(m.nnz(), g.num_arcs());
  // Every CSDB row's column set equals the original node's neighbor set.
  std::vector<NodeId> inverse(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) inverse[m.perm()[i]] = i;
  for (auto cur = m.Rows(0); !cur.AtEnd(); cur.Next()) {
    const NodeId original = m.perm()[cur.row()];
    ASSERT_EQ(cur.degree(), g.degree(original));
    std::vector<NodeId> expected;
    for (uint32_t k = 0; k < g.degree(original); ++k) {
      expected.push_back(inverse[g.neighbors(original)[k]]);
    }
    std::sort(expected.begin(), expected.end());
    for (uint32_t k = 0; k < cur.degree(); ++k) {
      EXPECT_EQ(m.col_list()[cur.ptr() + k], expected[k]);
    }
  }
}

TEST(CsdbTest, PooledFromGraphIsByteIdentical) {
  for (const auto& [name, g] : PooledBuildGraphs()) {
    SCOPED_TRACE(name);
    const CsdbMatrix serial = CsdbMatrix::FromGraph(g);
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      ExpectCsdbIdentical(CsdbMatrix::FromGraph(g, &pool), serial);
    }
  }
}

TEST(CsdbTest, RowRangesCoverEveryRowOnceAndSplitByWork) {
  for (const auto& [name, g] : PooledBuildGraphs()) {
    SCOPED_TRACE(name);
    const CsdbMatrix m = CsdbMatrix::FromGraph(g);
    ThreadPool pool(8);
    std::mutex mu;
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    std::vector<int> seen(m.num_rows(), 0);
    ForEachRowRange(m, &pool, [&](size_t worker, uint32_t begin, uint32_t end) {
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_LT(worker, pool.size());
      ranges.emplace_back(begin, end);
      for (uint32_t r = begin; r < end; ++r) ++seen[r];
    });
    for (uint32_t r = 0; r < m.num_rows(); ++r) ASSERT_EQ(seen[r], 1) << "row " << r;
    if (name == "edgeless") {
      EXPECT_EQ(ranges.size(), 1u);
    } else {
      EXPECT_GT(ranges.size(), 1u);
    }
    if (name == "hub") {
      // The hub outweighs a whole range, so it is a range of its own.
      std::sort(ranges.begin(), ranges.end());
      EXPECT_EQ(ranges.front(), std::make_pair(0u, 1u));
    }
  }
  // A matrix with no rows runs its single empty range inline.
  ThreadPool pool(2);
  int calls = 0;
  ForEachRowRange(CsdbMatrix(), &pool, [&](size_t, uint32_t begin, uint32_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 0u);
  });
  EXPECT_EQ(calls, 1);
}

TEST(CsdbTest, DerivedMatricesShareStructure) {
  for (const auto& [name, g] : PooledBuildGraphs()) {
    SCOPED_TRACE(name);
    ThreadPool pool(4);
    const CsdbMatrix adjacency = CsdbMatrix::FromGraph(g, &pool);
    const std::vector<float> weights = adjacency.nnz_list();
    const CsdbMatrix target = embed::BuildTargetMatrix(adjacency, 1.0, &pool);
    const CsdbMatrix propagation = embed::BuildPropagationMatrix(adjacency, &pool);
    for (const CsdbMatrix* derived : {&target, &propagation}) {
      EXPECT_EQ(derived->col_list().data(), adjacency.col_list().data());
      EXPECT_EQ(derived->perm().data(), adjacency.perm().data());
    }
    // The adjacency's values are untouched.
    ExpectCsdbIdentical(adjacency, adjacency.WithValues(weights));

    // Built from a deep copy with its own structure, the derived matrices
    // hold the same bytes.
    std::vector<uint32_t> degrees;
    for (auto cur = adjacency.Rows(); !cur.AtEnd(); cur.Next()) {
      degrees.push_back(cur.degree());
    }
    const CsdbMatrix copy =
        CsdbMatrix::FromParts(adjacency.num_rows(), adjacency.num_cols(), degrees,
                              adjacency.col_list(), weights, adjacency.perm())
            .value();
    ASSERT_NE(copy.perm().data(), adjacency.perm().data());
    ExpectCsdbIdentical(embed::BuildTargetMatrix(copy, 1.0), target);
    ExpectCsdbIdentical(embed::BuildPropagationMatrix(copy), propagation);
  }
}

// ----- Oracle sweep: the sort-free builders against the comparison-sort ones.

// The comparison-sort CSDB build: a stable sort of the nodes by degree,
// then every row gathered through the relabeling and std::sort'ed as
// (column, weight) pairs.
CsdbMatrix OracleFromGraph(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](NodeId a, NodeId b) { return g.degree(a) > g.degree(b); });
  std::vector<NodeId> inverse(n);
  for (NodeId i = 0; i < n; ++i) inverse[order[i]] = i;
  std::vector<uint32_t> degrees(n);
  std::vector<NodeId> cols;
  std::vector<float> vals;
  std::vector<std::pair<NodeId, float>> row;
  for (NodeId i = 0; i < n; ++i) {
    const NodeId v = order[i];
    degrees[i] = g.degree(v);
    row.clear();
    for (uint32_t k = 0; k < g.degree(v); ++k) {
      row.emplace_back(inverse[g.neighbors(v)[k]], g.weights(v)[k]);
    }
    std::sort(row.begin(), row.end());
    for (const auto& [c, w] : row) {
      cols.push_back(c);
      vals.push_back(w);
    }
  }
  return CsdbMatrix::FromParts(n, n, degrees, std::move(cols), std::move(vals),
                               std::move(order))
      .value();
}

// The target matrix's per-entry expression, evaluated for every entry.
std::vector<float> OracleTargetValues(const CsdbMatrix& a, double neg_lambda) {
  const uint32_t n = a.num_rows();
  std::vector<double> clamped_degree(n);
  std::vector<double> sampling_weight(n);
  double pd_norm = 0.0;
  for (uint32_t r = 0; r < n; ++r) {
    const double degree = a.RowDegree(r);
    clamped_degree[r] = std::max(1.0, degree);
    sampling_weight[r] = std::pow(clamped_degree[r], 0.75);
    pd_norm += std::pow(degree, 0.75);
  }
  if (pd_norm <= 0.0) pd_norm = 1.0;
  std::vector<float> vals(a.nnz());
  for (auto cur = a.Rows(); !cur.AtEnd(); cur.Next()) {
    const double di = clamped_degree[cur.row()];
    const double wi = sampling_weight[cur.row()];
    for (uint64_t idx = cur.ptr(); idx < cur.ptr() + cur.degree(); ++idx) {
      const NodeId col = a.col_list()[idx];
      const double p =
          static_cast<double>(a.nnz_list()[idx]) / std::sqrt(di * clamped_degree[col]);
      const double pd = std::sqrt(wi * sampling_weight[col]) / pd_norm;
      const double val = std::log(std::max(p, 1e-12)) -
                         std::log(std::max(neg_lambda * pd, 1e-12));
      vals[idx] = static_cast<float>(std::max(val, 0.0));
    }
  }
  return vals;
}

// The propagation matrix as a copy of the adjacency normalized in place:
// a(r, c) /= sqrt(rs(r) * rs(c)) wherever that denominator is positive.
std::vector<float> OraclePropagationValues(const CsdbMatrix& a) {
  std::vector<double> sums(a.num_rows(), 0.0);
  for (auto cur = a.Rows(); !cur.AtEnd(); cur.Next()) {
    double s = 0.0;
    for (uint32_t k = 0; k < cur.degree(); ++k) s += a.nnz_list()[cur.ptr() + k];
    sums[cur.row()] = s;
  }
  std::vector<float> vals = a.nnz_list();
  for (auto cur = a.Rows(); !cur.AtEnd(); cur.Next()) {
    const double sr = sums[cur.row()];
    for (uint64_t idx = cur.ptr(); idx < cur.ptr() + cur.degree(); ++idx) {
      const double denom = std::sqrt(sr * sums[a.col_list()[idx]]);
      if (denom > 0.0) vals[idx] = static_cast<float>(vals[idx] / denom);
    }
  }
  return vals;
}

// Random edges between nodes drawn from [0, n), with weights from `weight`.
template <typename WeightFn>
std::vector<Edge> RandomEdges(Rng* rng, NodeId n, int count, WeightFn weight) {
  std::vector<Edge> edges;
  for (int e = 0; e < count; ++e) {
    const auto src = static_cast<NodeId>(rng->NextBounded(n));
    const auto dst = static_cast<NodeId>(rng->NextBounded(n));
    edges.push_back({src, dst, weight(e)});
  }
  return edges;
}

// Each graph is large enough (nnz + rows well above two row ranges) for the
// pooled builders to split it.
std::vector<std::pair<std::string, Graph>> OracleSweepGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  Rng rng(29);
  const auto unit = [](int) { return 1.0f; };

  // Directed, with (u, v) and (v, u) weighted differently.
  std::vector<Edge> directed = RandomEdges(&rng, 3000, 60000, [&](int) {
    return static_cast<float>(0.125 + rng.NextDouble());
  });
  graphs.emplace_back("directed", Graph::FromEdges(3000, directed, false).value());

  // Every edge three times with different weights: merged by summing.
  std::vector<Edge> dups;
  for (const Edge& e : RandomEdges(&rng, 4000, 20000, unit)) {
    for (const float w : {0.5f, 1.25f, 3.0f}) dups.push_back({e.src, e.dst, w});
  }
  graphs.emplace_back("duplicates", Graph::FromEdges(4000, dups).value());

  // One edge in four a self-loop, all of them dropped.
  std::vector<Edge> loops = RandomEdges(&rng, 2000, 40000, unit);
  for (size_t e = 0; e < loops.size(); e += 4) loops[e].dst = loops[e].src;
  graphs.emplace_back("self_loops", Graph::FromEdges(2000, loops).value());

  // Edges among the first 1000 of 50000 nodes; the rest are isolated.
  graphs.emplace_back("isolated",
                      Graph::FromEdges(50000, RandomEdges(&rng, 1000, 30000, unit)).value());

  // Hub rows of degree 600 and 2000 over a sparse background.
  std::vector<Edge> hubs = RandomEdges(&rng, 20000, 30000, unit);
  for (NodeId v = 1; v <= 600; ++v) hubs.push_back({0, v * 31, 2.0f});
  for (NodeId v = 1; v <= 2000; ++v) hubs.push_back({1, v * 7 + 3, 0.5f});
  graphs.emplace_back("hub", Graph::FromEdges(20000, hubs).value());

  // More than 2^16 nodes: long rows hold columns on both sides of 2^16, so
  // the third radix digit varies.
  const NodeId wide_n = (NodeId{1} << 16) + 4500;
  std::vector<Edge> wide = RandomEdges(&rng, wide_n, 150000, unit);
  for (NodeId v = 0; v < 300; ++v) {
    for (int k = 0; k < 100; ++k) {
      wide.push_back({v, static_cast<NodeId>(rng.NextBounded(wide_n)), 1.0f});
    }
  }
  graphs.emplace_back("wide", Graph::FromEdges(wide_n, wide).value());

  // Weights that vary along a row: -0.0f next to +0.0f, negatives (some
  // rows sum to zero or below, which the propagation matrix leaves as is)
  // and repeats.
  const float kWeights[] = {0.0f, -0.0f, 1.0f, -1.0f, 2.5f, 0.0f, -0.0f, 1e-30f};
  std::vector<Edge> signed_zero = RandomEdges(&rng, 3000, 60000, [&](int e) {
    return kWeights[e % 8];
  });
  graphs.emplace_back("signed_zero", Graph::FromEdges(3000, signed_zero, false).value());
  return graphs;
}

TEST(CsdbTest, SortFreeBuildersMatchComparisonSortOracles) {
  for (const auto& [name, g] : OracleSweepGraphs()) {
    SCOPED_TRACE(name);
    const CsdbMatrix oracle = OracleFromGraph(g);
    const std::vector<float> target = OracleTargetValues(oracle, 1.0);
    const std::vector<float> propagation = OraclePropagationValues(oracle);
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      const CsdbMatrix a = CsdbMatrix::FromGraph(g, &pool);
      ExpectCsdbIdentical(a, oracle);
      ExpectCsdbIdentical(embed::BuildTargetMatrix(a, 1.0, &pool),
                          oracle.WithValues(target));
      ExpectCsdbIdentical(embed::BuildPropagationMatrix(a, &pool),
                          oracle.WithValues(propagation));
    }
  }
}

TEST(CsdbTest, RowSorterMatchesComparisonSort) {
  // Distinct random 32-bit columns make every digit vary; the lengths cross
  // the insertion-sort cutoff. Columns sharing their low three bytes leave
  // only the top digit to sort on.
  Rng rng(31);
  RowSorter sorter;
  for (const uint32_t n : {0u, 1u, 2u, 31u, 32u, 33u, 100u, 257u, 5000u}) {
    for (const bool top_digit_only : {false, true}) {
      SCOPED_TRACE(testing::Message() << n << (top_digit_only ? " top" : ""));
      std::vector<std::pair<NodeId, float>> row;
      for (uint32_t k = 0; k < n; ++k) {
        const NodeId col = top_digit_only
                               ? (static_cast<NodeId>(k % 256) << 24) | 0x00ABCDEFu
                               : static_cast<NodeId>(rng.Next());
        row.emplace_back(col, static_cast<float>(rng.NextDouble()));
      }
      if (top_digit_only && n > 256) row.resize(256);
      std::sort(row.begin(), row.end());
      row.erase(std::unique(row.begin(), row.end(),
                            [](const auto& x, const auto& y) { return x.first == y.first; }),
                row.end());
      std::vector<std::pair<NodeId, float>> shuffled = row;
      for (size_t k = shuffled.size(); k > 1; --k) {
        std::swap(shuffled[k - 1], shuffled[rng.NextBounded(k)]);
      }
      std::vector<NodeId> cols;
      std::vector<float> vals;
      for (const auto& [c, w] : shuffled) {
        cols.push_back(c);
        vals.push_back(w);
      }
      sorter.Sort(cols.data(), vals.data(), static_cast<uint32_t>(cols.size()));
      ASSERT_EQ(cols.size(), row.size());
      for (size_t k = 0; k < row.size(); ++k) {
        ASSERT_EQ(cols[k], row[k].first) << "entry " << k;
        ASSERT_EQ(vals[k], row[k].second) << "entry " << k;
      }
    }
  }
}

}  // namespace
}  // namespace omega::graph
