// Unit tests for CSDB (§III-A) against the paper's worked example (Fig. 5):
// Deg_list = [4, 3, 2], Deg_ind = [0, 3, 5] (we append the end sentinels),
// Deg_ptr per Eq. 1, and the O(|degrees|) index-size claim.

#include <gtest/gtest.h>

#include <mutex>

#include "csdb_test_inputs.h"
#include "embed/prone.h"
#include "graph/csdb.h"
#include "graph/csr.h"
#include "graph/graph.h"
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

}  // namespace
}  // namespace omega::graph
