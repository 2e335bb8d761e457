// Shared by the CSDB-building test suites: a byte-for-byte CsdbMatrix
// comparison and the graphs the pooled builders are checked on.

#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "graph/csdb.h"
#include "graph/graph.h"
#include "graph/rmat.h"

namespace omega::graph {

/// Expects `a` and `b` to hold the same bytes in every CSDB array.
inline void ExpectCsdbIdentical(const CsdbMatrix& a, const CsdbMatrix& b) {
  EXPECT_EQ(a.num_rows(), b.num_rows());
  EXPECT_EQ(a.num_cols(), b.num_cols());
  EXPECT_EQ(a.perm(), b.perm());
  EXPECT_EQ(a.deg_list(), b.deg_list());
  EXPECT_EQ(a.deg_ind(), b.deg_ind());
  EXPECT_EQ(a.block_ptr(), b.block_ptr());
  EXPECT_EQ(a.col_list(), b.col_list());
  ASSERT_EQ(a.nnz_list().size(), b.nnz_list().size());
  if (a.nnz_list().empty()) return;  // memcmp must not see null pointers
  EXPECT_EQ(0, std::memcmp(a.nnz_list().data(), b.nnz_list().data(),
                           a.nnz_list().size() * sizeof(float)));
}

/// Graphs whose row ranges split unevenly: skewed RMAT degrees, no edges at
/// all, a long isolated-node tail, one hub row heavier than a whole range,
/// and a directed graph with asymmetric weights.
inline std::vector<std::pair<std::string, Graph>> PooledBuildGraphs() {
  std::vector<std::pair<std::string, Graph>> graphs;
  RmatParams rmat;
  rmat.scale = 12;
  rmat.num_edges = 60000;
  graphs.emplace_back("rmat", GenerateRmat(rmat).value());
  graphs.emplace_back("edgeless", Graph::FromEdges(1, {}).value());

  std::vector<Edge> few;
  for (NodeId v = 1; v < 200; ++v) few.push_back({v - 1, v, 1.0f});
  graphs.emplace_back("isolated", Graph::FromEdges(40000, few).value());

  std::vector<Edge> star;
  for (NodeId v = 1; v < 100000; ++v) {
    star.push_back({0, v, 1.0f + static_cast<float>(v % 7)});
  }
  graphs.emplace_back("hub", Graph::FromEdges(100000, star).value());

  std::vector<Edge> directed;
  Rng rng(17);
  for (int e = 0; e < 80000; ++e) {
    const auto src = static_cast<NodeId>(rng.NextDouble() * 5000);
    const auto dst = static_cast<NodeId>(rng.NextDouble() * 5000);
    directed.push_back({src, dst, static_cast<float>(0.25 + rng.NextDouble())});
  }
  graphs.emplace_back("directed",
                      Graph::FromEdges(5000, directed, /*undirected=*/false).value());
  return graphs;
}

}  // namespace omega::graph
