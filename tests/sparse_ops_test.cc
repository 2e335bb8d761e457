// Unit tests for the CSDB operators (§III-A): scaling, normalization, SpMV,
// densification, CSR conversion, and the reference SpMM.

#include <gtest/gtest.h>

#include <cmath>

#include "embed/prone.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "sparse/csdb_ops.h"

namespace omega::sparse {
namespace {

using graph::CsdbMatrix;
using graph::Edge;
using graph::Graph;
using linalg::DenseMatrix;

Graph SmallGraph() {
  std::vector<Edge> edges = {{0, 1, 2.0f}, {0, 2, 1.0f}, {1, 2, 3.0f}, {2, 3, 1.0f}};
  return Graph::FromEdges(4, edges, true).value();
}

CsdbMatrix SmallMatrix() { return CsdbMatrix::FromGraph(SmallGraph()); }

TEST(CsdbOpsTest, ToDenseIsSymmetricForUndirectedGraph) {
  const CsdbMatrix m = SmallMatrix();
  const DenseMatrix d = ToDense(m);
  for (size_t i = 0; i < d.rows(); ++i) {
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_FLOAT_EQ(d.At(i, j), d.At(j, i));
    }
  }
}

TEST(CsdbOpsTest, ScaleValues) {
  CsdbMatrix m = SmallMatrix();
  const float before = m.nnz_list()[0];
  ScaleValues(&m, 2.0f);
  EXPECT_FLOAT_EQ(m.nnz_list()[0], 2.0f * before);
}

TEST(CsdbOpsTest, RowSumsAndRowNormalize) {
  CsdbMatrix m = SmallMatrix();
  const auto sums = RowSums(m);
  EXPECT_EQ(sums.size(), m.num_rows());
  RowNormalize(&m);
  const auto normalized_sums = RowSums(m);
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    if (sums[r] > 0) {
      EXPECT_NEAR(normalized_sums[r], 1.0, 1e-5);
    }
  }
}

TEST(CsdbOpsTest, PropagationMatrixKeepsSymmetry) {
  const CsdbMatrix m = embed::BuildPropagationMatrix(SmallMatrix());
  const DenseMatrix d = ToDense(m);
  for (size_t i = 0; i < d.rows(); ++i) {
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d.At(i, j), d.At(j, i), 1e-6);
    }
  }
  // Spectral radius of D^-1/2 A D^-1/2 is <= 1 (power-iteration estimate).
  std::vector<float> x(m.num_rows(), 1.0f);
  std::vector<float> y;
  double norm = 0.0;
  for (int it = 0; it < 60; ++it) {
    ASSERT_TRUE(SpMV(m, x, &y).ok());
    norm = 0.0;
    for (float v : y) norm += static_cast<double>(v) * v;
    norm = std::sqrt(norm);
    ASSERT_GT(norm, 0.0);
    for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(y[i] / norm);
  }
  EXPECT_LE(norm, 1.0 + 1e-3);
}

TEST(CsdbOpsTest, SpMVMatchesDense) {
  const CsdbMatrix m = SmallMatrix();
  const DenseMatrix d = ToDense(m);
  std::vector<float> x = {1.0f, 2.0f, 3.0f, 4.0f};
  std::vector<float> y;
  ASSERT_TRUE(SpMV(m, x, &y).ok());
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    float expect = 0.0f;
    for (uint32_t c = 0; c < 4; ++c) expect += d.At(r, c) * x[c];
    EXPECT_NEAR(y[r], expect, 1e-5);
  }
  std::vector<float> wrong(3, 1.0f);
  EXPECT_FALSE(SpMV(m, wrong, &y).ok());
}

TEST(CsdbOpsTest, ToCsrPreservesRowsAndValues) {
  const CsdbMatrix m = SmallMatrix();
  auto csr = ToCsr(m);
  ASSERT_TRUE(csr.ok());
  EXPECT_EQ(csr.value().nnz(), m.nnz());
  for (uint32_t r = 0; r < m.num_rows(); ++r) {
    EXPECT_EQ(csr.value().RowDegree(r), m.RowDegree(r));
    EXPECT_EQ(csr.value().RowBegin(r), m.RowPtr(r));
  }
  EXPECT_EQ(csr.value().col_idx(), m.col_list());
}

TEST(CsdbOpsTest, ReferenceSpmmMatchesDenseProduct) {
  graph::RmatParams params;
  params.scale = 8;
  params.num_edges = 2000;
  const Graph g = graph::GenerateRmat(params).value();
  const CsdbMatrix m = CsdbMatrix::FromGraph(g);
  const DenseMatrix b = linalg::GaussianMatrix(m.num_cols(), 5, 3);
  DenseMatrix c;
  ASSERT_TRUE(ReferenceSpmm(m, b, &c).ok());
  const DenseMatrix dm = ToDense(m);
  DenseMatrix expect(m.num_rows(), 5);
  for (size_t t = 0; t < 5; ++t) {
    for (size_t r = 0; r < m.num_rows(); ++r) {
      double acc = 0.0;
      for (size_t k = 0; k < m.num_cols(); ++k) {
        acc += static_cast<double>(dm.At(r, k)) * b.At(k, t);
      }
      expect.At(r, t) = static_cast<float>(acc);
    }
  }
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expect), 1e-2);
  DenseMatrix wrong;
  const DenseMatrix bad = linalg::GaussianMatrix(m.num_cols() + 1, 5, 3);
  EXPECT_FALSE(ReferenceSpmm(m, bad, &wrong).ok());
}

}  // namespace
}  // namespace omega::sparse
