// Unit tests for the host SpMM kernels (sparse/spmm_kernels.h): the packed
// kernel over CSDB and CSR at slab and tail widths, zero-degree rows,
// single-row ranges, column slices, spans of every length,
// the Chebyshev epilogue, packed vs scalar oracle vs per-column oracle
// agreement, the fixed-reduction-order bit guarantees, the scanned charge
// metadata and in-degrees, and engine-level embedding determinism across
// host thread counts.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "chebyshev_row_passes.h"
#include "common/thread_pool.h"
#include "embed/chebyshev.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "omega/engine.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"
#include "sparse/spmm_kernels.h"
#include "sparse/spmm_plan.h"

namespace omega::sparse {
namespace {

using graph::CsdbMatrix;
using graph::CsrMatrix;
using graph::Graph;
using linalg::DenseMatrix;

// Tail coverage: below / at / above one vector, plus the bench width.
const size_t kWidths[] = {1, 7, 8, 9, 128};

// Below, at and above one vector; ASL's 20-column partitions; the 32/40
// ProNE widths; one full slab, one slab plus a column, two slabs.
const size_t kPackedWidths[] = {1, 4, 7, 8, 9, 20, 32, 40, 64, 65, 128};

// Bit-for-bit equality (MaxAbsDiff would accept -0 == +0).
bool BitsEqual(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

// Packs B[:, col_begin:col_end) in two row halves (as pool workers would) and
// runs the packed kernel over rows [row_begin, row_end).
void PackedSpmm(const CsdbMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                uint32_t row_begin, uint32_t row_end, size_t col_begin,
                size_t col_end) {
  kernels::PackedOperand packed;
  packed.Reshape(b.rows(), col_begin, col_end);
  const size_t half = b.rows() / 2;
  kernels::PackRows(b, 0, half, &packed);
  kernels::PackRows(b, half, b.rows(), &packed);
  kernels::CsdbPackedSpmm(a, packed, c, row_begin, row_end);
}

// The CSR flavour: packs the whole width once and runs rows [row_begin,
// row_end).
void PackedSpmm(const CsrMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                uint32_t row_begin, uint32_t row_end) {
  kernels::PackedOperand packed;
  PackDense(b, nullptr, &packed);
  kernels::CsrPackedSpmm(a, packed, c, row_begin, row_end);
}

class SpmmKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 9;
    params.num_edges = 4000;
    graph_ = std::make_unique<Graph>(graph::GenerateRmat(params).value());
    a_ = CsdbMatrix::FromGraph(*graph_);
    csr_ = ToCsr(a_).value();
  }

  DenseMatrix Dense(size_t d) const {
    return linalg::GaussianMatrix(a_.num_cols(), d, 101 + static_cast<int>(d));
  }

  DenseMatrix Oracle(const DenseMatrix& b) const {
    sched::Workload w;
    w.ranges.push_back(sched::RowRange{0, a_.num_rows()});
    DenseMatrix c(a_.num_rows(), b.cols());
    ComputeWorkloadCsdbPerColumn(a_, b, &c, w);
    return c;
  }

  std::unique_ptr<Graph> graph_;
  CsdbMatrix a_;
  CsrMatrix csr_;
};

TEST_F(SpmmKernelsTest, CsdbPackedMatchesOracleAtEveryTailWidth) {
  for (size_t d : kWidths) {
    const DenseMatrix b = Dense(d);
    const DenseMatrix expected = Oracle(b);
    DenseMatrix c(a_.num_rows(), d);
    PackedSpmm(a_, b, &c, 0, a_.num_rows(), 0, d);
    // The packed kernel may fuse its multiply-adds (one rounding per nonzero
    // where the oracle takes two), so agreement is tight but not bitwise.
    EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-4) << "d=" << d;
  }
}

TEST_F(SpmmKernelsTest, CsrPanelMatchesOracleAtEveryTailWidth) {
  for (size_t d : kWidths) {
    const DenseMatrix b = Dense(d);
    DenseMatrix expected(a_.num_rows(), d);
    ComputeWorkloadCsrPerColumn(csr_, b, &expected, 0, csr_.num_rows());
    DenseMatrix c(a_.num_rows(), d);
    PackedSpmm(csr_, b, &c, 0, csr_.num_rows());
    EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-4) << "d=" << d;
  }
}

// The TU-wide rounding policy (explicit FMA everywhere or nowhere) makes the
// packed slabs land on the scalar oracles' bits for both formats, which is
// what the SIMD-vs-scalar CI matrix relies on within one build.
TEST_F(SpmmKernelsTest, PackedAndSimdPanelsMatchScalarBitForBit) {
  for (size_t d : kPackedWidths) {
    const DenseMatrix b = Dense(d);
    DenseMatrix packed(a_.num_rows(), d);
    DenseMatrix scalar(a_.num_rows(), d);
    PackedSpmm(a_, b, &packed, 0, a_.num_rows(), 0, d);
    kernels::CsdbPanelSpmmScalar(a_, b, &scalar, 0, a_.num_rows(), 0, d);
    EXPECT_TRUE(BitsEqual(packed, scalar)) << "csdb d=" << d;

    DenseMatrix csr_packed(a_.num_rows(), d);
    DenseMatrix csr_scalar(a_.num_rows(), d);
    PackedSpmm(csr_, b, &csr_packed, 0, csr_.num_rows());
    kernels::CsrPanelSpmmScalar(csr_, b, &csr_scalar, 0, csr_.num_rows(), 0, d);
    EXPECT_TRUE(BitsEqual(csr_packed, csr_scalar)) << "csr d=" << d;
  }
}

// NaDP/ASL slice the column range at thread-dependent boundaries; an element
// must not care which slice computed it.
TEST_F(SpmmKernelsTest, ColumnRangeSlicingIsBitIdentical) {
  const size_t d = 19;
  const DenseMatrix b = Dense(d);
  DenseMatrix whole(a_.num_rows(), d);
  PackedSpmm(a_, b, &whole, 0, a_.num_rows(), 0, d);

  DenseMatrix sliced(a_.num_rows(), d);
  const size_t cuts[] = {0, 3, 11, 12, d};
  for (size_t i = 0; i + 1 < std::size(cuts); ++i) {
    PackedSpmm(a_, b, &sliced, 0, a_.num_rows(), cuts[i], cuts[i + 1]);
  }
  EXPECT_TRUE(BitsEqual(whole, sliced));
}

TEST_F(SpmmKernelsTest, PackedColumnSlicesMatchTheWholeWidth) {
  const size_t d = 40;
  const DenseMatrix b = Dense(d);
  DenseMatrix whole(a_.num_rows(), d);
  kernels::CsdbPanelSpmmScalar(a_, b, &whole, 0, a_.num_rows(), 0, d);
  // ASL's two 20-column partitions, NaDP-style socket blocks, ragged cuts.
  const std::vector<std::vector<size_t>> cut_sets = {
      {0, 20, 40}, {0, 10, 20, 30, 40}, {0, 3, 11, 12, 19, 33, 40}};
  for (const auto& cuts : cut_sets) {
    DenseMatrix sliced(a_.num_rows(), d);
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      PackedSpmm(a_, b, &sliced, 0, a_.num_rows(), cuts[i], cuts[i + 1]);
    }
    EXPECT_TRUE(BitsEqual(sliced, whole)) << "cuts=" << cuts.size();
  }
  // Row ranges split at arbitrary points land on the same bits too.
  DenseMatrix by_rows(a_.num_rows(), d);
  const uint32_t n = a_.num_rows();
  const uint32_t row_cuts[] = {0, 1, 7, n / 3, n - 1, n};
  for (size_t i = 0; i + 1 < std::size(row_cuts); ++i) {
    PackedSpmm(a_, b, &by_rows, row_cuts[i], row_cuts[i + 1], 0, d);
  }
  EXPECT_TRUE(BitsEqual(by_rows, whole));
}

TEST_F(SpmmKernelsTest, SingleRowRangesReproduceTheFullResult) {
  const size_t d = 9;
  const DenseMatrix b = Dense(d);
  DenseMatrix expected(a_.num_rows(), d);
  PackedSpmm(a_, b, &expected, 0, a_.num_rows(), 0, d);
  // Per-row invocations must land on the same bits as the full range: each
  // element's reduction order is a property of its row, not of the slicing.
  kernels::PackedOperand packed;
  PackDense(b, nullptr, &packed);
  DenseMatrix c(a_.num_rows(), d);
  for (uint32_t r = 0; r < a_.num_rows(); ++r) {
    kernels::CsdbPackedSpmm(a_, packed, &c, r, r + 1);
  }
  EXPECT_TRUE(BitsEqual(c, expected));
}

TEST_F(SpmmKernelsTest, ZeroDegreeRowsAreWrittenAsZero) {
  // Trailing degree-0 block: 3 connected rows + 2 isolated ones.
  const std::vector<uint32_t> degrees = {3, 2, 2, 0, 0};
  const std::vector<graph::NodeId> cols = {0, 1, 4, 2, 3, 0, 2};
  const std::vector<float> vals = {1.f, 2.f, 3.f, 4.f, 5.f, 6.f, 7.f};
  const CsdbMatrix m =
      CsdbMatrix::FromParts(5, 5, degrees, cols, vals).value();
  const DenseMatrix b = linalg::GaussianMatrix(5, 9, 3);
  for (size_t col_end : {size_t{8}, size_t{9}}) {  // whole vector and tail
    DenseMatrix c(5, 9);
    c.Fill(123.0f);  // the kernel must overwrite, not accumulate
    PackedSpmm(m, b, &c, 0, 5, 0, col_end);
    sched::Workload w;
    w.ranges.push_back(sched::RowRange{0, 5});
    DenseMatrix expected(5, 9);
    expected.Fill(123.0f);
    ComputeWorkloadCsdbPerColumn(m, b, &expected, w, 0, col_end);
    EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected), 1e-6);
    for (uint32_t r = 3; r < 5; ++r) {
      for (size_t t = 0; t < col_end; ++t) {
        EXPECT_EQ(c.At(r, t), 0.0f) << "row " << r << " col " << t;
      }
    }
  }
  // A ragged column range inside a wider B: bit-equal to the scalar panels,
  // and columns outside the range are left alone.
  const DenseMatrix wide = linalg::GaussianMatrix(5, 20, 3);
  DenseMatrix c(5, 20);
  c.Fill(123.0f);
  PackedSpmm(m, wide, &c, 0, 5, 2, 13);
  DenseMatrix expected(5, 20);
  expected.Fill(123.0f);
  kernels::CsdbPanelSpmmScalar(m, wide, &expected, 0, 5, 2, 13);
  EXPECT_TRUE(BitsEqual(c, expected));
  for (uint32_t r = 3; r < 5; ++r) {
    for (size_t t = 2; t < 13; ++t) {
      EXPECT_EQ(c.At(r, t), 0.0f) << "row " << r << " col " << t;
    }
  }
  EXPECT_EQ(c.At(0, 1), 123.0f);
  EXPECT_EQ(c.At(0, 13), 123.0f);
}

// CSR rows go through the packed slab loop one row per span, so a row's bits
// must not depend on which call computed it: zero-degree rows (leading,
// interior and trailing) come out as +0, and row halves or single rows
// reproduce the whole-matrix result and the scalar oracle.
TEST_F(SpmmKernelsTest, CsrPackedRowSlicesAndEmptyRowsMatchTheWholeMatrix) {
  // Rows 0, 3, 5 and 6 are empty.
  const std::vector<uint64_t> row_ptr = {0, 0, 3, 5, 5, 7, 7, 7};
  const std::vector<graph::NodeId> cols = {0, 1, 4, 2, 6, 0, 2};
  const std::vector<float> vals = {1.f, -2.f, 3.f, 4.f, 5.f, 6.f, 7.f};
  const CsrMatrix m = CsrMatrix::FromParts(7, 7, row_ptr, cols, vals).value();
  for (size_t d : kPackedWidths) {
    const DenseMatrix b = linalg::GaussianMatrix(7, d, 5);
    DenseMatrix whole(7, d);
    whole.Fill(123.0f);  // the kernel must overwrite, not accumulate
    PackedSpmm(m, b, &whole, 0, 7);
    DenseMatrix oracle(7, d);
    kernels::CsrPanelSpmmScalar(m, b, &oracle, 0, 7, 0, d);
    EXPECT_TRUE(BitsEqual(whole, oracle)) << "d=" << d;
    for (uint32_t r : {0u, 3u, 5u, 6u}) {
      for (size_t t = 0; t < d; ++t) {
        const float got = whole.At(r, t);
        EXPECT_TRUE(got == 0.0f && !std::signbit(got))
            << "d=" << d << " row " << r << " col " << t;
      }
    }
    kernels::PackedOperand packed;
    PackDense(b, nullptr, &packed);
    DenseMatrix halves(7, d);
    kernels::CsrPackedSpmm(m, packed, &halves, 0, 3);
    kernels::CsrPackedSpmm(m, packed, &halves, 3, 7);
    EXPECT_TRUE(BitsEqual(halves, whole)) << "d=" << d;
    DenseMatrix rows(7, d);
    for (uint32_t r = 0; r < 7; ++r) {
      kernels::CsrPackedSpmm(m, packed, &rows, r, r + 1);
    }
    EXPECT_TRUE(BitsEqual(rows, whole)) << "d=" << d;
  }
  // The same on the R-MAT matrix, which has zero-degree rows of its own.
  uint32_t empty_rows = 0;
  for (uint32_t r = 0; r < csr_.num_rows(); ++r) {
    empty_rows += csr_.RowDegree(r) == 0 ? 1 : 0;
  }
  ASSERT_GT(empty_rows, 0u);
  const size_t d = 40;
  const DenseMatrix b = Dense(d);
  DenseMatrix whole(a_.num_rows(), d);
  PackedSpmm(csr_, b, &whole, 0, csr_.num_rows());
  kernels::PackedOperand packed;
  PackDense(b, nullptr, &packed);
  const uint32_t n = csr_.num_rows();
  DenseMatrix halves(n, d);
  kernels::CsrPackedSpmm(csr_, packed, &halves, 0, n / 2);
  kernels::CsrPackedSpmm(csr_, packed, &halves, n / 2, n);
  EXPECT_TRUE(BitsEqual(halves, whole));
  DenseMatrix rows(n, d);
  for (uint32_t r = 0; r < n; ++r) {
    kernels::CsrPackedSpmm(csr_, packed, &rows, r, r + 1);
  }
  EXPECT_TRUE(BitsEqual(rows, whole));
}

// Degree blocks of 1, 2, 3, 1, 4 and 3 rows, the last of degree 0: spans of
// odd and even length, and a span of zero-degree rows. Columns repeat within
// a row and ascend, weights are distinct.
CsdbMatrix SpanMatrix() {
  const std::vector<uint32_t> degrees = {5, 4, 4, 3, 3, 3, 2, 1, 1, 1, 1, 0, 0, 0};
  std::vector<graph::NodeId> cols;
  std::vector<float> vals;
  for (size_t r = 0; r < degrees.size(); ++r) {
    for (uint32_t k = 0; k < degrees[r]; ++k) {
      cols.push_back(static_cast<graph::NodeId>((3 * r + 5 * k) % degrees.size()));
      vals.push_back(0.25f * static_cast<float>(r + 1) - 0.5f * static_cast<float>(k));
    }
  }
  return CsdbMatrix::FromParts(static_cast<uint32_t>(degrees.size()),
                               static_cast<uint32_t>(degrees.size()), degrees, cols,
                               vals)
      .value();
}

// Every width 1..72 (full vectors, masked tails, one slab plus a ragged
// second), every row range of the span matrix (starting and ending mid-span),
// and the R-MAT matrix at ragged row cuts: memcmp against the scalar oracles.
TEST_F(SpmmKernelsTest, SpansMatchScalarOracleOverEveryLengthAndRange) {
  const CsdbMatrix m = SpanMatrix();
  const CsrMatrix m_csr = ToCsr(m).value();
  const uint32_t rows = m.num_rows();
  const uint32_t n = a_.num_rows();
  const uint32_t row_cuts[] = {0, 1, 2, 5, n / 3, n / 3 + 1, n - 3, n};
  for (size_t d = 1; d <= 72; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const DenseMatrix b = linalg::GaussianMatrix(rows, d, 7);
    kernels::PackedOperand packed;
    PackDense(b, nullptr, &packed);
    for (uint32_t begin = 0; begin < rows; ++begin) {
      for (uint32_t end = begin + 1; end <= rows; ++end) {
        DenseMatrix got(rows, d);
        DenseMatrix expected(rows, d);
        kernels::CsdbPackedSpmm(m, packed, &got, begin, end);
        kernels::CsdbPanelSpmmScalar(m, b, &expected, begin, end, 0, d);
        ASSERT_TRUE(BitsEqual(got, expected)) << "rows [" << begin << ", " << end << ")";
        kernels::CsrPackedSpmm(m_csr, packed, &got, begin, end);
        kernels::CsrPanelSpmmScalar(m_csr, b, &expected, begin, end, 0, d);
        ASSERT_TRUE(BitsEqual(got, expected)) << "csr rows [" << begin << ", " << end << ")";
      }
    }
    const DenseMatrix wide = Dense(d);
    kernels::PackedOperand wide_packed;
    PackDense(wide, nullptr, &wide_packed);
    DenseMatrix got(n, d);
    DenseMatrix expected(n, d);
    for (size_t i = 0; i + 1 < std::size(row_cuts); ++i) {
      kernels::CsdbPackedSpmm(a_, wide_packed, &got, row_cuts[i], row_cuts[i + 1]);
    }
    kernels::CsdbPanelSpmmScalar(a_, wide, &expected, 0, n, 0, d);
    EXPECT_TRUE(BitsEqual(got, expected));
  }
}

// The packed Chebyshev term against the recurrence's separate passes: the
// scalar-oracle SpMM, then embed::ChebyshevTermRows and
// ChebyshevAccumulateRows. Terms 1 and 3, both formats, every width 1..72,
// rows split mid-span and columns cut as ASL partitions cut them, with T_k
// written over T_{k-2} (training) and apart from it (the refresh, which
// must leave T_{k-2} as it was).
TEST_F(SpmmKernelsTest, ChebyshevEpilogueMatchesRowPassesBitForBit) {
  const uint32_t n = a_.num_rows();
  const uint32_t row_cuts[] = {0, 3, n / 2 + 1, n};
  const float c0 = -0.625f;
  const float ck = 0.375f;
  for (size_t d = 1; d <= 72; ++d) {
    SCOPED_TRACE("d=" + std::to_string(d));
    const DenseMatrix prev = Dense(d);  // T_{k-1}, the gather source
    const DenseMatrix t_km2 = linalg::GaussianMatrix(n, d, 11);
    const DenseMatrix sum_in = linalg::GaussianMatrix(n, d, 13);
    DenseMatrix st(n, d);
    kernels::CsdbPanelSpmmScalar(a_, prev, &st, 0, n, 0, d);
    const size_t col_cuts[] = {0, d / 3, d};
    for (const size_t k : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE("term " + std::to_string(k));
      DenseMatrix t_expected(n, d);
      DenseMatrix sum_expected = sum_in;
      embed::ChebyshevTermRows(k, st, &t_km2, &t_expected, 0, n);
      if (k == 1) embed::ChebyshevAccumulateRows(0, c0, prev, &sum_expected, 0, n);
      embed::ChebyshevAccumulateRows(k, ck, t_expected, &sum_expected, 0, n);
      for (const bool csr : {false, true}) {
        for (const bool apart : {false, true}) {
          SCOPED_TRACE(std::string(csr ? "csr" : "csdb") +
                       (apart ? ", T_k apart from T_{k-2}" : ", T_k over T_{k-2}"));
          kernels::PackedOperand source;
          kernels::PackedOperand km2;
          kernels::PackedOperand apart_t;
          kernels::PackedOperand sum;
          PackDense(prev, nullptr, &source);
          PackDense(t_km2, nullptr, &km2);
          PackDense(sum_in, nullptr, &sum);
          DenseMatrix junk(n, d);
          junk.Fill(std::nanf(""));
          PackDense(junk, nullptr, &apart_t);
          kernels::PackedOperand& t = apart ? apart_t : km2;
          const kernels::ChebyshevEpilogue step{k, ck, c0, &km2, &t, &sum};
          for (size_t i = 0; i + 1 < std::size(row_cuts); ++i) {
            for (size_t j = 0; j + 1 < std::size(col_cuts); ++j) {
              if (csr) {
                kernels::CsrPackedSpmm(csr_, source, step, row_cuts[i],
                                       row_cuts[i + 1], col_cuts[j], col_cuts[j + 1]);
              } else {
                kernels::CsdbPackedSpmm(a_, source, step, row_cuts[i],
                                        row_cuts[i + 1], col_cuts[j], col_cuts[j + 1]);
              }
            }
          }
          DenseMatrix t_got;
          DenseMatrix sum_got;
          UnpackDense(t, nullptr, &t_got);
          UnpackDense(sum, nullptr, &sum_got);
          EXPECT_TRUE(BitsEqual(t_got, t_expected));
          EXPECT_TRUE(BitsEqual(sum_got, sum_expected));
          if (apart) {
            DenseMatrix km2_after;
            UnpackDense(km2, nullptr, &km2_after);
            EXPECT_TRUE(BitsEqual(km2_after, t_km2));
          }
        }
      }
    }
  }
}

TEST_F(SpmmKernelsTest, PooledInDegreesMatchSerial) {
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 60000;
  const CsdbMatrix m = CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  ASSERT_GE(m.nnz(), uint64_t{1} << 16);  // large enough to split
  const std::vector<uint32_t> serial = ComputeInDegrees(m);
  uint64_t total = 0;
  for (uint32_t v : serial) total += v;
  EXPECT_EQ(total, m.nnz());
  for (const size_t threads : {2, 3, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(ComputeInDegrees(m, &pool), serial) << threads << " threads";
  }
}

TEST_F(SpmmKernelsTest, EmptyAndClampedRangesAreSafe) {
  const size_t d = 8;
  const DenseMatrix b = Dense(d);
  DenseMatrix c(a_.num_rows(), d);
  // Empty row range, empty column range, row range past the end.
  PackedSpmm(a_, b, &c, 5, 5, 0, d);
  PackedSpmm(a_, b, &c, 0, a_.num_rows(), 3, 3);
  PackedSpmm(a_, b, &c, a_.num_rows(), a_.num_rows() + 10, 0, d);
  EXPECT_TRUE(BitsEqual(c, DenseMatrix(a_.num_rows(), d)));
  // PackDense clamps: an inverted range packs nothing, one past B's width
  // packs up to its last column.
  kernels::PackedOperand clamped;
  PackDense(b, nullptr, &clamped, 6, 2);
  EXPECT_EQ(clamped.width(), 0u);
  PackDense(b, nullptr, &clamped, 5, 1000);
  EXPECT_EQ(clamped.col_begin(), 5u);
  EXPECT_EQ(clamped.col_end(), d);
  kernels::CsdbPackedSpmm(a_, clamped, &c, 0, a_.num_rows());
  DenseMatrix expected(a_.num_rows(), d);
  kernels::CsdbPanelSpmmScalar(a_, b, &expected, 0, a_.num_rows(), 5, d);
  EXPECT_TRUE(BitsEqual(c, expected));
}

// The plan-scanned WoFP hit count must equal a per-element Contains count
// over the same built prefetcher, for every workload of the allocation.
TEST_F(SpmmKernelsTest, ChargeMetaCountsCacheHits) {
  auto ms = memsim::MemorySystem::CreateDefault();
  sched::AllocatorOptions opts;
  opts.num_threads = 4;
  const auto workloads =
      sched::Allocate(a_, sched::AllocatorKind::kEntropyAware, opts);
  const std::vector<uint32_t> in_degrees = ComputeInDegrees(a_);
  uint64_t total_hits = 0;
  for (const sched::Workload& w : workloads) {
    const auto cache = prefetch::WofpPrefetcher::Build(
        a_, w, in_degrees, prefetch::WofpOptions{}, ms.get(), nullptr);
    uint64_t hits = 0;
    uint64_t nnz = 0;
    for (const sched::RowRange& range : w.ranges) {
      for (uint32_t r = range.begin; r < range.end; ++r) {
        for (uint64_t k = a_.RowPtr(r); k < a_.RowPtr(r) + a_.RowDegree(r);
             ++k) {
          hits += cache->Contains(a_.col_list()[k]) ? 1 : 0;
          ++nnz;
        }
      }
    }
    const CsdbChargeMeta meta = ScanChargeMetaCsdb(a_, w, cache.get());
    EXPECT_EQ(meta.cache_hits, hits);
    EXPECT_EQ(meta.nnz, nnz);
    EXPECT_EQ(ScanChargeMetaCsdb(a_, w).cache_hits, 0u);
    total_hits += hits;
  }
  EXPECT_GT(total_hits, 0u);
}

// End-to-end: the engine's embedding (the packed kernel under NaDP/WoFP
// column slicing) must not change a single bit with the host thread count.
TEST(SpmmKernelsEngineTest, EmbeddingBitIdenticalAcrossThreadCounts) {
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 8000;
  params.seed = 11;
  const Graph g = graph::GenerateRmat(params).value();

  linalg::DenseMatrix reference;
  for (int threads : {1, 2, 8}) {
    auto ms = memsim::MemorySystem::CreateDefault();
    ThreadPool pool(threads);
    engine::EngineOptions opts;
    opts.system = engine::SystemKind::kOmega;
    opts.num_threads = threads;
    opts.prone.dim = 8;
    opts.prone.oversample = 4;
    opts.prone.chebyshev_order = 4;
    auto report =
        engine::RunEmbedding(g, "det", opts, exec::Context(ms.get(), &pool));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (threads == 1) {
      reference = report.value().embedding;
      continue;
    }
    EXPECT_EQ(
        DenseMatrix::MaxAbsDiff(reference, report.value().embedding), 0.0)
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace omega::sparse
