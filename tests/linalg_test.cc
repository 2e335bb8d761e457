// Unit tests for the dense linear algebra stack: matrix ops, GEMM variants,
// Householder QR, Jacobi eigendecomposition, and the randomized tSVD.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/md5.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"
#include "linalg/eigen.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/randomized_svd.h"

namespace omega::linalg {
namespace {

TEST(DenseMatrixTest, ColumnMajorLayout) {
  DenseMatrix m(3, 2);
  m.At(0, 0) = 1;
  m.At(2, 1) = 5;
  EXPECT_EQ(m.data()[0], 1);
  EXPECT_EQ(m.data()[5], 5);  // col 1, row 2 => index 1*3+2
  EXPECT_EQ(m.ColData(1)[2], 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(m.bytes(), 24u);
}

TEST(DenseMatrixTest, AddScaledAndScale) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  a.Fill(1.0f);
  b.Fill(2.0f);
  ASSERT_TRUE(a.AddScaled(b, 0.5f).ok());
  EXPECT_FLOAT_EQ(a.At(1, 1), 2.0f);
  a.Scale(2.0f);
  EXPECT_FLOAT_EQ(a.At(0, 0), 4.0f);
  DenseMatrix wrong(3, 2);
  EXPECT_FALSE(a.AddScaled(wrong, 1.0f).ok());
}

TEST(DenseMatrixTest, FrobeniusNorm) {
  DenseMatrix m(2, 2);
  m.At(0, 0) = 3;
  m.At(1, 1) = 4;
  EXPECT_NEAR(m.FrobeniusNorm(), 5.0, 1e-9);
}

TEST(DenseMatrixTest, SliceColsAndTranspose) {
  DenseMatrix m(2, 3);
  for (size_t c = 0; c < 3; ++c)
    for (size_t r = 0; r < 2; ++r) m.At(r, c) = static_cast<float>(10 * r + c);
  const DenseMatrix slice = m.SliceCols(1, 3);
  EXPECT_EQ(slice.cols(), 2u);
  EXPECT_FLOAT_EQ(slice.At(1, 0), 11.0f);
  const DenseMatrix t = m.Transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_FLOAT_EQ(t.At(2, 1), m.At(1, 2));
}

TEST(DenseMatrixTest, MaxAbsDiff) {
  DenseMatrix a(2, 2);
  DenseMatrix b(2, 2);
  b.At(1, 0) = 0.25f;
  EXPECT_NEAR(DenseMatrix::MaxAbsDiff(a, b), 0.25, 1e-9);
  DenseMatrix c(3, 2);
  EXPECT_TRUE(std::isinf(DenseMatrix::MaxAbsDiff(a, c)));
}

TEST(GemmTest, MatchesHandComputedProduct) {
  DenseMatrix a(2, 3);
  DenseMatrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  const float av[] = {1, 2, 3, 4, 5, 6};
  const float bv[] = {7, 8, 9, 10, 11, 12};
  for (size_t r = 0; r < 2; ++r)
    for (size_t c = 0; c < 3; ++c) a.At(r, c) = av[r * 3 + c];
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 2; ++c) b.At(r, c) = bv[r * 2 + c];
  DenseMatrix c;
  ASSERT_TRUE(Gemm(a, b, &c).ok());
  EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
  EXPECT_FALSE(Gemm(a, a, &c).ok());  // inner dim mismatch
}

TEST(GemmTest, TransposedVariantsAgreeWithExplicitTranspose) {
  const DenseMatrix a = GaussianMatrix(7, 4, 1);
  const DenseMatrix b = GaussianMatrix(7, 5, 2);
  DenseMatrix at_b;
  ASSERT_TRUE(GemmTransA(a, b, &at_b).ok());
  DenseMatrix reference;
  ASSERT_TRUE(Gemm(a.Transposed(), b, &reference).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(at_b, reference), 1e-4);

  const DenseMatrix c = GaussianMatrix(6, 4, 3);
  DenseMatrix a_ct;
  ASSERT_TRUE(GemmTransB(a, c, &a_ct).ok());
  DenseMatrix reference2;
  ASSERT_TRUE(Gemm(a, c.Transposed(), &reference2).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(a_ct, reference2), 1e-4);
}

// The blocked kernel must agree with the scalar reference bit-for-bit (same
// ascending-k reduction chain) on shapes that exercise partial tiles.
TEST(GemmTest, BlockedMatchesNaiveOnAwkwardShapes) {
  struct Shape {
    size_t m, k, n;
  };
  const Shape shapes[] = {
      {1, 1, 1},       // single element
      {129, 67, 33},   // prime-ish, none a tile multiple
      {1000, 3, 5},    // tall-skinny
      {63, 200, 2},    // k spans > 1 k-block, partial row tile
      {64, 128, 8},    // exact tile/block multiples
  };
  for (const Shape& s : shapes) {
    const DenseMatrix a = GaussianMatrix(s.m, s.k, 11);
    const DenseMatrix b = GaussianMatrix(s.k, s.n, 12);
    DenseMatrix blocked;
    DenseMatrix naive;
    ASSERT_TRUE(Gemm(a, b, &blocked).ok());
    ASSERT_TRUE(GemmNaive(a, b, &naive).ok());
    EXPECT_EQ(DenseMatrix::MaxAbsDiff(blocked, naive), 0.0)
        << s.m << "x" << s.k << "x" << s.n;
  }
}

TEST(GemmTest, HandlesEmptyInnerDimension) {
  // k = 0: the product is defined and all-zero.
  const DenseMatrix a(4, 0);
  const DenseMatrix b(0, 3);
  DenseMatrix c;
  ASSERT_TRUE(Gemm(a, b, &c).ok());
  ASSERT_EQ(c.rows(), 4u);
  ASSERT_EQ(c.cols(), 3u);
  for (size_t j = 0; j < 3; ++j) {
    for (size_t i = 0; i < 4; ++i) EXPECT_EQ(c.At(i, j), 0.0f);
  }
}

// Regression: writing the output used to destroy an aliased input operand
// (*c = DenseMatrix(...) frees the storage `a` still points to).
TEST(GemmTest, InPlaceOutputAliasingIsSafe) {
  const DenseMatrix a0 = GaussianMatrix(9, 9, 21);
  const DenseMatrix b0 = GaussianMatrix(9, 9, 22);
  DenseMatrix expected;
  ASSERT_TRUE(Gemm(a0, b0, &expected).ok());

  DenseMatrix a = a0;
  ASSERT_TRUE(Gemm(a, b0, &a).ok());  // c aliases a
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(a, expected), 0.0);

  DenseMatrix b = b0;
  ASSERT_TRUE(Gemm(a0, b, &b).ok());  // c aliases b
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(b, expected), 0.0);

  DenseMatrix expected_ata;
  ASSERT_TRUE(GemmTransA(a0, a0, &expected_ata).ok());
  DenseMatrix self = a0;
  ASSERT_TRUE(GemmTransA(self, self, &self).ok());  // c aliases both operands
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(self, expected_ata), 0.0);

  DenseMatrix expected_abt;
  ASSERT_TRUE(GemmTransB(a0, b0, &expected_abt).ok());
  DenseMatrix ab = a0;
  ASSERT_TRUE(GemmTransB(ab, b0, &ab).ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(ab, expected_abt), 0.0);
}

// Host-side parallelism must not change a single output bit (fixed-order
// per-element reductions; see gemm.h).
TEST(GemmTest, PooledResultsBitIdenticalToSerial) {
  ThreadPool pool(8);
  const DenseMatrix a = GaussianMatrix(300, 70, 31);
  const DenseMatrix b = GaussianMatrix(70, 40, 32);
  DenseMatrix serial;
  DenseMatrix pooled;
  ASSERT_TRUE(Gemm(a, b, &serial).ok());
  ASSERT_TRUE(Gemm(a, b, &pooled, &pool).ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial, pooled), 0.0);

  const DenseMatrix tall = GaussianMatrix(300, 40, 33);
  DenseMatrix serial_t;
  DenseMatrix pooled_t;
  ASSERT_TRUE(GemmTransA(a, tall, &serial_t).ok());
  ASSERT_TRUE(GemmTransA(a, tall, &pooled_t, &pool).ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial_t, pooled_t), 0.0);

  const DenseMatrix wide = GaussianMatrix(40, 70, 34);
  DenseMatrix serial_b;
  DenseMatrix pooled_b;
  ASSERT_TRUE(GemmTransB(a, wide, &serial_b).ok());
  ASSERT_TRUE(GemmTransB(a, wide, &pooled_b, &pool).ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial_b, pooled_b), 0.0);
}

// GemmTransA(a, a) computes each element on or above the diagonal once and
// mirrors it. Its bytes must be those of the general kernel on a copy of `a`
// (a different object, so the general path runs), serially and on pools
// whose split of the triangle's tiles cuts through columns; aliasing the
// output with `a` must not change them.
TEST(GemmTest, GramProductMatchesGeneralTransA) {
  for (const size_t m : {1, 3, 4, 5, 8, 40, 41}) {
    SCOPED_TRACE(m);
    const DenseMatrix a = GaussianMatrix(4000, m, 40 + m);
    const DenseMatrix copy = a;
    DenseMatrix general;
    ASSERT_TRUE(GemmTransA(a, copy, &general).ok());
    auto bytes = [](const DenseMatrix& c) {
      return std::string(reinterpret_cast<const char*>(c.data()), c.bytes());
    };
    const std::string expected = bytes(general);
    DenseMatrix gram;
    ASSERT_TRUE(GemmTransA(a, a, &gram).ok());
    EXPECT_EQ(bytes(gram), expected);
    for (const size_t threads : {2, 3, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      DenseMatrix pooled;
      ASSERT_TRUE(GemmTransA(a, a, &pooled, &pool).ok());
      EXPECT_EQ(bytes(pooled), expected);
    }
    DenseMatrix in_place = a;
    ASSERT_TRUE(GemmTransA(in_place, in_place, &in_place).ok());
    EXPECT_EQ(bytes(in_place), expected);
  }
}

// Tall input for the pooled-QR checks, big enough (n * k >= 2^15 for k >= 3)
// that the pool engages. For k >= 3 column k / 2 is zero, so its reflector
// takes the betas[j] == 0 path.
DenseMatrix QrInput(size_t k) {
  DenseMatrix a = GaussianMatrix(12000, k, 60 + k);
  if (k >= 3) std::fill(a.ColData(k / 2), a.ColData(k / 2) + a.rows(), 0.0f);
  return a;
}

// MD5 of Q's bytes followed by R's.
std::string QrDigest(const DenseMatrix& q, const DenseMatrix& r) {
  std::string bytes(q.bytes() + r.bytes(), '\0');
  std::memcpy(bytes.data(), q.data(), q.bytes());
  std::memcpy(bytes.data() + q.bytes(), r.data(), r.bytes());
  return Md5Hex(bytes);
}

TEST(QrTest, PooledResultsBitIdenticalToSerial) {
  // k covers one column, partial panels (1, 3, 5) and whole ones (4, 8, 40).
  for (const size_t k : {1, 3, 4, 5, 8, 40}) {
    SCOPED_TRACE(k);
    const DenseMatrix a = QrInput(k);
    DenseMatrix q, r;
    ASSERT_TRUE(ReducedQr(a, &q, &r).ok());
    const std::string serial = QrDigest(q, r);
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      DenseMatrix qp, rp;
      ASSERT_TRUE(ReducedQr(a, &qp, &rp, &pool).ok());
      EXPECT_EQ(QrDigest(qp, rp), serial);
    }
  }
}

// Textbook Householder QR, one column at a time: each reflector updates the
// trailing columns one by one, and each Q column applies every reflector.
void ColumnAtATimeQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r) {
  const size_t n = a.rows();
  const size_t k = a.cols();
  std::vector<double> work(n * k);
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < n; ++i) work[c * n + i] = a.At(i, c);
  }
  std::vector<double> betas(k, 0.0);
  std::vector<double> rmat(k * k, 0.0);
  for (size_t j = 0; j < k; ++j) {
    double* colj = work.data() + j * n;
    double norm = 0.0;
    for (size_t i = j; i < n; ++i) norm += colj[i] * colj[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) continue;
    const double alpha = colj[j] >= 0 ? -norm : norm;
    colj[j] -= alpha;
    double vnorm2 = 0.0;
    for (size_t i = j; i < n; ++i) vnorm2 += colj[i] * colj[i];
    betas[j] = vnorm2 > 0.0 ? 2.0 / vnorm2 : 0.0;
    rmat[j * k + j] = alpha;
    for (size_t c = j + 1; c < k; ++c) {
      double* colc = work.data() + c * n;
      double dot = 0.0;
      for (size_t i = j; i < n; ++i) dot += colj[i] * colc[i];
      const double scale = betas[j] * dot;
      for (size_t i = j; i < n; ++i) colc[i] -= scale * colj[i];
      rmat[c * k + j] = colc[j];
    }
  }
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < c; ++i) rmat[c * k + i] = work[c * n + i];
  }
  *q = DenseMatrix(n, k);
  std::vector<double> e(n);
  for (size_t c = 0; c < k; ++c) {
    std::fill(e.begin(), e.end(), 0.0);
    e[c] = 1.0;
    for (size_t j = k; j-- > 0;) {
      if (betas[j] == 0.0) continue;
      const double* vj = work.data() + j * n;
      double dot = 0.0;
      for (size_t i = j; i < n; ++i) dot += vj[i] * e[i];
      const double scale = betas[j] * dot;
      for (size_t i = j; i < n; ++i) e[i] -= scale * vj[i];
    }
    for (size_t i = 0; i < n; ++i) q->At(i, c) = static_cast<float>(e[i]);
  }
  *r = DenseMatrix(k, k);
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i <= c; ++i) r->At(i, c) = static_cast<float>(rmat[c * k + i]);
  }
}

// QrDigest with every NaN replaced by one quiet NaN.
std::string NanBlindQrDigest(DenseMatrix q, DenseMatrix r) {
  for (DenseMatrix* m : {&q, &r}) {
    for (size_t c = 0; c < m->cols(); ++c) {
      float* col = m->ColData(c);
      for (size_t i = 0; i < m->rows(); ++i) {
        if (std::isnan(col[i])) col[i] = std::numeric_limits<float>::quiet_NaN();
      }
    }
  }
  return QrDigest(q, r);
}

// ReducedQr's Q and R bytes on `a`, serial and on pools of 1, 2, 3, 4 and 8
// workers, against ColumnAtATimeQr's; with `nan_blind`, NaNs compare equal
// whatever their sign and payload.
void ExpectMatchesColumnAtATimeOracle(const DenseMatrix& a, bool nan_blind = false) {
  auto digest = [&](const DenseMatrix& q, const DenseMatrix& r) {
    return nan_blind ? NanBlindQrDigest(q, r) : QrDigest(q, r);
  };
  DenseMatrix qo, ro;
  ColumnAtATimeQr(a, &qo, &ro);
  const std::string oracle = digest(qo, ro);
  DenseMatrix q, r;
  ASSERT_TRUE(ReducedQr(a, &q, &r).ok());
  EXPECT_EQ(digest(q, r), oracle);
  for (const size_t threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    DenseMatrix qp, rp;
    ASSERT_TRUE(ReducedQr(a, &qp, &rp, &pool).ok());
    EXPECT_EQ(digest(qp, rp), oracle);
  }
}

TEST(QrTest, GroupedEliminationMatchesColumnAtATimeOracle) {
  // Whole and ragged groups of 4 columns with a zero column, on n large
  // enough that the pool engages from two groups on. k = 5..8 puts 8
  // workers on 2 groups, so most of them find no group and the second
  // group waits on the first one's reflectors.
  for (const size_t k : {1, 2, 3, 4, 5, 7, 8, 9, 32, 40}) {
    SCOPED_TRACE(k);
    DenseMatrix a = GaussianMatrix(20000, k, 90 + k);
    if (k >= 3) std::fill(a.ColData(k / 2), a.ColData(k / 2) + a.rows(), 0.0f);
    ExpectMatchesColumnAtATimeOracle(a);
  }
  // One column short of, exactly at, and one past 1, 2 and 10 whole groups,
  // on square input, one spare row, and n = 4097 (pooled from k = 8 on).
  for (const size_t groups : {1, 2, 10}) {
    for (const size_t k : {4 * groups - 1, 4 * groups, 4 * groups + 1}) {
      for (const size_t n : {k, k + 1, size_t{4097}}) {
        SCOPED_TRACE("k=" + std::to_string(k) + " n=" + std::to_string(n));
        ExpectMatchesColumnAtATimeOracle(GaussianMatrix(n, k, 300 + 7 * k + n));
      }
    }
  }
  // A NaN in the last group only: every earlier group has formed its Q panel
  // by the time that group's reflectors exist, and none of those panels may
  // pick the NaN up.
  for (const size_t k : {9, 40}) {
    SCOPED_TRACE(k);
    DenseMatrix a = GaussianMatrix(20000, k, 500 + k);
    a.At(777, k - 1) = std::numeric_limits<float>::quiet_NaN();
    ExpectMatchesColumnAtATimeOracle(a);
  }
  // A NaN only gives a zero beta. An infinite one needs a subnormal vnorm2:
  // column 0 is a Gaussian column at 5e-38 and the other eleven are three
  // times it, so each reflector leaves the next column a residual about
  // 1e-16 times smaller, until reflector 8, in the last group, overflows its
  // beta. The first two groups formed their Q panels without reflector 8,
  // and every panel must be formed again with it. Rows past the twelfth are
  // zero and only make the pool engage. The NaNs' signs here follow the
  // compiler's operand order (they differed between -O0 and -O2 builds of
  // the earlier factorization too), so NaNs compare equal.
  DenseMatrix spans(4096, 12);
  const DenseMatrix base = GaussianMatrix(12, 1, 372);
  for (size_t i = 0; i < 12; ++i) {
    spans.At(i, 0) = base.At(i, 0) * 5e-38f;
    for (size_t c = 1; c < 12; ++c) spans.At(i, c) = 3.0f * spans.At(i, 0);
  }
  DenseMatrix q, r;
  ASSERT_TRUE(ReducedQr(spans, &q, &r).ok());
  ASSERT_TRUE(std::isnan(q.At(0, 0)));  // reflector 8 reached column 0
  ExpectMatchesColumnAtATimeOracle(spans, /*nan_blind=*/true);
}

TEST(QrTest, MatchesColumnAtATimeFormation) {
  // Digests of Q and R from forming Q one column at a time with every
  // reflector applied: panels and the skipped no-op reflectors must
  // reproduce those bytes, for finite input and for input with inf and NaN
  // entries (where no reflector may be skipped unless it is a no-op).
  const std::pair<size_t, const char*> finite[] = {
      {1, "0f15d3f065859145411fb9b166ba8623"},  {3, "016d67ece2f76ba92e426e34f9f1424b"},
      {4, "a5f80657fc00e7afff426089ae85c603"},  {5, "aee1a3c7f95bb9116ebbb1d7b99d1da1"},
      {8, "9fa8ce99e9c916b546b4690fa8bb979a"},  {40, "9baed39ec40636c37d957df346e356c1"}};
  for (const auto& [k, digest] : finite) {
    SCOPED_TRACE(k);
    DenseMatrix q, r;
    ASSERT_TRUE(ReducedQr(QrInput(k), &q, &r).ok());
    EXPECT_EQ(QrDigest(q, r), digest);
  }
  DenseMatrix a = QrInput(8);
  a.At(5, 2) = std::numeric_limits<float>::infinity();
  a.At(7, 6) = std::numeric_limits<float>::quiet_NaN();
  ThreadPool pool(4);
  DenseMatrix q, r, qp, rp;
  ASSERT_TRUE(ReducedQr(a, &q, &r).ok());
  ASSERT_TRUE(ReducedQr(a, &qp, &rp, &pool).ok());
  EXPECT_EQ(QrDigest(q, r), "2afc70536d13f99ed2c8659b9a58c14a");
  EXPECT_EQ(QrDigest(qp, rp), QrDigest(q, r));
}

// Gaussian n x k input with one degenerate feature per `kind`: 0 a zero
// column, 1 a +inf and a -inf entry, 2 a NaN entry, 3 a leading zero column
// with a trailing -inf, 4 every even column scaled by 1e-30.
DenseMatrix DegenerateQrInput(size_t n, size_t k, int kind) {
  DenseMatrix a = GaussianMatrix(n, k, 700 + 41 * n + k);
  const float inf = std::numeric_limits<float>::infinity();
  switch (kind) {
    case 0:
      std::fill(a.ColData(k / 2), a.ColData(k / 2) + n, 0.0f);
      break;
    case 1:
      a.At(n - 1, 0) = inf;
      a.At(0, k - 1) = -inf;
      break;
    case 2:
      a.At(n / 2, (k - 1) / 2) = std::numeric_limits<float>::quiet_NaN();
      break;
    case 3:
      std::fill(a.ColData(0), a.ColData(0) + n, 0.0f);
      a.At(n - 1, k - 1) = -inf;
      break;
    default:
      for (size_t c = 0; c < k; c += 2) {
        for (size_t i = 0; i < n; ++i) a.At(i, c) *= 1e-30f;
      }
      break;
  }
  return a;
}

TEST(QrTest, DegenerateColumnsMatchParentBytes) {
  // Q and R bytes recorded before the elimination and Q formation were
  // fused, one digest per shape over the five degenerate inputs. Zero,
  // non-finite and tiny columns exercise every skip rule: a zero-norm step,
  // a NaN norm with beta 0, and non-finite reflectors that Q panels may not
  // skip. Pools of 1, 2 and 8 must give the serial bytes.
  const struct {
    size_t k, n;
    const char* digest;
  } cases[] = {
      {1, 1, "cdffa387d77c82dfed7bd18d9a758479"},
      {1, 50, "883dc6d80ea95025217c668f9804434b"},
      {1, 20000, "98e988b0293809dee9460be72cfcb253"},
      {4, 4, "c7b9afe55150229fa8cd05da2f542348"},
      {4, 50, "c9859503f034634b485a8390424432ae"},
      {4, 20000, "33139d5d840e5d89c37eece15c591f1e"},
      {5, 5, "ba1e5990be746d355c1f5a9d709b8b2f"},
      {5, 50, "6b8886b6a3b277760081d39f284e6a06"},
      {5, 20000, "09af030b848319519fa64eae2cfa2d71"},
      {40, 40, "a98d9c37d5734e464a2b580ad0221225"},
      {40, 50, "b26a91ba24350e65c0764b08975c669a"},
      {40, 20000, "5110f1894f77661a9f90cb23d0164331"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE("k=" + std::to_string(c.k) + " n=" + std::to_string(c.n));
    std::vector<DenseMatrix> inputs;
    for (int kind = 0; kind < 5; ++kind) inputs.push_back(DegenerateQrInput(c.n, c.k, kind));
    auto digest = [&](ThreadPool* pool) {
      std::string all;
      for (const DenseMatrix& a : inputs) {
        DenseMatrix q, r;
        EXPECT_TRUE(ReducedQr(a, &q, &r, pool).ok());
        all += QrDigest(q, r);
      }
      return Md5Hex(all);
    };
    EXPECT_EQ(digest(nullptr), c.digest);
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      EXPECT_EQ(digest(&pool), c.digest);
    }
  }
}

TEST(SvdTest, PooledResultsBitIdenticalToSerial) {
  // Same operator, 1 worker vs 8 workers: identical embedding bytes.
  const DenseMatrix op = GaussianMatrix(120, 120, 51);
  MatMulFn apply = [&](const DenseMatrix& in, DenseMatrix* out) {
    return Gemm(op, in, out);
  };
  MatMulFn apply_t = [&](const DenseMatrix& in, DenseMatrix* out) {
    return GemmTransA(op, in, out);
  };
  RandomizedSvdOptions serial_opts;
  serial_opts.rank = 8;
  serial_opts.power_iterations = 2;
  auto serial = RandomizedSvd(120, 120, apply, apply_t, serial_opts);
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(8);
  RandomizedSvdOptions pooled_opts = serial_opts;
  pooled_opts.pool = &pool;
  auto pooled = RandomizedSvd(120, 120, apply, apply_t, pooled_opts);
  ASSERT_TRUE(pooled.ok());

  const DenseMatrix& u = serial.value().u;
  const DenseMatrix& u_pooled = pooled.value().u;
  ASSERT_EQ(u.size(), u_pooled.size());
  EXPECT_EQ(std::memcmp(u.data(), u_pooled.data(), u.bytes()), 0);
  const std::vector<double>& s = serial.value().singular;
  const std::vector<double>& s_pooled = pooled.value().singular;
  ASSERT_EQ(s.size(), s_pooled.size());
  EXPECT_EQ(std::memcmp(s.data(), s_pooled.data(), s.size() * sizeof(double)), 0);
}

TEST(RandomMatrixTest, DeterministicAndOrderIndependent) {
  const DenseMatrix a = GaussianMatrix(100, 8, 42);
  const DenseMatrix b = GaussianMatrix(100, 8, 42);
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(a, b), 0.0);
  const DenseMatrix c = GaussianMatrix(100, 8, 43);
  EXPECT_GT(DenseMatrix::MaxAbsDiff(a, c), 0.1);
}

TEST(GaussianMatrixTest, PooledMatchesSerialBitForBit) {
  // 100 rows stay below the pooling threshold at every width; 20000 rows
  // cross it from 3 columns up.
  for (const size_t rows : {100, 20000}) {
    for (const size_t cols : {1, 3, 40}) {
      SCOPED_TRACE(std::to_string(rows) + "x" + std::to_string(cols));
      const DenseMatrix serial = GaussianMatrix(rows, cols, 17);
      for (const size_t threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        const DenseMatrix pooled = GaussianMatrix(rows, cols, 17, &pool);
        ASSERT_EQ(pooled.size(), serial.size());
        EXPECT_EQ(std::memcmp(pooled.data(), serial.data(), serial.bytes()), 0);
      }
    }
  }
}

// Uniform [lo, hi) entries drawn per column, as GaussianMatrix seeds them.
DenseMatrix UniformMatrix(size_t rows, size_t cols, uint64_t seed, float lo, float hi) {
  DenseMatrix m(rows, cols);
  for (size_t c = 0; c < cols; ++c) {
    Rng rng(SplitMix64(seed ^ (0x517cc1b7ULL * (c + 1))));
    for (size_t r = 0; r < rows; ++r) {
      m.At(r, c) = lo + static_cast<float>(rng.NextDouble()) * (hi - lo);
    }
  }
  return m;
}

TEST(RandomMatrixTest, UniformRespectsBounds) {
  const DenseMatrix u = UniformMatrix(50, 4, 7, -2.0f, 3.0f);
  for (size_t c = 0; c < u.cols(); ++c) {
    for (size_t r = 0; r < u.rows(); ++r) {
      EXPECT_GE(u.At(r, c), -2.0f);
      EXPECT_LT(u.At(r, c), 3.0f);
    }
  }
}

TEST(QrTest, ReconstructsAndOrthonormal) {
  const DenseMatrix a = GaussianMatrix(50, 6, 11);
  DenseMatrix q;
  DenseMatrix r;
  ASSERT_TRUE(ReducedQr(a, &q, &r).ok());
  ASSERT_EQ(q.rows(), 50u);
  ASSERT_EQ(q.cols(), 6u);
  // Q^T Q = I.
  DenseMatrix qtq;
  ASSERT_TRUE(GemmTransA(q, q, &qtq).ok());
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      EXPECT_NEAR(qtq.At(i, j), i == j ? 1.0 : 0.0, 1e-4) << i << "," << j;
    }
  }
  // QR = A.
  DenseMatrix qr;
  ASSERT_TRUE(Gemm(q, r, &qr).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(qr, a), 1e-3);
  // R upper triangular.
  for (size_t i = 0; i < 6; ++i) {
    for (size_t j = 0; j < i; ++j) EXPECT_FLOAT_EQ(r.At(i, j), 0.0f);
  }
}

TEST(QrTest, RejectsWideMatrix) {
  const DenseMatrix a = GaussianMatrix(3, 5, 1);
  DenseMatrix q;
  EXPECT_FALSE(ReducedQr(a, &q, nullptr).ok());
}

TEST(QrTest, HandlesRankDeficiency) {
  // Two identical columns: QR must not blow up.
  DenseMatrix a(10, 2);
  for (size_t r = 0; r < 10; ++r) {
    a.At(r, 0) = static_cast<float>(r + 1);
    a.At(r, 1) = static_cast<float>(r + 1);
  }
  DenseMatrix q;
  DenseMatrix r;
  ASSERT_TRUE(ReducedQr(a, &q, &r).ok());
  DenseMatrix qr;
  ASSERT_TRUE(Gemm(q, r, &qr).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(qr, a), 1e-3);
}

TEST(EigenTest, DiagonalizesKnownMatrix) {
  // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
  DenseMatrix a(2, 2);
  a.At(0, 0) = 2;
  a.At(0, 1) = 1;
  a.At(1, 0) = 1;
  a.At(1, 1) = 2;
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  EXPECT_NEAR(eig.value().eigenvalues[0], 3.0, 1e-9);
  EXPECT_NEAR(eig.value().eigenvalues[1], 1.0, 1e-9);
}

TEST(EigenTest, ReconstructsRandomSymmetricMatrix) {
  const size_t k = 12;
  const DenseMatrix g = GaussianMatrix(k, k, 5);
  DenseMatrix a;
  ASSERT_TRUE(GemmTransA(g, g, &a).ok());  // symmetric PSD
  auto eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.ok());
  const auto& vals = eig.value().eigenvalues;
  for (size_t i = 1; i < k; ++i) EXPECT_LE(vals[i], vals[i - 1] + 1e-9);
  // V diag(w) V^T == A.
  DenseMatrix scaled = eig.value().eigenvectors;
  for (size_t c = 0; c < k; ++c) {
    for (size_t r = 0; r < k; ++r) {
      scaled.At(r, c) *= static_cast<float>(vals[c]);
    }
  }
  DenseMatrix recon;
  ASSERT_TRUE(GemmTransB(scaled, eig.value().eigenvectors, &recon).ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(recon, a), 1e-2);
}

TEST(EigenTest, RejectsAsymmetric) {
  DenseMatrix a(2, 2);
  a.At(0, 1) = 5;
  EXPECT_FALSE(SymmetricEigen(a).ok());
  DenseMatrix rect(2, 3);
  EXPECT_FALSE(SymmetricEigen(rect).ok());
}

// Builds a dense operator with known singular values via U diag(s) V^T.
class SvdFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    const size_t n = 60;
    const size_t m = 40;
    DenseMatrix qu;
    DenseMatrix qv;
    ASSERT_TRUE(ReducedQr(GaussianMatrix(n, 10, 1), &qu, nullptr).ok());
    ASSERT_TRUE(ReducedQr(GaussianMatrix(m, 10, 2), &qv, nullptr).ok());
    singular_ = {50, 40, 30, 20, 10, 5, 2, 1, 0.5, 0.1};
    DenseMatrix scaled = qu;
    for (size_t c = 0; c < 10; ++c) {
      for (size_t r = 0; r < n; ++r) {
        scaled.At(r, c) *= static_cast<float>(singular_[c]);
      }
    }
    ASSERT_TRUE(GemmTransB(scaled, qv, &a_).ok());  // n x m
  }

  std::vector<double> singular_;
  DenseMatrix a_;
};

TEST_F(SvdFixture, RecoversLeadingSingularValues) {
  MatMulFn apply = [&](const DenseMatrix& in, DenseMatrix* out) {
    return Gemm(a_, in, out);
  };
  MatMulFn apply_t = [&](const DenseMatrix& in, DenseMatrix* out) {
    return GemmTransA(a_, in, out);
  };
  RandomizedSvdOptions opts;
  opts.rank = 5;
  opts.oversample = 6;
  opts.power_iterations = 2;
  auto svd = RandomizedSvd(a_.rows(), a_.cols(), apply, apply_t, opts);
  ASSERT_TRUE(svd.ok()) << svd.status().ToString();
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(svd.value().singular[i], singular_[i], singular_[i] * 0.02 + 0.05)
        << "sigma_" << i;
  }
  // V = A^T U Sigma^-1, formed here: the SVD returns only U and Sigma.
  DenseMatrix v;
  ASSERT_TRUE(GemmTransA(a_, svd.value().u, &v).ok());
  for (size_t c = 0; c < 5; ++c) {
    const float inv = static_cast<float>(1.0 / svd.value().singular[c]);
    for (size_t r = 0; r < v.rows(); ++r) v.At(r, c) *= inv;
  }
  // U and V columns orthonormal.
  DenseMatrix utu;
  DenseMatrix vtv;
  ASSERT_TRUE(GemmTransA(svd.value().u, svd.value().u, &utu).ok());
  ASSERT_TRUE(GemmTransA(v, v, &vtv).ok());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_NEAR(utu.At(i, i), 1.0, 1e-3);
    EXPECT_NEAR(vtv.At(i, i), 1.0, 1e-3);
  }
  // Rank-5 reconstruction error is bounded by sigma_6.
  DenseMatrix us = svd.value().u;
  for (size_t c = 0; c < 5; ++c) {
    for (size_t r = 0; r < us.rows(); ++r) {
      us.At(r, c) *= static_cast<float>(svd.value().singular[c]);
    }
  }
  DenseMatrix recon;
  ASSERT_TRUE(GemmTransB(us, v, &recon).ok());
  ASSERT_TRUE(recon.AddScaled(a_, -1.0f).ok());
  EXPECT_LT(recon.FrobeniusNorm(), 3.0 * singular_[5] + 1.0);
}

TEST_F(SvdFixture, ValidatesOptions) {
  MatMulFn apply = [&](const DenseMatrix& in, DenseMatrix* out) {
    return Gemm(a_, in, out);
  };
  RandomizedSvdOptions opts;
  opts.rank = 0;
  EXPECT_FALSE(RandomizedSvd(60, 40, apply, apply, opts).ok());
  opts.rank = 39;
  opts.oversample = 8;  // exceeds m
  EXPECT_FALSE(RandomizedSvd(60, 40, apply, apply, opts).ok());
}

}  // namespace
}  // namespace omega::linalg
