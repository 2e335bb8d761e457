// Unit tests for the ProNE embedding model: Chebyshev coefficients and filter
// application against dense references, target/propagation matrix
// construction, the end-to-end embedding, and quality checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "chebyshev_row_passes.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "csdb_test_inputs.h"
#include "embed/chebyshev.h"
#include "embed/prone.h"
#include "embed/quality.h"
#include "graph/rmat.h"
#include "linalg/gemm.h"
#include "linalg/random_matrix.h"
#include "memsim/memory_system.h"
#include "omega/engine.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"
#include "sparse/spmm_kernels.h"

namespace omega::embed {
namespace {

using graph::CsdbMatrix;
using graph::Edge;
using graph::Graph;
using linalg::DenseMatrix;

// Uncharged executor over the packed kernel, both operand forms, its rows
// split across `pool` when given.
SpmmExecutor PlainExecutor(ThreadPool* pool = nullptr) {
  return [pool](const CsdbMatrix& m, const sparse::SpmmOperands& dense) -> Result<double> {
    dense.SizeOutput(m.num_rows());
    sparse::ComputeAllRowsCsdb(m, dense, pool);
    return 0.001;
  };
}

// A captured packed term, column-major.
DenseMatrix Unpacked(const sparse::kernels::PackedOperand& packed) {
  DenseMatrix out;
  sparse::UnpackDense(packed, nullptr, &out);
  return out;
}

// S * B with the packed kernel's bits, from its scalar oracle. (ReferenceSpmm
// rounds each multiply-add twice, so it matches the kernel only in builds
// without FMA.)
DenseMatrix KernelSpmm(const CsdbMatrix& s, const DenseMatrix& b) {
  DenseMatrix c(s.num_rows(), b.cols());
  sparse::kernels::CsdbPanelSpmmScalar(s, b, &c, 0, s.num_rows(), 0, b.cols());
  return c;
}

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

Graph CommunityGraph() {
  // Two dense communities of 16 nodes plus a weak bridge: embeddings must
  // separate them.
  std::vector<Edge> edges;
  omega::Rng rng(5);
  auto add_clique_ish = [&](graph::NodeId base) {
    for (graph::NodeId i = 0; i < 16; ++i) {
      for (graph::NodeId j = i + 1; j < 16; ++j) {
        if (rng.NextDouble() < 0.55) {
          edges.push_back(Edge{base + i, base + j, 1.0f});
        }
      }
    }
  };
  add_clique_ish(0);
  add_clique_ish(16);
  edges.push_back(Edge{0, 16, 1.0f});
  return Graph::FromEdges(32, edges, true).value();
}

TEST(ChebyshevTest, BandPassFilterShape) {
  const SpectralFilter g = ProneBandPass(0.2, 0.5);
  // Peak near mu, decaying away from it.
  EXPECT_GT(g(0.2), g(1.0));
  EXPECT_GT(g(0.2), g(2.0));
  EXPECT_GT(g(0.0), 0.0);
}

TEST(ChebyshevTest, CoefficientsReproduceFilterPointwise) {
  const SpectralFilter g = ProneBandPass(0.2, 0.5);
  const auto coeffs = ChebyshevCoefficients(g, 16);
  ASSERT_EQ(coeffs.size(), 16u);
  // Evaluate the expansion at sample eigenvalues and compare with g.
  for (double lambda : {0.05, 0.3, 0.9, 1.4, 1.9}) {
    const double x = lambda - 1.0;
    double t_prev = 1.0;
    double t_cur = x;
    double sum = coeffs[0] * t_prev + coeffs[1] * t_cur;
    for (size_t k = 2; k < coeffs.size(); ++k) {
      const double t_next = 2.0 * x * t_cur - t_prev;
      sum += coeffs[k] * t_next;
      t_prev = t_cur;
      t_cur = t_next;
    }
    EXPECT_NEAR(sum, g(lambda), 1e-6) << "lambda=" << lambda;
  }
}

TEST(ChebyshevTest, ConstantFilterIsIdentity) {
  // g == 1 => coefficients [1, 0, 0, ...] and the filter output equals the
  // input block.
  const auto coeffs = ChebyshevCoefficients([](double) { return 1.0; }, 8);
  EXPECT_NEAR(coeffs[0], 1.0, 1e-12);
  for (size_t k = 1; k < coeffs.size(); ++k) EXPECT_NEAR(coeffs[k], 0.0, 1e-12);

  const CsdbMatrix s = BuildPropagationMatrix(
      CsdbMatrix::FromGraph(CommunityGraph()));
  const DenseMatrix r = linalg::GaussianMatrix(s.num_rows(), 4, 9);
  DenseMatrix out;
  auto secs = ChebyshevFilterApply(s, coeffs, r, &out, PlainExecutor());
  ASSERT_TRUE(secs.ok());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(out, r), 1e-5);
}

TEST(ChebyshevTest, FilterApplyMatchesDenseSpectralComputation) {
  // Compare T_k recurrence output against explicitly computing
  // sum c_k T_k(-S) R with dense matrix powers.
  const CsdbMatrix s_sparse =
      BuildPropagationMatrix(CsdbMatrix::FromGraph(CommunityGraph()));
  const DenseMatrix s = sparse::ToDense(s_sparse);
  const size_t n = s.rows();
  const DenseMatrix r = linalg::GaussianMatrix(n, 3, 4);
  const auto coeffs = ChebyshevCoefficients(ProneBandPass(0.2, 0.5), 6);

  DenseMatrix out;
  ASSERT_TRUE(
      ChebyshevFilterApply(s_sparse, coeffs, r, &out, PlainExecutor()).ok());

  // Dense reference: T_0 = R, T_1 = -S R, T_{k+1} = -2 S T_k - T_{k-1}.
  DenseMatrix t_prev = r;
  DenseMatrix t_cur;
  {
    DenseMatrix sr;
    ASSERT_TRUE(linalg::Gemm(s, r, &sr).ok());
    sr.Scale(-1.0f);
    t_cur = sr;
  }
  DenseMatrix expect(n, 3);
  ASSERT_TRUE(expect.AddScaled(t_prev, static_cast<float>(coeffs[0])).ok());
  ASSERT_TRUE(expect.AddScaled(t_cur, static_cast<float>(coeffs[1])).ok());
  for (size_t k = 2; k < coeffs.size(); ++k) {
    DenseMatrix st;
    ASSERT_TRUE(linalg::Gemm(s, t_cur, &st).ok());
    DenseMatrix t_next(n, 3);
    ASSERT_TRUE(t_next.AddScaled(st, -2.0f).ok());
    ASSERT_TRUE(t_next.AddScaled(t_prev, -1.0f).ok());
    ASSERT_TRUE(expect.AddScaled(t_next, static_cast<float>(coeffs[k])).ok());
    t_prev = t_cur;
    t_cur = t_next;
  }
  EXPECT_LT(DenseMatrix::MaxAbsDiff(out, expect), 1e-3);
}

TEST(ProneMatrixTest, TargetMatrixIsNonNegativeAndSymmetricPattern) {
  const CsdbMatrix adj = CsdbMatrix::FromGraph(CommunityGraph());
  const CsdbMatrix target = BuildTargetMatrix(adj, 1.0);
  EXPECT_EQ(target.nnz(), adj.nnz());
  for (float v : target.nnz_list()) EXPECT_GE(v, 0.0f);
  // Symmetry of values (needed for apply == apply^T in the tSVD).
  const DenseMatrix d = sparse::ToDense(target);
  for (size_t i = 0; i < d.rows(); ++i) {
    for (size_t j = 0; j < d.cols(); ++j) {
      EXPECT_NEAR(d.At(i, j), d.At(j, i), 1e-5);
    }
  }
}

TEST(ProneMatrixTest, HigherLambdaShrinksTarget) {
  const CsdbMatrix adj = CsdbMatrix::FromGraph(CommunityGraph());
  const CsdbMatrix t1 = BuildTargetMatrix(adj, 1.0);
  const CsdbMatrix t5 = BuildTargetMatrix(adj, 5.0);
  double sum1 = 0.0;
  double sum5 = 0.0;
  for (float v : t1.nnz_list()) sum1 += v;
  for (float v : t5.nnz_list()) sum5 += v;
  EXPECT_LT(sum5, sum1);
}

TEST(ProneMatrixTest, PropagationMatrixSpectralRadiusAtMostOne) {
  const CsdbMatrix s = BuildPropagationMatrix(
      CsdbMatrix::FromGraph(CommunityGraph()));
  // Power iteration estimate of the spectral radius.
  std::vector<float> x(s.num_rows(), 1.0f);
  std::vector<float> y;
  double norm = 0.0;
  for (int it = 0; it < 50; ++it) {
    ASSERT_TRUE(sparse::SpMV(s, x, &y).ok());
    norm = 0.0;
    for (float v : y) norm += static_cast<double>(v) * v;
    norm = std::sqrt(norm);
    for (size_t i = 0; i < x.size(); ++i) x[i] = static_cast<float>(y[i] / norm);
  }
  EXPECT_LE(norm, 1.0 + 1e-3);
}

TEST(ProneMatrixTest, TargetMatrixMatchesPerEntryFormula) {
  // The builder hoists the per-row factors out of the entry loop; each entry
  // must still carry exactly the bits of the formula evaluated in place.
  const CsdbMatrix adj = CsdbMatrix::FromGraph(graph::PooledBuildGraphs()[0].second);
  const double neg_lambda = 1.0;
  std::vector<double> degrees(adj.num_rows());
  double pd_norm = 0.0;
  for (auto cur = adj.Rows(0); !cur.AtEnd(); cur.Next()) {
    degrees[cur.row()] = cur.degree();
    pd_norm += std::pow(static_cast<double>(cur.degree()), 0.75);
  }
  std::vector<float> expected = adj.nnz_list();
  for (auto cur = adj.Rows(0); !cur.AtEnd(); cur.Next()) {
    for (uint64_t idx = cur.ptr(); idx < cur.ptr() + cur.degree(); ++idx) {
      const double di = std::max(1.0, degrees[cur.row()]);
      const double dj = std::max(1.0, degrees[adj.col_list()[idx]]);
      const double p = static_cast<double>(expected[idx]) / std::sqrt(di * dj);
      const double pd = std::sqrt(std::pow(di, 0.75) * std::pow(dj, 0.75)) / pd_norm;
      const double val = std::log(std::max(p, 1e-12)) -
                         std::log(std::max(neg_lambda * pd, 1e-12));
      expected[idx] = static_cast<float>(std::max(val, 0.0));
    }
  }
  const CsdbMatrix target = BuildTargetMatrix(adj, neg_lambda);
  ASSERT_EQ(target.nnz_list().size(), expected.size());
  EXPECT_EQ(0, std::memcmp(target.nnz_list().data(), expected.data(),
                           expected.size() * sizeof(float)));
}

TEST(ProneMatrixTest, PooledMatrixBuildsAreByteIdentical) {
  for (const auto& [name, g] : graph::PooledBuildGraphs()) {
    SCOPED_TRACE(name);
    const CsdbMatrix adj = CsdbMatrix::FromGraph(g);
    const CsdbMatrix target = BuildTargetMatrix(adj, 1.0);
    const CsdbMatrix propagation = BuildPropagationMatrix(adj);
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE(threads);
      ThreadPool pool(threads);
      graph::ExpectCsdbIdentical(BuildTargetMatrix(adj, 1.0, &pool), target);
      graph::ExpectCsdbIdentical(BuildPropagationMatrix(adj, &pool), propagation);
    }
  }
}

TEST(ProneTest, EndToEndProducesStructuredEmbedding) {
  const Graph g = CommunityGraph();
  const CsdbMatrix adj = CsdbMatrix::FromGraph(g);
  ProneOptions opts;
  opts.dim = 8;
  opts.oversample = 4;
  auto result = ProneEmbed(adj, opts, PlainExecutor());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto& emb = result.value();
  EXPECT_EQ(emb.vectors.rows(), 32u);
  EXPECT_EQ(emb.vectors.cols(), 8u);
  EXPECT_GT(emb.factorize_seconds, 0.0);
  EXPECT_GT(emb.propagate_seconds, 0.0);
  EXPECT_NEAR(emb.total_seconds, emb.factorize_seconds + emb.propagate_seconds,
              1e-12);

  // Rows are L2-normalized.
  for (size_t r = 0; r < 32; ++r) {
    double norm = 0.0;
    for (size_t c = 0; c < 8; ++c) {
      norm += static_cast<double>(emb.vectors.At(r, c)) * emb.vectors.At(r, c);
    }
    EXPECT_NEAR(norm, 1.0, 1e-3) << "row " << r;
  }

  // Same-community pairs score higher than cross-community pairs on average.
  const DenseMatrix original = emb.ToOriginalOrder();
  double same = 0.0;
  double cross = 0.0;
  int same_n = 0;
  int cross_n = 0;
  for (graph::NodeId u = 0; u < 16; ++u) {
    for (graph::NodeId v = u + 1; v < 16; ++v) {
      same += EmbeddingScore(original, u, v);
      ++same_n;
      cross += EmbeddingScore(original, u, v + 16);
      ++cross_n;
    }
  }
  EXPECT_GT(same / same_n, cross / cross_n + 0.1);
}

// Host-side thread count must not change a single embedding bit: dense
// stages reduce in fixed order (gemm.h) and the SpMM executor is per-row
// deterministic. This is the contract DESIGN.md's "Host time vs simulated
// time" section documents.
TEST(ProneTest, EmbeddingBitIdenticalAcrossThreadCounts) {
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 40000;
  params.seed = 3;
  const Graph g = graph::GenerateRmat(params).value();
  const CsdbMatrix adj = CsdbMatrix::FromGraph(g);

  ProneOptions opts;
  opts.dim = 16;
  opts.oversample = 4;
  opts.chebyshev_order = 6;

  auto serial = ProneEmbed(adj, opts, PlainExecutor());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  ThreadPool pool(8);
  ProneOptions pooled_opts = opts;
  pooled_opts.pool = &pool;
  auto pooled = ProneEmbed(adj, pooled_opts, PlainExecutor());
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();

  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial.value().vectors,
                                    pooled.value().vectors),
            0.0);

  // One more thread count; and the pooled reference SpMM must agree too.
  ThreadPool pool2(2);
  ProneOptions pooled2_opts = opts;
  pooled2_opts.pool = &pool2;
  auto pooled2 = ProneEmbed(adj, pooled2_opts, PlainExecutor(&pool2));
  ASSERT_TRUE(pooled2.ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial.value().vectors,
                                    pooled2.value().vectors),
            0.0);
}

TEST(ChebyshevTest, FilterApplyBitIdenticalAcrossThreadCounts) {
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 30000;
  params.seed = 9;
  const Graph g = graph::GenerateRmat(params).value();
  CsdbMatrix s = BuildPropagationMatrix(CsdbMatrix::FromGraph(g));
  const DenseMatrix r = linalg::GaussianMatrix(s.num_rows(), 16, 7);
  const auto coeffs = ChebyshevCoefficients(ProneBandPass(0.2, 0.5), 8);

  DenseMatrix serial_out;
  auto serial = ChebyshevFilterApply(s, coeffs, r, &serial_out, PlainExecutor());
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(8);
  DenseMatrix pooled_out;
  auto pooled = ChebyshevFilterApply(s, coeffs, r, &pooled_out, PlainExecutor(),
                                     &pool);
  ASSERT_TRUE(pooled.ok());
  EXPECT_EQ(DenseMatrix::MaxAbsDiff(serial_out, pooled_out), 0.0);
}

TEST(ChebyshevTest, FilterApplyMatchesThreePassRecurrenceBitForBit) {
  // The seed graph plus one isolated node, whose basis row is all zero: its
  // SpMM rows are +0, so T_1 = -1 * (+0) = -0 and only the explicit 0 + in
  // T_2 = (0 + -2 * st) + -1 * T_0 turns the result back into +0. The
  // negated band-pass gives c_0 < 0 and c_1 > 0, so the partial sum
  // (0 + c_0 * T_0) + c_1 * T_1 is +0 only with the 0 + of the first term.
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 30000;
  params.seed = 9;
  const Graph rmat = graph::GenerateRmat(params).value();
  std::vector<Edge> edges;
  for (graph::NodeId u = 0; u < rmat.num_nodes(); ++u) {
    for (uint32_t i = 0; i < rmat.degree(u); ++i) {
      if (u < rmat.neighbors(u)[i]) edges.push_back(Edge{u, rmat.neighbors(u)[i], 1.0f});
    }
  }
  const Graph g = Graph::FromEdges(rmat.num_nodes() + 1, edges, true).value();
  const CsdbMatrix s = BuildPropagationMatrix(CsdbMatrix::FromGraph(g));
  const size_t n = s.num_rows();
  const size_t d = 16;
  ASSERT_EQ(s.Rows(static_cast<uint32_t>(n - 1)).degree(), 0u);
  DenseMatrix r = linalg::GaussianMatrix(n, d, 7);
  for (size_t c = 0; c < d; ++c) r.At(n - 1, c) = 0.0f;
  const SpectralFilter band = ProneBandPass(0.2, 0.5);
  const auto coeffs =
      ChebyshevCoefficients([&](double lambda) { return -band(lambda); }, 8);
  ASSERT_LT(coeffs[0], 0.0);

  // Reference: the recurrence as whole-matrix AddScaled/Scale passes, with
  // the partial sum after every term.
  DenseMatrix expect(n, d);
  ASSERT_TRUE(expect.AddScaled(r, static_cast<float>(coeffs[0])).ok());
  std::vector<DenseMatrix> terms;
  std::vector<DenseMatrix> partials;
  DenseMatrix t_prev = r;
  DenseMatrix t_cur = KernelSpmm(s, r);
  t_cur.Scale(-1.0f);
  ASSERT_TRUE(expect.AddScaled(t_cur, static_cast<float>(coeffs[1])).ok());
  terms.push_back(t_cur);
  partials.push_back(expect);
  for (size_t k = 2; k < coeffs.size(); ++k) {
    const DenseMatrix st = KernelSpmm(s, t_cur);
    DenseMatrix t_next(n, d);
    ASSERT_TRUE(t_next.AddScaled(st, -2.0f).ok());
    ASSERT_TRUE(t_next.AddScaled(t_prev, -1.0f).ok());
    ASSERT_TRUE(expect.AddScaled(t_next, static_cast<float>(coeffs[k])).ok());
    terms.push_back(t_next);
    partials.push_back(expect);
    t_prev = std::move(t_cur);
    t_cur = std::move(t_next);
  }
  ASSERT_TRUE(std::signbit(terms[0].At(n - 1, 0)));
  ASSERT_FALSE(std::signbit(terms[1].At(n - 1, 0)));
  ASSERT_FALSE(std::signbit(partials[0].At(n - 1, 0)));

  for (const size_t threads : {1, 2, 8}) {
    SCOPED_TRACE(threads);
    ThreadPool pool(threads);
    DenseMatrix out;
    ChebyshevCapture capture;
    std::vector<DenseMatrix> got_partials;
    ChebyshevHooks hooks;
    hooks.after_term = [&](size_t, const ChebyshevTermState& state) {
      got_partials.push_back(state.partial());
      return Status::OK();
    };
    ASSERT_TRUE(ChebyshevFilterApply(s, coeffs, r, &out, PlainExecutor(), &pool,
                                     &capture, &hooks)
                    .ok());
    EXPECT_TRUE(SameBits(out, expect));
    ASSERT_EQ(capture.terms.size(), terms.size() + 1);
    EXPECT_TRUE(SameBits(Unpacked(capture.terms[0]), r));
    ASSERT_EQ(got_partials.size(), partials.size());
    for (size_t k = 0; k < terms.size(); ++k) {
      EXPECT_TRUE(SameBits(Unpacked(capture.terms[k + 1]), terms[k])) << "T_" << k + 1;
      EXPECT_TRUE(SameBits(got_partials[k], partials[k])) << "sum to T_" << k + 1;
    }
  }
}

// An R-MAT propagation matrix plus one isolated node (a zero-degree row),
// and a Gaussian basis whose isolated row is zero.
struct RecurrenceInput {
  CsdbMatrix s;
  DenseMatrix r;
};

RecurrenceInput MakeRecurrenceInput(size_t d) {
  graph::RmatParams params;
  params.scale = 11;
  params.num_edges = 12000;
  params.seed = 3;
  const Graph rmat = graph::GenerateRmat(params).value();
  std::vector<Edge> edges;
  for (graph::NodeId u = 0; u < rmat.num_nodes(); ++u) {
    for (uint32_t i = 0; i < rmat.degree(u); ++i) {
      if (u < rmat.neighbors(u)[i]) edges.push_back(Edge{u, rmat.neighbors(u)[i], 1.0f});
    }
  }
  const Graph g = Graph::FromEdges(rmat.num_nodes() + 1, edges, true).value();
  RecurrenceInput in{BuildPropagationMatrix(CsdbMatrix::FromGraph(g)),
                     linalg::GaussianMatrix(g.num_nodes(), d, 5)};
  const size_t n = in.s.num_rows();
  for (size_t c = 0; c < d; ++c) in.r.At(n - 1, c) = 0.0f;
  return in;
}

// The recurrence as separate passes over column-major operands: the kernel's
// scalar-oracle SpMM, then ChebyshevTermRows and ChebyshevAccumulateRows over
// all rows. Fills the terms T_1..T_{K-1}; returns the filter output.
DenseMatrix RowPassRecurrence(const CsdbMatrix& s, const std::vector<double>& coeffs,
                              const DenseMatrix& r, std::vector<DenseMatrix>* terms) {
  const size_t n = r.rows();
  DenseMatrix out(n, r.cols());
  ChebyshevAccumulateRows(0, coeffs[0], r, &out, 0, n);
  terms->clear();
  for (size_t k = 1; k < coeffs.size(); ++k) {
    const DenseMatrix st = KernelSpmm(s, k == 1 ? r : terms->back());
    DenseMatrix t_k(n, r.cols());
    const DenseMatrix* t_km2 = k == 1 ? nullptr : (k == 2 ? &r : &(*terms)[k - 3]);
    ChebyshevTermRows(k, st, t_km2, &t_k, 0, n);
    ChebyshevAccumulateRows(k, coeffs[k], t_k, &out, 0, n);
    terms->push_back(std::move(t_k));
  }
  return out;
}

TEST(ChebyshevTest, FusedRecurrenceMatchesRowPassOracle) {
  // Widths: a masked tail (12), the propagate width (32), and a two-slab
  // width (72).
  for (const size_t d : {12, 32, 72}) {
    const RecurrenceInput in = MakeRecurrenceInput(d);
    for (const int order : {1, 2, 3, 8}) {
      SCOPED_TRACE("d=" + std::to_string(d) + " order=" + std::to_string(order));
      const auto coeffs = ChebyshevCoefficients(ProneBandPass(0.2, 0.5), order);
      std::vector<DenseMatrix> terms;
      const DenseMatrix expect = RowPassRecurrence(in.s, coeffs, in.r, &terms);
      for (const size_t threads : {1, 2, 8}) {
        SCOPED_TRACE(threads);
        ThreadPool pool(threads);
        DenseMatrix out;
        ChebyshevCapture capture;
        ASSERT_TRUE(ChebyshevFilterApply(in.s, coeffs, in.r, &out,
                                         PlainExecutor(&pool), &pool, &capture)
                        .ok());
        EXPECT_TRUE(SameBits(out, expect));
        ASSERT_EQ(capture.terms.size(), terms.size() + 1);
        EXPECT_TRUE(SameBits(Unpacked(capture.terms[0]), in.r));
        for (size_t k = 0; k < terms.size(); ++k) {
          EXPECT_TRUE(SameBits(Unpacked(capture.terms[k + 1]), terms[k]))
              << "T_" << k + 1;
        }
      }
    }
  }
}

TEST(ChebyshevTest, ResumeAtEveryTermMatchesUninterruptedRun) {
  const RecurrenceInput in = MakeRecurrenceInput(12);
  const auto coeffs = ChebyshevCoefficients(ProneBandPass(0.2, 0.5), 8);
  const size_t order = coeffs.size();
  // The state after_term sees before each next term 2..K-1, as a checkpoint
  // would store it.
  std::vector<ChebyshevResume> states(order);
  ChebyshevHooks record;
  record.after_term = [&](size_t next_term, const ChebyshevTermState& state) {
    if (next_term < order) {
      states[next_term] = {next_term, state.t_prev(), state.t_cur(), state.partial()};
    }
    return Status::OK();
  };
  DenseMatrix full;
  ASSERT_TRUE(ChebyshevFilterApply(in.s, coeffs, in.r, &full, PlainExecutor(), nullptr,
                                   nullptr, &record)
                  .ok());
  for (size_t next = 2; next < order; ++next) {
    for (const size_t threads : {1, 2, 8}) {
      SCOPED_TRACE("resume at " + std::to_string(next) + ", " +
                   std::to_string(threads) + " threads");
      ThreadPool pool(threads);
      size_t calls = 0;
      const SpmmExecutor counting = [&](const CsdbMatrix& m,
                                        const sparse::SpmmOperands& dense) {
        ++calls;
        return PlainExecutor(&pool)(m, dense);
      };
      ChebyshevHooks hooks;
      hooks.resume = &states[next];
      DenseMatrix out;
      ASSERT_TRUE(ChebyshevFilterApply(in.s, coeffs, in.r, &out, counting, &pool,
                                       nullptr, &hooks)
                      .ok());
      EXPECT_TRUE(SameBits(out, full));
      EXPECT_EQ(calls, order - next);
    }
  }
}

TEST(ProneTest, ToOriginalOrderInvertsPerm) {
  const Graph g = CommunityGraph();
  const CsdbMatrix adj = CsdbMatrix::FromGraph(g);
  ProneOptions opts;
  opts.dim = 4;
  opts.oversample = 2;
  auto result = ProneEmbed(adj, opts, PlainExecutor());
  ASSERT_TRUE(result.ok());
  const DenseMatrix original = result.value().ToOriginalOrder();
  for (uint32_t r = 0; r < adj.num_rows(); ++r) {
    for (size_t c = 0; c < 4; ++c) {
      EXPECT_FLOAT_EQ(original.At(adj.perm()[r], c), result.value().vectors.At(r, c));
    }
  }
}

TEST(ProneTest, ValidatesOptions) {
  const CsdbMatrix adj = CsdbMatrix::FromGraph(CommunityGraph());
  ProneOptions opts;
  opts.dim = 0;
  EXPECT_FALSE(ProneEmbed(adj, opts, PlainExecutor()).ok());
  opts.dim = 40;  // dim + oversample > 32 nodes
  EXPECT_FALSE(ProneEmbed(adj, opts, PlainExecutor()).ok());
}

TEST(ProneTest, SimulatedSecondsAccumulateAcrossSpmms) {
  const CsdbMatrix adj = CsdbMatrix::FromGraph(CommunityGraph());
  ProneOptions opts;
  opts.dim = 4;
  opts.oversample = 2;
  opts.chebyshev_order = 6;
  int calls = 0;
  SpmmExecutor counting = [&](const CsdbMatrix& m,
                              const sparse::SpmmOperands& dense) -> Result<double> {
    OMEGA_RETURN_NOT_OK(PlainExecutor()(m, dense).status());
    ++calls;
    return 1.0;
  };
  auto result = ProneEmbed(adj, opts, counting);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().total_seconds, static_cast<double>(calls));
  // Chebyshev of order 6 issues exactly 5 SpMMs (orders 1..5).
  EXPECT_EQ(result.value().propagate_seconds, 5.0);
}

TEST(QualityTest, AucSeparatesStructureFromRandom) {
  const Graph g = CommunityGraph();
  const CsdbMatrix adj = CsdbMatrix::FromGraph(g);
  ProneOptions opts;
  opts.dim = 8;
  opts.oversample = 4;
  auto emb = ProneEmbed(adj, opts, PlainExecutor());
  ASSERT_TRUE(emb.ok());
  auto auc = LinkPredictionAuc(g, emb.value().ToOriginalOrder(), 500, 3);
  ASSERT_TRUE(auc.ok()) << auc.status().ToString();
  EXPECT_GT(auc.value(), 0.65);

  // A random embedding scores near 0.5.
  const DenseMatrix random = linalg::GaussianMatrix(g.num_nodes(), 8, 1);
  auto random_auc = LinkPredictionAuc(g, random, 500, 3);
  ASSERT_TRUE(random_auc.ok());
  EXPECT_NEAR(random_auc.value(), 0.5, 0.15);
  EXPECT_GT(auc.value(), random_auc.value());
}

TEST(QualityTest, ValidatesInput) {
  const Graph g = CommunityGraph();
  const DenseMatrix wrong = linalg::GaussianMatrix(5, 4, 1);
  EXPECT_FALSE(LinkPredictionAuc(g, wrong, 10, 1).ok());
}

TEST(QualityTest, TopKSimilarExcludesQueryAndRanks) {
  DenseMatrix emb(4, 2);
  emb.At(0, 0) = 1.0f;
  emb.At(1, 0) = 0.9f;
  emb.At(2, 0) = -1.0f;
  emb.At(3, 0) = 0.5f;
  const auto top = TopKSimilar(emb, 0, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 3u);
  EXPECT_EQ(TopKSimilar(emb, 0, 99).size(), 3u);
}

TEST(ProneTest, StagedRunMatchesAcrossAslPartitions) {
  // Pinned at three ASL column partitions, every Chebyshev term runs its
  // epilogue over one partition's columns at a time; the step is per
  // element, so the embedding is the unstaged run's, bit for bit.
  graph::RmatParams params;
  params.scale = 10;
  params.num_edges = 9000;
  params.seed = 4;
  const Graph g = graph::GenerateRmat(params).value();
  engine::EngineOptions opts;
  opts.system = engine::SystemKind::kOmega;
  opts.num_threads = 4;
  opts.prone.dim = 16;
  opts.prone.oversample = 4;
  opts.prone.chebyshev_order = 5;
  ThreadPool pool(4);
  DenseMatrix reference;
  for (const size_t partitions : {0, 1, 3}) {
    SCOPED_TRACE(partitions);
    engine::EngineOptions o = opts;
    o.features.async_staging = partitions > 0;
    o.features.asl_fixed_partitions = partitions;
    auto ms = memsim::MemorySystem::CreateDefault();
    auto report = engine::RunEmbedding(g, "test", o, exec::Context(ms.get(), &pool));
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (reference.rows() == 0) {
      reference = report.value().embedding;
    } else {
      EXPECT_TRUE(SameBits(report.value().embedding, reference));
    }
  }
}

}  // namespace
}  // namespace omega::embed
