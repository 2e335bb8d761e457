// Poisoned-output tests. The dense producers of a run skip the zero-fill of
// their outputs (DenseMatrix::Uninitialized / ResizeForOverwrite) and reuse
// buffers their caller hands back, so each must write every element it
// claims. Every case here poisons the output — NaN at the right shape, NaN
// at a wrong shape, NaN left in freed heap blocks for an uninitialized
// allocation to pick up, or a reused packed operand or QR workspace last
// filled from a NaN matrix — runs the producer at pool sizes 1, 2 and 8, and
// compares by memcmp against the same call on a fresh output. The test
// graph has zero-degree rows, whose SpMM output rows hold no nonzero and
// must still be written.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "embed/chebyshev.h"
#include "embed/prone.h"
#include "graph/csdb.h"
#include "graph/mutable_graph.h"
#include "graph/rmat.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"
#include "linalg/randomized_svd.h"
#include "memsim/memory_system.h"
#include "numa/nadp.h"
#include "omega/baselines.h"
#include "omega/incremental.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"

namespace omega {
namespace {

using graph::CsdbMatrix;
using linalg::DenseMatrix;

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr int kPools[] = {1, 2, 8};

DenseMatrix NaNMatrix(size_t rows, size_t cols) {
  DenseMatrix m(rows, cols);
  m.Fill(kNaN);
  return m;
}

// The poisoned outputs every `*out` case hands over: NaN at the right shape,
// then NaN at a wrong one.
std::vector<DenseMatrix> PoisonedOutputs(size_t rows, size_t cols) {
  std::vector<DenseMatrix> outs;
  outs.push_back(NaNMatrix(rows, cols));
  outs.push_back(NaNMatrix(rows + 3, cols + 1));
  return outs;
}

// Frees NaN-filled blocks of `floats` floats, so that an uninitialized
// allocation of that size right after most likely gets NaN, not zero pages.
void PoisonHeap(size_t floats) {
  for (int i = 0; i < 3; ++i) {
    DenseMatrix m = DenseMatrix::Uninitialized(floats, 1);
    m.Fill(kNaN);
  }
}

bool BitsEqual(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

// R-MAT scale 12: 4096 rows, enough that every pooled pass really splits.
graph::Graph TestGraph() {
  graph::RmatParams params;
  params.scale = 12;
  params.num_edges = 40000;
  return graph::GenerateRmat(params).value();
}

class OutputReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = CsdbMatrix::FromGraph(TestGraph());
    uint32_t empty_rows = 0;
    for (auto cur = a_.Rows(0); !cur.AtEnd(); cur.Next()) {
      empty_rows += cur.degree() == 0 ? 1 : 0;
    }
    ASSERT_GT(empty_rows, 0u) << "the graph must have zero-degree rows";
    b_ = linalg::GaussianMatrix(a_.num_cols(), kCols, 7);
    ms_ = memsim::MemorySystem::CreateDefault();
  }

  static std::unique_ptr<ThreadPool> Pool(int threads) {
    return std::make_unique<ThreadPool>(threads);
  }

  // A packed operand last filled from a wider NaN matrix, as a run's
  // operand is after its tSVD stage.
  sparse::kernels::PackedOperand PoisonedOperand() const {
    sparse::kernels::PackedOperand packed;
    sparse::PackDense(NaNMatrix(a_.num_cols(), kCols + 6), nullptr, &packed);
    return packed;
  }

  // C = A * B on a fresh output through the all-rows compute step.
  DenseMatrix Fresh(const DenseMatrix& b) const {
    DenseMatrix c(a_.num_rows(), b.cols());
    sparse::ComputeAllRowsCsdb(a_, {b, &c}, nullptr);
    return c;
  }

  static constexpr size_t kCols = 10;
  CsdbMatrix a_;
  DenseMatrix b_;
  std::unique_ptr<memsim::MemorySystem> ms_;
};

TEST_F(OutputReuseTest, GaussianMatrixWritesEveryEntry) {
  const DenseMatrix fresh = linalg::GaussianMatrix(4096, 12, 5);
  for (const int threads : kPools) {
    const auto pool = Pool(threads);
    PoisonHeap(fresh.size());
    EXPECT_TRUE(BitsEqual(linalg::GaussianMatrix(4096, 12, 5, pool.get()), fresh))
        << threads << " threads";
  }
}

TEST_F(OutputReuseTest, ReducedQrOverwritesQAndIgnoresItsWorkspace) {
  const DenseMatrix a = linalg::GaussianMatrix(4096, 12, 3);
  DenseMatrix fresh;
  ASSERT_TRUE(linalg::ReducedQr(a, &fresh, nullptr).ok());
  for (const int threads : kPools) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto pool = Pool(threads);
    for (DenseMatrix& q : PoisonedOutputs(a.rows(), a.cols())) {
      ASSERT_TRUE(linalg::ReducedQr(a, &q, nullptr, pool.get()).ok());
      EXPECT_TRUE(BitsEqual(q, fresh));
    }
    // A workspace that last factorized a larger NaN matrix.
    linalg::QrWorkspace workspace;
    DenseMatrix junk;
    ASSERT_TRUE(
        linalg::ReducedQr(NaNMatrix(5000, 16), &junk, nullptr, pool.get(), &workspace)
            .ok());
    DenseMatrix q = NaNMatrix(a.rows(), a.cols());
    const float* storage = q.data();
    ASSERT_TRUE(linalg::ReducedQr(a, &q, nullptr, pool.get(), &workspace).ok());
    EXPECT_TRUE(BitsEqual(q, fresh));
    // Same shape twice: Q keeps its storage.
    ASSERT_TRUE(linalg::ReducedQr(a, &q, nullptr, pool.get(), &workspace).ok());
    EXPECT_EQ(q.data(), storage);
    EXPECT_TRUE(BitsEqual(q, fresh));
  }
}

TEST_F(OutputReuseTest, ParallelSpmmWritesEveryRow) {
  const DenseMatrix fresh = Fresh(b_);
  for (const int threads : kPools) {
    const auto pool = Pool(threads);
    sched::AllocatorOptions opts;
    opts.num_threads = threads;
    const auto workloads =
        sched::Allocate(a_, sched::AllocatorKind::kEntropyAware, opts);
    DenseMatrix c = NaNMatrix(a_.num_rows(), kCols);
    sparse::ParallelSpmm(a_, b_, &c, workloads, sparse::SpmmPlacements{},
                         exec::Context(ms_.get(), pool.get()));
    EXPECT_TRUE(BitsEqual(c, fresh)) << threads << " threads";
  }
}

TEST_F(OutputReuseTest, NadpExecuteWritesEveryElementThroughAReusedOperand) {
  const DenseMatrix fresh = Fresh(b_);
  for (const int threads : kPools) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto pool = Pool(threads);
    const exec::Context ctx(ms_.get(), pool.get(), threads);
    numa::NadpOptions opts;
    opts.num_threads = threads;
    const numa::NadpPlan plan = numa::NadpPlan::Build(a_, opts, ctx);
    sparse::kernels::PackedOperand packed = PoisonedOperand();
    const float* mapping = packed.Row(0);

    DenseMatrix c = NaNMatrix(a_.num_rows(), kCols);
    const float* storage = c.data();
    numa::NadpExecute(plan, a_, {b_, &c}, ctx, 0, SIZE_MAX, &packed);
    EXPECT_TRUE(BitsEqual(c, fresh));
    // Column partitions, as ASL streams them, onto a NaN output again.
    c.Fill(kNaN);
    for (const auto& [begin, end] : {std::pair<size_t, size_t>{0, 3}, {3, 7}, {7, kCols}}) {
      numa::NadpExecute(plan, a_, {b_, &c}, ctx, begin, end, &packed);
    }
    EXPECT_TRUE(BitsEqual(c, fresh));
    // Neither the output nor the operand moved: every pack fit the mapping.
    EXPECT_EQ(c.data(), storage);
    EXPECT_EQ(packed.Row(0), mapping);
  }
}

TEST_F(OutputReuseTest, ParallelCsrSpmmWritesEveryRow) {
  const graph::CsrMatrix csr = sparse::ToCsr(a_).value();
  const DenseMatrix fresh = Fresh(b_);
  for (const int threads : kPools) {
    const auto pool = Pool(threads);
    sparse::kernels::PackedOperand packed = PoisonedOperand();
    DenseMatrix c = NaNMatrix(a_.num_rows(), kCols);
    engine::StaticCsrSpmm(csr, {b_, &c}, sparse::SpmmPlacements{},
                          exec::Context(ms_.get(), pool.get(), threads), nullptr,
                          &packed);
    EXPECT_TRUE(BitsEqual(c, fresh)) << threads << " threads";
  }
}

TEST_F(OutputReuseTest, PackedOperandMapsOnlyToGrow) {
  sparse::kernels::PackedOperand packed;
  sparse::PackDense(b_, nullptr, &packed);
  const float* mapping = packed.Row(0);
  sparse::PackDense(b_, nullptr, &packed);  // same width
  EXPECT_EQ(packed.Row(0), mapping);
  sparse::PackDense(b_, nullptr, &packed, 2, 5);  // narrower
  EXPECT_EQ(packed.Row(0), mapping);
  EXPECT_EQ(packed.width(), 3u);
  // Narrower, the rows sit at the narrower stride.
  for (uint32_t r : {0u, 1u, a_.num_cols() - 1}) {
    for (size_t j = 0; j < 3; ++j) EXPECT_EQ(packed.Row(r)[j], b_.At(r, 2 + j));
  }
}

// The Chebyshev recurrence's packed terms: term 1 writes T_1 and the filter
// sum without reading them, so the executor NaN-fills both first; every term
// gathers from and writes into the same three packed blocks; and the result
// is the one new block, over a poisoned heap.
TEST_F(OutputReuseTest, ChebyshevFilterOverwritesItsOutputAndBuffers) {
  const CsdbMatrix s = embed::BuildPropagationMatrix(a_);
  const DenseMatrix r = linalg::GaussianMatrix(s.num_rows(), 8, 9);
  const std::vector<double> coeffs =
      embed::ChebyshevCoefficients(embed::ProneBandPass(0.2, 0.5), 5);
  const embed::SpmmExecutor fresh_spmm =
      [](const CsdbMatrix& m, const sparse::SpmmOperands& dense) -> Result<double> {
    sparse::ComputeAllRowsCsdb(m, dense, nullptr);
    return 0.0;
  };
  DenseMatrix fresh;
  ASSERT_TRUE(embed::ChebyshevFilterApply(s, coeffs, r, &fresh, fresh_spmm).ok());

  const auto poison = [](sparse::kernels::PackedOperand* p) {
    std::fill_n(p->Row(0), p->rows() * p->width(), kNaN);
  };
  for (const int threads : kPools) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto pool = Pool(threads);
    std::set<const float*> blocks;
    const embed::SpmmExecutor poisoning =
        [&](const CsdbMatrix& m, const sparse::SpmmOperands& dense) -> Result<double> {
      EXPECT_TRUE(dense.packed());
      if (dense.step.term == 1) {
        poison(dense.step.t);
        poison(dense.step.sum);
      }
      blocks.insert(dense.source->Row(0));
      blocks.insert(dense.step.t->Row(0));
      blocks.insert(dense.step.sum->Row(0));
      sparse::ComputeAllRowsCsdb(m, dense, pool.get());
      return 0.0;
    };
    for (DenseMatrix& out : PoisonedOutputs(r.rows(), r.cols())) {
      blocks.clear();
      PoisonHeap(r.size());
      ASSERT_TRUE(
          embed::ChebyshevFilterApply(s, coeffs, r, &out, poisoning, pool.get()).ok());
      EXPECT_TRUE(BitsEqual(out, fresh));
      // Two term blocks, alternating as gather source and T_k, and the sum.
      EXPECT_EQ(blocks.size(), 3u);
    }
  }
}

TEST_F(OutputReuseTest, RandomizedSvdCyclesThreeBlocks) {
  const CsdbMatrix target = embed::BuildTargetMatrix(a_, 1.0);
  const size_t n = target.num_rows();
  const linalg::MatMulFn fresh_apply = [&](const DenseMatrix& in, DenseMatrix* out) {
    *out = DenseMatrix(n, in.cols());
    sparse::ComputeAllRowsCsdb(target, {in, out}, nullptr);
    return Status::OK();
  };
  linalg::RandomizedSvdOptions opts;
  opts.rank = 8;
  opts.oversample = 4;
  opts.power_iterations = 2;
  const linalg::SvdResult fresh =
      linalg::RandomizedSvd(n, n, fresh_apply, fresh_apply, opts).value();

  for (const int threads : kPools) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    const auto pool = Pool(threads);
    opts.pool = pool.get();
    sparse::kernels::PackedOperand packed = PoisonedOperand();
    // Odd calls get a wrong-shaped NaN output, even calls keep theirs, NaN.
    int calls = 0;
    std::set<const float*> blocks;
    const linalg::MatMulFn poisoning = [&](const DenseMatrix& in, DenseMatrix* out) {
      if (++calls % 2 == 1) *out = NaNMatrix(n + 3, in.cols() + 1);
      out->ResizeForOverwrite(n, in.cols());
      out->Fill(kNaN);
      sparse::ComputeAllRowsCsdb(target, {in, out}, pool.get(), 0, SIZE_MAX, &packed);
      return Status::OK();
    };
    PoisonHeap(n * (opts.rank + opts.oversample));
    const linalg::SvdResult svd =
        linalg::RandomizedSvd(n, n, poisoning, poisoning, opts).value();
    EXPECT_TRUE(BitsEqual(svd.u, fresh.u));
    EXPECT_EQ(std::memcmp(svd.singular.data(), fresh.singular.data(),
                          fresh.singular.size() * sizeof(double)),
              0);

    // With an executor that keeps its output's storage, every operand and
    // output of the range finder is one of three blocks.
    const linalg::MatMulFn reusing = [&](const DenseMatrix& in, DenseMatrix* out) {
      out->ResizeForOverwrite(n, in.cols());
      blocks.insert(in.data());
      blocks.insert(out->data());
      sparse::ComputeAllRowsCsdb(target, {in, out}, pool.get(), 0, SIZE_MAX, &packed);
      return Status::OK();
    };
    const linalg::SvdResult reused =
        linalg::RandomizedSvd(n, n, reusing, reusing, opts).value();
    EXPECT_TRUE(BitsEqual(reused.u, fresh.u));
    EXPECT_EQ(blocks.size(), 3u);
  }
}

TEST_F(OutputReuseTest, ToOriginalOrderWritesEveryRow) {
  embed::EmbeddingResult emb;
  emb.vectors = linalg::GaussianMatrix(a_.num_rows(), 8, 11);
  emb.perm = a_.perm();
  DenseMatrix expected(emb.vectors.rows(), emb.vectors.cols());
  for (size_t c = 0; c < expected.cols(); ++c) {
    for (size_t r = 0; r < expected.rows(); ++r) {
      expected.At(emb.perm[r], c) = emb.vectors.At(r, c);
    }
  }
  for (const int threads : kPools) {
    const auto pool = Pool(threads);
    PoisonHeap(expected.size());
    EXPECT_TRUE(BitsEqual(emb.ToOriginalOrder(pool.get()), expected))
        << threads << " threads";
  }
}

// Two selective refreshes in a row, each packing three levels' terms into
// one operand, with NaN left on the heap before each, land on the bits of
// full-row refreshes.
TEST_F(OutputReuseTest, RefreshTermsOverReusedOperandMatchesFullRefresh) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 4000;
  const graph::Graph base = graph::GenerateRmat(params).value();
  auto refreshed = [&](int threads, bool refresh_all) {
    engine::EngineOptions options;
    options.system = engine::SystemKind::kOmega;
    options.num_threads = threads;
    options.prone.dim = 8;
    options.prone.oversample = 4;
    options.prone.chebyshev_order = 4;
    auto ms = memsim::MemorySystem::CreateDefault();
    ThreadPool pool(threads);
    const exec::Context ctx(ms.get(), &pool, threads);
    engine::DynamicEmbedder dyn(base, options, "test", threads);
    EXPECT_TRUE(dyn.Train(ctx).ok());
    for (const uint64_t seed : {21u, 22u}) {
      const std::vector<graph::Mutation> muts = graph::SyntheticMutations(base, 12, seed);
      for (size_t i = 0; i < muts.size(); ++i) dyn.Log(static_cast<int>(i), muts[i]);
      PoisonHeap(base.num_nodes() * options.prone.dim);
      const auto res = dyn.Refresh(ctx, refresh_all);
      EXPECT_TRUE(res.ok()) << res.status().ToString();
    }
    return dyn.embedding();
  };
  const DenseMatrix reference = refreshed(1, /*refresh_all=*/true);
  for (const int threads : kPools) {
    EXPECT_TRUE(BitsEqual(refreshed(threads, /*refresh_all=*/false), reference))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace omega
