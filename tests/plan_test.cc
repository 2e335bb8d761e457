// Plan/execute split tests: a reused plan must be *exactly* equivalent to
// per-call planning — bit-identical embeddings and byte-identical simulated
// seconds (DESIGN.md's two-clock contract) — across thread counts, NaDP
// modes, WoFP on/off, and the CSR baseline kernels.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "omega/baselines.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/fused.h"
#include "sparse/semi_external.h"
#include "sparse/spmm_plan.h"

namespace omega {
namespace {

using graph::CsdbMatrix;
using graph::CsrMatrix;
using linalg::DenseMatrix;
using numa::NadpOptions;
using numa::NadpResult;
using sparse::CsrSpmmPlan;

CsdbMatrix TestMatrix(uint32_t scale = 10, uint64_t edges = 15000) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  return CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
}

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

bool BitIdentical(const DenseMatrix& x, const DenseMatrix& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.bytes()) == 0;
}

// Byte-exact equality of two NadpResults (EXPECT_EQ on doubles: the plan
// path must replay the *same* charges, not approximately the same).
void ExpectIdenticalResults(const NadpResult& a, const NadpResult& b) {
  EXPECT_EQ(a.phase_seconds, b.phase_seconds);
  EXPECT_EQ(a.wofp_build_seconds, b.wofp_build_seconds);
  EXPECT_EQ(a.nnz_processed, b.nnz_processed);
  ASSERT_EQ(a.thread_seconds.size(), b.thread_seconds.size());
  for (size_t t = 0; t < a.thread_seconds.size(); ++t) {
    EXPECT_EQ(a.thread_seconds[t], b.thread_seconds[t]) << "thread " << t;
  }
  for (int op = 0; op < sparse::kNumSpmmOps; ++op) {
    EXPECT_EQ(a.breakdown.seconds[op], b.breakdown.seconds[op]) << "op " << op;
  }
}

class PlanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = TestMatrix();
    b_ = linalg::GaussianMatrix(a_.num_cols(), 8, 5);
    ms_ = memsim::MemorySystem::CreateDefault();
    pool_ = std::make_unique<ThreadPool>(8);
  }

  exec::Context Ctx() { return exec::Context(ms_.get(), pool_.get()); }

  CsdbMatrix a_;
  DenseMatrix b_;
  std::unique_ptr<memsim::MemorySystem> ms_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(PlanTest, NadpPlanReuseIsSimulationIdenticalAcrossModes) {
  for (const int threads : {1, 2, 8}) {
    for (const bool enabled : {false, true}) {
      for (const bool use_wofp : {false, true}) {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " enabled=" + std::to_string(enabled) +
                     " wofp=" + std::to_string(use_wofp));
        NadpOptions opts;
        opts.num_threads = threads;
        opts.enabled = enabled;
        opts.use_wofp = use_wofp;

        DenseMatrix c_percall(a_.num_rows(), b_.cols());
        const NadpResult r_percall = NadpSpmm(a_, b_, &c_percall, opts, Ctx());

        const numa::NadpPlan plan = numa::NadpPlan::Build(a_, opts, Ctx());
        ASSERT_TRUE(plan.valid());
        DenseMatrix c_plan(a_.num_rows(), b_.cols());
        const NadpResult r_plan = NadpExecute(plan, a_, {b_, &c_plan}, Ctx());
        ExpectIdenticalResults(r_percall, r_plan);
        EXPECT_TRUE(BitIdentical(c_percall, c_plan));

        // Second execute through the same plan: still identical — the WoFP
        // warm-up charges are replayed on every call, not just the first.
        DenseMatrix c_again(a_.num_rows(), b_.cols());
        const NadpResult r_again = NadpExecute(plan, a_, {b_, &c_again}, Ctx());
        ExpectIdenticalResults(r_percall, r_again);
        EXPECT_TRUE(BitIdentical(c_percall, c_again));
      }
    }
  }
}

TEST_F(PlanTest, NadpPlanReuseIdenticalOnColumnRanges) {
  // ASL hands NadpExecute one column partition at a time; the per-call
  // recomputed column blocks must match per-call planning on every range.
  NadpOptions opts;
  opts.num_threads = 8;
  opts.use_wofp = true;
  const numa::NadpPlan plan = numa::NadpPlan::Build(a_, opts, Ctx());
  for (const auto& [begin, end] :
       std::vector<std::pair<size_t, size_t>>{{0, 4}, {4, 8}, {0, 8}, {3, 5}}) {
    SCOPED_TRACE("cols=[" + std::to_string(begin) + "," + std::to_string(end) + ")");
    DenseMatrix c_percall(a_.num_rows(), b_.cols());
    const NadpResult r_percall =
        NadpSpmm(a_, b_, &c_percall, opts, Ctx(), begin, end);
    DenseMatrix c_plan(a_.num_rows(), b_.cols());
    const NadpResult r_plan =
        NadpExecute(plan, a_, {b_, &c_plan}, Ctx(), begin, end);
    ExpectIdenticalResults(r_percall, r_plan);
    EXPECT_TRUE(BitIdentical(c_percall, c_plan));
  }
}

TEST_F(PlanTest, NadpPlanMatchesInvalidation) {
  NadpOptions opts;
  opts.num_threads = 8;
  const numa::NadpPlan plan = numa::NadpPlan::Build(a_, opts, Ctx());
  EXPECT_TRUE(plan.Matches(a_, opts));

  NadpOptions changed = opts;
  changed.beta = 0.5;
  EXPECT_FALSE(plan.Matches(a_, changed));
  changed = opts;
  changed.num_threads = 4;
  EXPECT_FALSE(plan.Matches(a_, changed));
  changed = opts;
  changed.use_wofp = !opts.use_wofp;
  EXPECT_FALSE(plan.Matches(a_, changed));
  changed = opts;
  changed.wofp.sigma = 0.2;
  EXPECT_FALSE(plan.Matches(a_, changed));

  const CsdbMatrix other = TestMatrix(9, 9000);
  EXPECT_FALSE(plan.Matches(other, opts));
  EXPECT_FALSE(numa::NadpPlan().Matches(a_, opts));  // invalid plans never match

  numa::NadpPlanCache cache;
  EXPECT_FALSE(cache.Contains(a_, opts));
  cache.Get(a_, opts, Ctx());
  EXPECT_TRUE(cache.Contains(a_, opts));
  EXPECT_FALSE(cache.Contains(a_, changed));
}

TEST_F(PlanTest, MoreThreadsThanRowsThroughPlanPath) {
  // 8 simulated threads over a 4-row matrix: some workers get empty or no
  // workloads; the plan path must mirror the per-call early exits exactly.
  const CsdbMatrix tiny = TestMatrix(2, 12);
  ASSERT_LT(tiny.num_rows(), 8u);
  const DenseMatrix b = linalg::GaussianMatrix(tiny.num_cols(), 4, 7);
  DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(tiny, b, &expected).ok());

  for (const bool enabled : {false, true}) {
    for (const bool use_wofp : {false, true}) {
      SCOPED_TRACE("enabled=" + std::to_string(enabled) +
                   " wofp=" + std::to_string(use_wofp));
      NadpOptions opts;
      opts.num_threads = 8;
      opts.enabled = enabled;
      opts.use_wofp = use_wofp;
      DenseMatrix c_percall(tiny.num_rows(), b.cols());
      const NadpResult r_percall = NadpSpmm(tiny, b, &c_percall, opts, Ctx());
      const numa::NadpPlan plan = numa::NadpPlan::Build(tiny, opts, Ctx());
      DenseMatrix c_plan(tiny.num_rows(), b.cols());
      const NadpResult r_plan = NadpExecute(plan, tiny, {b, &c_plan}, Ctx());
      ExpectIdenticalResults(r_percall, r_plan);
      EXPECT_TRUE(BitIdentical(c_percall, c_plan));
      EXPECT_LT(DenseMatrix::MaxAbsDiff(c_plan, expected), 1e-4);
    }
  }
}

TEST_F(PlanTest, CsrSpmmPlanPartsCoverMatrix) {
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  for (const auto split :
       {CsrSpmmPlan::Split::kEqualRows, CsrSpmmPlan::Split::kEqualNnz}) {
    const CsrSpmmPlan plan = CsrSpmmPlan::Build(csr, 8, split);
    ASSERT_TRUE(plan.valid());
    ASSERT_EQ(plan.parts().size(), 8u);
    uint64_t nnz = 0;
    uint32_t row = 0;
    for (const sparse::CsrPlanPart& part : plan.parts()) {
      EXPECT_EQ(part.row_begin, row);
      row = part.row_end;
      nnz += part.nnz;
    }
    EXPECT_EQ(row, csr.num_rows());
    EXPECT_EQ(nnz, csr.nnz());
  }
  const CsrSpmmPlan rows_plan =
      CsrSpmmPlan::Build(csr, 8, CsrSpmmPlan::Split::kEqualRows);
  EXPECT_TRUE(rows_plan.Matches(csr, 8, CsrSpmmPlan::Split::kEqualRows));
  EXPECT_FALSE(rows_plan.Matches(csr, 8, CsrSpmmPlan::Split::kEqualNnz));
  EXPECT_FALSE(rows_plan.Matches(csr, 4, CsrSpmmPlan::Split::kEqualRows));
}

TEST_F(PlanTest, FusedMmPlanReuseMatchesPerCall) {
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  const int threads = Ctx().threads();

  DenseMatrix c_percall(csr.num_rows(), b_.cols());
  const auto r_percall = sparse::FusedMmSpmm(csr, b_, &c_percall, Ctx());
  ASSERT_TRUE(r_percall.ok());

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, threads, CsrSpmmPlan::Split::kEqualRows);
  for (int pass = 0; pass < 2; ++pass) {
    DenseMatrix c_plan(csr.num_rows(), b_.cols());
    const auto r_plan = sparse::FusedMmSpmm(csr, b_, &c_plan, Ctx(), &plan);
    ASSERT_TRUE(r_plan.ok());
    EXPECT_EQ(r_percall.value().phase_seconds, r_plan.value().phase_seconds);
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(r_percall.value().thread_seconds[t],
                r_plan.value().thread_seconds[t]);
    }
    EXPECT_TRUE(BitIdentical(c_percall, c_plan));
  }
}

TEST_F(PlanTest, SemiExternalPlanReuseMatchesPerCall) {
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  sparse::SemiExternalOptions opts;
  opts.dram_budget_bytes = 1ULL << 20;  // force a spill fraction
  const int threads = Ctx().threads();

  DenseMatrix c_percall(csr.num_rows(), b_.cols());
  const auto r_percall = SemiExternalSpmm(csr, b_, &c_percall, opts, Ctx());

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, threads, CsrSpmmPlan::Split::kEqualNnz);
  for (int pass = 0; pass < 2; ++pass) {
    DenseMatrix c_plan(csr.num_rows(), b_.cols());
    const auto r_plan = SemiExternalSpmm(csr, b_, &c_plan, opts, Ctx(), &plan);
    EXPECT_EQ(r_percall.phase_seconds, r_plan.phase_seconds);
    EXPECT_EQ(r_percall.nnz_processed, r_plan.nnz_processed);
    for (int t = 0; t < threads; ++t) {
      EXPECT_EQ(r_percall.thread_seconds[t], r_plan.thread_seconds[t]);
    }
    EXPECT_TRUE(BitIdentical(c_percall, c_plan));
  }
}

TEST_F(PlanTest, StaticCsrSpmmPlanPathIdentical) {
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  sparse::SpmmPlacements pl;
  pl.index = {memsim::Tier::kDram, memsim::Placement::kInterleaved};
  pl.sparse = {memsim::Tier::kDram, memsim::Placement::kInterleaved};
  pl.dense = {memsim::Tier::kDram, memsim::Placement::kInterleaved};
  pl.result = {memsim::Tier::kDram, memsim::Placement::kInterleaved};
  const exec::Context ctx = Ctx().WithThreads(8);

  DenseMatrix c_percall(csr.num_rows(), b_.cols());
  const auto r_percall = engine::StaticCsrSpmm(csr, {b_, &c_percall}, pl, ctx);

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, 8, CsrSpmmPlan::Split::kEqualRows);
  DenseMatrix c_plan(csr.num_rows(), b_.cols());
  const auto r_plan = engine::StaticCsrSpmm(csr, {b_, &c_plan}, pl, ctx, &plan);
  EXPECT_EQ(r_percall.phase_seconds, r_plan.phase_seconds);
  for (int t = 0; t < 8; ++t) {
    EXPECT_EQ(r_percall.thread_seconds[t], r_plan.thread_seconds[t]);
  }
  EXPECT_TRUE(BitIdentical(c_percall, c_plan));
}

// Every NadpExecute charge pinned bit for bit: the values were recorded
// before the cache-attached path moved from a per-call walk to plan
// metadata, so any drift in a charge's arguments, clock or order shows here.
TEST_F(PlanTest, NadpExecuteChargesPinned) {
  struct Pinned {
    bool enabled;
    bool use_wofp;
    int threads;
    size_t col_begin;
    size_t col_end;
    double phase_seconds;
    double wofp_build_seconds;
    double breakdown[sparse::kNumSpmmOps];
    std::vector<double> thread_seconds;
    int sockets = 2;
  };
  const Pinned pinned[] = {
      {0, 0, 1, 0, SIZE_MAX, 0x1.c05e5c07f23e7p-7, 0x0p+0,
       {0x1.ab967dae714e7p-19, 0x1.e787f94caec49p-13, 0x1.b5ef98978fdedp-7, 0x1.48a1d1c3ceeebp-14, 0x1.2533fe68fd3d2p-18},
       {0x1.c05e5c07f23e7p-7}},
      {0, 1, 1, 0, SIZE_MAX, 0x1.68b6039ee7b08p-8, 0x1.86f4581b7318bp-11,
       {0x1.ab967dae714e7p-19, 0x1.e787f94caec49p-13, 0x1.22f9f1bab48e1p-8, 0x1.48a1d1c3ceeebp-14, 0x1.2533fe68fd3d2p-18},
       {0x1.68b6039ee7b08p-8}},
      {1, 0, 1, 0, SIZE_MAX, 0x1.76d1638729b2ap-8, 0x0p+0,
       {0x1.6e80fe033c8c6p-19, 0x1.e76fe7338f7a8p-13, 0x1.61977607af3d2p-8, 0x1.48a1d1c3ceeebp-14, 0x1.b7cdfd9d7bdbap-19},
       {0x1.76d1638729b2ap-8}},
      {1, 1, 1, 0, SIZE_MAX, 0x1.2ad1755c781c5p-9, 0x1.97c3ba190ee0ep-12,
       {0x1.6e80fe033c8c6p-19, 0x1.e76fe7338f7a8p-13, 0x1.9aca4634c2aa6p-10, 0x1.48a1d1c3ceeebp-14, 0x1.b7cdfd9d7bdbap-19},
       {0x1.2ad1755c781c5p-9}},
      {0, 0, 2, 0, SIZE_MAX, 0x1.9f10c83ab0edbp-8, 0x0p+0,
       {0x1.ac10a8adc7b8p-19, 0x1.e787f94caec49p-13, 0x1.8a0f119aa4fe9p-7, 0x1.48a1d1c3ceeebp-14, 0x1.2533fe68fd3d1p-18},
       {0x1.89eaf120bdb9ap-8, 0x1.9f10c83ab0edbp-8}},
      {0, 1, 2, 0, SIZE_MAX, 0x1.942ccc18bd3e4p-9, 0x1.df5f5d4160f54p-12,
       {0x1.ac10a8adc7b8p-19, 0x1.e787f94caec49p-13, 0x1.22f9f1bab48e1p-8, 0x1.48a1d1c3ceeebp-14, 0x1.2533fe68fd3d1p-18},
       {0x1.942ccc18bd3e4p-9, 0x1.4870f18de0169p-9}},
      {1, 0, 2, 0, SIZE_MAX, 0x1.76d17ca618ff9p-9, 0x0p+0,
       {0x1.6e80fe033c8c6p-19, 0x1.e787f94caec4ap-13, 0x1.61960e050c958p-8, 0x1.48a1d1c3ceeebp-14, 0x1.b7cdfd9d7bdbap-19},
       {0x1.76cffb84870afp-9, 0x1.76d17ca618ff9p-9}},
      {1, 1, 2, 0, SIZE_MAX, 0x1.5dcceee2bde1ap-10, 0x1.97c3ba190ee0ep-12,
       {0x1.6e80fe033c8c6p-19, 0x1.e787f94caec4ap-13, 0x1.9aca4634c2aa6p-10, 0x1.48a1d1c3ceeebp-14, 0x1.b7cdfd9d7bdbap-19},
       {0x1.5dc9ec9f99f87p-10, 0x1.5dcceee2bde1ap-10}},
      {0, 0, 8, 0, SIZE_MAX, 0x1.6c13a3d0a5a35p-10, 0x0p+0,
       {0x1.167386a9daa6ap-18, 0x1.4642d277c66bbp-12, 0x1.3ae475d169266p-7, 0x1.48a1d1c3ceeebp-14, 0x1.69e30469a54f9p-18},
       {0x1.22aa779b9669dp-10, 0x1.277c93cca4a8p-10, 0x1.3a8be0efa2f8cp-10, 0x1.4277baf2c5aa7p-10, 0x1.4bebb584f7321p-10, 0x1.5aca5b3c8f3f2p-10, 0x1.65ca7af3bb732p-10, 0x1.6c13a3d0a5a35p-10}},
      {0, 1, 8, 0, SIZE_MAX, 0x1.fc6a3ccc0ca65p-11, 0x1.1af0565b61d64p-13,
       {0x1.167386a9daa6ap-18, 0x1.4642d277c66bbp-12, 0x1.584b52bdb4096p-8, 0x1.48a1d1c3ceeebp-14, 0x1.69e30469a54f9p-18},
       {0x1.fc6a3ccc0ca65p-11, 0x1.b9fe69f8c7a2bp-11, 0x1.c961fcd7d9ff1p-11, 0x1.aad5804b45b42p-11, 0x1.a2e90f0326047p-11, 0x1.9d516ea9cef74p-11, 0x1.8ccc54b4e7acbp-11, 0x1.6d5a62e670f9ap-11}},
      {1, 0, 8, 0, SIZE_MAX, 0x1.5c7f5c63735b3p-11, 0x0p+0,
       {0x1.72cc80fd4642p-19, 0x1.e787f94caec49p-13, 0x1.3cd3fc80d3455p-8, 0x1.48a1d1c3ceeebp-14, 0x1.bacfa6194f746p-19},
       {0x1.49e3fde62e90bp-11, 0x1.4577413ea5fdp-11, 0x1.5c7f5c63735b3p-11, 0x1.5c60b30ea9f0fp-11, 0x1.4b2c5e355fb22p-11, 0x1.463cc6b2720a4p-11, 0x1.5b67f3b84e6d6p-11, 0x1.5b703a7d19829p-11}},
      {1, 1, 8, 0, SIZE_MAX, 0x1.b0baad413d322p-12, 0x1.09906e8cbaf61p-13,
       {0x1.72cc80fd4642p-19, 0x1.e787f94caec49p-13, 0x1.bacb2dac956p-10, 0x1.48a1d1c3ceeebp-14, 0x1.bacfa6194f746p-19},
       {0x1.ae29eca2daef4p-12, 0x1.8e7532e978d0bp-12, 0x1.6f84b708447bcp-12, 0x1.4697cec943897p-12, 0x1.b0baad413d322p-12, 0x1.90003dd110eb5p-12, 0x1.6d55e5b1faa02p-12, 0x1.44b6dda622acap-12}},
      {0, 0, 8, 3, 5, 0x1.6bec369474ae1p-12, 0x0p+0,
       {0x1.167386a9daa6ap-20, 0x1.4642d277c66bbp-14, 0x1.3ad407f2b312bp-9, 0x1.48a1d1c3ceeebp-16, 0x1.69e30469a54f9p-20},
       {0x1.22aa779b9669dp-12, 0x1.276f6c8b86ea4p-12, 0x1.3a8be0efa2f8cp-12, 0x1.425d6c708a2efp-12, 0x1.4bd16702bbb6ap-12, 0x1.5aca5b3c8f3f2p-12, 0x1.65b03d7fd07f8p-12, 0x1.6bec369474ae1p-12}},
      {0, 1, 8, 3, 5, 0x1.68420678dcbddp-12, 0x1.1af0565b61d64p-13,
       {0x1.167386a9daa6ap-20, 0x1.4642d277c66bbp-14, 0x1.581d3407e7476p-10, 0x1.48a1d1c3ceeebp-16, 0x1.69e30469a54f9p-20},
       {0x1.68420678dcbddp-12, 0x1.3920265bb618fp-12, 0x1.43fdb81d0d603p-12, 0x1.2c0c64526bc45p-12, 0x1.27f9e763e6719p-12, 0x1.21a9bec8d45a4p-12, 0x1.15046ebcc6b41p-12, 0x1.f7b8ff4f1857cp-13}},
      {1, 0, 8, 3, 5, 0x1.5c7f62862e774p-13, 0x0p+0,
       {0x1.72cc80fd4642p-21, 0x1.e787f94caec49p-15, 0x1.3cd12e043cbcfp-10, 0x1.48a1d1c3ceeebp-16, 0x1.bacfa6194f746p-21},
       {0x1.49e3fde62e90bp-13, 0x1.457747616119p-13, 0x1.5c7f62862e774p-13, 0x1.5c556cd6d9977p-13, 0x1.4b2c5e355fb22p-13, 0x1.463cccd52d264p-13, 0x1.5b67f9db09897p-13, 0x1.5b64f44549291p-13}},
      {1, 1, 8, 3, 5, 0x1.9f89bbf25c25bp-13, 0x1.09906e8cbaf61p-13,
       {0x1.72cc80fd4642p-21, 0x1.e787f94caec49p-15, 0x1.ba92f988a164ep-12, 0x1.48a1d1c3ceeebp-16, 0x1.bacfa6194f746p-21},
       {0x1.9e415ba32b045p-13, 0x1.819f0152b32b3p-13, 0x1.61288f2c4ac9ep-13, 0x1.35128bb4ec282p-13, 0x1.9f89bbf25c25bp-13, 0x1.826486c67f387p-13, 0x1.6011268125dc1p-13, 0x1.342213235bb9bp-13}},
      // Uneven layouts: 3 threads on 2 sockets, 5 threads on 4 (2/2/1/0).
      {0, 1, 3, 0, SIZE_MAX, 0x1.18b9ab60d7a3p-9, 0x1.5d959b9181866p-12,
       {0x1.b930471b900dbp-19, 0x1.e787f94caec4ap-13, 0x1.2723646f89e56p-8, 0x1.48a1d1c3ceeebp-14, 0x1.2923e1238623ap-18},
       {0x1.18b9ab60d7a3p-9, 0x1.f9e67c22c3662p-10, 0x1.ac55b3804345dp-10}, 2},
      {1, 1, 3, 0, SIZE_MAX, 0x1.5dcceee2bde1ap-10, 0x1.97c3ba190ee0ep-12,
       {0x1.7078ef6080ffap-19, 0x1.e787f94caec49p-13, 0x1.9aca4634c2aa6p-10, 0x1.48a1d1c3ceeebp-14, 0x1.b917d81bb1f88p-19},
       {0x1.89cb574cd0842p-11, 0x1.4439c94429913p-11, 0x1.5dcceee2bde1ap-10}, 2},
      {0, 1, 5, 0, SIZE_MAX, 0x1.cdcfbcf00f1d3p-10, 0x1.08e59f9976e87p-12,
       {0x1.0456706e9c8a5p-18, 0x1.f08f3b8bbb7c6p-13, 0x1.a0716b6b1f142p-8, 0x1.48a1d1c3ceeecp-14, 0x1.5e5ca939a4db5p-18},
       {0x1.cdcfbcf00f1d3p-10, 0x1.b32ff36cc5b9ep-10, 0x1.98ed92de90d4p-10, 0x1.8402469b0298bp-10, 0x1.59a47730d937fp-10}, 4},
      // Re-pinned when the column split began counting only sockets with a
      // worker: sockets 0-2 now take 3/3/2 of the 8 columns (2/2/2 before,
      // with socket 3's 2 left uncharged).
      {1, 1, 5, 0, SIZE_MAX, 0x1.c45f686376a14p-11, 0x1.97c3ba190ee0ep-12,
       {0x1.72cc80fd4642p-19, 0x1.f07cd35a6752cp-13, 0x1.9aca4634c2aa6p-10, 0x1.48a1d1c3ceeebp-14, 0x1.ba0f3bfa5a8e4p-19},
       {0x1.46cc4561c6038p-11, 0x1.0c3f4e41be77ap-11, 0x1.46ce6518b22fbp-11, 0x1.0c3f4e41be77ap-11, 0x1.c45f686376a14p-11}, 4},
      {1, 0, 5, 3, 5, 0x1.5a8c4761afa75p-12, 0x0p+0,
       {0x1.73df61bbc8af7p-21, 0x1.f076b09f4b44ep-15, 0x1.3ca5f7686e274p-10, 0x1.48a1d1c3ceeeap-16, 0x1.bacfa6194f746p-21},
       {0x1.49d7a50ad792ap-12, 0x1.5a8c4761afa75p-12, 0x1.49d90f84ca5acp-12, 0x1.5a8c4761afa75p-12, 0x0p+0}, 4},
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("threads=" + std::to_string(p.threads) +
                 " sockets=" + std::to_string(p.sockets) +
                 " enabled=" + std::to_string(p.enabled) +
                 " wofp=" + std::to_string(p.use_wofp) +
                 " cols=[" + std::to_string(p.col_begin) + "," +
                 std::to_string(p.col_end) + ")");
    NadpOptions opts;
    opts.num_threads = p.threads;
    opts.enabled = p.enabled;
    opts.use_wofp = p.use_wofp;
    memsim::TopologyConfig topo;
    topo.num_sockets = p.sockets;
    memsim::MemorySystem ms(topo, memsim::DefaultProfiles());
    DenseMatrix c(a_.num_rows(), b_.cols());
    const NadpResult r = NadpSpmm(a_, b_, &c, opts,
                                  exec::Context(&ms, pool_.get()),
                                  p.col_begin, p.col_end);
    EXPECT_EQ(r.phase_seconds, p.phase_seconds);
    EXPECT_EQ(r.wofp_build_seconds, p.wofp_build_seconds);
    for (int op = 0; op < sparse::kNumSpmmOps; ++op) {
      EXPECT_EQ(r.breakdown.seconds[op], p.breakdown[op]) << "op " << op;
    }
    EXPECT_EQ(r.thread_seconds, p.thread_seconds);
    if (r.thread_seconds != p.thread_seconds || r.phase_seconds != p.phase_seconds) {
      std::string actual = Hex(r.phase_seconds) + ", " + Hex(r.wofp_build_seconds) + ",\n {";
      for (int op = 0; op < sparse::kNumSpmmOps; ++op) actual += Hex(r.breakdown.seconds[op]) + ", ";
      actual += "},\n {";
      for (double t : r.thread_seconds) actual += Hex(t) + ", ";
      ADD_FAILURE() << "actual pin:\n" << actual << "}";
    }
  }
}

// NaDP hands each socket with a worker one column block, and the blocks must
// cover the call's column range: every covered (row, column) is written once
// by its worker's write_result charge and once by its merge into the result,
// both on the DRAM result tier. At 5 threads on 4 sockets the block layout
// leaves socket 3 without a worker, so its columns must go to the others.
TEST_F(PlanTest, NadpColumnBlocksCoverTheRangeAtUnevenLayouts) {
  struct Layout {
    int threads;
    int sockets;
  };
  for (const Layout l : {Layout{5, 4}, Layout{6, 4}, Layout{3, 4}, Layout{3, 2},
                         Layout{8, 2}}) {
    for (const auto& [col_begin, col_end] :
         {std::pair<size_t, size_t>{0, 8}, std::pair<size_t, size_t>{3, 8}}) {
      SCOPED_TRACE(std::to_string(l.threads) + " threads on " +
                   std::to_string(l.sockets) + " sockets, cols [" +
                   std::to_string(col_begin) + "," + std::to_string(col_end) + ")");
      NadpOptions opts;
      opts.num_threads = l.threads;
      opts.use_wofp = false;
      memsim::TopologyConfig topo;
      topo.num_sockets = l.sockets;
      memsim::MemorySystem ms(topo, memsim::DefaultProfiles());
      DenseMatrix c(a_.num_rows(), b_.cols());
      const memsim::TrafficSnapshot before = ms.Traffic();
      NadpSpmm(a_, b_, &c, opts, exec::Context(&ms, pool_.get()), col_begin,
               col_end);
      const memsim::TrafficSnapshot delta = ms.Traffic() - before;
      uint64_t dram_writes = 0;
      for (const auto& by_pattern :
           delta.bytes[static_cast<int>(memsim::Tier::kDram)]
                      [static_cast<int>(memsim::MemOp::kWrite)]) {
        for (const uint64_t bytes : by_pattern) dram_writes += bytes;
      }
      EXPECT_EQ(dram_writes,
                2 * uint64_t{a_.num_rows()} * (col_end - col_begin) * sizeof(float));
    }
  }
}

// One digest line per value: phase seconds, every worker's seconds, the
// summed breakdown and the nnz count, all hex floats.
std::string Digest(const sparse::ParallelSpmmResult& r) {
  std::string s = "phase " + Hex(r.phase_seconds) + "\nthreads";
  // Appends, not " " + Hex(...): GCC 12 at -O3 flags that with a false
  // -Wrestrict.
  for (double t : r.thread_seconds) s.append(" ").append(Hex(t));
  s += "\nbreakdown";
  for (double op : r.total_breakdown.seconds) s.append(" ").append(Hex(op));
  return s + "\nnnz " + std::to_string(r.nnz_processed) + "\n";
}

// The parallel CSDB SpMM and the three CSR baseline kernels pinned bit for
// bit at 3 threads on the default 2 sockets and at 5 threads on 4 sockets,
// where the block layout leaves socket groups of 2/2/1/0. Host parallelism
// must not show: every pool size, smaller or larger than the simulated
// thread count, yields the same digests and the same C bits (the CSR driver
// under both splits, and ParallelSpmm).
TEST_F(PlanTest, ParallelAndCsrKernelChargesPinned) {
  struct Case {
    int sockets;
    int threads;
    const char* parallel;
    const char* fused;
    const char* semi_external;
    const char* static_csr;
  };
  // clang-format off
  const Case cases[] = {
      {2, 3,
       "phase 0x1.07ee2d554406bp-8\n"
       "threads 0x1.d881a7624b36dp-9 0x1.018a7fd28c512p-8 0x1.07ee2d554406bp-8\n"
       "breakdown 0x1.d3ac9976cbeddp-19 0x1.ef612b416a0cap-13 0x1.70461381918p-7 0x1.48a1d1c3ceeebp-14 0x1.554e862636c92p-18\n"
       "nnz 19588\n",
       "phase 0x1.4f92d389cc2ccp-11\n"
       "threads 0x1.4f92d389cc2ccp-11 0x1.67342fb48ebcbp-14 0x1.9d3351606a1d4p-16\n"
       "breakdown 0x1.971144caed954p-21 0x1.b823206105ad4p-17 0x1.04c6cc4e2691ap-11 0x1.ecf2baa5b6661p-13 0x1.0c94208b2bf88p-18\n"
       "nnz 19588\n",
       "phase 0x1.290441696809cp-9\n"
       "threads 0x1.3742eeec01e41p-11 0x1.58d3a93de5deap-11 0x1.290441696809cp-9\n"
       "breakdown 0x1.8777e75094fc4p-15 0x1.6d2593bd1ed06p-14 0x1.b0917fecc7663p-9 0x1.48a1d1c3ceeebp-14 0x1.58997ba1a4a14p-18\n"
       "nnz 19588\n",
       "phase 0x1.6eb41574c2c4cp-7\n"
       "threads 0x1.6eb41574c2c4cp-7 0x1.8c846d72d3bep-10 0x1.5f2a29664cdd7p-13\n"
       "breakdown 0x1.971144caed954p-18 0x1.f91a5cb2a4569p-13 0x1.9af72a05b97d9p-7 0x1.48a1d1c3ceeebp-14 0x1.0c94208b2bf88p-18\n"
       "nnz 19588\n"},
      {4, 5,
       "phase 0x1.7f6152cd699e8p-9\n"
       "threads 0x1.2e9bc57f0bdfep-9 0x1.4c82413fab276p-9 0x1.6137a089253afp-9 0x1.73d4b718bd03ap-9 0x1.7f6152cd699e8p-9\n"
       "breakdown 0x1.f06d380ee2432p-19 0x1.eb7dc65fb67d6p-13 0x1.a957f210c767ap-7 0x1.48a1d1c3ceeecp-14 0x1.65c5518f5c017p-18\n"
       "nnz 19588\n",
       "phase 0x1.19433116368c5p-11\n"
       "threads 0x1.19433116368c5p-11 0x1.ed7d829de5bfdp-14 0x1.bee4356f65722p-14 0x1.4d14f0aea1a8ap-15 0x1.295fd16f32ef6p-18\n"
       "breakdown 0x1.b7c1c61d8cd13p-21 0x1.c30243e9ee411p-17 0x1.20d531f0624d7p-11 0x1.ecf2baa5b666p-13 0x1.33ce5554b7d9ep-18\n"
       "nnz 19588\n",
       "phase 0x1.5e4409bd83099p-10\n"
       "threads 0x1.6373e64a7011ep-12 0x1.7998d1e59933cp-12 0x1.171c81f18cfb6p-10 0x1.308cee431cbdep-10 0x1.5e4409bd83099p-10\n"
       "breakdown 0x1.a36e2eb1c432ep-14 0x1.0e2394c3779f1p-13 0x1.02d112b6364a5p-8 0x1.48a1d1c3ceeecp-14 0x1.66ea858dc4febp-18\n"
       "nnz 19588\n",
       "phase 0x1.78fab51af7daap-7\n"
       "threads 0x1.78fab51af7daap-7 0x1.501bc30d4975fp-9 0x1.fee14d9069a0ap-11 0x1.75e740ea3afadp-12 0x1.00c207b0a9c18p-15\n"
       "breakdown 0x1.b7c1c61d8cd13p-18 0x1.f7f9b3d9b3a2ap-13 0x1.eed11a4ff69ecp-7 0x1.48a1d1c3ceeebp-14 0x1.33ce5554b7d9ep-18\n"
       "nnz 19588\n"},
  };
  // clang-format on
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  for (const Case& p : cases) {
    memsim::TopologyConfig topo;
    topo.num_sockets = p.sockets;
    sched::AllocatorOptions alloc;
    alloc.num_threads = p.threads;
    const std::vector<sched::Workload> workloads =
        sched::Allocate(a_, sched::AllocatorKind::kEntropyAware, alloc);
    sparse::SpmmPlacements pl;
    pl.sparse = {memsim::Tier::kPm, 1};
    pl.dense = {memsim::Tier::kPm, memsim::Placement::kInterleaved};
    sparse::SemiExternalOptions sem_opts;
    sem_opts.dram_budget_bytes = 1ULL << 20;  // force a spill fraction

    // C of each kernel at the first pool size; later pool sizes must match.
    std::vector<DenseMatrix> first_c;
    for (const size_t pool_size : {1, 2, 8}) {
      SCOPED_TRACE(std::to_string(p.threads) + " threads on " +
                   std::to_string(p.sockets) + " sockets, pool of " +
                   std::to_string(pool_size));
      ThreadPool pool(pool_size);
      memsim::MemorySystem ms(topo, memsim::DefaultProfiles());
      const exec::Context ctx(&ms, &pool, p.threads);

      std::vector<DenseMatrix> c(4, DenseMatrix(a_.num_rows(), b_.cols()));
      const std::string parallel =
          Digest(sparse::ParallelSpmm(a_, b_, &c[0], workloads, pl, ctx));
      EXPECT_EQ(p.parallel, parallel) << "actual parallel pin:\n" << parallel;

      const auto fused_r = sparse::FusedMmSpmm(csr, b_, &c[1], ctx);
      ASSERT_TRUE(fused_r.ok());
      const std::string fused = Digest(fused_r.value());
      EXPECT_EQ(p.fused, fused) << "actual fused pin:\n" << fused;

      const std::string semi_external =
          Digest(sparse::SemiExternalSpmm(csr, b_, &c[2], sem_opts, ctx));
      EXPECT_EQ(p.semi_external, semi_external)
          << "actual semi_external pin:\n" << semi_external;

      const std::string static_csr =
          Digest(engine::StaticCsrSpmm(csr, {b_, &c[3]}, pl, ctx));
      EXPECT_EQ(p.static_csr, static_csr) << "actual static_csr pin:\n" << static_csr;

      if (first_c.empty()) {
        first_c = std::move(c);
        continue;
      }
      for (size_t k = 0; k < c.size(); ++k) {
        EXPECT_TRUE(BitIdentical(first_c[k], c[k])) << "kernel " << k;
      }
    }
  }
}

}  // namespace
}  // namespace omega
