// Plan/execute split tests: a reused plan must be *exactly* equivalent to
// per-call planning — bit-identical embeddings and byte-identical simulated
// seconds (DESIGN.md's two-clock contract) — across thread counts, NaDP
// modes, WoFP on/off, and the CSR baseline kernels.

#include <gtest/gtest.h>

#include <cstring>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "omega/baselines.h"
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
        const NadpResult r_plan = NadpExecute(plan, a_, b_, &c_plan, Ctx());
        ExpectIdenticalResults(r_percall, r_plan);
        EXPECT_TRUE(BitIdentical(c_percall, c_plan));

        // Second execute through the same plan: still identical — the WoFP
        // warm-up charges are replayed on every call, not just the first.
        DenseMatrix c_again(a_.num_rows(), b_.cols());
        const NadpResult r_again = NadpExecute(plan, a_, b_, &c_again, Ctx());
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
        NadpExecute(plan, a_, b_, &c_plan, Ctx(), begin, end);
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
      const NadpResult r_plan = NadpExecute(plan, tiny, b, &c_plan, Ctx());
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
  sparse::FusedMmOptions opts;
  opts.num_threads = 8;

  DenseMatrix c_percall(csr.num_rows(), b_.cols());
  const auto r_percall = FusedMmSpmm(csr, b_, &c_percall, opts, Ctx());
  ASSERT_TRUE(r_percall.ok());

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, opts.num_threads, CsrSpmmPlan::Split::kEqualRows);
  for (int pass = 0; pass < 2; ++pass) {
    DenseMatrix c_plan(csr.num_rows(), b_.cols());
    const auto r_plan = FusedMmSpmm(csr, b_, &c_plan, opts, plan, Ctx());
    ASSERT_TRUE(r_plan.ok());
    EXPECT_EQ(r_percall.value().phase_seconds, r_plan.value().phase_seconds);
    for (int t = 0; t < opts.num_threads; ++t) {
      EXPECT_EQ(r_percall.value().thread_seconds[t],
                r_plan.value().thread_seconds[t]);
    }
    EXPECT_TRUE(BitIdentical(c_percall, c_plan));
  }
}

TEST_F(PlanTest, SemiExternalPlanReuseMatchesPerCall) {
  const CsrMatrix csr = sparse::ToCsr(a_).value();
  sparse::SemiExternalOptions opts;
  opts.num_threads = 8;
  opts.dram_budget_bytes = 1ULL << 20;  // force a spill fraction

  DenseMatrix c_percall(csr.num_rows(), b_.cols());
  const auto r_percall = SemiExternalSpmm(csr, b_, &c_percall, opts, Ctx());

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, opts.num_threads, CsrSpmmPlan::Split::kEqualNnz);
  for (int pass = 0; pass < 2; ++pass) {
    DenseMatrix c_plan(csr.num_rows(), b_.cols());
    const auto r_plan = SemiExternalSpmm(csr, b_, &c_plan, opts, plan, Ctx());
    EXPECT_EQ(r_percall.phase_seconds, r_plan.phase_seconds);
    EXPECT_EQ(r_percall.nnz_processed, r_plan.nnz_processed);
    for (int t = 0; t < opts.num_threads; ++t) {
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
  const auto r_percall = engine::StaticCsrSpmm(csr, b_, &c_percall, pl, ctx);

  const CsrSpmmPlan plan =
      CsrSpmmPlan::Build(csr, 8, CsrSpmmPlan::Split::kEqualRows);
  DenseMatrix c_plan(csr.num_rows(), b_.cols());
  const auto r_plan = engine::StaticCsrSpmm(csr, b_, &c_plan, pl, ctx, &plan);
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
  };
  for (const Pinned& p : pinned) {
    SCOPED_TRACE("threads=" + std::to_string(p.threads) +
                 " enabled=" + std::to_string(p.enabled) +
                 " wofp=" + std::to_string(p.use_wofp) +
                 " cols=[" + std::to_string(p.col_begin) + "," +
                 std::to_string(p.col_end) + ")");
    NadpOptions opts;
    opts.num_threads = p.threads;
    opts.enabled = p.enabled;
    opts.use_wofp = p.use_wofp;
    DenseMatrix c(a_.num_rows(), b_.cols());
    const NadpResult r =
        NadpSpmm(a_, b_, &c, opts, Ctx(), p.col_begin, p.col_end);
    EXPECT_EQ(r.phase_seconds, p.phase_seconds);
    EXPECT_EQ(r.wofp_build_seconds, p.wofp_build_seconds);
    for (int op = 0; op < sparse::kNumSpmmOps; ++op) {
      EXPECT_EQ(r.breakdown.seconds[op], p.breakdown[op]) << "op " << op;
    }
    EXPECT_EQ(r.thread_seconds, p.thread_seconds);
  }
}

}  // namespace
}  // namespace omega
