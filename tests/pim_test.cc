// PIM offload tests: the simulated bank tier never changes a byte of output
// (host-only / all-PIM / auto are bit-identical at any thread count), the
// entropy-aware placement keeps hub blocks on host, the subset allocators
// cover exactly the host ranges, the plan cache keys on the PIM config, and
// fault injection on the bank link degrades blocks back to the host path
// while preserving the accounting identity.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "common/thread_pool.h"
#include "graph/datasets.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "memsim/fault.h"
#include "memsim/memory_system.h"
#include "numa/nadp.h"
#include "omega/engine.h"
#include "sched/hetero_placement.h"

namespace omega {
namespace {

using graph::CsdbMatrix;
using linalg::DenseMatrix;
using sched::PimConfig;
using sched::PimPolicy;

CsdbMatrix TestMatrix(uint32_t scale = 10, uint64_t edges = 15000) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  return CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
}

PimConfig TestPim(PimPolicy policy, const memsim::MemorySystem& ms) {
  PimConfig cfg;
  cfg.banks = 64;
  cfg.mram_bytes_per_bank = ms.topology().config().pim_mram_bytes_per_bank;
  cfg.bank_ops_per_second = ms.cost_model().profiles().pim_bank_ops_per_second;
  cfg.policy = policy;
  return cfg;
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

class PlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // The PK analogue: a real power-law skew whose hub block is expensive to
    // serialize onto one bank, so the auto policy has a genuine split to find
    // (an unskewed R-MAT at this scale offloads everything).
    a_ = CsdbMatrix::FromGraph(graph::LoadDatasetByName("PK").value());
    ms_ = memsim::MemorySystem::CreateDefault();
  }

  sched::HeteroPlacement Place(PimPolicy policy, size_t dense_cols = 32) {
    PimConfig cfg = TestPim(policy, *ms_);
    cfg.dense_cols = dense_cols;
    // 36 host threads: the paper's testbed, where the hub-vs-tail trade-off
    // is real (with few host threads the banks win everywhere).
    return sched::PlaceDegreeBlocks(a_, cfg, *ms_, 36, memsim::Tier::kPm,
                                    memsim::Tier::kPm, memsim::Tier::kDram);
  }

  CsdbMatrix a_;
  std::unique_ptr<memsim::MemorySystem> ms_;
};

TEST_F(PlacementTest, HostOnlyPlacesNothingOnPim) {
  const auto p = Place(PimPolicy::kHostOnly);
  EXPECT_FALSE(p.any_pim());
  EXPECT_TRUE(p.pim_ranges.empty());
  EXPECT_EQ(p.pim_nnz, 0u);
  ASSERT_EQ(p.host_ranges.size(), 1u);
  EXPECT_EQ(p.host_ranges[0].begin, 0u);
  EXPECT_EQ(p.host_ranges[0].end, a_.num_rows());
}

// PimSpmm relies on this: without banks no policy offloads anything.
TEST_F(PlacementTest, ZeroBanksPlacesNothingOnPim) {
  for (PimPolicy policy : {PimPolicy::kAuto, PimPolicy::kAllPim}) {
    PimConfig cfg = TestPim(policy, *ms_);
    cfg.banks = 0;
    const auto p = sched::PlaceDegreeBlocks(a_, cfg, *ms_, 36, memsim::Tier::kPm,
                                            memsim::Tier::kPm, memsim::Tier::kDram);
    EXPECT_FALSE(p.any_pim()) << sched::PimPolicyName(policy);
    EXPECT_TRUE(p.pim_ranges.empty()) << sched::PimPolicyName(policy);
  }
}

TEST_F(PlacementTest, AllPimPlacesEveryFittingBlock) {
  const auto p = Place(PimPolicy::kAllPim);
  ASSERT_TRUE(p.any_pim());
  for (const sched::HeteroBlock& b : p.blocks) {
    EXPECT_EQ(b.on_pim, b.fits_mram)
        << "rows [" << b.row_begin << ", " << b.row_end << ")";
  }
}

TEST_F(PlacementTest, AutoKeepsHubBlocksOnHost) {
  const auto p = Place(PimPolicy::kAuto);
  ASSERT_TRUE(p.any_pim());
  ASSERT_GT(p.host_nnz, 0u);
  // CSDB orders blocks by non-increasing degree: the first (hub) block is
  // bank-serial on PIM and must stay on host, while the mid/low-degree bulk
  // of the rows is offloaded. (A tiny tail block can stay on host too — its
  // host cost undercuts the fixed ship overhead — so only the hub end is
  // pinned.)
  EXPECT_FALSE(p.blocks.front().on_pim);
  const uint64_t hub_degree = p.blocks.front().degree;
  for (const sched::HeteroBlock& b : p.blocks) {
    if (b.on_pim) {
      EXPECT_LT(b.degree, hub_degree);
    }
  }
  EXPECT_GT(p.pim_rows, a_.num_rows() / 2);
}

TEST_F(PlacementTest, RangesPartitionTheMatrix) {
  const auto p = Place(PimPolicy::kAuto);
  uint64_t rows = 0;
  for (const auto& r : p.pim_ranges) rows += r.end - r.begin;
  for (const auto& r : p.host_ranges) rows += r.end - r.begin;
  EXPECT_EQ(rows, a_.num_rows());
  EXPECT_EQ(p.pim_nnz + p.host_nnz, a_.nnz());
}

TEST_F(PlacementTest, AutoEstimateNeverWorseThanFixedPolicies) {
  const auto host = Place(PimPolicy::kHostOnly);
  const auto all = Place(PimPolicy::kAllPim);
  const auto aut = Place(PimPolicy::kAuto);
  auto estimate = [](const sched::HeteroPlacement& p) {
    return std::max(p.est_host_seconds, p.est_pim_pipeline_seconds) +
           p.est_pim_tail_seconds;
  };
  EXPECT_LE(estimate(aut), estimate(host) * 1.0001);
  EXPECT_LE(estimate(aut), estimate(all) * 1.0001);
}

// ---------------------------------------------------------------------------
// Subset allocators.
// ---------------------------------------------------------------------------

TEST(AllocateSubsetTest, CoversExactlyTheRequestedRows) {
  const CsdbMatrix a = TestMatrix();
  const std::vector<sched::RowRange> rows = {
      {0, 7}, {40, 201}, {500, a.num_rows()}};
  sched::AllocatorOptions options;
  options.num_threads = 4;
  for (auto kind : {sched::AllocatorKind::kRoundRobin,
                    sched::AllocatorKind::kWorkloadBalanced,
                    sched::AllocatorKind::kEntropyAware}) {
    const auto workloads = sched::AllocateSubset(a, kind, rows, options);
    ASSERT_EQ(workloads.size(), 4u);
    // Flatten the per-thread ranges; they must tile `rows` exactly, in order.
    std::vector<sched::RowRange> got;
    uint64_t nnz = 0;
    for (const auto& w : workloads) {
      for (const auto& r : w.ranges) {
        ASSERT_LT(r.begin, r.end);
        if (!got.empty() && got.back().end == r.begin) {
          got.back().end = r.end;
        } else {
          got.push_back(r);
        }
      }
      nnz += w.nnz;
    }
    ASSERT_EQ(got.size(), rows.size()) << static_cast<int>(kind);
    uint64_t want_nnz = 0;
    for (size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(got[i].begin, rows[i].begin);
      EXPECT_EQ(got[i].end, rows[i].end);
      for (auto cur = a.BlocksInRange(rows[i].begin, rows[i].end); !cur.AtEnd();
           cur.Next()) {
        const auto s = cur.span();
        want_nnz += s.rows() * s.degree;
      }
    }
    EXPECT_EQ(nnz, want_nnz) << static_cast<int>(kind);
  }
}

TEST(AllocateSubsetTest, FullMatrixSubsetProcessesAllNnz) {
  const CsdbMatrix a = TestMatrix();
  const std::vector<sched::RowRange> all = {{0, a.num_rows()}};
  sched::AllocatorOptions options;
  options.num_threads = 3;
  const auto workloads = sched::AllocateSubset(
      a, sched::AllocatorKind::kEntropyAware, all, options);
  uint64_t nnz = 0;
  for (const auto& w : workloads) nnz += w.nnz;
  EXPECT_EQ(nnz, a.nnz());
}

// ---------------------------------------------------------------------------
// Bit-identity through NadpSpmm.
// ---------------------------------------------------------------------------

class PimSpmmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = TestMatrix();
    b_ = linalg::GaussianMatrix(a_.num_cols(), 8, 5);
    ms_ = memsim::MemorySystem::CreateDefault();
  }

  numa::NadpOptions Options(PimPolicy policy, int threads) {
    numa::NadpOptions opts;
    opts.num_threads = threads;
    opts.use_wofp = false;
    opts.pim = TestPim(policy, *ms_);
    return opts;
  }

  CsdbMatrix a_;
  DenseMatrix b_;
  std::unique_ptr<memsim::MemorySystem> ms_;
};

TEST_F(PimSpmmTest, PoliciesBitIdenticalAcrossThreadCounts) {
  for (int threads : {1, 2, 8}) {
    ThreadPool pool(static_cast<size_t>(threads));
    const exec::Context ctx(ms_.get(), &pool, threads);
    DenseMatrix reference(a_.num_rows(), b_.cols());
    numa::NadpSpmm(a_, b_, &reference, Options(PimPolicy::kHostOnly, threads),
                   ctx);
    for (PimPolicy policy : {PimPolicy::kAuto, PimPolicy::kAllPim}) {
      DenseMatrix c(a_.num_rows(), b_.cols());
      const numa::NadpResult r =
          numa::NadpSpmm(a_, b_, &c, Options(policy, threads), ctx);
      ASSERT_EQ(c.bytes(), reference.bytes());
      EXPECT_EQ(std::memcmp(c.data(), reference.data(), c.bytes()), 0)
          << sched::PimPolicyName(policy) << " at " << threads << " threads";
      EXPECT_GT(r.pim_nnz, 0u) << sched::PimPolicyName(policy);
      EXPECT_GT(r.pim_compute_seconds, 0.0);
      EXPECT_EQ(r.pim_degraded_blocks, 0u);
    }
  }
}

TEST_F(PimSpmmTest, OffloadChargesPimTierTraffic) {
  ThreadPool pool(4);
  const exec::Context ctx(ms_.get(), &pool, 4);
  DenseMatrix c(a_.num_rows(), b_.cols());
  ms_->ResetTraffic();
  numa::NadpSpmm(a_, b_, &c, Options(PimPolicy::kHostOnly, 4), ctx);
  EXPECT_EQ(ms_->Traffic().TierBytes(memsim::Tier::kPim), 0u);
  ms_->ResetTraffic();
  const numa::NadpResult r =
      numa::NadpSpmm(a_, b_, &c, Options(PimPolicy::kAuto, 4), ctx);
  EXPECT_GT(ms_->Traffic().TierBytes(memsim::Tier::kPim), 0u);
  EXPECT_GT(r.pim_transfer_seconds, 0.0);
  EXPECT_GT(r.phase_seconds, 0.0);
}

TEST_F(PimSpmmTest, AutoAtLeastAsFastAsFixedPolicies) {
  ThreadPool pool(8);
  const exec::Context ctx(ms_.get(), &pool, 8);
  DenseMatrix c(a_.num_rows(), b_.cols());
  double seconds[3] = {};
  const PimPolicy policies[] = {PimPolicy::kHostOnly, PimPolicy::kAllPim,
                                PimPolicy::kAuto};
  for (int i = 0; i < 3; ++i) {
    seconds[i] =
        numa::NadpSpmm(a_, b_, &c, Options(policies[i], 8), ctx).phase_seconds;
  }
  EXPECT_LE(seconds[2], seconds[0] * 1.0001);
  EXPECT_LE(seconds[2], seconds[1] * 1.0001);
}

// ---------------------------------------------------------------------------
// Plan cache keying.
// ---------------------------------------------------------------------------

TEST_F(PimSpmmTest, PlanCacheKeysOnPimConfig) {
  ThreadPool pool(4);
  const exec::Context ctx(ms_.get(), &pool, 4);
  numa::NadpPlanCache cache;
  const numa::NadpOptions host = Options(PimPolicy::kHostOnly, 4);
  numa::NadpOptions autop = Options(PimPolicy::kAuto, 4);
  autop.pim.dense_cols = 8;

  cache.Get(a_, host, ctx);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Get(a_, host, ctx);
  EXPECT_EQ(cache.hits(), 1u);
  // A different PIM config is a different plan.
  cache.Get(a_, autop, ctx);
  EXPECT_EQ(cache.misses(), 2u);
  // So is the same config at a different operand width (the ship cost is
  // width-invariant, so the split depends on dense_cols).
  numa::NadpOptions wider = autop;
  wider.pim.dense_cols = 64;
  cache.Get(a_, wider, ctx);
  EXPECT_EQ(cache.misses(), 3u);
  cache.Get(a_, autop, ctx);
  EXPECT_EQ(cache.hits(), 2u);

  const numa::NadpPlan& plan = cache.Get(a_, autop, ctx);
  EXPECT_TRUE(plan.hetero().any_pim());
  EXPECT_FALSE(cache.Get(a_, host, ctx).hetero().any_pim());
}

// ---------------------------------------------------------------------------
// Fault injection on the PIM link.
// ---------------------------------------------------------------------------

engine::RunReport RunEngine(const graph::Graph& g,
                            const memsim::FaultPlan& plan, PimPolicy policy,
                            int banks) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  ThreadPool pool(4);
  engine::EngineOptions options;
  options.system = engine::SystemKind::kOmega;
  options.num_threads = 4;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  options.features.pim_banks = banks;
  options.features.pim_placement = policy;
  auto report = engine::RunEmbedding(g, "rmat", options,
                                     exec::Context(ms.get(), &pool, 4));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : engine::RunReport{};
}

TEST(PimFaultTest, FlakyLinkDegradesToHostAndStaysAccounted) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 6000;
  const graph::Graph g = graph::GenerateRmat(params).value();

  const engine::RunReport clean =
      RunEngine(g, memsim::FaultPlan{}, PimPolicy::kAllPim, 64);
  const engine::RunReport flaky =
      RunEngine(g, memsim::FaultPlanFromProfile("flaky-pim").value(),
                PimPolicy::kAllPim, 64);

  // The profile's timeout rate is high enough that some transfer exhausts its
  // retries and degrades the block to the host panel path.
  EXPECT_GT(flaky.faults.timeouts, 0u);
  EXPECT_GT(flaky.faults.degraded, 0u);
  EXPECT_EQ(flaky.faults.surfaced, 0u);
  EXPECT_TRUE(flaky.faults.Accounted())
      << memsim::FaultCountersSummary(flaky.faults);

  // Degradation re-prices the block, never recomputes it: bit-identical.
  ASSERT_EQ(clean.embedding.bytes(), flaky.embedding.bytes());
  ASSERT_GT(clean.embedding.bytes(), 0u);
  EXPECT_EQ(std::memcmp(clean.embedding.data(), flaky.embedding.data(),
                        clean.embedding.bytes()),
            0);
  EXPECT_GT(flaky.total_seconds, clean.total_seconds);

  // Same seed, same draws: the fault report is reproducible.
  const engine::RunReport again =
      RunEngine(g, memsim::FaultPlanFromProfile("flaky-pim").value(),
                PimPolicy::kAllPim, 64);
  EXPECT_EQ(flaky.faults, again.faults);
}

TEST(PimFaultTest, EngineBitIdenticalWithPimAcrossPolicies) {
  graph::RmatParams params;
  params.scale = 9;
  params.num_edges = 6000;
  const graph::Graph g = graph::GenerateRmat(params).value();
  const engine::RunReport off =
      RunEngine(g, memsim::FaultPlan{}, PimPolicy::kHostOnly, 0);
  for (PimPolicy policy :
       {PimPolicy::kHostOnly, PimPolicy::kAuto, PimPolicy::kAllPim}) {
    const engine::RunReport on =
        RunEngine(g, memsim::FaultPlan{}, policy, 64);
    ASSERT_EQ(off.embedding.bytes(), on.embedding.bytes());
    EXPECT_EQ(std::memcmp(off.embedding.data(), on.embedding.data(),
                          off.embedding.bytes()),
              0)
        << sched::PimPolicyName(policy);
  }
}

}  // namespace
}  // namespace omega
