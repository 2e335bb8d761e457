// Unit tests for the charged SpMM kernels (Algorithm 1): numerical
// correctness against the reference kernel, cost-breakdown structure, cache
// interception, column ranges, and the CSR/SEM/FusedMM variants.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "sched/allocators.h"
#include "sparse/csdb_ops.h"
#include "sparse/fused.h"
#include "sparse/semi_external.h"
#include "sparse/spmm.h"
#include "sparse/spmm_kernels.h"
#include "sparse/spmm_plan.h"

namespace omega::sparse {
namespace {

using graph::CsdbMatrix;
using graph::Graph;
using linalg::DenseMatrix;

class SpmmTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 9;
    params.num_edges = 4000;
    graph_ = std::make_unique<Graph>(graph::GenerateRmat(params).value());
    a_ = CsdbMatrix::FromGraph(*graph_);
    b_ = linalg::GaussianMatrix(a_.num_cols(), 8, 77);
    ms_ = memsim::MemorySystem::CreateDefault();
    ASSERT_TRUE(ReferenceSpmm(a_, b_, &expected_).ok());
  }

  sched::Workload FullWorkload() const {
    sched::Workload w;
    w.ranges.push_back(sched::RowRange{0, a_.num_rows()});
    sched::RefreshCounts(a_, &w);
    return w;
  }

  // Compute + scan + charge of the full workload, the way the drivers run it.
  SpmmCostBreakdown Run(DenseMatrix* c, const SpmmPlacements& placements,
                        memsim::WorkerCtx* ctx,
                        const DenseCacheView* cache = nullptr,
                        size_t col_begin = 0, size_t col_end = SIZE_MAX) const {
    const sched::Workload w = FullWorkload();
    col_end = std::min(col_end, b_.cols());
    kernels::PackedOperand packed;
    PackDense(b_, nullptr, &packed, col_begin, col_end);
    kernels::CsdbPackedSpmm(a_, packed, c, 0, a_.num_rows());
    return ChargeWorkloadCsdb(a_, col_end - col_begin,
                              ScanChargeMetaCsdb(a_, w, cache), placements,
                              ms_.get(), ctx, cache);
  }

  std::unique_ptr<Graph> graph_;
  CsdbMatrix a_;
  DenseMatrix b_;
  DenseMatrix expected_;
  std::unique_ptr<memsim::MemorySystem> ms_;
};

TEST_F(SpmmTest, SingleWorkloadMatchesReference) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  const SpmmCostBreakdown bd = Run(&c, SpmmPlacements{}, &ctx);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(bd.Total(), 0.0);
  EXPECT_NEAR(clock.seconds(), bd.Total(), 1e-12);
}

TEST_F(SpmmTest, BreakdownHasAllComponentsAndGatherDominates) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  const SpmmCostBreakdown bd = Run(&c, SpmmPlacements{}, &ctx);
  for (int i = 0; i < kNumSpmmOps; ++i) {
    EXPECT_GT(bd.seconds[i], 0.0) << SpmmOpName(static_cast<SpmmOp>(i));
  }
  // Fig. 7a: get_dense_nnz dominates the execution time on PM.
  const double gather = bd.seconds[static_cast<int>(SpmmOp::kGetDenseNnz)];
  for (int i = 0; i < kNumSpmmOps; ++i) {
    if (i == static_cast<int>(SpmmOp::kGetDenseNnz)) continue;
    EXPECT_GT(gather, bd.seconds[i]) << SpmmOpName(static_cast<SpmmOp>(i));
  }
}

TEST_F(SpmmTest, DramPlacementIsFasterThanPm) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  SpmmPlacements pm;  // defaults: sparse+dense on PM
  SpmmPlacements dram;
  dram.sparse = {memsim::Tier::kDram, 0};
  dram.dense = {memsim::Tier::kDram, 0};
  memsim::SimClock clock_pm;
  memsim::SimClock clock_dram;
  memsim::WorkerCtx ctx_pm{0, 0, 1, &clock_pm};
  memsim::WorkerCtx ctx_dram{0, 0, 1, &clock_dram};
  Run(&c, pm, &ctx_pm);
  Run(&c, dram, &ctx_dram);
  EXPECT_GT(clock_pm.seconds(), 1.5 * clock_dram.seconds());
}

TEST_F(SpmmTest, RemoteDensePlacementCostsMore) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  SpmmPlacements local;
  SpmmPlacements remote = local;
  remote.dense = {memsim::Tier::kPm, 1};  // ctx runs on socket 0
  memsim::SimClock cl;
  memsim::SimClock cr;
  memsim::WorkerCtx ctx_l{0, 0, 1, &cl};
  memsim::WorkerCtx ctx_r{0, 0, 1, &cr};
  Run(&c, local, &ctx_l);
  Run(&c, remote, &ctx_r);
  EXPECT_GT(cr.seconds(), cl.seconds());
}

// A cache that claims to hold everything: all gathers must hit DRAM.
class AllCache : public DenseCacheView {
 public:
  bool Contains(graph::NodeId) const override { return true; }
  memsim::Placement placement() const override {
    return {memsim::Tier::kDram, 0};
  }
};

TEST_F(SpmmTest, CacheInterceptsGathersAndSpeedsUp) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  AllCache cache;
  memsim::SimClock with;
  memsim::SimClock without;
  memsim::WorkerCtx ctx_w{0, 0, 1, &with};
  memsim::WorkerCtx ctx_wo{0, 0, 1, &without};
  Run(&c, SpmmPlacements{}, &ctx_w, &cache);
  Run(&c, SpmmPlacements{}, &ctx_wo, nullptr);
  EXPECT_LT(with.seconds(), without.seconds());
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
}

TEST_F(SpmmTest, ColumnRangeComputesOnlyThatRange) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  Run(&c, SpmmPlacements{}, &ctx, nullptr, 2, 5);
  for (size_t t = 2; t < 5; ++t) {
    for (size_t r = 0; r < c.rows(); ++r) {
      EXPECT_NEAR(c.At(r, t), expected_.At(r, t), 1e-4);
    }
  }
  // Untouched columns stay zero.
  for (size_t r = 0; r < c.rows(); ++r) {
    EXPECT_EQ(c.At(r, 0), 0.0f);
    EXPECT_EQ(c.At(r, 7), 0.0f);
  }
}

TEST_F(SpmmTest, CostScalesWithColumnCount) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  memsim::SimClock narrow;
  memsim::SimClock wide;
  memsim::WorkerCtx ctx_n{0, 0, 1, &narrow};
  memsim::WorkerCtx ctx_w{0, 0, 1, &wide};
  Run(&c, SpmmPlacements{}, &ctx_n, nullptr, 0, 2);
  Run(&c, SpmmPlacements{}, &ctx_w, nullptr, 0, 8);
  EXPECT_NEAR(wide.seconds() / narrow.seconds(), 4.0, 0.5);
}

TEST_F(SpmmTest, ParallelSpmmMatchesReferenceAcrossAllocators) {
  ThreadPool pool(8);
  for (auto kind :
       {sched::AllocatorKind::kRoundRobin, sched::AllocatorKind::kWorkloadBalanced,
        sched::AllocatorKind::kEntropyAware}) {
    sched::AllocatorOptions opts;
    opts.num_threads = 8;
    const auto workloads = sched::Allocate(a_, kind, opts);
    DenseMatrix c(a_.num_rows(), b_.cols());
    const ParallelSpmmResult result =
        ParallelSpmm(a_, b_, &c, workloads, SpmmPlacements{}, exec::Context(ms_.get(), &pool));
    EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4)
        << sched::AllocatorName(kind);
    EXPECT_EQ(result.nnz_processed, a_.nnz());
    EXPECT_GT(result.phase_seconds, 0.0);
    EXPECT_EQ(result.thread_seconds.size(), 8u);
    // Phase time is the straggler.
    double mx = 0.0;
    for (double s : result.thread_seconds) mx = std::max(mx, s);
    EXPECT_DOUBLE_EQ(result.phase_seconds, mx);
    EXPECT_GT(result.ThroughputNnzPerSec(), 0.0);
  }
}

// Pooled packed-kernel cases (this suite runs under TSan). The graph is large
// enough that both PackDense and the row loop really split at 2 and 8
// threads.
class PackedSpmmPoolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 12;
    params.num_edges = 40000;
    params.seed = 5;
    a_ = CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
    b_ = linalg::GaussianMatrix(a_.num_cols(), 65, 13);
  }

  static bool BitsEqual(const DenseMatrix& x, const DenseMatrix& y) {
    return std::memcmp(x.data(), y.data(), x.bytes()) == 0;
  }

  CsdbMatrix a_;
  DenseMatrix b_;
};

// The all-rows path packs on the pool and splits rows with ForEachRowRange;
// neither may move a bit, and it must equal the scalar-panel oracle.
TEST_F(PackedSpmmPoolTest, AllRowsPooledEqualsSerialBitForBit) {
  const std::pair<size_t, size_t> ranges[] = {{0, 40}, {0, 20}, {20, 40},
                                              {3, 65}, {0, 65}};
  for (const auto& [col_begin, col_end] : ranges) {
    DenseMatrix serial(a_.num_rows(), b_.cols());
    ComputeAllRowsCsdb(a_, {b_, &serial}, nullptr, col_begin, col_end);
    DenseMatrix oracle(a_.num_rows(), b_.cols());
    kernels::CsdbPanelSpmmScalar(a_, b_, &oracle, 0, a_.num_rows(), col_begin,
                                 col_end);
    EXPECT_TRUE(BitsEqual(oracle, serial))
        << "cols [" << col_begin << ", " << col_end << ")";
    for (size_t threads : {1, 2, 8}) {
      ThreadPool pool(threads);
      DenseMatrix pooled(a_.num_rows(), b_.cols());
      ComputeAllRowsCsdb(a_, {b_, &pooled}, &pool, col_begin, col_end);
      EXPECT_TRUE(BitsEqual(pooled, serial))
          << "threads=" << threads << " cols [" << col_begin << ", "
          << col_end << ")";
    }
  }
}

// One pooled pack, then each worker computes its own row subset (several
// ranges each) from it concurrently, as the incremental refresh's workers
// do. Every subset row lands on the all-rows bits and no other row is
// written.
TEST_F(PackedSpmmPoolTest, WorkloadRowSubsetsMatchAllRows) {
  DenseMatrix all(a_.num_rows(), b_.cols());
  ComputeAllRowsCsdb(a_, {b_, &all}, nullptr);
  const uint32_t n = a_.num_rows();
  for (size_t threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    // Worker t owns every range [i * 97, i * 97 + 40) with i % threads == t;
    // rows in the gaps belong to nobody.
    std::vector<sched::Workload> parts(threads);
    for (uint32_t i = 0; i * 97 < n; ++i) {
      parts[i % threads].ranges.push_back(
          sched::RowRange{i * 97, std::min(n, i * 97 + 40)});
    }
    kernels::PackedOperand packed;
    PackDense(b_, &pool, &packed);
    DenseMatrix c(a_.num_rows(), b_.cols());
    c.Fill(-7.0f);
    pool.RunOnAll([&](size_t t) {
      for (const sched::RowRange& rr : parts[t].ranges) {
        kernels::CsdbPackedSpmm(a_, packed, &c, rr.begin, rr.end);
      }
    });
    for (uint32_t r = 0; r < n; ++r) {
      const bool owned = r % 97 < 40;
      for (size_t t = 0; t < b_.cols(); ++t) {
        const float want = owned ? all.At(r, t) : -7.0f;
        ASSERT_EQ(std::memcmp(&c.At(r, t), &want, sizeof(float)), 0)
            << "threads=" << threads << " row " << r << " col " << t;
      }
    }
  }
}

TEST_F(SpmmTest, MoreThreadsReducePhaseTime) {
  ThreadPool pool(16);
  sched::AllocatorOptions opts;
  opts.num_threads = 2;
  auto w2 = sched::Allocate(a_, sched::AllocatorKind::kEntropyAware, opts);
  opts.num_threads = 16;
  auto w16 = sched::Allocate(a_, sched::AllocatorKind::kEntropyAware, opts);
  DenseMatrix c(a_.num_rows(), b_.cols());
  const double t2 =
      ParallelSpmm(a_, b_, &c, w2, SpmmPlacements{}, exec::Context(ms_.get(), &pool)).phase_seconds;
  const double t16 =
      ParallelSpmm(a_, b_, &c, w16, SpmmPlacements{}, exec::Context(ms_.get(), &pool)).phase_seconds;
  EXPECT_GT(t2, 2.0 * t16);
}

TEST_F(SpmmTest, CsrKernelMatchesReference) {
  const auto csr = ToCsr(a_).value();
  DenseMatrix c(a_.num_rows(), b_.cols());
  memsim::SimClock clock;
  memsim::WorkerCtx ctx{0, 0, 1, &clock};
  const CsrPlanPart part =
      CsrSpmmPlan::Build(csr, 1, CsrSpmmPlan::Split::kEqualRows).parts()[0];
  kernels::PackedOperand packed;
  PackDense(b_, nullptr, &packed);
  kernels::CsrPackedSpmm(csr, packed, &c, part.row_begin, part.row_end);
  ChargeWorkloadCsr(csr, b_.cols(), part.row_begin, part.row_end, part.nnz,
                    part.entropy, SpmmPlacements{}, ms_.get(), &ctx);
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(clock.seconds(), 0.0);
}

TEST_F(SpmmTest, SemiExternalMatchesReferenceAndChargesSsd) {
  const auto csr = ToCsr(a_).value();
  ThreadPool pool(4);
  SemiExternalOptions opts;
  opts.dram_budget_bytes = 1ULL << 30;  // everything fits: no spill
  DenseMatrix c(csr.num_rows(), b_.cols());
  ms_->ResetTraffic();
  const auto result = SemiExternalSpmm(csr, b_, &c, opts, exec::Context(ms_.get(), &pool));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(result.phase_seconds, 0.0);
  EXPECT_GT(ms_->Traffic().TierBytes(memsim::Tier::kSsd), 0u);
}

TEST_F(SpmmTest, SemiExternalSpillsMakeItSlower) {
  const auto csr = ToCsr(a_).value();
  ThreadPool pool(4);
  SemiExternalOptions fit;
  fit.dram_budget_bytes = 1ULL << 30;
  SemiExternalOptions spill = fit;
  spill.dram_budget_bytes = b_.bytes() / 4;  // force spilling
  DenseMatrix c(csr.num_rows(), b_.cols());
  const double t_fit =
      SemiExternalSpmm(csr, b_, &c, fit, exec::Context(ms_.get(), &pool)).phase_seconds;
  const double t_spill =
      SemiExternalSpmm(csr, b_, &c, spill, exec::Context(ms_.get(), &pool)).phase_seconds;
  EXPECT_GT(t_spill, 2.0 * t_fit);
}

TEST_F(SpmmTest, FusedMmMatchesReferenceInDram) {
  const auto csr = ToCsr(a_).value();
  ThreadPool pool(4);
  DenseMatrix c(csr.num_rows(), b_.cols());
  auto result = FusedMmSpmm(csr, b_, &c, exec::Context(ms_.get(), &pool));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(result.value().phase_seconds, 0.0);
}

TEST_F(SpmmTest, FusedMmFailsPastDramCapacity) {
  // Shrink the simulated DRAM below the working set.
  memsim::TopologyConfig topo;
  topo.dram_bytes_per_socket = 1 << 10;
  memsim::MemorySystem tiny(topo, memsim::DefaultProfiles());
  const auto csr = ToCsr(a_).value();
  ThreadPool pool(2);
  DenseMatrix c(csr.num_rows(), b_.cols());
  auto result = FusedMmSpmm(csr, b_, &c, exec::Context(&tiny, &pool));
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

TEST(SpmmBreakdownTest, AccumulateAndName) {
  SpmmCostBreakdown a;
  a.seconds[0] = 1.0;
  SpmmCostBreakdown b;
  b.seconds[0] = 2.0;
  b.seconds[4] = 3.0;
  a += b;
  EXPECT_DOUBLE_EQ(a.seconds[0], 3.0);
  EXPECT_DOUBLE_EQ(a.Total(), 6.0);
  EXPECT_STREQ(SpmmOpName(SpmmOp::kGetDenseNnz), "get_dense_nnz");
}

}  // namespace
}  // namespace omega::sparse
