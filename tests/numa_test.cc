// Unit tests for NaDP (§III-D): socket partitioning, workload clipping, the
// interleaved baseline, numerical correctness, and the Fig. 15 speedup shape.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "numa/partition.h"
#include "sparse/csdb_ops.h"

namespace omega::numa {
namespace {

using graph::CsdbMatrix;
using linalg::DenseMatrix;

CsdbMatrix TestMatrix(uint32_t scale = 10, uint64_t edges = 15000) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  return CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
}

TEST(PartitionTest, RowBlocksCoverAndBalanceNnz) {
  const CsdbMatrix a = TestMatrix();
  const std::vector<sched::RowRange> blocks = SocketRowBlocks(a, 2);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].begin, 0u);
  EXPECT_EQ(blocks[0].end, blocks[1].begin);
  EXPECT_EQ(blocks[1].end, a.num_rows());
  // nnz balance within 2x.
  uint64_t nnz0 = 0;
  uint64_t nnz1 = 0;
  for (auto cur = a.Rows(0); !cur.AtEnd(); cur.Next()) {
    (cur.row() < blocks[0].end ? nnz0 : nnz1) += cur.degree();
  }
  EXPECT_LT(std::max(nnz0, nnz1), 2 * std::min(nnz0, nnz1) + 64);
}

TEST(PartitionTest, ColumnBlocksSplitEvenly) {
  EXPECT_EQ(ColumnBlocks(0, 7, 2),
            (std::vector<std::pair<size_t, size_t>>{{0, 4}, {4, 7}}));
  EXPECT_EQ(ColumnBlocks(8, 13, 4),
            (std::vector<std::pair<size_t, size_t>>{{8, 10}, {10, 12}, {12, 13}, {13, 13}}));
}

TEST(PartitionTest, IntersectWorkloadClips) {
  sched::Workload w;
  w.ranges.push_back(sched::RowRange{0, 10});
  w.ranges.push_back(sched::RowRange{20, 30});
  const sched::Workload clipped = IntersectWorkload(w, sched::RowRange{5, 25});
  ASSERT_EQ(clipped.ranges.size(), 2u);
  EXPECT_EQ(clipped.ranges[0].begin, 5u);
  EXPECT_EQ(clipped.ranges[0].end, 10u);
  EXPECT_EQ(clipped.ranges[1].begin, 20u);
  EXPECT_EQ(clipped.ranges[1].end, 25u);
  EXPECT_TRUE(IntersectWorkload(w, sched::RowRange{50, 60}).ranges.empty());
}

TEST(NadpOptionsTest, PlacementsPutEveryStreamOnOneSocket) {
  NadpOptions opts;
  opts.sparse_tier = memsim::Tier::kPm;
  opts.dense_tier = memsim::Tier::kDram;
  opts.result_tier = memsim::Tier::kPm;
  for (const int socket : {0, 2, memsim::Placement::kInterleaved}) {
    const sparse::SpmmPlacements pl = opts.placements(socket);
    EXPECT_EQ(pl.index, (memsim::Placement{memsim::Tier::kDram, socket}));
    EXPECT_EQ(pl.sparse, (memsim::Placement{memsim::Tier::kPm, socket}));
    EXPECT_EQ(pl.dense, (memsim::Placement{memsim::Tier::kDram, socket}));
    EXPECT_EQ(pl.result, (memsim::Placement{memsim::Tier::kPm, socket}));
  }
}

class NadpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = TestMatrix();
    b_ = linalg::GaussianMatrix(a_.num_cols(), 8, 5);
    ms_ = memsim::MemorySystem::CreateDefault();
    pool_ = std::make_unique<ThreadPool>(8);
    ASSERT_TRUE(sparse::ReferenceSpmm(a_, b_, &expected_).ok());
  }

  NadpOptions BaseOptions() {
    NadpOptions opts;
    opts.num_threads = 8;
    opts.use_wofp = false;
    return opts;
  }

  CsdbMatrix a_;
  DenseMatrix b_;
  DenseMatrix expected_;
  std::unique_ptr<memsim::MemorySystem> ms_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(NadpTest, EnabledComputesCorrectResult) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  const NadpResult r = NadpSpmm(a_, b_, &c, BaseOptions(), exec::Context(ms_.get(), pool_.get()));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(r.phase_seconds, 0.0);
  EXPECT_EQ(r.nnz_processed, a_.nnz());
  EXPECT_EQ(r.thread_seconds.size(), 8u);
}

TEST_F(NadpTest, DisabledInterleavedComputesCorrectResult) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  NadpOptions opts = BaseOptions();
  opts.enabled = false;
  const NadpResult r = NadpSpmm(a_, b_, &c, opts, exec::Context(ms_.get(), pool_.get()));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_GT(r.phase_seconds, 0.0);
}

TEST_F(NadpTest, NadpBeatsInterleaved) {
  // Fig. 15: NaDP accelerates SpMM by ~2.4-3.6x over the Interleave policy.
  DenseMatrix c(a_.num_rows(), b_.cols());
  NadpOptions on = BaseOptions();
  NadpOptions off = BaseOptions();
  off.enabled = false;
  const double t_on = NadpSpmm(a_, b_, &c, on, exec::Context(ms_.get(), pool_.get())).phase_seconds;
  const double t_off =
      NadpSpmm(a_, b_, &c, off, exec::Context(ms_.get(), pool_.get())).phase_seconds;
  EXPECT_GT(t_off / t_on, 1.3);
}

TEST_F(NadpTest, RemoteTrafficFractionDropsWithNadp) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  NadpOptions off = BaseOptions();
  off.enabled = false;
  ms_->ResetTraffic();
  NadpSpmm(a_, b_, &c, off, exec::Context(ms_.get(), pool_.get()));
  const double remote_off = ms_->Traffic().RemoteFraction();
  ms_->ResetTraffic();
  NadpSpmm(a_, b_, &c, BaseOptions(), exec::Context(ms_.get(), pool_.get()));
  const double remote_on = ms_->Traffic().RemoteFraction();
  // Paper: >43% remote without NaDP; NaDP's local-write discipline cuts it.
  EXPECT_GT(remote_off, 0.4);
  EXPECT_LT(remote_on, remote_off);
}

TEST_F(NadpTest, ColumnRangeRestrictsWork) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  const NadpResult full =
      NadpSpmm(a_, b_, &c, BaseOptions(), exec::Context(ms_.get(), pool_.get()));
  DenseMatrix c2(a_.num_rows(), b_.cols());
  const NadpResult half =
      NadpSpmm(a_, b_, &c2, BaseOptions(), exec::Context(ms_.get(), pool_.get()), 0, 4);
  EXPECT_LT(half.phase_seconds, full.phase_seconds);
  for (size_t t = 0; t < 4; ++t) {
    for (size_t r = 0; r < c2.rows(); ++r) {
      EXPECT_NEAR(c2.At(r, t), expected_.At(r, t), 1e-4);
    }
  }
  for (size_t r = 0; r < c2.rows(); ++r) EXPECT_EQ(c2.At(r, 6), 0.0f);
}

TEST_F(NadpTest, WofpComposesWithNadp) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  NadpOptions with = BaseOptions();
  with.use_wofp = true;
  with.wofp.sigma = 0.15;
  const double t_with =
      NadpSpmm(a_, b_, &c, with, exec::Context(ms_.get(), pool_.get())).phase_seconds;
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  const double t_without =
      NadpSpmm(a_, b_, &c, BaseOptions(), exec::Context(ms_.get(), pool_.get())).phase_seconds;
  EXPECT_LT(t_with, t_without);
}

TEST_F(NadpTest, AllAllocatorsProduceCorrectResults) {
  for (auto kind :
       {sched::AllocatorKind::kRoundRobin, sched::AllocatorKind::kWorkloadBalanced,
        sched::AllocatorKind::kEntropyAware}) {
    DenseMatrix c(a_.num_rows(), b_.cols());
    NadpOptions opts = BaseOptions();
    opts.allocator = kind;
    NadpSpmm(a_, b_, &c, opts, exec::Context(ms_.get(), pool_.get()));
    EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4)
        << sched::AllocatorName(kind);
  }
}

TEST_F(NadpTest, OddThreadCountWorks) {
  DenseMatrix c(a_.num_rows(), b_.cols());
  NadpOptions opts = BaseOptions();
  opts.num_threads = 7;
  const NadpResult r = NadpSpmm(a_, b_, &c, opts, exec::Context(ms_.get(), pool_.get()));
  EXPECT_LT(DenseMatrix::MaxAbsDiff(c, expected_), 1e-4);
  EXPECT_EQ(r.thread_seconds.size(), 7u);
}

// A row-subset execute writes exactly the subset's rows, on the bits an
// all-rows execute gives them, and leaves every other row as it found it:
// both operand forms, NaDP and the interleaved baseline, 1/2/4 sockets,
// pools of 1/2/8.
TEST(NadpSubsetTest, WritesExactlySubsetRowsOnFullExecuteBits) {
  const CsdbMatrix a = TestMatrix();
  const uint32_t n = a.num_rows();
  const DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 8, 5);
  const std::vector<sched::RowRange> rows = {
      {0, 3}, {17, 18}, {40, 300}, {301, 302}, {n / 2, n / 2 + 97}, {n - 5, n}};
  std::vector<bool> in_subset(n, false);
  for (const sched::RowRange& r : rows) {
    for (uint32_t i = r.begin; i < r.end; ++i) in_subset[i] = true;
  }
  const float sentinel = std::nanf("0x5e7");
  sparse::kernels::PackedOperand source;
  sparse::PackDense(b, nullptr, &source);
  // Row r of a packed operand, or of a column-major matrix, as raw bytes.
  auto packed_row = [](const sparse::kernels::PackedOperand& m, uint32_t r) {
    return std::string(reinterpret_cast<const char*>(m.Row(r)), m.width() * 4);
  };
  auto matrix_row = [](const DenseMatrix& m, uint32_t r) {
    std::string bytes;
    for (size_t c = 0; c < m.cols(); ++c) {
      const float v = m.At(r, c);
      bytes.append(reinterpret_cast<const char*>(&v), 4);
    }
    return bytes;
  };
  auto filled = [&](uint32_t width) {
    sparse::kernels::PackedOperand m;
    m.Reshape(n, 0, width);
    for (uint32_t r = 0; r < n; ++r) std::fill_n(m.Row(r), width, sentinel);
    return m;
  };

  for (const int sockets : {1, 2, 4}) {
    memsim::TopologyConfig topo;
    topo.num_sockets = sockets;
    memsim::MemorySystem ms(topo, memsim::DefaultProfiles());
    for (const bool enabled : {true, false}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE(std::to_string(sockets) + " sockets, " +
                     (enabled ? "NaDP" : "interleaved") + ", " +
                     std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        const exec::Context ctx(&ms, &pool, threads);
        NadpOptions opts;
        opts.num_threads = threads;
        opts.enabled = enabled;
        opts.wofp.sigma = 0.15;
        const NadpPlan plan = NadpPlan::Build(a, opts, ctx);

        // Column-major.
        DenseMatrix full(n, b.cols());
        const NadpResult all = NadpExecute(plan, a, {b, &full}, ctx);
        DenseMatrix part(n, b.cols());
        part.Fill(sentinel);
        const DenseMatrix untouched = part;
        const NadpResult sub =
            NadpExecute(plan, a, {b, &part}, ctx, 0, SIZE_MAX, nullptr, &rows);
        for (uint32_t r = 0; r < n; ++r) {
          ASSERT_EQ(matrix_row(part, r),
                    matrix_row(in_subset[r] ? full : untouched, r))
              << "row " << r;
        }
        uint64_t nnz = 0;
        for (const sched::RowRange& r : rows) {
          for (auto cur = a.Rows(r.begin); cur.row() < r.end; cur.Next()) {
            nnz += cur.degree();
          }
        }
        EXPECT_EQ(sub.nnz_processed, nnz);
        EXPECT_GT(sub.phase_seconds, 0.0);
        EXPECT_LT(sub.phase_seconds, all.phase_seconds);

        // A packed Chebyshev term: the epilogue writes T_1 and the sum.
        sparse::kernels::PackedOperand t_full = filled(8);
        sparse::kernels::PackedOperand sum_full = filled(8);
        NadpExecute(plan, a, {source, {1, 0.5f, 0.25f, nullptr, &t_full, &sum_full}},
                    ctx);
        sparse::kernels::PackedOperand t_part = filled(8);
        sparse::kernels::PackedOperand sum_part = filled(8);
        const sparse::kernels::PackedOperand blank = filled(8);
        NadpExecute(plan, a, {source, {1, 0.5f, 0.25f, nullptr, &t_part, &sum_part}},
                    ctx, 0, SIZE_MAX, nullptr, &rows);
        for (uint32_t r = 0; r < n; ++r) {
          ASSERT_EQ(packed_row(t_part, r), packed_row(in_subset[r] ? t_full : blank, r))
              << "T_1 row " << r;
          ASSERT_EQ(packed_row(sum_part, r),
                    packed_row(in_subset[r] ? sum_full : blank, r))
              << "sum row " << r;
        }
      }
    }
  }
}

}  // namespace
}  // namespace omega::numa
