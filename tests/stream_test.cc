// Unit tests for ASL (§III-E): the Eq. 9 partition count, column partitioning,
// load costing, and the double-buffered pipeline overlap.

#include <gtest/gtest.h>

#include "stream/asl.h"

namespace omega::stream {
namespace {

TEST(OptimalPartitionsTest, EquationNine) {
  // 3 d|V|s / (M_total - M_s - 2 d|V|s), d|V|s = 4 MB here.
  AslConfig cfg;
  cfg.dense_rows = 1 << 20;
  cfg.dense_cols = 1;
  cfg.element_bytes = 4;
  cfg.sparse_bytes = 1 << 20;         // 1 MB
  cfg.dram_budget = 12ULL << 20;      // 12 MB => denom = 12 - 1 - 8 = 3 MB
  auto n = OptimalPartitions(cfg);
  ASSERT_TRUE(n.ok());
  // 3*4/3 = 4 partitions, clamped to dense_cols = 1.
  EXPECT_EQ(n.value(), 1u);
  cfg.dense_cols = 16;
  cfg.dram_budget = (1ULL << 20) + 2 * 16 * (4ULL << 20) + (48ULL << 20);
  // denom = 48 MB, 3*d|V|s = 192 MB => n = 4.
  n = OptimalPartitions(cfg);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
}

TEST(OptimalPartitionsTest, FailsWhenResidentSetTooLarge) {
  AslConfig cfg;
  cfg.dense_rows = 1 << 20;
  cfg.dense_cols = 8;
  cfg.sparse_bytes = 1 << 20;
  cfg.dram_budget = 4 << 20;  // smaller than 2*d|V|s
  const auto n = OptimalPartitions(cfg);
  ASSERT_FALSE(n.ok());
  EXPECT_TRUE(n.status().IsCapacityExceeded());
}

TEST(PartitionColumnsTest, CoversRangeWithoutOverlap) {
  size_t covered = 0;
  for (size_t k = 0; k < 3; ++k) {
    auto [begin, end] = PartitionColumns(10, 3, k);
    EXPECT_EQ(begin, covered);
    covered = end;
  }
  EXPECT_EQ(covered, 10u);
  auto [b, e] = PartitionColumns(10, 3, 2);
  EXPECT_EQ(e - b, 2u);  // 4 + 4 + 2
}

class AslTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ms_ = memsim::MemorySystem::CreateDefault();
    cfg_.dense_rows = 1 << 18;
    cfg_.dense_cols = 32;
    cfg_.element_bytes = 4;
    cfg_.sparse_bytes = 1 << 20;
    // Budget chosen so Eq. 9 yields a handful of partitions.
    cfg_.dram_budget = cfg_.sparse_bytes +
                       2 * cfg_.dense_rows * cfg_.dense_cols * 4 + (24ULL << 20);
  }

  AslStreamer MakeStreamer() {
    return AslStreamer(exec::Context(ms_.get()), cfg_,
                       {memsim::Tier::kPm, memsim::Placement::kInterleaved},
                       {memsim::Tier::kDram, memsim::Placement::kInterleaved});
  }

  std::unique_ptr<memsim::MemorySystem> ms_;
  AslConfig cfg_;
};

TEST_F(AslTest, LoadSecondsScaleWithWidth) {
  AslStreamer s = MakeStreamer();
  const double one = s.LoadSeconds(0, 8);
  const double two = s.LoadSeconds(0, 16);
  EXPECT_NEAR(two / one, 2.0, 0.01);
  EXPECT_DOUBLE_EQ(s.LoadSeconds(4, 4), 0.0);
}

TEST_F(AslTest, RunVisitsEveryColumnOnce) {
  AslStreamer s = MakeStreamer();
  std::vector<int> seen(cfg_.dense_cols, 0);
  auto result = s.Run([&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) seen[c]++;
    return 0.001;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (int c : seen) EXPECT_EQ(c, 1);
  EXPECT_GT(result.value().partitions.size(), 1u);
}

TEST_F(AslTest, PipelineOverlapsLoadsWithCompute) {
  AslStreamer s = MakeStreamer();
  // Compute much slower than loads: total ~= load_0 + sum(compute).
  auto slow = s.Run([&](size_t, size_t, size_t) { return 0.5; });
  ASSERT_TRUE(slow.ok());
  const size_t n = slow.value().partitions.size();
  EXPECT_NEAR(slow.value().total_seconds,
              slow.value().partitions[0].load_seconds + 0.5 * n, 1e-9);
  EXPECT_GT(slow.value().OverlapEfficiency(), 0.0);
  EXPECT_LT(slow.value().total_seconds, slow.value().serial_seconds);

  // Compute free: total = sum of loads (loads serialize on the single
  // streaming channel).
  auto fast = s.Run([&](size_t, size_t, size_t) { return 0.0; });
  ASSERT_TRUE(fast.ok());
  double load_sum = 0.0;
  for (const auto& p : fast.value().partitions) load_sum += p.load_seconds;
  EXPECT_NEAR(fast.value().total_seconds, load_sum, 1e-9);
}

TEST_F(AslTest, RunPropagatesSizingFailure) {
  cfg_.dram_budget = 1 << 20;  // impossible
  AslStreamer s = MakeStreamer();
  auto result = s.Run([&](size_t, size_t, size_t) { return 0.0; });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCapacityExceeded());
}

TEST_F(AslTest, FixedPartitionsZeroSolvesAndOneIsSinglePass) {
  // fixed_partitions = 0 takes the Eq. 9 solve path.
  cfg_.fixed_partitions = 0;
  auto solved = MakeStreamer().Run([](size_t, size_t, size_t) { return 0.0; });
  ASSERT_TRUE(solved.ok());
  auto expect_n = OptimalPartitions(cfg_);
  ASSERT_TRUE(expect_n.ok());
  EXPECT_EQ(solved.value().partitions.size(), expect_n.value());

  // fixed_partitions = 1: a single partition covering every column; nothing
  // overlaps, so total == serial == load + compute.
  cfg_.fixed_partitions = 1;
  auto one = MakeStreamer().Run([](size_t, size_t, size_t) { return 0.25; });
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().partitions.size(), 1u);
  EXPECT_EQ(one.value().partitions[0].col_begin, 0u);
  EXPECT_EQ(one.value().partitions[0].col_end, cfg_.dense_cols);
  EXPECT_DOUBLE_EQ(one.value().total_seconds, one.value().serial_seconds);
}

TEST_F(AslTest, MorePartitionsThanColumnsCoversEachColumnOnce) {
  cfg_.fixed_partitions = cfg_.dense_cols + 7;  // trailing empty partitions
  AslStreamer s = MakeStreamer();
  std::vector<int> seen(cfg_.dense_cols, 0);
  auto result = s.Run([&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) seen[c]++;
    return 0.0;
  });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (int c : seen) EXPECT_EQ(c, 1);
  // Partitions past the last column are empty and cost nothing.
  for (size_t k = cfg_.dense_cols; k < result.value().partitions.size(); ++k) {
    const auto& p = result.value().partitions[k];
    EXPECT_EQ(p.col_begin, p.col_end);
    EXPECT_DOUBLE_EQ(p.load_seconds, 0.0);
  }
}

// An always-failing PM class drives every partition load through the retry
// loop into semi-external degradation; the run completes, flags the rebuild,
// and satisfies the accounting identity.
TEST_F(AslTest, DegradesToSemiExternalWhenPmKeepsFailing) {
  memsim::FaultPlan plan;
  plan.enabled = true;
  plan.at(memsim::Tier::kPm, memsim::MemOp::kRead,
          memsim::Pattern::kSequential).media = 1.0;
  ms_->SetFaultPlan(plan);

  cfg_.fixed_partitions = 4;
  auto degraded = MakeStreamer().Run([](size_t, size_t, size_t) { return 0.0; });
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded.value().degraded_partitions, 4u);
  EXPECT_TRUE(degraded.value().rebuild_recommended);
  EXPECT_EQ(degraded.value().load_retries, 4u * 3u);  // 3 retries per load
  const memsim::FaultCounters c = ms_->Faults();
  EXPECT_TRUE(c.Accounted());
  EXPECT_EQ(c.degraded, 4u);

  // The degraded pass streams from the slower SSD home on top of the wasted
  // PM attempts, so it must cost more than a healthy pass.
  ms_->SetFaultPlan(memsim::FaultPlan{});
  auto healthy = MakeStreamer().Run([](size_t, size_t, size_t) { return 0.0; });
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().degraded_partitions, 0u);
  EXPECT_FALSE(healthy.value().rebuild_recommended);
  EXPECT_GT(degraded.value().total_seconds, healthy.value().total_seconds);
}

TEST_F(AslTest, SurfacesIOErrorWhenDegradationDisallowed) {
  memsim::FaultPlan plan;
  plan.enabled = true;
  plan.at(memsim::Tier::kPm, memsim::MemOp::kRead,
          memsim::Pattern::kSequential).media = 1.0;
  ms_->SetFaultPlan(plan);

  cfg_.fixed_partitions = 4;
  cfg_.allow_degraded = false;
  auto result = MakeStreamer().Run([](size_t, size_t, size_t) { return 0.0; });
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsIOError());
  EXPECT_EQ(ms_->Faults().surfaced, 1u);
  EXPECT_TRUE(ms_->Faults().Accounted());
}

}  // namespace
}  // namespace omega::stream
