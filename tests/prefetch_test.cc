// Unit tests for WoFP (§III-C): the top-M store, the eta type-selection rule,
// frequency vs degree scoring, and DRAM reservation fallback (the end-to-end
// effect on SpMM cost is in numa_test's NadpTest.WofpComposesWithNadp).

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"
#include "graph/rmat.h"
#include "prefetch/topm_store.h"
#include "prefetch/wofp.h"
#include "sched/workload.h"
#include "sparse/spmm_plan.h"

namespace omega::prefetch {
namespace {

using graph::CsdbMatrix;

TEST(TopMStoreTest, KeepsHighestScores) {
  std::vector<ScoredKey> candidates = {{1, 10}, {2, 50}, {3, 30}, {4, 5}, {5, 40}};
  const TopMStore store = TopMStore::Build(candidates, 3, 10);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_TRUE(store.Contains(2));
  EXPECT_TRUE(store.Contains(5));
  EXPECT_TRUE(store.Contains(3));
  EXPECT_FALSE(store.Contains(1));
  EXPECT_FALSE(store.Contains(4));
  EXPECT_EQ(store.MinScore(), 30u);
  EXPECT_EQ(store.SimBytes(), 48u);
}

TEST(TopMStoreTest, DeterministicTieBreaking) {
  std::vector<ScoredKey> candidates = {{9, 7}, {2, 7}, {5, 7}, {1, 7}};
  const TopMStore store = TopMStore::Build(candidates, 2, 10);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Contains(2));  // smaller keys win ties
  EXPECT_FALSE(store.Contains(9));
}

TEST(TopMStoreTest, EdgeCases) {
  EXPECT_EQ(TopMStore::Build({}, 5, 10).size(), 0u);
  EXPECT_EQ(TopMStore::Build({{1, 1}}, 0, 10).size(), 0u);
  const TopMStore all = TopMStore::Build({{1, 1}, {2, 2}}, 99, 10);
  EXPECT_EQ(all.size(), 2u);
  EXPECT_FALSE(all.Contains(7));
  EXPECT_FALSE(all.Contains(999));  // out of universe
  EXPECT_EQ(TopMStore().MinScore(), 0u);
}

TEST(StreamingTopMTest, TracksExactCounts) {
  StreamingTopM tracker(3);
  for (int i = 0; i < 5; ++i) tracker.Observe(7);
  for (int i = 0; i < 3; ++i) tracker.Observe(2);
  tracker.Observe(9);
  EXPECT_EQ(tracker.DistinctKeys(), 3u);
  EXPECT_EQ(tracker.TotalObservations(), 9u);
  EXPECT_EQ(tracker.CountOf(7), 5u);
  EXPECT_EQ(tracker.CountOf(2), 3u);
  EXPECT_EQ(tracker.CountOf(42), 0u);
}

TEST(StreamingTopMTest, FinalizeSelectsHottest) {
  StreamingTopM tracker(2);
  for (int i = 0; i < 10; ++i) tracker.Observe(1);
  for (int i = 0; i < 7; ++i) tracker.Observe(5);
  for (int i = 0; i < 2; ++i) tracker.Observe(3);
  const TopMStore store = tracker.Finalize(10);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_TRUE(store.Contains(5));
  EXPECT_FALSE(store.Contains(3));
  EXPECT_EQ(store.MinScore(), 7u);
}

TEST(StreamingTopMTest, FinalizeMatchesBatchBuild) {
  // Streaming counting then finalizing equals building from exact counts.
  Rng rng(5);
  StreamingTopM tracker(50);
  std::unordered_map<graph::NodeId, uint64_t> exact;
  for (int i = 0; i < 20000; ++i) {
    const auto key = static_cast<graph::NodeId>(rng.NextBounded(300));
    tracker.Observe(key);
    exact[key]++;
  }
  std::vector<ScoredKey> candidates;
  for (const auto& [key, count] : exact) candidates.push_back({key, count});
  const TopMStore batch = TopMStore::Build(std::move(candidates), 50, 300);
  const TopMStore streamed = tracker.Finalize(300);
  ASSERT_EQ(batch.size(), streamed.size());
  for (const auto& e : batch.entries()) {
    EXPECT_TRUE(streamed.Contains(e.key)) << e.key;
  }
}

TEST(StreamingTopMTest, DenseCountsMatchHashMapOracleOnShuffledSkewedStream) {
  // Key c occurs 1 + 3000 / (c + 1) times, so the head is steep and the long
  // tail ties at low counts; the stream is shuffled, half of it observed as
  // one span, and keys run past the array's initial size. The store must
  // equal one built from hash-map counts, entry for entry.
  constexpr uint32_t kKeys = 4000;
  std::vector<graph::NodeId> stream;
  for (graph::NodeId c = 0; c < kKeys; ++c) {
    stream.insert(stream.end(), 1 + 3000 / (c + 1), c);
  }
  Rng rng(17);
  for (size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.NextBounded(i)]);
  }
  std::unordered_map<graph::NodeId, uint64_t> oracle_counts;
  for (const graph::NodeId key : stream) oracle_counts[key]++;
  for (const size_t m : {size_t{1}, size_t{64}, size_t{700}, size_t{kKeys}}) {
    SCOPED_TRACE(m);
    StreamingTopM tracker(m, kKeys / 4);
    const size_t half = stream.size() / 2;
    tracker.Observe(stream.data(), stream.data() + half);
    for (size_t i = half; i < stream.size(); ++i) tracker.Observe(stream[i]);
    EXPECT_EQ(tracker.DistinctKeys(), oracle_counts.size());
    EXPECT_EQ(tracker.TotalObservations(), stream.size());
    std::vector<ScoredKey> candidates;
    for (const auto& [key, count] : oracle_counts) candidates.push_back({key, count});
    const TopMStore oracle = TopMStore::Build(std::move(candidates), m, kKeys);
    const TopMStore store = tracker.Finalize(kKeys);
    ASSERT_EQ(store.size(), oracle.size());
    for (size_t i = 0; i < store.size(); ++i) {
      EXPECT_EQ(store.entries()[i].key, oracle.entries()[i].key) << i;
      EXPECT_EQ(store.entries()[i].score, oracle.entries()[i].score) << i;
    }
    for (graph::NodeId c = 0; c < kKeys; ++c) {
      EXPECT_EQ(store.Contains(c), oracle.Contains(c)) << c;
    }
  }
}

TEST(SelectPrefetcherTypeTest, EtaRule) {
  sched::Workload dense_w;
  dense_w.nnz = 10000;
  dense_w.num_rows = 10;  // 1000 nnz/row
  sched::Workload sparse_w;
  sparse_w.nnz = 100;
  sparse_w.num_rows = 100;  // 1 nnz/row
  const uint32_t v = 10000;
  const double eta = 0.01;  // threshold: 100 nnz/row
  EXPECT_EQ(SelectPrefetcherType(dense_w, v, eta), PrefetcherType::kFrequencyBased);
  EXPECT_EQ(SelectPrefetcherType(sparse_w, v, eta), PrefetcherType::kDegreeBased);
  sched::Workload empty;
  EXPECT_EQ(SelectPrefetcherType(empty, v, eta), PrefetcherType::kDegreeBased);
  EXPECT_STREQ(PrefetcherTypeName(PrefetcherType::kFrequencyBased), "frequency");
}

class WofpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 10;
    params.num_edges = 12000;
    params.a = 0.65;
    params.b = 0.15;
    params.c = 0.15;
    params.d = 0.05;
    a_ = CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
    ms_ = memsim::MemorySystem::CreateDefault();
    in_degrees_ = sparse::ComputeInDegrees(a_);
    full_.ranges.push_back(sched::RowRange{0, a_.num_rows()});
    sched::RefreshCounts(a_, &full_);
  }

  memsim::WorkerCtx Ctx(memsim::SimClock* clock) {
    memsim::WorkerCtx ctx;
    ctx.worker = 0;
    ctx.cpu_socket = 0;
    ctx.active_threads = 1;
    ctx.clock = clock;
    return ctx;
  }

  CsdbMatrix a_;
  std::unique_ptr<memsim::MemorySystem> ms_;
  std::vector<uint32_t> in_degrees_;
  sched::Workload full_;
};

TEST_F(WofpTest, InDegreesMatchColumnCounts) {
  uint64_t total = 0;
  for (uint32_t d : in_degrees_) total += d;
  EXPECT_EQ(total, a_.nnz());
  // Symmetric adjacency: in-degree == row degree.
  for (uint32_t r = 0; r < a_.num_rows(); ++r) {
    EXPECT_EQ(in_degrees_[r], a_.RowDegree(r));
  }
}

TEST_F(WofpTest, BuildCachesHotColumns) {
  WofpOptions opts;
  opts.sigma = 0.2;
  memsim::SimClock clock;
  auto ctx = Ctx(&clock);
  auto prefetcher = WofpPrefetcher::Build(a_, full_, in_degrees_, opts, ms_.get(),
                                          &ctx);
  ASSERT_NE(prefetcher, nullptr);
  EXPECT_GT(prefetcher->store().size(), 0u);
  EXPECT_GT(clock.seconds(), 0.0);  // build was charged
  // The hottest column (highest in-degree, i.e. CSDB row 0) must be cached.
  EXPECT_TRUE(prefetcher->Contains(0));
  // Hit ratio over the whole workload should be substantial on a skewed
  // graph: sigma=0.2 of nnz as capacity covers far more than 20% of touches.
  uint64_t hits = 0;
  for (graph::NodeId c : a_.col_list()) hits += prefetcher->Contains(c);
  EXPECT_GT(static_cast<double>(hits) / a_.nnz(), 0.3);
}

TEST_F(WofpTest, ReleasesDramReservationOnDestruction) {
  WofpOptions opts;
  opts.sigma = 0.1;
  const size_t before = ms_->UsedBytes(memsim::Tier::kDram, 0);
  {
    memsim::SimClock clock;
    auto ctx = Ctx(&clock);
    auto p = WofpPrefetcher::Build(a_, full_, in_degrees_, opts, ms_.get(), &ctx);
    EXPECT_GT(ms_->UsedBytes(memsim::Tier::kDram, 0), before);
  }
  EXPECT_EQ(ms_->UsedBytes(memsim::Tier::kDram, 0), before);
}

TEST_F(WofpTest, HalvesCapacityWhenDramFull) {
  // Fill DRAM almost completely; the build must degrade, not fail.
  const size_t cap = ms_->CapacityBytes(memsim::Tier::kDram);
  ASSERT_TRUE(ms_->Reserve({memsim::Tier::kDram, 0}, cap - 256).ok());
  WofpOptions opts;
  opts.sigma = 0.5;
  memsim::SimClock clock;
  auto ctx = Ctx(&clock);
  auto p = WofpPrefetcher::Build(a_, full_, in_degrees_, opts, ms_.get(), &ctx);
  ASSERT_NE(p, nullptr);
  EXPECT_LE(p->store().SimBytes(), 256u);
  ms_->Release({memsim::Tier::kDram, 0}, cap - 256);
}

TEST_F(WofpTest, FrequencyAndDegreeProducersDiffer) {
  WofpOptions freq_opts;
  freq_opts.eta = 0.0;  // everything frequency-based
  freq_opts.sigma = 0.05;
  WofpOptions deg_opts;
  deg_opts.eta = 1.0;  // everything degree-based
  deg_opts.sigma = 0.05;
  memsim::SimClock clock;
  auto ctx = Ctx(&clock);
  auto pf = WofpPrefetcher::Build(a_, full_, in_degrees_, freq_opts, ms_.get(), &ctx);
  auto pd = WofpPrefetcher::Build(a_, full_, in_degrees_, deg_opts, ms_.get(), &ctx);
  EXPECT_EQ(pf->type(), PrefetcherType::kFrequencyBased);
  EXPECT_EQ(pd->type(), PrefetcherType::kDegreeBased);
  // On a full symmetric workload both rank by (in-)degree-like scores, so the
  // stores overlap heavily but need not be identical.
  EXPECT_GT(pf->store().size(), 0u);
  EXPECT_GT(pd->store().size(), 0u);
}

}  // namespace
}  // namespace omega::prefetch
