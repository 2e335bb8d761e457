// Unit tests for the heterogeneous-memory simulator: calibrated profile
// ratios from the paper, cost-model behaviour, capacity accounting,
// interleaved placement, traffic counters, the worker->socket layout and the
// simulated-worker frame, and the Fig. 9 bandwidth probe.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "memsim/bandwidth_probe.h"
#include "memsim/memory_system.h"
#include "memsim/sim_buffer.h"
#include "memsim/worker_frame.h"

namespace omega::memsim {
namespace {

class MemsimTest : public ::testing::Test {
 protected:
  void SetUp() override { ms_ = MemorySystem::CreateDefault(); }
  std::unique_ptr<MemorySystem> ms_;
};

TEST(ProfileTest, PmReadBandwidthIsAboutOneThirdOfDram) {
  const ProfileSet set = DefaultProfiles();
  const double dram = set.Get(Tier::kDram)
                          .Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal)
                          .peak_gbps;
  const double pm = set.Get(Tier::kPm)
                        .Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal)
                        .peak_gbps;
  EXPECT_NEAR(dram / pm, 3.0, 0.35);  // paper: PM reads ~1/3 DRAM
}

TEST(ProfileTest, PmWriteBandwidthIsAboutOneSixthOfDram) {
  const ProfileSet set = DefaultProfiles();
  const double dram = set.Get(Tier::kDram)
                          .Curve(MemOp::kWrite, Pattern::kSequential, Locality::kLocal)
                          .peak_gbps;
  const double pm = set.Get(Tier::kPm)
                        .Curve(MemOp::kWrite, Pattern::kSequential, Locality::kLocal)
                        .peak_gbps;
  EXPECT_NEAR(dram / pm, 6.0, 0.35);  // paper: PM writes ~1/6 DRAM
}

TEST(ProfileTest, PmSeqReadBeatsRandomByPaperRatios) {
  // Fig. 9: local seq read peak is 2.41x local random and 2.45x remote random.
  const ProfileSet set = DefaultProfiles();
  const DeviceProfile& pm = set.Get(Tier::kPm);
  const double seq_local =
      pm.Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal).peak_gbps;
  const double rand_local =
      pm.Curve(MemOp::kRead, Pattern::kRandom, Locality::kLocal).peak_gbps;
  const double rand_remote =
      pm.Curve(MemOp::kRead, Pattern::kRandom, Locality::kRemote).peak_gbps;
  EXPECT_NEAR(seq_local / rand_local, 2.41, 0.1);
  EXPECT_NEAR(seq_local / rand_remote, 2.45, 0.1);
}

TEST(ProfileTest, PmLocalWritesBeatRemoteWritesByPaperRatios) {
  // Fig. 9: local seq write is 3.23x remote seq write, 4.99x remote random.
  const ProfileSet set = DefaultProfiles();
  const DeviceProfile& pm = set.Get(Tier::kPm);
  const double seq_local =
      pm.Curve(MemOp::kWrite, Pattern::kSequential, Locality::kLocal).peak_gbps;
  EXPECT_NEAR(
      seq_local /
          pm.Curve(MemOp::kWrite, Pattern::kSequential, Locality::kRemote).peak_gbps,
      3.23, 0.1);
  EXPECT_NEAR(
      seq_local /
          pm.Curve(MemOp::kWrite, Pattern::kRandom, Locality::kRemote).peak_gbps,
      4.99, 0.1);
}

TEST(ProfileTest, PmRemoteSeqReadComparableToLocal) {
  // Fig. 9's headline: remote sequential reads are nearly free under NUMA.
  const ProfileSet set = DefaultProfiles();
  const DeviceProfile& pm = set.Get(Tier::kPm);
  const double local =
      pm.Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal).peak_gbps;
  const double remote =
      pm.Curve(MemOp::kRead, Pattern::kSequential, Locality::kRemote).peak_gbps;
  EXPECT_GT(remote / local, 0.9);
}

TEST(ProfileTest, PmLatencyMultipliersMatchPaper) {
  const ProfileSet set = DefaultProfiles();
  const DeviceProfile& dram = set.Get(Tier::kDram);
  const DeviceProfile& pm = set.Get(Tier::kPm);
  EXPECT_NEAR(pm.LatencyNs(Locality::kLocal) / dram.LatencyNs(Locality::kLocal), 4.2,
              0.05);
  EXPECT_NEAR(pm.LatencyNs(Locality::kRemote) / dram.LatencyNs(Locality::kRemote),
              3.3, 0.05);
}

TEST(BandwidthCurveTest, SaturatesAtPeak) {
  BandwidthCurve curve{2.0, 10.0};
  EXPECT_DOUBLE_EQ(curve.AggregateGbps(1), 2.0);
  EXPECT_DOUBLE_EQ(curve.AggregateGbps(4), 8.0);
  EXPECT_DOUBLE_EQ(curve.AggregateGbps(16), 10.0);
  EXPECT_DOUBLE_EQ(curve.PerThreadGbps(16), 10.0 / 16);
  EXPECT_DOUBLE_EQ(curve.AggregateGbps(0), 2.0);  // clamped to one thread
}

TEST_F(MemsimTest, CostScalesLinearlyWithBytes) {
  AccessRun run;
  run.bytes = 1 << 20;
  run.accesses = 1;
  const double t1 = ms_->cost_model().AccessSeconds(Tier::kPm, run, 1);
  run.bytes = 2 << 20;
  const double t2 = ms_->cost_model().AccessSeconds(Tier::kPm, run, 1);
  EXPECT_NEAR(t2 / t1, 2.0, 1e-9);
}

TEST_F(MemsimTest, RandomCostExceedsSequentialCost) {
  AccessRun seq{MemOp::kRead, Pattern::kSequential, Locality::kLocal, 1 << 20, 1};
  AccessRun rand{MemOp::kRead, Pattern::kRandom, Locality::kLocal, 1 << 20, 16384};
  EXPECT_GT(ms_->cost_model().AccessSeconds(Tier::kPm, rand, 1),
            ms_->cost_model().AccessSeconds(Tier::kPm, seq, 1));
}

TEST_F(MemsimTest, ZeroChargeIsFree) {
  AccessRun run;
  run.bytes = 0;
  run.accesses = 0;
  EXPECT_DOUBLE_EQ(ms_->cost_model().AccessSeconds(Tier::kDram, run, 1), 0.0);
}

TEST_F(MemsimTest, ComputeSecondsMatchesRate) {
  const double rate = ms_->cost_model().profiles().cpu_ops_per_second;
  EXPECT_NEAR(ms_->cost_model().ComputeSeconds(static_cast<size_t>(rate)), 1.0,
              1e-9);
}

TEST_F(MemsimTest, ReserveAndReleaseTracksUsage) {
  const Placement p{Tier::kDram, 0};
  ASSERT_TRUE(ms_->Reserve(p, 1 << 20).ok());
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 1u << 20);
  ms_->Release(p, 1 << 20);
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 0u);
}

TEST_F(MemsimTest, ReserveFailsWhenDeviceFull) {
  const Placement p{Tier::kDram, 0};
  const size_t cap = ms_->CapacityBytes(Tier::kDram);
  ASSERT_TRUE(ms_->Reserve(p, cap).ok());
  const Status st = ms_->Reserve(p, 1);
  EXPECT_TRUE(st.IsCapacityExceeded());
  ms_->Release(p, cap);
}

TEST_F(MemsimTest, PmCapacityIsEightTimesDram) {
  EXPECT_EQ(ms_->CapacityBytes(Tier::kPm), 8 * ms_->CapacityBytes(Tier::kDram));
}

TEST_F(MemsimTest, SsdCapacityUnbounded) {
  EXPECT_EQ(ms_->CapacityBytes(Tier::kSsd), SIZE_MAX);
  EXPECT_EQ(ms_->AvailableBytes(Tier::kSsd, 0), SIZE_MAX);
}

TEST_F(MemsimTest, InterleavedReservationSpreadsAcrossSockets) {
  const Placement p{Tier::kDram, Placement::kInterleaved};
  ASSERT_TRUE(ms_->Reserve(p, 2 << 20).ok());
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 1u << 20);
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 1), 1u << 20);
  ms_->Release(p, 2 << 20);
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 0u);
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 1), 0u);
}

TEST_F(MemsimTest, UsedBytesRejectsSocketsOutsideTheTopology) {
  EXPECT_DEATH(ms_->UsedBytes(Tier::kDram, 2), "socket out of range");
  EXPECT_DEATH(ms_->UsedBytes(Tier::kDram, Placement::kInterleaved),
               "socket out of range");
}

TEST_F(MemsimTest, InterleavedCostBetweenLocalAndRemote) {
  const size_t bytes = 16 << 20;
  const double local = ms_->AccessSeconds({Tier::kPm, 0}, 0, MemOp::kWrite,
                                          Pattern::kSequential, bytes, 1, 1);
  const double remote = ms_->AccessSeconds({Tier::kPm, 1}, 0, MemOp::kWrite,
                                           Pattern::kSequential, bytes, 1, 1);
  const double mixed =
      ms_->AccessSeconds({Tier::kPm, Placement::kInterleaved}, 0, MemOp::kWrite,
                         Pattern::kSequential, bytes, 2, 1);
  EXPECT_GT(mixed, local);
  EXPECT_LT(mixed, remote);
}

TEST_F(MemsimTest, TrafficCountersClassifyLocality) {
  ms_->ResetTraffic();
  ms_->AccessSeconds({Tier::kPm, 0}, 0, MemOp::kRead, Pattern::kSequential, 1000, 1,
                     1);
  ms_->AccessSeconds({Tier::kPm, 1}, 0, MemOp::kRead, Pattern::kSequential, 3000, 1,
                     1);
  const TrafficSnapshot snap = ms_->Traffic();
  EXPECT_EQ(snap.LocalityBytes(Locality::kLocal), 1000u);
  EXPECT_EQ(snap.LocalityBytes(Locality::kRemote), 3000u);
  EXPECT_NEAR(snap.RemoteFraction(), 0.75, 1e-9);
  EXPECT_EQ(snap.TierBytes(Tier::kPm), 4000u);
  EXPECT_EQ(snap.TotalBytes(), 4000u);
}

TEST_F(MemsimTest, ChargeAdvancesWorkerClock) {
  SimClock clock;
  WorkerCtx ctx;
  ctx.clock = &clock;
  ctx.cpu_socket = 0;
  ctx.active_threads = 1;
  ms_->ChargeAccess(&ctx, {Tier::kDram, 0}, MemOp::kRead, Pattern::kSequential,
                    12ull << 30, 1);
  EXPECT_NEAR(clock.seconds(), 1.0, 0.1);  // 12 GB at 12 GB/s per thread
  ms_->ChargeCompute(&ctx, 4000000000ull);
  EXPECT_NEAR(clock.seconds(), 2.0, 0.1);
}

TEST_F(MemsimTest, SimBufferReservesAndReleases) {
  {
    auto buf = SimBuffer<float>::Create(ms_.get(), 1024, Tier::kDram, 0);
    ASSERT_TRUE(buf.ok());
    EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 4096u);
    EXPECT_EQ(buf.value().size(), 1024u);
    buf.value()[0] = 1.5f;
    EXPECT_EQ(buf.value()[0], 1.5f);
    // Move transfers ownership without double-release.
    SimBuffer<float> moved = std::move(buf).value();
    EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 4096u);
    EXPECT_EQ(moved.size(), 1024u);
  }
  EXPECT_EQ(ms_->UsedBytes(Tier::kDram, 0), 0u);
}

TEST_F(MemsimTest, SimBufferFailsPastCapacity) {
  const size_t cap = ms_->CapacityBytes(Tier::kDram);
  auto buf = SimBuffer<uint8_t>::Create(ms_.get(), cap + 1, Tier::kDram, 0);
  EXPECT_FALSE(buf.ok());
  EXPECT_TRUE(buf.status().IsCapacityExceeded());
}

TEST_F(MemsimTest, SocketOfWorkerBlocksContiguously) {
  const Topology& topo = ms_->topology();
  EXPECT_EQ(topo.SocketOfWorker(0, 8), 0);
  EXPECT_EQ(topo.SocketOfWorker(3, 8), 0);
  EXPECT_EQ(topo.SocketOfWorker(4, 8), 1);
  EXPECT_EQ(topo.SocketOfWorker(7, 8), 1);
  EXPECT_EQ(topo.SocketOfWorker(0, 1), 0);
  // The layout's other queries agree with it for every (workers, sockets)
  // pair, uneven ones included: group sizes count the workers SocketOfWorker
  // puts on each socket, and IndexOnSocket is a worker's rank in its group.
  for (int sockets : {1, 2, 3, 4}) {
    TopologyConfig config;
    config.num_sockets = sockets;
    const Topology layout(config);
    for (int workers = 1; workers <= 9; ++workers) {
      SCOPED_TRACE(std::to_string(workers) + " workers on " +
                   std::to_string(sockets) + " sockets");
      std::vector<int> group(sockets, 0);
      int prev_socket = 0;
      for (int w = 0; w < workers; ++w) {
        const int s = layout.SocketOfWorker(w, workers);
        EXPECT_GE(s, prev_socket);  // contiguous blocks
        prev_socket = s;
        EXPECT_EQ(layout.IndexOnSocket(w, workers), group[s]++);
      }
      for (int s = 0; s < sockets; ++s) {
        EXPECT_EQ(layout.ThreadsOnSocket(s, workers), group[s]) << "socket " << s;
      }
    }
  }
  TopologyConfig four;
  four.num_sockets = 4;
  const Topology uneven(four);
  EXPECT_EQ(uneven.ThreadsOnSocket(0, 5), 2);
  EXPECT_EQ(uneven.ThreadsOnSocket(1, 5), 2);
  EXPECT_EQ(uneven.ThreadsOnSocket(2, 5), 1);
  EXPECT_EQ(uneven.ThreadsOnSocket(3, 5), 0);
}

TEST(WorkerFrameTest, ContextsFollowLayoutAndContention) {
  TopologyConfig config;
  config.num_sockets = 4;
  const Topology topo(config);
  WorkerFrame pool_frame(topo, 5, Contention::kPool, 42);
  WorkerFrame socket_frame(topo, 5, Contention::kSocket);
  const int sockets[] = {0, 0, 1, 1, 2};
  const int groups[] = {2, 2, 2, 2, 1};
  ASSERT_EQ(pool_frame.size(), 5u);
  for (size_t w = 0; w < 5; ++w) {
    const WorkerCtx* p = pool_frame.ctx(w);
    EXPECT_EQ(p->worker, static_cast<int>(w));
    EXPECT_EQ(p->cpu_socket, sockets[w]);
    EXPECT_EQ(p->active_threads, 5);
    EXPECT_EQ(p->fault_site, 42u);
    EXPECT_EQ(p->clock, &pool_frame.clock(w));
    const WorkerCtx* s = socket_frame.ctx(w);
    EXPECT_EQ(s->cpu_socket, sockets[w]);
    EXPECT_EQ(s->active_threads, groups[w]);
    EXPECT_EQ(s->fault_site, 0u);
  }
}

TEST(WorkerFrameTest, RunReportsLapStragglerAndPhaseMax) {
  const Topology topo{TopologyConfig{}};
  for (const bool pooled : {false, true}) {
    SCOPED_TRACE(pooled ? "pool" : "serial");
    ThreadPool pool(4);
    WorkerFrame frame(topo, 3);
    // Lap 1: worker w advances w + 1 seconds.
    EXPECT_EQ(frame.Run(pooled ? &pool : nullptr,
                        [](size_t w, WorkerCtx* ctx) { ctx->clock->Advance(w + 1.0); }),
              3.0);
    // Lap 2: only worker 0 advances; the lap's straggler is 2, the phase's 3.
    EXPECT_EQ(frame.Run(pooled ? &pool : nullptr,
                        [](size_t w, WorkerCtx* ctx) {
                          if (w == 0) ctx->clock->Advance(2.0);
                        }),
              2.0);
    EXPECT_EQ(frame.seconds(0), 3.0);
    EXPECT_EQ(frame.MaxSeconds(), 3.0);
  }
}

// --- Fig. 9 probe: the simulated device reproduces the published curves. ---

TEST_F(MemsimTest, ProbeBandwidthIncreasesThenSaturates) {
  const size_t bytes = 64 << 20;
  const double bw1 =
      ProbeBandwidth(ms_.get(), Tier::kPm, MemOp::kRead, Pattern::kSequential,
                     Locality::kLocal, 1, bytes)
          .gbps;
  const double bw8 =
      ProbeBandwidth(ms_.get(), Tier::kPm, MemOp::kRead, Pattern::kSequential,
                     Locality::kLocal, 8, bytes)
          .gbps;
  const double bw18 =
      ProbeBandwidth(ms_.get(), Tier::kPm, MemOp::kRead, Pattern::kSequential,
                     Locality::kLocal, 18, bytes)
          .gbps;
  EXPECT_GT(bw8, bw1 * 3);
  EXPECT_NEAR(bw18, 33.0, 2.0);  // saturates at the calibrated peak
}

TEST_F(MemsimTest, ProbeLocalWritesBeatRemoteWrites) {
  const size_t bytes = 64 << 20;
  for (Pattern pat : {Pattern::kSequential, Pattern::kRandom}) {
    const double local = ProbeBandwidth(ms_.get(), Tier::kPm, MemOp::kWrite, pat,
                                        Locality::kLocal, 18, bytes)
                             .gbps;
    const double remote = ProbeBandwidth(ms_.get(), Tier::kPm, MemOp::kWrite, pat,
                                         Locality::kRemote, 18, bytes)
                              .gbps;
    EXPECT_GT(local, remote * 2.0);
  }
}

// Every probe sample pinned bit for bit at the two worker layouts the
// parallel charge phases must agree on: 3 threads on the default 2 sockets,
// and 5 threads on 4 sockets (socket groups 2/2/1/0).
TEST(ProbePinTest, ProbeTierPinned) {
  struct Case {
    int sockets;
    int threads;
    const char* digest;
  };
  // clang-format off
  const Case cases[] = {
      {2, 3,
       "0x1.2p+5\n"
       "0x1.bp+4\n"
       "0x1.bp+3\n"
       "0x1.0750750750751p+2\n"
       "0x1.ep+4\n"
       "0x1.2p+4\n"
       "0x1.6ccccccccccccp+3\n"
       "0x1.0750750750751p+2\n"
       "0x1.0ccccccccccccp+4\n"
       "0x1.f333333333333p+3\n"
       "0x1.2492492492491p+2\n"
       "0x1.3f2b3884fcacep+0\n"
       "0x1.4666666666667p+3\n"
       "0x1.a666666666667p+1\n"
       "0x1.2492492492491p+2\n"
       "0x1.3f2b3884fcacep+0\n"},
      {4, 5,
       "0x1.ep+5\n"
       "0x1.68p+5\n"
       "0x1.68p+4\n"
       "0x1.b6db6db6db6dcp+2\n"
       "0x1.9p+5\n"
       "0x1.ep+4\n"
       "0x1.3p+4\n"
       "0x1.b6db6db6db6dcp+2\n"
       "0x1.cp+4\n"
       "0x1.ap+4\n"
       "0x1.e79e79e79e79dp+2\n"
       "0x1.09f959c427e56p+1\n"
       "0x1.cp+3\n"
       "0x1.151eb851eb851p+2\n"
       "0x1.8cccccccccccdp+2\n"
       "0x1.09f959c427e56p+1\n"},
  };
  // clang-format on
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.threads) + " threads on " +
                 std::to_string(c.sockets) + " sockets");
    TopologyConfig topo;
    topo.num_sockets = c.sockets;
    MemorySystem ms(topo, DefaultProfiles());
    std::string actual;
    for (Tier tier : {Tier::kDram, Tier::kPm}) {
      for (const BandwidthSample& s : ProbeTier(&ms, tier, {c.threads}, 1 << 20)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%a\n", s.gbps);
        actual += buf;
      }
    }
    EXPECT_EQ(c.digest, actual) << "actual pin:\n" << actual;
  }
}

TEST_F(MemsimTest, ProbeTierSweepsAllCombinations) {
  const auto samples = ProbeTier(ms_.get(), Tier::kPm, {1, 2, 4}, 1 << 20);
  EXPECT_EQ(samples.size(), 2u * 2u * 2u * 3u);
  for (const auto& s : samples) EXPECT_GT(s.gbps, 0.0);
}

}  // namespace
}  // namespace omega::memsim
