// Fault-injection tests: profile parsing, draw determinism and monotonicity,
// and the engine-level recovery contracts — same seed gives byte-identical
// fault reports, a zero-rate plan is bit-identical to no plan, simulated time
// is monotone in a single fault kind's rate, and the accounting identity
// injected == retried + degraded + surfaced holds across every family. The
// retry-site pins hold every bounded-retry consumer's charged seconds and
// fault counters bit-for-bit.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "buffer/staging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "durable/checkpoint.h"
#include "durable/shared_log.h"
#include "graph/rmat.h"
#include "memsim/fault.h"
#include "memsim/memory_system.h"
#include "omega/distributed_sim.h"
#include "omega/engine.h"
#include "omega/report.h"
#include "prefetch/wofp.h"
#include "serve/hot_cache.h"
#include "stream/asl.h"

namespace omega {
namespace {

using memsim::FaultCounters;
using memsim::FaultKind;
using memsim::FaultPlan;
using memsim::MemOp;
using memsim::Pattern;
using memsim::Tier;

// ---------------------------------------------------------------------------
// Profile parsing.
// ---------------------------------------------------------------------------

TEST(FaultProfileTest, ParsesEveryNamedProfile) {
  for (const std::string& name : memsim::FaultProfileNames()) {
    auto plan = memsim::FaultPlanFromProfile(name);
    ASSERT_TRUE(plan.ok()) << name << ": " << plan.status().ToString();
    EXPECT_EQ(plan.value().enabled, name != "none") << name;
  }
}

TEST(FaultProfileTest, ParsesSeedSuffix) {
  auto plan = memsim::FaultPlanFromProfile("pm-stall:7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().seed, 7u);
  EXPECT_TRUE(plan.value().enabled);
}

TEST(FaultProfileTest, RejectsUnknownNameAndBadSeed) {
  EXPECT_FALSE(memsim::FaultPlanFromProfile("bogus").ok());
  EXPECT_FALSE(memsim::FaultPlanFromProfile("pm-stall:x7").ok());
  EXPECT_FALSE(memsim::FaultPlanFromProfile("pm-stall:").ok());
  // Seeds past 2^64 - 1 are errors, not exceptions; signs are not digits.
  for (const char* spec : {"pm-flaky:99999999999999999999999",
                           "pm-stall:99999999999999999999999",
                           "pm-stall:18446744073709551616", "pm-stall:-1",
                           "pm-stall:+1", "pm-stall:1.5"}) {
    const auto plan = memsim::FaultPlanFromProfile(spec);
    ASSERT_FALSE(plan.ok()) << spec;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << spec;
  }
  const auto max_seed = memsim::FaultPlanFromProfile("pm-stall:18446744073709551615");
  ASSERT_TRUE(max_seed.ok());
  EXPECT_EQ(max_seed.value().seed, UINT64_MAX);
}

// ---------------------------------------------------------------------------
// Custom profile files ("@path" specs).
// ---------------------------------------------------------------------------

std::string WriteProfileFile(const std::string& name, const std::string& body) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << body;
  return path;
}

TEST(FaultProfileFileTest, ParsesDirectivesAndRates) {
  const std::string path = WriteProfileFile("ok.prof",
                                            "# comment line\n"
                                            "seed 9\n"
                                            "stall-multiplier 3.5\n"
                                            "rate pm read seq stall 0.25\n"
                                            "rate pim * * timeout 0.1\n");
  auto plan = memsim::FaultPlanFromFile(path);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan.value().enabled);
  EXPECT_EQ(plan.value().seed, 9u);
  EXPECT_DOUBLE_EQ(plan.value().stall_multiplier, 3.5);
  EXPECT_DOUBLE_EQ(
      plan.value().at(Tier::kPm, MemOp::kRead, Pattern::kSequential).stall,
      0.25);
  // The pim wildcard covers both ops and both patterns.
  EXPECT_DOUBLE_EQ(
      plan.value().at(Tier::kPim, MemOp::kWrite, Pattern::kRandom).timeout,
      0.1);
  EXPECT_DOUBLE_EQ(
      plan.value().at(Tier::kPim, MemOp::kRead, Pattern::kSequential).timeout,
      0.1);

  // The same file loads through the engine-facing "@path" spec.
  auto via_spec = memsim::FaultPlanFromProfile("@" + path);
  ASSERT_TRUE(via_spec.ok());
  EXPECT_EQ(via_spec.value().seed, 9u);

  // Integer fields keep every bit up to their type's limit.
  auto limits = memsim::FaultPlanFromFile(
      WriteProfileFile("limits.prof",
                       "seed 18446744073709551615\n"
                       "kill 2147483647 18446744073709551615\n"));
  ASSERT_TRUE(limits.ok()) << limits.status().ToString();
  EXPECT_EQ(limits.value().seed, UINT64_MAX);
  ASSERT_EQ(limits.value().kills.size(), 1u);
  EXPECT_EQ(limits.value().kills[0].first, INT32_MAX);
  EXPECT_EQ(limits.value().kills[0].second, UINT64_MAX);
}

TEST(FaultProfileFileTest, RejectsUnknownTierWithLineNumber) {
  const std::string path = WriteProfileFile(
      "bad_tier.prof", "seed 1\n\nrate hbm read seq stall 0.1\n");
  auto plan = memsim::FaultPlanFromFile(path);
  ASSERT_FALSE(plan.ok());
  const std::string msg = plan.status().ToString();
  EXPECT_NE(msg.find(path + ":3:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown tier 'hbm'"), std::string::npos) << msg;
}

TEST(FaultProfileFileTest, RejectsUnknownOpWithLineNumber) {
  const std::string path =
      WriteProfileFile("bad_op.prof", "rate pm scan seq stall 0.1\n");
  auto plan = memsim::FaultPlanFromFile(path);
  ASSERT_FALSE(plan.ok());
  const std::string msg = plan.status().ToString();
  EXPECT_NE(msg.find(path + ":1:"), std::string::npos) << msg;
  EXPECT_NE(msg.find("unknown op 'scan'"), std::string::npos) << msg;
}

TEST(FaultProfileFileTest, RejectsBadKindDirectiveAndRange) {
  const std::string bad_kind =
      WriteProfileFile("bad_kind.prof", "rate pm read seq flake 0.1\n");
  EXPECT_FALSE(memsim::FaultPlanFromFile(bad_kind).ok());
  const std::string bad_directive =
      WriteProfileFile("bad_directive.prof", "jitter 0.5\n");
  auto plan = memsim::FaultPlanFromFile(bad_directive);
  ASSERT_FALSE(plan.ok());
  EXPECT_NE(plan.status().ToString().find("unknown directive 'jitter'"),
            std::string::npos);
  const std::string bad_range =
      WriteProfileFile("bad_range.prof", "rate pm read seq stall 1.5\n");
  EXPECT_FALSE(memsim::FaultPlanFromFile(bad_range).ok());
  EXPECT_FALSE(memsim::FaultPlanFromProfile("@/does/not/exist.prof").ok());
  // Integer fields out of range or not integers: a line-numbered error
  // instead of a truncated, wrapped or undefined cast.
  for (const char* body :
       {"seed 1.5\n", "seed 18446744073709551616\n", "seed 1e30\n", "seed -1\n",
        "seed 99999999999999999999999\n", "kill 2147483648 1\n", "kill -1 1\n",
        "kill 1 18446744073709551616\n", "kill 1 -1\n", "kill 1.0 2\n"}) {
    const auto plan = memsim::FaultPlanFromFile(WriteProfileFile("bad_int.prof", body));
    ASSERT_FALSE(plan.ok()) << body;
    EXPECT_NE(plan.status().ToString().find(":1:"), std::string::npos) << body;
  }
}

// Seeded mutants of a valid profile file: byte flips, truncations and long
// digit runs spliced in. Every one must parse to a plan or a Status; run
// under ASan/UBSan, an exception escaping or an out-of-range cast aborts.
TEST(FaultProfileFileTest, MutatedFilesParseAsStatusOrPlan) {
  const std::string valid =
      "# every directive once\n"
      "seed 9\n"
      "stall-multiplier 3.5\n"
      "tail-stall-fraction 0.25\n"
      "timeout-seconds 0.001\n"
      "machine-loss 0.05\n"
      "kill 2 7\n"
      "rate pm read seq stall 0.25\n"
      "rate * * * media 0.01\n";
  const std::string path = ::testing::TempDir() + "/mutant.prof";
  int parsed = 0;
  auto parse = [&](const std::string& body) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out << body;
    }
    const auto plan = memsim::FaultPlanFromFile(path);
    if (!plan.ok()) return;
    ++parsed;
    EXPECT_GE(plan.value().machine_loss, 0.0);
    EXPECT_LE(plan.value().machine_loss, 1.0);
    for (const auto& [machine, round] : plan.value().kills) EXPECT_GE(machine, 0);
  };
  parse(valid);
  EXPECT_EQ(parsed, 1);
  Rng rng(17);
  for (int trial = 0; trial < 400; ++trial) {
    std::string body = valid;
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips; ++f) {
      body[rng.Next() % body.size()] ^= static_cast<char>(1 + rng.Next() % 255);
    }
    parse(body);
  }
  for (size_t len = 0; len < valid.size(); ++len) parse(valid.substr(0, len));
  for (int trial = 0; trial < 200; ++trial) {
    std::string body = valid;
    std::string digits(1 + rng.Next() % 40, '0');
    for (char& d : digits) d = static_cast<char>('0' + rng.Next() % 10);
    body.insert(rng.Next() % body.size(), digits);
    parse(body);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Draw-level determinism and monotonicity.
// ---------------------------------------------------------------------------

FaultPlan StallOnlyPlan(double rate, uint64_t seed = 42) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.SetTier(Tier::kPm, {rate, 0.0, 0.0});
  return plan;
}

TEST(FaultDrawTest, SameKeySameKind) {
  memsim::FaultInjector a, b;
  a.SetPlan(StallOnlyPlan(0.3));
  b.SetPlan(StallOnlyPlan(0.3));
  for (uint64_t site = 0; site < 1000; ++site) {
    ASSERT_EQ(a.Draw(Tier::kPm, MemOp::kRead, Pattern::kRandom, 1, site, 0),
              b.Draw(Tier::kPm, MemOp::kRead, Pattern::kRandom, 1, site, 0));
  }
  EXPECT_EQ(a.Counters(), b.Counters());
  EXPECT_GT(a.Counters().stalls, 0u);
}

TEST(FaultDrawTest, FaultSetIsMonotoneInRate) {
  // Banded thresholds: the same uniform against a larger threshold — every
  // site faulting at the low rate also faults at the high rate.
  memsim::FaultInjector lo, hi;
  lo.SetPlan(StallOnlyPlan(0.05));
  hi.SetPlan(StallOnlyPlan(0.25));
  for (uint64_t site = 0; site < 2000; ++site) {
    const FaultKind a =
        lo.Draw(Tier::kPm, MemOp::kWrite, Pattern::kSequential, 2, site, 0);
    const FaultKind b =
        hi.Draw(Tier::kPm, MemOp::kWrite, Pattern::kSequential, 2, site, 0);
    if (a != FaultKind::kNone) {
      ASSERT_NE(b, FaultKind::kNone);
    }
  }
  EXPECT_GT(hi.Counters().stalls, lo.Counters().stalls);
}

TEST(FaultDrawTest, TailStallImmuneToOtherRates) {
  // DrawTailStall compares only against the stall band, so adding media
  // faults to the class leaves the tail-stall set untouched.
  FaultPlan with_media = StallOnlyPlan(0.1);
  with_media.at(Tier::kPm, MemOp::kRead, Pattern::kRandom).media = 0.5;
  memsim::FaultInjector plain, media;
  plain.SetPlan(StallOnlyPlan(0.1));
  media.SetPlan(with_media);
  for (uint64_t site = 0; site < 2000; ++site) {
    ASSERT_EQ(
        plain.DrawTailStall(Tier::kPm, MemOp::kRead, Pattern::kRandom, 3, site),
        media.DrawTailStall(Tier::kPm, MemOp::kRead, Pattern::kRandom, 3, site));
  }
}

TEST(FaultDrawTest, SummaryIsStable) {
  memsim::FaultInjector inj;
  inj.SetPlan(StallOnlyPlan(1.0));
  // Tail stalls self-recover: the draw books both the injection and the retry.
  EXPECT_TRUE(
      inj.DrawTailStall(Tier::kPm, MemOp::kRead, Pattern::kRandom, 1, 0));
  inj.AddPenaltySeconds(0.0123);
  const std::string summary = memsim::FaultCountersSummary(inj.Counters());
  EXPECT_NE(summary.find("injected=1"), std::string::npos);
  EXPECT_NE(summary.find("stall=1"), std::string::npos);
  EXPECT_NE(summary.find("retried=1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Engine-level sweeps on a small RMAT graph.
// ---------------------------------------------------------------------------

graph::Graph SmallGraph() {
  graph::RmatParams params;
  params.scale = 11;
  params.num_edges = 1 << 14;
  params.seed = 5;
  return graph::GenerateRmat(params).value();
}

engine::RunReport RunWith(const graph::Graph& g, engine::SystemKind system,
                          const FaultPlan& plan, int threads) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  ThreadPool pool(static_cast<size_t>(threads));
  engine::EngineOptions options;
  options.system = system;
  options.num_threads = threads;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  auto report = engine::RunEmbedding(
      g, "rmat", options, exec::Context(ms.get(), &pool, threads));
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : engine::RunReport{};
}

class FaultEngineTest : public ::testing::Test {
 protected:
  const graph::Graph g_ = SmallGraph();
};

TEST_F(FaultEngineTest, SameSeedByteIdenticalFaultReport) {
  auto plan = memsim::FaultPlanFromProfile("chaos:9").value();
  const engine::RunReport a = RunWith(g_, engine::SystemKind::kOmega, plan, 4);
  const engine::RunReport b = RunWith(g_, engine::SystemKind::kOmega, plan, 4);
  EXPECT_TRUE(a.faults_enabled);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(memsim::FaultCountersSummary(a.faults),
            memsim::FaultCountersSummary(b.faults));
  // Totals are bit-identical, not just close.
  EXPECT_EQ(std::memcmp(&a.total_seconds, &b.total_seconds, sizeof(double)), 0);
  EXPECT_TRUE(a.faults.Accounted());
}

TEST_F(FaultEngineTest, ZeroRatePlanMatchesDisabledEmbeddings) {
  // An enabled plan whose rates are all zero draws but never fires: no
  // injections, and the embedding bytes match the seed path exactly. The
  // simulated total may exceed the seed path by the WoFP health probe (the
  // probe is itself a charged access that only exists under injection).
  FaultPlan zero;
  zero.enabled = true;
  for (int threads : {1, 2, 8}) {
    const engine::RunReport off =
        RunWith(g_, engine::SystemKind::kOmega, FaultPlan{}, threads);
    const engine::RunReport on =
        RunWith(g_, engine::SystemKind::kOmega, zero, threads);
    EXPECT_EQ(on.faults.InjectedTotal(), 0u) << threads << " threads";
    EXPECT_GE(on.total_seconds, off.total_seconds) << threads << " threads";
    ASSERT_EQ(off.embedding.bytes(), on.embedding.bytes());
    ASSERT_GT(off.embedding.bytes(), 0u);
    EXPECT_EQ(std::memcmp(off.embedding.data(), on.embedding.data(),
                          off.embedding.bytes()), 0)
        << threads << " threads";
  }
}

TEST_F(FaultEngineTest, TimeMonotoneInStallRate) {
  double prev = 0.0;
  for (double rate : {0.0, 0.05, 0.2, 0.8}) {
    const engine::RunReport r =
        RunWith(g_, engine::SystemKind::kOmega, StallOnlyPlan(rate), 4);
    EXPECT_GE(r.total_seconds, prev) << "rate " << rate;
    prev = r.total_seconds;
  }
}

TEST_F(FaultEngineTest, StallsSelfRecoverAsRetries) {
  const engine::RunReport r =
      RunWith(g_, engine::SystemKind::kOmega, StallOnlyPlan(0.5), 4);
  EXPECT_GT(r.faults.stalls, 0u);
  EXPECT_EQ(r.faults.retried, r.faults.stalls);
  EXPECT_EQ(r.faults.degraded, 0u);
  EXPECT_EQ(r.faults.surfaced, 0u);
  EXPECT_TRUE(r.faults.Accounted());
  EXPECT_GT(r.faults.PenaltySeconds(), 0.0);
}

TEST_F(FaultEngineTest, EmbeddingUnchangedByFaults) {
  // Faults charge simulated time only; the computed embedding is the host
  // result and must be bit-identical at any fault rate.
  const engine::RunReport off =
      RunWith(g_, engine::SystemKind::kOmega, FaultPlan{}, 4);
  const engine::RunReport on = RunWith(
      g_, engine::SystemKind::kOmega,
      memsim::FaultPlanFromProfile("chaos").value(), 4);
  ASSERT_EQ(off.embedding.bytes(), on.embedding.bytes());
  EXPECT_EQ(std::memcmp(off.embedding.data(), on.embedding.data(),
                        off.embedding.bytes()), 0);
  EXPECT_GT(on.total_seconds, off.total_seconds);
}

TEST_F(FaultEngineTest, FlakyNetTimeoutsAllRetried) {
  auto plan = memsim::FaultPlanFromProfile("flaky-net").value();
  const engine::RunReport r =
      RunWith(g_, engine::SystemKind::kDistDgl, plan, 4);
  EXPECT_GT(r.faults.timeouts, 0u);
  EXPECT_EQ(r.faults.retried, r.faults.InjectedTotal());
  EXPECT_EQ(r.faults.degraded, 0u);
  EXPECT_EQ(r.faults.surfaced, 0u);
  EXPECT_TRUE(r.faults.Accounted());

  const engine::RunReport again =
      RunWith(g_, engine::SystemKind::kDistDgl, plan, 4);
  EXPECT_EQ(r.faults, again.faults);
}

TEST_F(FaultEngineTest, WornSsdSlowsButNeverFailsOutOfCore) {
  const engine::RunReport off =
      RunWith(g_, engine::SystemKind::kGinex, FaultPlan{}, 4);
  const engine::RunReport on = RunWith(
      g_, engine::SystemKind::kGinex,
      memsim::FaultPlanFromProfile("worn-ssd").value(), 4);
  EXPECT_GT(on.faults.InjectedTotal(), 0u);
  EXPECT_TRUE(on.faults.Accounted());
  EXPECT_GT(on.total_seconds, off.total_seconds);
}

TEST_F(FaultEngineTest, ProneHmSurfacesUnrecoverableStagingFault) {
  FaultPlan plan;
  plan.enabled = true;
  plan.at(Tier::kPm, MemOp::kRead, Pattern::kSequential).media = 1.0;

  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  ThreadPool pool(4);
  engine::EngineOptions options;
  options.system = engine::SystemKind::kProneHm;
  options.num_threads = 4;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  auto report = engine::RunEmbedding(g_, "rmat", options,
                                     exec::Context(ms.get(), &pool, 4));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIOError());
  EXPECT_GE(ms->Faults().surfaced, 1u);
  EXPECT_TRUE(ms->Faults().Accounted());
}

// OMeGa with async staging routes every SpMM operand through ASL, whose
// partition loads read PM sequentially. With every such read faulting, the
// first load exhausts its retries: FaultRecoveryOptions::allow_degraded
// decides whether the engine surfaces that as the run's IOError or streams
// the partition from the semi-external home and finishes.
TEST_F(FaultEngineTest, AslExhaustionSurfacesOrDegradesPerAllowDegraded) {
  FaultPlan plan;
  plan.enabled = true;
  plan.at(Tier::kPm, MemOp::kRead, Pattern::kSequential).media = 1.0;
  for (const bool allow_degraded : {false, true}) {
    SCOPED_TRACE(allow_degraded);
    auto ms = memsim::MemorySystem::CreateDefault();
    ms->SetFaultPlan(plan);
    ThreadPool pool(4);
    engine::EngineOptions options;
    options.system = engine::SystemKind::kOmega;
    options.num_threads = 4;
    options.prone.dim = 16;
    options.prone.oversample = 4;
    options.prone.chebyshev_order = 4;
    options.features.async_staging = true;
    options.fault_recovery.allow_degraded = allow_degraded;
    auto report = engine::RunEmbedding(g_, "rmat", options,
                                       exec::Context(ms.get(), &pool, 4));
    const FaultCounters c = ms->Faults();
    EXPECT_TRUE(c.Accounted()) << memsim::FaultCountersSummary(c);
    if (allow_degraded) {
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      EXPECT_GE(c.degraded, 1u);
      EXPECT_EQ(c.surfaced, 0u);
    } else {
      // The first partition load: injected 4 = retried 3 + surfaced 1.
      ASSERT_FALSE(report.ok());
      EXPECT_TRUE(report.status().IsIOError()) << report.status().ToString();
      EXPECT_NE(report.status().ToString().find("ASL: partition load"), std::string::npos)
          << report.status().ToString();
      EXPECT_EQ(c.InjectedTotal(), 4u);
      EXPECT_EQ(c.retried, 3u);
      EXPECT_EQ(c.surfaced, 1u);
      EXPECT_EQ(c.degraded, 0u);
    }
  }
}

// A checkpoint write whose retries run out fails the run, and its final
// fault is counted as surfaced: PM sequential writes fault often enough
// that the first checkpoint's write exhausts its three retries.
TEST_F(FaultEngineTest, CheckpointWriteExhaustionIsSurfaced) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = 3;
  plan.at(Tier::kPm, MemOp::kWrite, Pattern::kSequential).media = 0.9;

  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  durable::CheckpointStore store(ms.get(), durable::CheckpointOptions{});
  ThreadPool pool(4);
  engine::EngineOptions options;
  options.system = engine::SystemKind::kOmega;
  options.num_threads = 4;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  options.durability.store = &store;
  options.durability.checkpoint_every = 1;
  auto report = engine::RunEmbedding(g_, "rmat", options,
                                     exec::Context(ms.get(), &pool, 4));
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIOError()) << report.status().ToString();
  EXPECT_FALSE(durable::IsKilledError(report.status()));
  const FaultCounters c = ms->Faults();
  EXPECT_EQ(c.InjectedTotal(), 4u) << memsim::FaultCountersSummary(c);
  EXPECT_EQ(c.retried, 3u);
  EXPECT_EQ(c.surfaced, 1u);
  EXPECT_EQ(c.degraded, 0u);
  EXPECT_TRUE(c.Accounted());
}

TEST_F(FaultEngineTest, ReportJsonCarriesFaultSection) {
  const engine::RunReport on = RunWith(
      g_, engine::SystemKind::kOmega,
      memsim::FaultPlanFromProfile("pm-stall").value(), 4);
  const std::string json = engine::ReportToJson(on);
  EXPECT_NE(json.find("\"fault\": {"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\": true"), std::string::npos);
  EXPECT_NE(json.find("\"injected\": "), std::string::npos);

  const engine::RunReport off =
      RunWith(g_, engine::SystemKind::kOmega, FaultPlan{}, 4);
  const std::string off_json = engine::ReportToJson(off);
  EXPECT_NE(off_json.find("\"enabled\": false"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Machine loss in the durable distributed path.
// ---------------------------------------------------------------------------

engine::RunReport RunDist(const graph::Graph& g, engine::SystemKind system,
                          const FaultPlan& plan,
                          const engine::DistParams& params) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  ThreadPool pool(4);
  engine::EngineOptions options;
  options.system = system;
  options.num_threads = 4;
  options.prone.dim = 16;
  auto report = engine::RunDistributedFamily(
      g, "rmat", options, exec::Context(ms.get(), &pool, 4), params);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? std::move(report).value() : engine::RunReport{};
}

TEST_F(FaultEngineTest, MachineLossSameSeedByteIdentical) {
  // flaky-net carries a machine-loss rate; the durable sync path draws it
  // per (machine, round), and a fixed seed replays the same kill schedule.
  auto plan = memsim::FaultPlanFromProfile("flaky-net:3").value();
  engine::DistParams params;
  params.checkpoint_every_rounds = 6;
  const engine::RunReport a =
      RunDist(g_, engine::SystemKind::kDistDgl, plan, params);
  const engine::RunReport b =
      RunDist(g_, engine::SystemKind::kDistDgl, plan, params);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(std::memcmp(&a.total_seconds, &b.total_seconds, sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(&a.recovery_seconds, &b.recovery_seconds,
                        sizeof(double)), 0);
  EXPECT_TRUE(a.faults.Accounted());
}

TEST_F(FaultEngineTest, MachineLossRecoveredKeepsAccountingIdentity) {
  FaultPlan plan;
  plan.enabled = true;
  plan.kills = {{0, 1}, {2, 5}};
  engine::DistParams params;
  params.checkpoint_every_rounds = 4;
  const engine::RunReport r =
      RunDist(g_, engine::SystemKind::kDistDgl, plan, params);
  EXPECT_EQ(r.faults.machine_losses, 2u);
  EXPECT_EQ(r.faults.recovered, 2u);
  EXPECT_TRUE(r.faults.Accounted());
  EXPECT_GT(r.recovery_seconds, 0.0);
  EXPECT_GT(r.ckpt_seconds, 0.0);
  // The durability costs are part of the run's total.
  EXPECT_DOUBLE_EQ(r.total_seconds,
                   r.read_seconds + r.embed_seconds + r.ckpt_seconds +
                       r.recovery_seconds);
}

TEST_F(FaultEngineTest, MachineLossRateInertOutsideDurablePath) {
  // The legacy bulk sync (checkpoint_every_rounds == 0) never consults the
  // machine-loss rate: a plan carrying one charges byte-identically.
  FaultPlan base;
  base.enabled = true;
  FaultPlan lossy = base;
  lossy.machine_loss = 1.0;
  lossy.kills = {{0, 0}};
  const engine::DistParams params;  // legacy sync
  const engine::RunReport off =
      RunDist(g_, engine::SystemKind::kDistGer, base, params);
  const engine::RunReport on =
      RunDist(g_, engine::SystemKind::kDistGer, lossy, params);
  EXPECT_EQ(on.faults.machine_losses, 0u);
  EXPECT_EQ(std::memcmp(&off.total_seconds, &on.total_seconds, sizeof(double)),
            0);
}

TEST_F(FaultEngineTest, RecoveryTimeMonotoneInLogLengthSinceCheckpoint) {
  // With the cadence far beyond the run (no checkpoint ever lands), a kill
  // at round r replays r + 1 rounds of log records: recovery time must grow
  // with the replayed suffix. DistDGL runs 24 sync rounds.
  double prev = 0.0;
  for (uint64_t round : {1u, 6u, 12u, 22u}) {
    FaultPlan plan;
    plan.enabled = true;
    plan.kills = {{0, round}};
    engine::DistParams params;
    params.checkpoint_every_rounds = 1000;
    const engine::RunReport r =
        RunDist(g_, engine::SystemKind::kDistDgl, plan, params);
    EXPECT_EQ(r.faults.recovered, 1u);
    EXPECT_GT(r.recovery_seconds, prev) << "kill round " << round;
    prev = r.recovery_seconds;
  }
}

TEST_F(FaultEngineTest, DurableSyncQuorumLossFailsTheRun) {
  FaultPlan plan;
  plan.enabled = true;
  plan.at(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential).timeout = 1.0;

  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(plan);
  ThreadPool pool(4);
  engine::EngineOptions options;
  options.system = engine::SystemKind::kDistGer;
  options.num_threads = 4;
  options.prone.dim = 16;
  engine::DistParams params;
  params.checkpoint_every_rounds = 2;
  auto report = engine::RunDistributedFamily(
      g_, "rmat", options, exec::Context(ms.get(), &pool, 4), params);
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().IsIOError());
  EXPECT_GT(ms->Faults().surfaced, 0u);
  EXPECT_TRUE(ms->Faults().Accounted());
}

// ---------------------------------------------------------------------------
// Seed sweep: the determinism contract holds for arbitrary seeds and systems.
// ---------------------------------------------------------------------------

using SeedCase = std::tuple<uint64_t, engine::SystemKind>;

class FaultSeedSweep : public ::testing::TestWithParam<SeedCase> {};

TEST_P(FaultSeedSweep, TwoRunsByteIdentical) {
  const auto [seed, system] = GetParam();
  auto plan = memsim::FaultPlanFromProfile("chaos").value();
  plan.seed = seed;
  const graph::Graph g = SmallGraph();
  const engine::RunReport a = RunWith(g, system, plan, 4);
  const engine::RunReport b = RunWith(g, system, plan, 4);
  EXPECT_EQ(a.faults, b.faults);
  EXPECT_EQ(std::memcmp(&a.total_seconds, &b.total_seconds, sizeof(double)), 0);
  EXPECT_TRUE(a.faults.Accounted());
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FaultSeedSweep,
    ::testing::Combine(::testing::Values(1u, 42u, 1234567u),
                       ::testing::Values(engine::SystemKind::kOmega,
                                         engine::SystemKind::kGinex,
                                         engine::SystemKind::kDistGer)));


// ---------------------------------------------------------------------------
// Retry-site pins: every consumer of the bounded-retry loop, driven directly
// under a programmatic plan, pinned bit-for-bit (charged seconds as %a, the
// full fault counters, and the site's own outcome).
// ---------------------------------------------------------------------------

/// What one retry site reports: the simulated seconds it charged (summed over
/// its calls) and its own outcome (retries, flags, acks, status text).
struct SitePin {
  double seconds = 0.0;
  std::string outcome;
};

std::string Hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

std::string CountersPin(const FaultCounters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "stalls=%llu media=%llu timeouts=%llu losses=%llu "
                "retried=%llu degraded=%llu surfaced=%llu recovered=%llu "
                "penalty_nanos=%llu",
                static_cast<unsigned long long>(c.stalls),
                static_cast<unsigned long long>(c.media),
                static_cast<unsigned long long>(c.timeouts),
                static_cast<unsigned long long>(c.machine_losses),
                static_cast<unsigned long long>(c.retried),
                static_cast<unsigned long long>(c.degraded),
                static_cast<unsigned long long>(c.surfaced),
                static_cast<unsigned long long>(c.recovered),
                static_cast<unsigned long long>(c.penalty_nanos));
  return buf;
}

FaultPlan RatesPlan(Tier tier, MemOp op, Pattern pat, memsim::FaultRates r,
                    uint64_t seed = 42) {
  FaultPlan plan;
  plan.enabled = true;
  plan.seed = seed;
  plan.at(tier, op, pat) = r;
  return plan;
}

SitePin PinAsl(memsim::MemorySystem* ms, bool allow_degraded) {
  stream::AslConfig cfg;
  cfg.dense_rows = 1 << 16;
  cfg.dense_cols = 32;
  cfg.sparse_bytes = 1 << 20;
  cfg.dram_budget = 1ULL << 30;
  cfg.fixed_partitions = 4;
  cfg.allow_degraded = allow_degraded;
  stream::AslStreamer streamer(
      exec::Context(ms), cfg, {Tier::kPm, memsim::Placement::kInterleaved},
      {Tier::kDram, memsim::Placement::kInterleaved});
  SitePin pin;
  for (int pass = 0; pass < 3; ++pass) {
    auto run = streamer.Run([](size_t, size_t, size_t) { return 1e-3; });
    if (!run.ok()) {
      pin.outcome.append("[").append(run.status().ToString()).append("]");
      continue;
    }
    pin.seconds += run.value().total_seconds;
    pin.outcome += "[retries=" + std::to_string(run.value().load_retries) +
                   " degraded=" +
                   std::to_string(run.value().degraded_partitions) +
                   " rebuild=" +
                   std::to_string(run.value().rebuild_recommended) + "]";
  }
  return pin;
}

SitePin PinStageFetch(memsim::MemorySystem* ms) {
  SitePin pin;
  uint64_t site = 0;
  for (const bool allow_degraded : {true, false}) {
    for (const size_t bytes : {size_t{4096}, size_t{1} << 20}) {
      buffer::StageFetchConfig cfg;
      cfg.from = {Tier::kPm, memsim::Placement::kInterleaved};
      cfg.to = {Tier::kDram, 0};
      cfg.allow_degraded = allow_degraded;
      cfg.fault_site = &site;
      cfg.label = "fetch " + std::to_string(bytes);
      auto fetch = buffer::StageFetch(ms, bytes, cfg);
      if (!fetch.ok()) {
        pin.outcome.append("[").append(fetch.status().ToString()).append("]");
        continue;
      }
      pin.seconds += fetch.value().seconds;
      pin.outcome += "[retries=" + std::to_string(fetch.value().retries) +
                     " degraded=" + std::to_string(fetch.value().degraded) +
                     "]";
    }
  }
  return pin;
}

SitePin PinWofpProbe(memsim::MemorySystem* ms) {
  SitePin pin;
  uint64_t site = 0;
  for (int probe = 0; probe < 8; ++probe) {
    const prefetch::CacheProbeResult r =
        prefetch::ProbeCacheTier(ms, {Tier::kDram, 0}, &site);
    pin.seconds += r.seconds;
    pin.outcome += r.healthy ? "H" : "U";
  }
  return pin;
}

SitePin PinCheckpoint(memsim::MemorySystem* ms) {
  durable::CheckpointOptions options;
  options.chunk_bytes = 4096;
  durable::CheckpointStore store(ms, options);
  const std::vector<uint8_t> payload(3 * 4096 + 100, 0x5A);
  SitePin pin;
  for (int entry = 0; entry < 6; ++entry) {
    auto costs = store.Append(1, payload.data(), payload.size());
    if (!costs.ok()) {
      // The store leaves the exhausting fault to its caller.
      ms->faults().CountSurfaced();
      pin.outcome.append("[").append(costs.status().ToString()).append("]");
      continue;
    }
    pin.seconds += costs.value().seconds;
    pin.outcome += "[ok]";
  }
  return pin;
}

SitePin PinSharedLog(memsim::MemorySystem* ms) {
  durable::ReplicatedLog log(ms, durable::SharedLogOptions{});
  SitePin pin;
  for (int append = 0; append < 8; ++append) {
    auto res = log.Append(append % 2, 4096);
    if (!res.ok()) {
      pin.outcome.append("[").append(res.status().ToString()).append("]");
      continue;
    }
    pin.seconds += res.value().seconds;
    pin.outcome += "[acks=" + std::to_string(res.value().acks) + "]";
  }
  return pin;
}

SitePin PinEngine(memsim::MemorySystem* ms, engine::SystemKind system,
                  int pim_banks) {
  const graph::Graph g = SmallGraph();
  ThreadPool pool(2);
  engine::EngineOptions options;
  options.system = system;
  options.num_threads = 2;
  options.prone.dim = 16;
  options.prone.oversample = 4;
  options.prone.chebyshev_order = 4;
  options.features.pim_banks = pim_banks;
  options.features.pim_placement = sched::PimPolicy::kAuto;
  auto report =
      engine::RunEmbedding(g, "rmat", options, exec::Context(ms, &pool, 2));
  if (!report.ok()) {
    SitePin pin;
    pin.outcome.append("[").append(report.status().ToString()).append("]");
    return pin;
  }
  return SitePin{report.value().total_seconds, "[ok]"};
}

SitePin PinHotCache(memsim::MemorySystem* ms) {
  serve::HotCacheOptions options;
  options.capacity_bytes = 16 * 128;
  options.hot_fraction = 0.0;
  serve::HotCache cache(ms, 128, 1024, options);
  memsim::SimClock clock;
  memsim::WorkerCtx ctx;
  ctx.clock = &clock;
  std::vector<uint32_t> keys;
  for (uint32_t k = 0; k < 64; ++k) keys.push_back((k * 37) % 1024);
  cache.FetchKeys(&ctx, keys.data(), keys.size(), /*grouped=*/false);
  cache.FetchKeys(&ctx, keys.data(), keys.size(), /*grouped=*/true);
  const serve::HotCache::Stats stats = cache.GetStats();
  return SitePin{clock.seconds(),
                 "[misses=" + std::to_string(stats.misses) + " degraded=" +
                     std::to_string(stats.degraded_fetches) + "]"};
}

struct RetrySiteCase {
  const char* name;
  FaultPlan plan;
  std::function<SitePin(memsim::MemorySystem*)> drive;
  const char* expected;
};

void PrintTo(const RetrySiteCase& c, std::ostream* os) { *os << c.name; }

std::vector<RetrySiteCase> RetrySiteCases() {
  const memsim::FaultRates rates{/*stall=*/0.1, /*media=*/0.45,
                                 /*timeout=*/0.25};
  FaultPlan pim = RatesPlan(Tier::kPim, MemOp::kWrite, Pattern::kSequential,
                            rates);
  pim.at(Tier::kPim, MemOp::kRead, Pattern::kSequential) = rates;
  FaultPlan ssd = RatesPlan(Tier::kSsd, MemOp::kRead, Pattern::kRandom, rates);
  ssd.at(Tier::kSsd, MemOp::kRead, Pattern::kSequential) = rates;
  return {
      {"AslDegrade",
       RatesPlan(Tier::kPm, MemOp::kRead, Pattern::kSequential, rates),
       [](memsim::MemorySystem* ms) { return PinAsl(ms, true); },
       "0x1.2314637e9959fp-3 stalls=1 media=15 timeouts=6 losses=0 "
       "retried=19 degraded=3 surfaced=0 recovered=0 "
       "penalty_nanos=130789005 [retries=7 degraded=1 rebuild=1]"
       "[retries=6 degraded=1 rebuild=1][retries=5 degraded=1 "
       "rebuild=1]"},
      {"AslSurface",
       RatesPlan(Tier::kPm, MemOp::kRead, Pattern::kSequential, rates),
       [](memsim::MemorySystem* ms) { return PinAsl(ms, false); },
       "0x1.affe1ecae601ap-6 stalls=1 media=15 timeouts=2 losses=0 "
       "retried=16 degraded=0 surfaced=2 recovered=0 "
       "penalty_nanos=50089005 [IOError: ASL: partition load [16, "
       "24) failed after 3 retries: media-error][IOError: ASL: "
       "partition load [8, 16) failed after 3 retries: timeout]"
       "[retries=5 degraded=0 rebuild=0]"},
      // Rate 1.0: every attempt fails whatever the draw stream.
      {"StageFetch",
       RatesPlan(Tier::kPm, MemOp::kRead, Pattern::kSequential,
                 {0.0, 1.0, 0.0}),
       PinStageFetch,
       "0x1.6b82ddf0e7366p-9 stalls=0 media=16 timeouts=0 losses=0 "
       "retried=12 degraded=2 surfaced=2 recovered=0 "
       "penalty_nanos=4361656 [retries=3 degraded=1][retries=3 "
       "degraded=1][IOError: fetch 4096 failed after 3 retries: "
       "media-error][IOError: fetch 1048576 failed after 3 retries: "
       "media-error]"},
      {"WofpProbe",
       RatesPlan(Tier::kDram, MemOp::kRead, Pattern::kRandom, rates),
       PinWofpProbe,
       "0x1.47c21f88c5751p-4 stalls=2 media=7 timeouts=4 losses=0 "
       "retried=11 degraded=2 surfaced=0 recovered=0 "
       "penalty_nanos=80013652 HUHHHHUH"},
      {"Checkpoint",
       RatesPlan(Tier::kPm, MemOp::kWrite, Pattern::kSequential,
                 {0.1, 0.3, 0.2}),
       PinCheckpoint,
       "0x1.f9c085bc118e1p-5 stalls=2 media=20 timeouts=8 losses=0 "
       "retried=28 degraded=0 surfaced=2 recovered=0 "
       "penalty_nanos=164526760 [ok][ok][ok][ok][IOError: "
       "checkpoint write failed after 3 retries: media-error]"
       "[IOError: checkpoint write failed after 3 retries: timeout]"},
      {"SharedLogQuorumHeld",
       RatesPlan(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential,
                 {0.1, 0.3, 0.3}),
       PinSharedLog,
       "0x1.f316aa2d2c4fbp-3 stalls=4 media=14 timeouts=12 losses=0 "
       "retried=28 degraded=2 surfaced=0 recovered=0 "
       "penalty_nanos=244804806 [acks=3][acks=3][acks=2][acks=3]"
       "[acks=3][acks=3][acks=3][acks=2]"},
      {"SharedLogQuorumLost",
       RatesPlan(Tier::kNetwork, MemOp::kWrite, Pattern::kSequential,
                 {0.0, 0.5, 0.4}),
       PinSharedLog,
       "0x1.f23dca90dd5d6p-5 stalls=0 media=36 timeouts=34 losses=0 "
       "retried=55 degraded=1 surfaced=14 recovered=0 "
       "penalty_nanos=692645772 [IOError: shared log quorum lost at "
       "position 0: 1/2 acks][IOError: shared log quorum lost at "
       "position 1: 1/2 acks][acks=2][IOError: shared log quorum "
       "lost at position 3: 0/2 acks][acks=3][IOError: shared log "
       "quorum lost at position 5: 1/2 acks][IOError: shared log "
       "quorum lost at position 6: 1/2 acks][IOError: shared log "
       "quorum lost at position 7: 0/2 acks]"},
      {"ProneHm",
       RatesPlan(Tier::kPm, MemOp::kRead, Pattern::kSequential,
                 {0.1, 0.3, 0.15}),
       [](memsim::MemorySystem* ms) {
         return PinEngine(ms, engine::SystemKind::kProneHm, 0);
       },
       "0x0p+0 stalls=1 media=7 timeouts=0 losses=0 retried=7 "
       "degraded=0 surfaced=1 recovered=0 penalty_nanos=631955 "
       "[IOError: ProNE-HM: dense staging read failed after 2 "
       "retries: media-error]"},
      {"Ginex", ssd,
       [](memsim::MemorySystem* ms) {
         return PinEngine(ms, engine::SystemKind::kGinex, 0);
       },
       "0x1.8d55b8cc91651p+1 stalls=1 media=11 timeouts=7 losses=0 "
       "retried=14 degraded=5 surfaced=0 recovered=0 "
       "penalty_nanos=2174330000 [ok]"},
      {"OmegaPimAuto", pim,
       [](memsim::MemorySystem* ms) {
         return PinEngine(ms, engine::SystemKind::kOmega, 64);
       },
       "0x1.8a8955db7f51ep+3 stalls=238 media=912 timeouts=601 "
       "losses=0 retried=1555 degraded=196 surfaced=0 recovered=0 "
       "penalty_nanos=12280802277 [ok]"},
      {"HotCacheColdRead",
       RatesPlan(Tier::kPm, MemOp::kRead, Pattern::kRandom, rates),
       PinHotCache,
       "0x1.ec623507a2a7p-1 stalls=17 media=72 timeouts=47 losses=0 "
       "retried=119 degraded=17 surfaced=0 recovered=0 "
       "penalty_nanos=961507437 [misses=112 degraded=17]"},
  };
}

class RetrySitePinTest : public ::testing::TestWithParam<RetrySiteCase> {};

TEST_P(RetrySitePinTest, ChargesAndCountersPinned) {
  const RetrySiteCase& c = GetParam();
  auto ms = memsim::MemorySystem::CreateDefault();
  ms->SetFaultPlan(c.plan);
  const SitePin pin = c.drive(ms.get());
  const FaultCounters f = ms->Faults();
  // Stalls count as retried at the draw; the rest of `retried` is the retry
  // loop's, and every media error or timeout it did not retry exhausted it.
  const uint64_t loop_retried = f.retried - f.stalls;
  const uint64_t exhausted = f.media + f.timeouts - loop_retried;
  EXPECT_GE(loop_retried, 1u);
  EXPECT_GE(exhausted, 1u);
  EXPECT_TRUE(f.Accounted()) << CountersPin(f);
  const std::string actual =
      Hex(pin.seconds) + " " + CountersPin(f) + " " + pin.outcome;
  EXPECT_EQ(actual, c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sites, RetrySitePinTest, ::testing::ValuesIn(RetrySiteCases()),
    [](const ::testing::TestParamInfo<RetrySiteCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace omega
