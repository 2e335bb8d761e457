// Unit tests for the end-to-end engines: every system runs on a small graph,
// capacity failures surface as in the paper, and the headline orderings
// (OMeGa between DRAM-only and PM-only; OMeGa >> ProNE-HM) hold.

#include <gtest/gtest.h>

#include "graph/datasets.h"
#include "graph/rmat.h"
#include "omega/baselines.h"
#include "omega/distributed_sim.h"
#include "omega/engine.h"
#include "omega/incremental.h"
#include "omega/placement.h"
#include "omega/report.h"

namespace omega::engine {
namespace {

class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    graph::RmatParams params;
    params.scale = 9;
    params.num_edges = 6000;
    g_ = std::make_unique<graph::Graph>(graph::GenerateRmat(params).value());
    ms_ = memsim::MemorySystem::CreateDefault();
    pool_ = std::make_unique<ThreadPool>(8);
  }

  EngineOptions Options(SystemKind kind) {
    EngineOptions opts;
    opts.system = kind;
    opts.num_threads = 8;
    opts.prone.dim = 8;
    opts.prone.oversample = 4;
    opts.prone.chebyshev_order = 4;
    return opts;
  }

  Result<RunReport> Run(SystemKind kind) {
    return RunEmbedding(*g_, "test", Options(kind), exec::Context(ms_.get(), pool_.get()));
  }

  std::unique_ptr<graph::Graph> g_;
  std::unique_ptr<memsim::MemorySystem> ms_;
  std::unique_ptr<ThreadPool> pool_;
};

TEST_F(EngineTest, EverySystemRunsOnSmallGraph) {
  for (SystemKind kind :
       {SystemKind::kOmega, SystemKind::kOmegaDram, SystemKind::kOmegaPm,
        SystemKind::kProneDram, SystemKind::kProneHm, SystemKind::kGinex,
        SystemKind::kMariusGnn, SystemKind::kDistGer, SystemKind::kDistDgl}) {
    auto report = Run(kind);
    ASSERT_TRUE(report.ok()) << SystemName(kind) << ": "
                             << report.status().ToString();
    EXPECT_GT(report.value().total_seconds, 0.0) << SystemName(kind);
    EXPECT_GT(report.value().read_seconds, 0.0) << SystemName(kind);
    EXPECT_EQ(report.value().system, SystemName(kind));
  }
}

TEST_F(EngineTest, EmbeddingSystemsProduceEmbeddings) {
  for (SystemKind kind : {SystemKind::kOmega, SystemKind::kProneDram,
                          SystemKind::kGinex}) {
    auto report = Run(kind);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().embedding.rows(), g_->num_nodes()) << SystemName(kind);
    EXPECT_EQ(report.value().embedding.cols(), 8u);
  }
}

TEST_F(EngineTest, OmegaAndProneProduceIdenticalEmbeddings) {
  // OMeGa is a systems contribution: the model output must match the ProNE
  // baseline bit-for-bit modulo kernel ordering (same seeds, same math).
  auto omega = Run(SystemKind::kOmega);
  auto prone = Run(SystemKind::kProneDram);
  ASSERT_TRUE(omega.ok());
  ASSERT_TRUE(prone.ok());
  EXPECT_LT(linalg::DenseMatrix::MaxAbsDiff(omega.value().embedding,
                                            prone.value().embedding),
            1e-3);
}

TEST_F(EngineTest, DramIsIdealPmIsWorstOmegaInBetween) {
  // Fig. 12's internal ordering on graphs where all three run.
  const double t_dram = Run(SystemKind::kOmegaDram).value().embed_seconds;
  const double t_omega = Run(SystemKind::kOmega).value().embed_seconds;
  const double t_pm = Run(SystemKind::kOmegaPm).value().embed_seconds;
  EXPECT_LE(t_dram, t_omega * 1.05);
  EXPECT_GT(t_pm, t_omega);
}

TEST_F(EngineTest, OmegaBeatsProneHmByALargeFactor) {
  const double t_omega = Run(SystemKind::kOmega).value().embed_seconds;
  const double t_hm = Run(SystemKind::kProneHm).value().embed_seconds;
  EXPECT_GT(t_hm / t_omega, 3.0);  // paper reports 33.65x on real scale
}

TEST_F(EngineTest, OmegaDramBeatsProneDram) {
  const double t_omega = Run(SystemKind::kOmegaDram).value().embed_seconds;
  const double t_prone = Run(SystemKind::kProneDram).value().embed_seconds;
  EXPECT_GT(t_prone / t_omega, 1.5);  // paper reports 4.99x
}

TEST_F(EngineTest, QualityEvaluationProducesAuc) {
  EngineOptions opts = Options(SystemKind::kOmega);
  opts.evaluate_quality = true;
  opts.quality_samples = 300;
  auto report = RunEmbedding(*g_, "test", opts, exec::Context(ms_.get(), pool_.get()));
  ASSERT_TRUE(report.ok());
  ASSERT_TRUE(report.value().link_auc.has_value());
  EXPECT_GT(*report.value().link_auc, 0.55);
}

TEST_F(EngineTest, DramOnlySystemsOomOnLargeGraphs) {
  // A graph whose working set exceeds the simulated 48 MB of total DRAM.
  graph::RmatParams params;
  params.scale = 15;
  params.num_edges = 2400000;
  const graph::Graph big = graph::GenerateRmat(params).value();
  EngineOptions opts = Options(SystemKind::kOmegaDram);
  opts.prone.dim = 32;
  opts.prone.oversample = 8;
  auto dram = RunEmbedding(big, "big", opts, exec::Context(ms_.get(), pool_.get()));
  ASSERT_FALSE(dram.ok());
  EXPECT_TRUE(dram.status().IsCapacityExceeded());

  opts.system = SystemKind::kProneDram;
  auto prone = RunEmbedding(big, "big", opts, exec::Context(ms_.get(), pool_.get()));
  ASSERT_FALSE(prone.ok());
  EXPECT_TRUE(prone.status().IsCapacityExceeded());
}

TEST_F(EngineTest, ReservationsAreReleasedAfterRuns) {
  ASSERT_TRUE(Run(SystemKind::kOmega).ok());
  ASSERT_TRUE(Run(SystemKind::kOmegaDram).ok());
  for (int socket = 0; socket < 2; ++socket) {
    EXPECT_EQ(ms_->UsedBytes(memsim::Tier::kDram, socket), 0u);
    EXPECT_EQ(ms_->UsedBytes(memsim::Tier::kPm, socket), 0u);
  }
}

TEST_F(EngineTest, FeatureTogglesChangeRuntime) {
  EngineOptions base = Options(SystemKind::kOmega);
  EngineOptions no_wofp = base;
  no_wofp.features.use_wofp = false;
  EngineOptions no_nadp = base;
  no_nadp.features.use_nadp = false;
  const double t_full =
      RunEmbedding(*g_, "t", base, exec::Context(ms_.get(), pool_.get())).value().embed_seconds;
  const double t_no_wofp =
      RunEmbedding(*g_, "t", no_wofp, exec::Context(ms_.get(), pool_.get())).value().embed_seconds;
  const double t_no_nadp =
      RunEmbedding(*g_, "t", no_nadp, exec::Context(ms_.get(), pool_.get())).value().embed_seconds;
  EXPECT_GT(t_no_wofp, t_full);  // Fig. 14
  EXPECT_GT(t_no_nadp, t_full);  // Fig. 15
}

TEST_F(EngineTest, DistributedAnaloguesOrdering) {
  // Fig. 18a: DistGER outperforms DistDGL.
  const double t_ger = Run(SystemKind::kDistGer).value().total_seconds;
  const double t_dgl = Run(SystemKind::kDistDgl).value().total_seconds;
  EXPECT_GT(t_dgl, t_ger);
}

TEST_F(EngineTest, SsdSystemsSlowerThanOmega) {
  const double t_omega = Run(SystemKind::kOmega).value().total_seconds;
  const double t_ginex = Run(SystemKind::kGinex).value().total_seconds;
  const double t_marius = Run(SystemKind::kMariusGnn).value().total_seconds;
  EXPECT_GT(t_ginex, t_omega);
  EXPECT_GT(t_marius, t_omega);
  EXPECT_GT(t_ginex, t_marius);  // paper: 5.49x vs 2.07x behind OMeGa
}

TEST(GraphReadCostTest, CsdbReadsFasterThanCsr) {
  auto ms = memsim::MemorySystem::CreateDefault();
  const exec::Context ctx(ms.get(), nullptr, 8);
  const double csr =
      SimulatedGraphReadSeconds(ctx, GraphFormat::kCsr, 200000, 4096);
  const double csdb =
      SimulatedGraphReadSeconds(ctx, GraphFormat::kCsdb, 200000, 4096);
  // Fig. 19a: CSDB accelerates reading by ~1.35x.
  EXPECT_GT(csr / csdb, 1.1);
  EXPECT_LT(csr / csdb, 2.5);
}

// The baselines' CSR cache returns a failed conversion instead of aborting:
// a CSDB matrix whose value list was resized through mutable_nnz_list() no
// longer converts. The next valid matrix converts normally.
TEST(CsrCacheTest, FailedConversionIsReturnedNotAborted) {
  graph::RmatParams params;
  params.scale = 8;
  params.num_edges = 1500;
  const graph::CsdbMatrix valid =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  graph::CsdbMatrix corrupt = valid;
  corrupt.mutable_nnz_list().push_back(1.0f);

  internal::CsrCache cache;
  auto failed = cache.Get(corrupt);
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.status().IsInvalidArgument()) << failed.status().ToString();

  auto converted = cache.Get(valid);
  ASSERT_TRUE(converted.ok()) << converted.status().ToString();
  EXPECT_EQ(converted.value()->nnz(), valid.nnz());
}

TEST(WorkingSetTest, GrowsWithDimAndNodes) {
  embed::ProneOptions prone;
  prone.dim = 32;
  prone.oversample = 8;
  const size_t small = DenseWorkingSetBytes(1000, prone);
  const size_t big = DenseWorkingSetBytes(10000, prone);
  EXPECT_EQ(big, 10 * small);
  prone.dim = 64;
  EXPECT_GT(DenseWorkingSetBytes(1000, prone), small);
  EXPECT_EQ(SparseBytes(1000), 8000u);
}

TEST(ReportTest, TablePrinterAlignsColumns) {
  TablePrinter table({"Graph", "Time"});
  table.AddRow({"PK", "1.00 s"});
  table.AddRow({"LongName", "2.00 s"});
  const std::string out = table.ToString();
  EXPECT_NE(out.find("Graph"), std::string::npos);
  EXPECT_NE(out.find("LongName"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(ReportTest, RuntimeCellFormats) {
  EXPECT_EQ(RuntimeCell(1.5), "1.50 s");
  EXPECT_EQ(RuntimeCell(0.0, true), "OOM");
  EXPECT_EQ(RuntimeCell(100000.0), "> 1 day");
}

TEST(ReportTest, GeometricMean) {
  EXPECT_NEAR(GeometricMean({2.0, 8.0}), 4.0, 1e-9);
  EXPECT_DOUBLE_EQ(GeometricMean({}), 0.0);
  EXPECT_NEAR(GeometricMean({5.0, 0.0, -1.0}), 5.0, 1e-9);  // non-positive skipped
}

// ---------------------------------------------------------------------------
// DecidePlacement: the one placement decision of the OMeGa family.
// ---------------------------------------------------------------------------

// A machine with the default 48 MB of DRAM spread over `sockets` sockets.
memsim::MemorySystem MachineWithSockets(int sockets) {
  memsim::TopologyConfig topo;
  topo.num_sockets = sockets;
  topo.dram_bytes_per_socket = (48ULL << 20) / sockets;
  topo.pm_bytes_per_socket = (384ULL << 20) / sockets;
  return memsim::MemorySystem(topo, memsim::DefaultProfiles());
}

class PlacementTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kNodes = 4096;
  static constexpr uint64_t kArcs = 65536;

  EngineOptions Options(SystemKind kind) {
    EngineOptions opts;
    opts.system = kind;
    opts.prone.dim = 16;
    opts.prone.oversample = 4;
    return opts;
  }

  OmegaPlacement Decide(const EngineOptions& opts, int threads = 4) {
    return DecidePlacement(opts, *ms_, kNodes, kArcs, threads);
  }

  size_t SparseBytesAtPeak() const { return 2 * SparseBytes(kArcs); }
  size_t DenseBytes(const EngineOptions& opts) const {
    return DenseWorkingSetBytes(kNodes, opts.prone);
  }

  std::unique_ptr<memsim::MemorySystem> ms_ = memsim::MemorySystem::CreateDefault();
  const memsim::Placement dram_{memsim::Tier::kDram, memsim::Placement::kInterleaved};
  const memsim::Placement pm_{memsim::Tier::kPm, memsim::Placement::kInterleaved};
};

TEST_F(PlacementTest, OmegaKeepsDataOnPmBehindADramWindow) {
  EngineOptions opts = Options(SystemKind::kOmega);
  const OmegaPlacement p = Decide(opts);
  EXPECT_EQ(p.nadp.sparse_tier, memsim::Tier::kPm);
  EXPECT_EQ(p.nadp.dense_tier, memsim::Tier::kPm);
  EXPECT_EQ(p.nadp.result_tier, memsim::Tier::kDram);
  EXPECT_EQ(p.nadp.wofp.cache_placement, (memsim::Placement{memsim::Tier::kDram, 0}));
  EXPECT_EQ(p.nadp.num_threads, 4);
  ASSERT_EQ(p.reservations.size(), 1u);
  EXPECT_EQ(p.reservations[0].first, pm_);
  EXPECT_EQ(p.reservations[0].second, SparseBytesAtPeak() + DenseBytes(opts));
  EXPECT_EQ(p.dense.placement, dram_);
  EXPECT_TRUE(p.dense.staged);
  EXPECT_EQ(p.dense.overlap_slowdown, 0.0);
  // The small working set fits the window: no ASL staging, no PIM, no async.
  EXPECT_FALSE(p.staged());
  EXPECT_EQ(p.asl_budget, 0u);
  EXPECT_EQ(p.nadp.pim.banks, 0);
  EXPECT_FALSE(p.async_staging);
}

TEST_F(PlacementTest, OmegaDramReservesEverythingInDram) {
  EngineOptions opts = Options(SystemKind::kOmegaDram);
  opts.features.pim_banks = 64;
  opts.features.async_staging = true;
  const OmegaPlacement p = Decide(opts);
  EXPECT_EQ(p.nadp.sparse_tier, memsim::Tier::kDram);
  EXPECT_EQ(p.nadp.dense_tier, memsim::Tier::kDram);
  EXPECT_EQ(p.nadp.result_tier, memsim::Tier::kDram);
  EXPECT_EQ(p.nadp.wofp.cache_placement, (memsim::Placement{memsim::Tier::kDram, 0}));
  ASSERT_EQ(p.reservations.size(), 2u);
  EXPECT_EQ(p.reservations[0], std::make_pair(dram_, SparseBytesAtPeak()));
  EXPECT_EQ(p.reservations[1], std::make_pair(dram_, DenseBytes(opts)));
  EXPECT_EQ(p.dense.placement, dram_);
  EXPECT_FALSE(p.dense.staged);
  // PIM and async staging are kOmega-only.
  EXPECT_EQ(p.nadp.pim.banks, 0);
  EXPECT_FALSE(p.async_staging);
  EXPECT_FALSE(p.staged());
}

TEST_F(PlacementTest, OmegaPmPutsEveryPathOnPmIncludingTheWofpStore) {
  EngineOptions opts = Options(SystemKind::kOmegaPm);
  opts.features.pim_banks = 64;
  opts.features.async_staging = true;
  const OmegaPlacement p = Decide(opts);
  EXPECT_EQ(p.nadp.sparse_tier, memsim::Tier::kPm);
  EXPECT_EQ(p.nadp.dense_tier, memsim::Tier::kPm);
  EXPECT_EQ(p.nadp.result_tier, memsim::Tier::kPm);
  EXPECT_EQ(p.nadp.wofp.cache_placement, (memsim::Placement{memsim::Tier::kPm, 0}));
  ASSERT_EQ(p.reservations.size(), 1u);
  EXPECT_EQ(p.reservations[0].first, pm_);
  EXPECT_EQ(p.reservations[0].second, SparseBytesAtPeak() + DenseBytes(opts));
  EXPECT_EQ(p.dense.placement, pm_);
  EXPECT_FALSE(p.dense.staged);
  EXPECT_EQ(p.nadp.pim.banks, 0);
  EXPECT_FALSE(p.async_staging);
}

TEST_F(PlacementTest, PimOnlyOnOmegaWithBanks) {
  EngineOptions opts = Options(SystemKind::kOmega);
  opts.features.pim_banks = 64;
  opts.features.pim_placement = sched::PimPolicy::kAllPim;
  const OmegaPlacement p = Decide(opts);
  EXPECT_EQ(p.nadp.pim.banks, 64);
  EXPECT_EQ(p.nadp.pim.policy, sched::PimPolicy::kAllPim);
  EXPECT_EQ(p.nadp.pim.mram_bytes_per_bank,
            ms_->topology().config().pim_mram_bytes_per_bank);
  EXPECT_EQ(p.nadp.pim.bank_ops_per_second,
            ms_->cost_model().profiles().pim_bank_ops_per_second);
}

TEST_F(PlacementTest, AsyncStagingOnlyOnOmegaWithAslOn) {
  EngineOptions opts = Options(SystemKind::kOmega);
  opts.features.async_staging = true;
  const OmegaPlacement on = Decide(opts);
  EXPECT_TRUE(on.async_staging);
  EXPECT_TRUE(on.staged());
  EXPECT_FALSE(on.stream_dense);
  EXPECT_EQ(on.asl_budget, on.dram_window / 2);
  EXPECT_GE(on.fetch_slowdown, 1.0);
  EXPECT_EQ(on.dense.overlap_slowdown, on.fetch_slowdown);

  opts.features.use_asl = false;
  const OmegaPlacement off = Decide(opts);
  EXPECT_FALSE(off.async_staging);
  EXPECT_FALSE(off.staged());
  EXPECT_EQ(off.fetch_slowdown, 1.0);
  EXPECT_EQ(off.dense.overlap_slowdown, 0.0);
}

TEST_F(PlacementTest, DenseWorkingSetBeyondHalfTheWindowStreams) {
  EngineOptions opts = Options(SystemKind::kOmega);
  opts.prone.dim = 512;  // 4 blocks of 4096 x 516 floats > 24 MB
  ASSERT_GT(DenseBytes(opts), (48ULL << 20) / 2);
  const OmegaPlacement p = Decide(opts);
  EXPECT_TRUE(p.stream_dense);
  EXPECT_TRUE(p.staged());
  EXPECT_FALSE(p.async_staging);
  EXPECT_EQ(p.asl_budget, p.dram_window / 2);
}

TEST_F(PlacementTest, FeatureTogglesReachNadpOptions) {
  EngineOptions opts = Options(SystemKind::kOmega);
  opts.features.use_wofp = false;
  opts.features.use_nadp = false;
  opts.features.allocator = sched::AllocatorKind::kRoundRobin;
  opts.beta = 0.5;
  const OmegaPlacement p = Decide(opts, 7);
  EXPECT_FALSE(p.nadp.use_wofp);
  EXPECT_FALSE(p.nadp.enabled);
  EXPECT_EQ(p.nadp.allocator, sched::AllocatorKind::kRoundRobin);
  EXPECT_EQ(p.nadp.beta, 0.5);
  EXPECT_EQ(p.nadp.num_threads, 7);
}

TEST(PlacementWindowTest, DramWindowSumsEverySocket) {
  // The same 48 MB of DRAM at every socket count: the window counts all of
  // it, not just sockets 0 and 1.
  EngineOptions opts;
  opts.system = SystemKind::kOmega;
  for (int sockets : {1, 2, 4}) {
    SCOPED_TRACE(std::to_string(sockets) + " sockets");
    memsim::MemorySystem machine = MachineWithSockets(sockets);
    EXPECT_EQ(DecidePlacement(opts, machine, 1024, 8192, 4).dram_window,
              48ULL << 20);
    // Capacity held on the last socket shrinks the window.
    ASSERT_TRUE(machine.Reserve({memsim::Tier::kDram, sockets - 1}, 1 << 20).ok());
    EXPECT_EQ(DecidePlacement(opts, machine, 1024, 8192, 4).dram_window,
              47ULL << 20);
  }
}

TEST(PlacementWindowTest, OneSocketEngineRunCompletes) {
  graph::RmatParams params;
  params.scale = 8;
  params.num_edges = 2000;
  const graph::Graph g = graph::GenerateRmat(params).value();
  memsim::MemorySystem machine = MachineWithSockets(1);
  ThreadPool pool(2);
  EngineOptions opts;
  opts.system = SystemKind::kOmega;
  opts.num_threads = 2;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  opts.prone.chebyshev_order = 3;
  auto report = RunEmbedding(g, "t", opts, exec::Context(&machine, &pool));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report.value().total_seconds, 0.0);
}

TEST(PlacementParityTest, RefreshUsesTheTrainingPlacementWithoutPim) {
  graph::RmatParams params;
  params.scale = 8;
  params.num_edges = 2000;
  const graph::Graph g = graph::GenerateRmat(params).value();
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(3);
  const exec::Context ctx(ms.get(), &pool, 3);
  for (SystemKind kind :
       {SystemKind::kOmega, SystemKind::kOmegaDram, SystemKind::kOmegaPm}) {
    SCOPED_TRACE(SystemName(kind));
    EngineOptions opts;
    opts.system = kind;
    opts.features.pim_banks = 64;
    opts.features.use_wofp = kind != SystemKind::kOmegaPm;
    const DynamicEmbedder dyn(g, opts, "t");
    const numa::NadpOptions refresh = dyn.nadp_options(ctx);
    numa::NadpOptions training =
        DecidePlacement(opts, *ms, g.num_nodes(), g.num_arcs(), 3).nadp;
    if (kind == SystemKind::kOmega) {
      EXPECT_GT(training.pim.banks, 0);
    }
    training.pim = sched::PimConfig{};
    EXPECT_EQ(refresh.num_threads, training.num_threads);
    EXPECT_EQ(refresh.allocator, training.allocator);
    EXPECT_EQ(refresh.beta, training.beta);
    EXPECT_EQ(refresh.enabled, training.enabled);
    EXPECT_EQ(refresh.use_wofp, training.use_wofp);
    EXPECT_EQ(refresh.wofp.eta, training.wofp.eta);
    EXPECT_EQ(refresh.wofp.sigma, training.wofp.sigma);
    EXPECT_EQ(refresh.wofp.cache_placement, training.wofp.cache_placement);
    EXPECT_EQ(refresh.wofp.charge_build, training.wofp.charge_build);
    EXPECT_EQ(refresh.sparse_tier, training.sparse_tier);
    EXPECT_EQ(refresh.dense_tier, training.dense_tier);
    EXPECT_EQ(refresh.result_tier, training.result_tier);
    EXPECT_EQ(refresh.pim, training.pim);
  }
}

}  // namespace
}  // namespace omega::engine
