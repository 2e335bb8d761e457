// Tests for the system-level pieces added around the engines: the
// distributed analogues, the baseline kernels, CXL profiles, the dense-stage
// cost model, the gather cost blend, and embedding persistence.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "embed/embedding_io.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "omega/baselines.h"
#include "omega/distributed_sim.h"
#include "omega/engine.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"

namespace omega {
namespace {

graph::Graph TestGraph(uint32_t scale = 9, uint64_t edges = 5000) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  return graph::GenerateRmat(params).value();
}

// --- GatherSeconds: the Eq. 4/5 blend ---------------------------------------

TEST(GatherSecondsTest, MonotoneInEntropy) {
  auto ms = memsim::MemorySystem::CreateDefault();
  const memsim::Placement pm{memsim::Tier::kPm, 0};
  double prev = 0.0;
  for (double z : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const double s = sparse::GatherSeconds(ms.get(), 0, pm, z, 100000, 4);
    EXPECT_GE(s, prev) << "z=" << z;
    prev = s;
  }
}

TEST(GatherSecondsTest, EndpointsMatchPureCharges) {
  auto ms = memsim::MemorySystem::CreateDefault();
  const memsim::Placement pm{memsim::Tier::kPm, 0};
  const uint64_t touches = 65536;
  const double z0 = sparse::GatherSeconds(ms.get(), 0, pm, 0.0, touches, 4);
  const double pure_seq = ms->AccessSeconds(pm, 0, memsim::MemOp::kRead,
                                            memsim::Pattern::kSequential,
                                            touches * 64, 1, 4);
  EXPECT_NEAR(z0, pure_seq, 1e-12);
  const double z1 = sparse::GatherSeconds(ms.get(), 0, pm, 1.0, touches, 4);
  const double pure_rand = ms->AccessSeconds(pm, 0, memsim::MemOp::kRead,
                                             memsim::Pattern::kRandom, touches * 64,
                                             touches, 4);
  EXPECT_NEAR(z1, pure_rand, 1e-12);
  EXPECT_EQ(sparse::GatherSeconds(ms.get(), 0, pm, 0.5, 0, 4), 0.0);
}

// --- CXL profiles ------------------------------------------------------------

TEST(CxlProfilesTest, FasterThanPmAndLocalityInsensitive) {
  const memsim::ProfileSet pm = memsim::DefaultProfiles();
  const memsim::ProfileSet cxl = memsim::CxlProfiles();
  using memsim::Locality;
  using memsim::MemOp;
  using memsim::Pattern;
  using memsim::Tier;
  // CXL beats Optane on every curve of the capacity tier.
  for (MemOp op : {MemOp::kRead, MemOp::kWrite}) {
    for (Pattern pat : {Pattern::kSequential, Pattern::kRandom}) {
      EXPECT_GT(cxl.Get(Tier::kPm).Curve(op, pat, Locality::kLocal).peak_gbps,
                pm.Get(Tier::kPm).Curve(op, pat, Locality::kLocal).peak_gbps);
    }
  }
  // Symmetric local/remote (the link is the only hop).
  EXPECT_DOUBLE_EQ(
      cxl.Get(Tier::kPm)
          .Curve(MemOp::kWrite, Pattern::kSequential, Locality::kLocal)
          .peak_gbps,
      cxl.Get(Tier::kPm)
          .Curve(MemOp::kWrite, Pattern::kSequential, Locality::kRemote)
          .peak_gbps);
  // DRAM tier untouched.
  EXPECT_DOUBLE_EQ(
      cxl.Get(Tier::kDram)
          .Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal)
          .peak_gbps,
      pm.Get(Tier::kDram)
          .Curve(MemOp::kRead, Pattern::kSequential, Locality::kLocal)
          .peak_gbps);
}

TEST(CxlProfilesTest, OmegaRunsFasterOnCxlThanPm) {
  const graph::Graph g = TestGraph();
  ThreadPool pool(8);
  memsim::MemorySystem pm_machine(memsim::TopologyConfig{},
                                  memsim::DefaultProfiles());
  memsim::MemorySystem cxl_machine(memsim::TopologyConfig{},
                                   memsim::CxlProfiles());
  engine::EngineOptions opts;
  opts.system = engine::SystemKind::kOmega;
  opts.num_threads = 8;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  const double on_pm =
      engine::RunEmbedding(g, "t", opts, exec::Context(&pm_machine, &pool)).value().embed_seconds;
  const double on_cxl =
      engine::RunEmbedding(g, "t", opts, exec::Context(&cxl_machine, &pool)).value().embed_seconds;
  EXPECT_LT(on_cxl, on_pm);
}

// --- Distributed analogues ----------------------------------------------------

class DistributedTest : public ::testing::Test {
 protected:
  void SetUp() override { ms_ = memsim::MemorySystem::CreateDefault(); }

  Result<engine::RunReport> Run(engine::SystemKind kind, const graph::Graph& g,
                                const engine::DistParams& params = {}) {
    engine::EngineOptions opts;
    opts.system = kind;
    opts.num_threads = 8;
    opts.prone.dim = 16;
    return engine::RunDistributedFamily(g, "t", opts, exec::Context(ms_.get()),
                                        params);
  }

  std::unique_ptr<memsim::MemorySystem> ms_;
};

TEST_F(DistributedTest, RuntimeScalesWithGraphSize) {
  const graph::Graph small = TestGraph(8, 2000);
  const graph::Graph big = TestGraph(11, 16000);
  for (auto kind : {engine::SystemKind::kDistGer, engine::SystemKind::kDistDgl}) {
    const double t_small = Run(kind, small).value().total_seconds;
    const double t_big = Run(kind, big).value().total_seconds;
    EXPECT_GT(t_big, 2.0 * t_small) << engine::SystemName(kind);
  }
}

TEST_F(DistributedTest, MoreMachinesRunFaster) {
  const graph::Graph g = TestGraph(10, 8000);
  engine::DistParams four;
  engine::DistParams eight;
  eight.machines = 8;
  for (auto kind : {engine::SystemKind::kDistGer, engine::SystemKind::kDistDgl}) {
    const double t4 = Run(kind, g, four).value().total_seconds;
    const double t8 = Run(kind, g, eight).value().total_seconds;
    EXPECT_LT(t8, t4) << engine::SystemName(kind);
  }
}

TEST_F(DistributedTest, DglSamplingDominates) {
  // The paper attributes ~80% of DistDGL's runtime to sampling.
  const graph::Graph g = TestGraph(10, 8000);
  const auto report = Run(engine::SystemKind::kDistDgl, g).value();
  EXPECT_GT(report.factorize_seconds / report.embed_seconds, 0.5);
}

TEST_F(DistributedTest, GerBeatsDgl) {
  const graph::Graph g = TestGraph(10, 8000);
  EXPECT_LT(Run(engine::SystemKind::kDistGer, g).value().total_seconds,
            Run(engine::SystemKind::kDistDgl, g).value().total_seconds);
}

TEST_F(DistributedTest, NoEmbeddingProduced) {
  const graph::Graph g = TestGraph(8, 2000);
  EXPECT_EQ(Run(engine::SystemKind::kDistGer, g).value().embedding.rows(), 0u);
}

// --- Baseline kernels ----------------------------------------------------------

TEST(StaticCsrSpmmTest, MatchesReference) {
  const graph::Graph g = TestGraph();
  const graph::CsdbMatrix a = graph::CsdbMatrix::FromGraph(g);
  const auto csr = sparse::ToCsr(a).value();
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 6, 3);
  linalg::DenseMatrix expected;
  ASSERT_TRUE(sparse::ReferenceSpmm(a, b, &expected).ok());
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(4);
  linalg::DenseMatrix c(a.num_rows(), 6);
  const auto r = engine::StaticCsrSpmm(csr, {b, &c}, sparse::SpmmPlacements{},
                                       exec::Context(ms.get(), &pool, 4));
  EXPECT_LT(linalg::DenseMatrix::MaxAbsDiff(c, expected), 1e-4);
  EXPECT_EQ(r.nnz_processed, csr.nnz());
  EXPECT_GT(r.phase_seconds, 0.0);
}

TEST(StaticCsrSpmmTest, SuffersStragglersOnSkew) {
  // Equal-row chunking on a degree-sorted matrix: thread 0 gets the hubs.
  graph::RmatParams params;
  params.scale = 11;
  params.num_edges = 30000;
  params.a = 0.7;
  params.b = 0.15;
  params.c = 0.1;
  params.d = 0.05;
  const graph::CsdbMatrix a =
      graph::CsdbMatrix::FromGraph(graph::GenerateRmat(params).value());
  const auto csr = sparse::ToCsr(a).value();
  const linalg::DenseMatrix b = linalg::GaussianMatrix(a.num_cols(), 8, 3);
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(8);
  linalg::DenseMatrix c(a.num_rows(), 8);
  const auto r = engine::StaticCsrSpmm(csr, {b, &c}, sparse::SpmmPlacements{},
                                       exec::Context(ms.get(), &pool, 8));
  double mx = 0.0;
  double sum = 0.0;
  for (double s : r.thread_seconds) {
    mx = std::max(mx, s);
    sum += s;
  }
  EXPECT_GT(mx, 3.0 * (sum / r.thread_seconds.size()));
}

TEST(OutOfCoreTest, GinexSlowerThanMariusOnSameGraph) {
  const graph::Graph g = TestGraph(10, 10000);
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(8);
  engine::EngineOptions opts;
  opts.num_threads = 8;
  opts.prone.dim = 8;
  opts.prone.oversample = 4;
  opts.system = engine::SystemKind::kGinex;
  const double ginex =
      engine::RunEmbedding(g, "t", opts, exec::Context(ms.get(), &pool)).value().total_seconds;
  opts.system = engine::SystemKind::kMariusGnn;
  const double marius =
      engine::RunEmbedding(g, "t", opts, exec::Context(ms.get(), &pool)).value().total_seconds;
  EXPECT_GT(ginex, marius);
}

// --- Dense stage model -----------------------------------------------------------

TEST(DenseStageTest, ScalesWithNodesAndOrder) {
  embed::ProneOptions prone;
  prone.dim = 32;
  prone.oversample = 8;
  const auto small = engine::EstimateDenseStage(1000, prone);
  const auto big = engine::EstimateDenseStage(4000, prone);
  EXPECT_EQ(big.tsvd_bytes, 4 * small.tsvd_bytes);
  EXPECT_EQ(big.cheb_bytes, 4 * small.cheb_bytes);
  prone.chebyshev_order *= 2;
  EXPECT_EQ(engine::EstimateDenseStage(1000, prone).cheb_bytes,
            2 * small.cheb_bytes);
}

TEST(DenseStageTest, PmCostsMoreThanDram) {
  auto ms = memsim::MemorySystem::CreateDefault();
  const uint64_t bytes = 64 << 20;
  const exec::Context ctx(ms.get(), nullptr, 8);
  const double dram = engine::DenseStageSeconds(
      ctx, {memsim::Tier::kDram, memsim::Placement::kInterleaved}, bytes,
      1 << 20);
  const double pm = engine::DenseStageSeconds(
      ctx, {memsim::Tier::kPm, memsim::Placement::kInterleaved}, bytes,
      1 << 20);
  EXPECT_GT(pm, 2.0 * dram);
  // Accelerated arithmetic shrinks the compute portion.
  const double gpu = engine::DenseStageSeconds(
      ctx, {memsim::Tier::kDram, memsim::Placement::kInterleaved}, 0,
      1ULL << 32, 40.0);
  const double cpu = engine::DenseStageSeconds(
      ctx, {memsim::Tier::kDram, memsim::Placement::kInterleaved}, 0,
      1ULL << 32, 1.0);
  EXPECT_NEAR(cpu / gpu, 40.0, 1e-6);
}

// --- Embedding persistence ----------------------------------------------------------

class EmbeddingIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() / "omega_embed_io_test";
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string Path(const std::string& name) { return (dir_ / name).string(); }
  std::filesystem::path dir_;
};

TEST_F(EmbeddingIoTest, BinaryRoundTrip) {
  const linalg::DenseMatrix m = linalg::GaussianMatrix(100, 16, 5);
  ASSERT_TRUE(embed::SaveEmbeddingBinary(m, Path("e.bin")).ok());
  auto loaded = embed::LoadEmbeddingBinary(Path("e.bin"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(linalg::DenseMatrix::MaxAbsDiff(m, loaded.value()), 0.0);
}

TEST_F(EmbeddingIoTest, TsvHasOneRowPerNode) {
  const linalg::DenseMatrix m = linalg::GaussianMatrix(17, 4, 5);
  ASSERT_TRUE(embed::SaveEmbeddingTsv(m, Path("e.tsv")).ok());
  std::ifstream in(Path("e.tsv"));
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_EQ(std::count(line.begin(), line.end(), '\t'), 4);
  }
  EXPECT_EQ(lines, 17u);
}

TEST_F(EmbeddingIoTest, RejectsCorruptFiles) {
  {
    std::ofstream out(Path("junk.bin"), std::ios::binary);
    out << "not an embedding";
  }
  EXPECT_FALSE(embed::LoadEmbeddingBinary(Path("junk.bin")).ok());
  EXPECT_FALSE(embed::LoadEmbeddingBinary(Path("missing.bin")).ok());
  EXPECT_FALSE(
      embed::SaveEmbeddingBinary(linalg::DenseMatrix(1, 1), "/no/such/dir/e").ok());
}

// --- ASL engine toggle -----------------------------------------------------------

TEST(AslEngineTest, StreamingGraphBenefitsFromOverlap) {
  // A graph big enough that the dense working set exceeds the DRAM window.
  graph::RmatParams params;
  params.scale = 14;
  params.num_edges = 400000;
  const graph::Graph g = graph::GenerateRmat(params).value();
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(8);
  auto with = engine::EngineOptions{};
  with.system = engine::SystemKind::kOmega;
  with.num_threads = 8;
  with.prone.dim = 32;
  auto without = with;
  without.features.use_asl = false;
  const double t_with =
      engine::RunEmbedding(g, "t", with, exec::Context(ms.get(), &pool)).value().embed_seconds;
  const double t_without =
      engine::RunEmbedding(g, "t", without, exec::Context(ms.get(), &pool)).value().embed_seconds;
  EXPECT_LE(t_with, t_without);
}

}  // namespace
}  // namespace omega
