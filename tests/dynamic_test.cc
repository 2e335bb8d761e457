// Dynamic-graph tests: op-log semantics and rejection accounting, CSDB delta
// byte-identity against a full rebuild, mutation replay parsing, row-block
// fingerprints and structure-aware plan-cache invalidation, incremental
// refresh bit-identity across thread counts, and the serving refresh hook.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "csdb_test_inputs.h"
#include "embed/chebyshev.h"
#include "graph/graph_io.h"
#include "graph/mutable_graph.h"
#include "graph/rmat.h"
#include "linalg/random_matrix.h"
#include "numa/nadp.h"
#include "omega/engine.h"
#include "omega/incremental.h"
#include "serve/server.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm_plan.h"

namespace omega {
namespace {

using graph::CsdbMatrix;
using graph::ExpectCsdbIdentical;
using graph::Graph;
using graph::Mutation;
using graph::MutationKind;
using graph::MutableGraph;
using graph::NodeId;

Graph SmallGraph() {
  // Node 5 is isolated (degree 0): CSDB must carry its empty row.
  const std::vector<graph::Edge> edges = {
      {0, 1, 1.0f}, {0, 2, 1.0f}, {1, 2, 1.0f}, {3, 4, 1.0f}};
  return Graph::FromEdges(6, edges, /*undirected=*/true).value();
}

Graph RmatGraph(uint32_t scale = 9, uint64_t edges = 4000) {
  graph::RmatParams params;
  params.scale = scale;
  params.num_edges = edges;
  return graph::GenerateRmat(params).value();
}

bool HasEdge(const Graph& g, NodeId u, NodeId v) {
  const NodeId* nbrs = g.neighbors(u);
  for (uint32_t k = 0; k < g.degree(u); ++k) {
    if (nbrs[k] == v) return true;
  }
  return false;
}

TEST(MutableGraphTest, AppliesAndRejectsDeterministically) {
  MutableGraph mg(SmallGraph(), /*num_workers=*/2);
  EXPECT_EQ(mg.epoch(), 0u);

  mg.Log(0, {MutationKind::kInsertEdge, 5, 3, 2.0f});   // degree 0 -> 1
  mg.Log(0, {MutationKind::kInsertEdge, 0, 1, 1.0f});   // duplicate
  mg.Log(1, {MutationKind::kDeleteEdge, 3, 4, 0.0f});   // node 4 isolated
  mg.Log(1, {MutationKind::kDeleteEdge, 1, 4, 0.0f});   // absent
  mg.Log(0, {MutationKind::kUpdateWeight, 0, 2, 7.0f});
  mg.Log(1, {MutationKind::kUpdateWeight, 2, 4, 7.0f});  // absent
  mg.Log(0, {MutationKind::kInsertEdge, 2, 2, 1.0f});    // self loop
  mg.Log(0, {MutationKind::kInsertEdge, 0, 99, 1.0f});   // out of range
  EXPECT_EQ(mg.pending(), 8u);

  const graph::GraphDelta delta = mg.Synchronize().value();
  EXPECT_EQ(mg.pending(), 0u);
  EXPECT_EQ(mg.epoch(), 1u);
  EXPECT_EQ(delta.applied.size(), 3u);
  EXPECT_EQ(delta.rejected_duplicates, 1u);
  EXPECT_EQ(delta.rejected_missing, 2u);
  EXPECT_EQ(delta.rejected_self_loops, 1u);
  EXPECT_EQ(delta.rejected_out_of_range, 1u);
  EXPECT_EQ(delta.touched_nodes, (std::vector<NodeId>{0, 2, 3, 4, 5}));

  const Graph& g = mg.graph();
  EXPECT_TRUE(HasEdge(g, 5, 3));
  EXPECT_FALSE(HasEdge(g, 3, 4));
  EXPECT_EQ(g.degree(4), 0u);

  // Nothing pending: no rebuild, no epoch bump.
  const graph::GraphDelta empty = mg.Synchronize().value();
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(mg.epoch(), 1u);
}

// A non-finite weight passes validation (the edge is absent) but fails the
// rebuild: the error is returned, not aborted on, and the snapshot stays.
TEST(MutableGraphTest, NonFiniteWeightFailsSynchronizeWithoutAborting) {
  MutableGraph mg(SmallGraph());
  const std::vector<uint32_t> degrees_before = {mg.graph().degree(3),
                                                mg.graph().degree(5)};
  mg.Log(0, {MutationKind::kInsertEdge, 5, 3, std::nanf("")});
  auto delta = mg.Synchronize();
  ASSERT_FALSE(delta.ok());
  EXPECT_TRUE(delta.status().IsInvalidArgument()) << delta.status().ToString();
  EXPECT_EQ(mg.pending(), 0u);
  EXPECT_EQ(mg.epoch(), 0u);
  EXPECT_EQ((std::vector<uint32_t>{mg.graph().degree(3), mg.graph().degree(5)}),
            degrees_before);

  // The next batch applies normally.
  mg.Log(0, {MutationKind::kInsertEdge, 5, 3, 2.0f});
  ASSERT_TRUE(mg.Synchronize().ok());
  EXPECT_EQ(mg.epoch(), 1u);
  EXPECT_TRUE(HasEdge(mg.graph(), 5, 3));
}

TEST(MutableGraphTest, ConcurrentLoggingMatchesSequential) {
  const Graph base = RmatGraph();
  const int kWorkers = 8;
  const int kPerWorker = 50;

  // Per-worker streams generated up front so both runs log identical content.
  std::vector<std::vector<Mutation>> streams(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    streams[w] = graph::SyntheticMutations(base, kPerWorker, 100 + w);
  }

  MutableGraph concurrent(base, kWorkers);
  std::vector<std::thread> threads;
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (const Mutation& m : streams[w]) concurrent.Log(w, m);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(concurrent.pending(),
            static_cast<uint64_t>(kWorkers * kPerWorker));

  MutableGraph sequential(base, kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    for (const Mutation& m : streams[w]) sequential.Log(w, m);
  }

  // The merge order is (worker, append index), not arrival time, so the two
  // rebuilt graphs must be structurally identical.
  const graph::GraphDelta a = concurrent.Synchronize().value();
  const graph::GraphDelta b = sequential.Synchronize().value();
  EXPECT_EQ(a.applied.size(), b.applied.size());
  EXPECT_EQ(a.rejected_total(), b.rejected_total());
  ExpectCsdbIdentical(CsdbMatrix::FromGraph(concurrent.graph()),
                      CsdbMatrix::FromGraph(sequential.graph()));
}

TEST(CsdbDeltaTest, RandomizedSequencesMatchFullRebuild) {
  MutableGraph mg(RmatGraph());
  CsdbMatrix csdb = CsdbMatrix::FromGraph(mg.graph());
  for (int round = 0; round < 6; ++round) {
    const std::vector<Mutation> muts =
        graph::SyntheticMutations(mg.graph(), 32, 500 + round);
    for (const Mutation& m : muts) mg.Log(0, m);
    const graph::GraphDelta delta = mg.Synchronize().value();
    ASSERT_FALSE(delta.empty());

    auto res = sparse::ApplyDelta(csdb, mg.graph(), delta.touched_nodes);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res.value().touched_rows + res.value().reused_rows,
              csdb.num_rows());
    EXPECT_GT(res.value().reused_rows, 0u);
    ExpectCsdbIdentical(res.value().matrix, CsdbMatrix::FromGraph(mg.graph()));
    csdb = std::move(res.value().matrix);
  }
}

TEST(CsdbDeltaTest, DegreeTransitionsAndIsolatedRows) {
  MutableGraph mg(SmallGraph(), 1);
  CsdbMatrix csdb = CsdbMatrix::FromGraph(mg.graph());

  auto apply_and_check =
      [&](std::vector<Mutation> muts) -> graph::GraphDelta {
    for (const Mutation& m : muts) mg.Log(0, m);
    graph::GraphDelta delta = mg.Synchronize().value();
    EXPECT_FALSE(delta.empty());
    auto res = sparse::ApplyDelta(csdb, mg.graph(), delta.touched_nodes);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (res.ok()) {
      ExpectCsdbIdentical(res.value().matrix,
                          CsdbMatrix::FromGraph(mg.graph()));
      csdb = std::move(res.value().matrix);
    }
    return delta;
  };

  // Degree 0 -> 1: the isolated node joins a block, splitting the boundary.
  apply_and_check({{MutationKind::kInsertEdge, 5, 0, 1.0f}});
  // Row becomes isolated again: both its edges (one just added) removed.
  apply_and_check({{MutationKind::kDeleteEdge, 5, 0, 0.0f},
                   {MutationKind::kDeleteEdge, 3, 4, 0.0f}});
  EXPECT_EQ(mg.graph().degree(5), 0u);
  EXPECT_EQ(mg.graph().degree(4), 0u);
  // Duplicate insert in the same batch as a real one: applied once.
  const graph::GraphDelta d = apply_and_check(
      {{MutationKind::kInsertEdge, 3, 4, 2.0f},
       {MutationKind::kInsertEdge, 3, 4, 2.0f}});
  EXPECT_EQ(d.applied.size(), 1u);
  EXPECT_EQ(d.rejected_duplicates, 1u);
}

TEST(MutationStreamReaderTest, ParsesOpsCommentsAndBareEdges) {
  const std::string path = ::testing::TempDir() + "/mutations_ok.txt";
  {
    std::ofstream out(path);
    out << "# comment\n"
        << "a 0 1 2.5\n"
        << "d 2 3\n"
        << "u 1 2 0.5\n"
        << "\n"
        << "4 5\n";  // bare edge line: an insert with default weight
  }
  auto muts = graph::LoadMutationsText(path);
  ASSERT_TRUE(muts.ok()) << muts.status().ToString();
  ASSERT_EQ(muts.value().size(), 4u);
  EXPECT_EQ(muts.value()[0].kind, MutationKind::kInsertEdge);
  EXPECT_FLOAT_EQ(muts.value()[0].weight, 2.5f);
  EXPECT_EQ(muts.value()[1].kind, MutationKind::kDeleteEdge);
  EXPECT_EQ(muts.value()[2].kind, MutationKind::kUpdateWeight);
  EXPECT_FLOAT_EQ(muts.value()[2].weight, 0.5f);
  EXPECT_EQ(muts.value()[3].kind, MutationKind::kInsertEdge);
  EXPECT_FLOAT_EQ(muts.value()[3].weight, 1.0f);
  std::remove(path.c_str());
}

TEST(MutationStreamReaderTest, MalformedLinesSurfaceAsErrorsWithContext) {
  const std::string path = ::testing::TempDir() + "/mutations_bad.txt";
  {
    std::ofstream out(path);
    out << "a 0 1\n"
        << "u 1 2\n";  // weight update without a weight
  }
  auto muts = graph::LoadMutationsText(path);
  ASSERT_FALSE(muts.ok());
  // "path:line:" context points at the offending line.
  EXPECT_NE(muts.status().ToString().find(path + ":2:"), std::string::npos)
      << muts.status().ToString();
  std::remove(path.c_str());

  graph::MutationStreamReader reader;
  std::vector<Mutation> out;
  const auto not_open = reader.ReadBatch(16, &out);
  ASSERT_FALSE(not_open.ok());
  EXPECT_EQ(not_open.status().code(), StatusCode::kInvalidArgument);
}

TEST(FingerprintTest, TouchedStripesLocalizeStructuralChange) {
  MutableGraph mg(RmatGraph());
  const CsdbMatrix before = CsdbMatrix::FromGraph(mg.graph());
  const sparse::RowBlockFingerprint fp0 = sparse::FingerprintOf(before, 64);
  EXPECT_TRUE(sparse::TouchedStripes(fp0, sparse::FingerprintOf(before, 64))
                  .empty());

  for (const Mutation& m : graph::SyntheticMutations(mg.graph(), 4, 77)) {
    mg.Log(0, m);
  }
  ASSERT_TRUE(mg.Synchronize().ok());
  const CsdbMatrix after = CsdbMatrix::FromGraph(mg.graph());
  const sparse::RowBlockFingerprint fp1 = sparse::FingerprintOf(after, 64);
  const std::vector<uint32_t> touched = sparse::TouchedStripes(fp0, fp1);
  EXPECT_FALSE(touched.empty());
  EXPECT_LT(touched.size(), fp1.stripes.size());  // localized, not wholesale
  EXPECT_NE(fp0.combined, fp1.combined);

  // Weight-only change: structure stripes agree, value stripes differ.
  CsdbMatrix scaled = CsdbMatrix::FromGraph(mg.graph());
  sparse::ScaleValues(&scaled, 2.0f);
  const sparse::RowBlockFingerprint fp2 = sparse::FingerprintOf(scaled, 64);
  EXPECT_TRUE(sparse::TouchedStripes(fp1, fp2).empty());
  EXPECT_NE(fp1.value_stripes, fp2.value_stripes);
}

TEST(PlanCacheTest, DeltaInvalidationRebindsWeightOnlyDropsStructural) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(4);
  const exec::Context ctx(ms.get(), &pool, 4);

  MutableGraph mg(RmatGraph());
  CsdbMatrix m1 = CsdbMatrix::FromGraph(mg.graph());
  numa::NadpOptions options;
  options.num_threads = 4;

  numa::NadpPlanCache cache;
  cache.Get(m1, options, ctx);
  EXPECT_EQ(cache.misses(), 1u);
  cache.Get(m1, options, ctx);
  EXPECT_EQ(cache.hits(), 1u);

  // Weight-only delta: same structure, new values (and new storage): the
  // slot is rebound, not dropped, so the next Get hits.
  CsdbMatrix m2 = m1;
  sparse::ScaleValues(&m2, 0.5f);
  EXPECT_EQ(cache.InvalidateDelta(m1, m2), 1u);
  cache.Get(m2, options, ctx);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.invalidations(), 0u);

  // Structural delta: the covered slot is invalidated; the next Get misses.
  for (const Mutation& m : graph::SyntheticMutations(mg.graph(), 8, 42)) {
    mg.Log(0, m);
  }
  ASSERT_TRUE(mg.Synchronize().ok());
  CsdbMatrix m3 = CsdbMatrix::FromGraph(mg.graph());
  EXPECT_EQ(cache.InvalidateDelta(m2, m3), 1u);
  EXPECT_EQ(cache.invalidations(), 1u);
  cache.Get(m3, options, ctx);
  EXPECT_EQ(cache.misses(), 2u);
}

class IncrementalRefreshTest : public ::testing::Test {
 protected:
  engine::EngineOptions Options(int threads) {
    engine::EngineOptions opts;
    opts.system = engine::SystemKind::kOmega;
    opts.num_threads = threads;
    opts.prone.dim = 8;
    opts.prone.oversample = 4;
    opts.prone.chebyshev_order = 3;
    return opts;
  }

  /// Trains on `base`, logs `muts` and refreshes; returns the embedding.
  linalg::DenseMatrix RunDynamic(const Graph& base,
                                 const std::vector<Mutation>& muts, int threads,
                                 bool refresh_all, engine::RefreshReport* report) {
    auto ms = memsim::MemorySystem::CreateDefault();
    ThreadPool pool(threads);
    const exec::Context ctx(ms.get(), &pool, threads);
    engine::DynamicEmbedder dyn(base, Options(threads), "test", threads);
    EXPECT_TRUE(dyn.Train(ctx).ok());
    for (size_t i = 0; i < muts.size(); ++i) {
      dyn.Log(static_cast<int>(i), muts[i]);
    }
    auto res = dyn.Refresh(ctx, refresh_all);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    if (report != nullptr) *report = res.value();
    return dyn.embedding();
  }
};

TEST_F(IncrementalRefreshTest, SelectiveMatchesFullRecomputeAcrossThreads) {
  const Graph base = RmatGraph();
  const std::vector<Mutation> muts = graph::SyntheticMutations(base, 16, 9);

  engine::RefreshReport selective_report;
  const linalg::DenseMatrix reference =
      RunDynamic(base, muts, 1, /*refresh_all=*/true, nullptr);
  for (const int threads : {1, 2, 8}) {
    engine::RefreshReport r;
    const linalg::DenseMatrix selective =
        RunDynamic(base, muts, threads, /*refresh_all=*/false, &r);
    ASSERT_EQ(selective.bytes(), reference.bytes());
    EXPECT_EQ(0, std::memcmp(selective.data(), reference.data(),
                             reference.bytes()))
        << "selective refresh diverged at " << threads << " threads";
    EXPECT_EQ(r.mutations_applied, muts.size());
    EXPECT_GT(r.affected_rows, r.touched_nodes);
    EXPECT_LT(r.affected_rows, base.num_nodes());  // genuinely selective
    EXPECT_GT(r.total_seconds, 0.0);
    selective_report = r;
  }
  // The refreshed set is the (K-1)-hop ball of the touched nodes.
  EXPECT_EQ(selective_report.refreshed_nodes.size(),
            selective_report.affected_rows);
}

// Each refresh level is a NadpExecute, so a dense-tier tail stall lengthens
// its workers' phases as it does training's: the same refresh costs more
// under the fault plan than without it, and every injected stall is
// accounted for.
TEST_F(IncrementalRefreshTest, DenseTierTailStallLengthensRefresh) {
  const Graph base = RmatGraph();
  const std::vector<Mutation> muts = graph::SyntheticMutations(base, 16, 9);
  constexpr int kThreads = 2;
  auto refresh = [&](bool faults, memsim::FaultCounters* counters) {
    auto ms = memsim::MemorySystem::CreateDefault();
    ThreadPool pool(kThreads);
    const exec::Context ctx(ms.get(), &pool, kThreads);
    engine::DynamicEmbedder dyn(base, Options(kThreads), "test", kThreads);
    EXPECT_TRUE(dyn.Train(ctx).ok());
    if (faults) {
      memsim::FaultPlan plan;
      plan.enabled = true;
      plan.at(dyn.nadp_options(ctx).dense_tier, memsim::MemOp::kRead,
              memsim::Pattern::kRandom)
          .stall = 1.0;
      ms->SetFaultPlan(plan);
    }
    ms->ResetFaults();
    for (size_t i = 0; i < muts.size(); ++i) dyn.Log(static_cast<int>(i), muts[i]);
    auto res = dyn.Refresh(ctx);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    *counters = ms->Faults();
    return res.ok() ? res.value().refresh_seconds : 0.0;
  };
  memsim::FaultCounters clean;
  memsim::FaultCounters stalled;
  const double clean_seconds = refresh(false, &clean);
  const double stalled_seconds = refresh(true, &stalled);
  EXPECT_EQ(clean.InjectedTotal(), 0u);
  EXPECT_GT(stalled.InjectedTotal(), 0u);
  EXPECT_TRUE(stalled.Accounted()) << memsim::FaultCountersSummary(stalled);
  EXPECT_GT(stalled_seconds, clean_seconds);
}

// Deleting the only edge of a node leaves a zero-degree row among the rows
// a refresh recomputes, and that row must still be rewritten, on the full
// recompute's bits. With both endpoints isolated every row of every level
// has zero nnz, so no worker's share has any, and splitting such a level
// across two or more workers must still return. With one endpoint isolated
// the empty row sits among rows that have nnz.
TEST_F(IncrementalRefreshTest, DeletionThatIsolatesEndpointsRefreshesThem) {
  const Graph rmat = RmatGraph();
  std::vector<NodeId> isolated;
  NodeId hub = 0;
  std::vector<graph::Edge> arcs;
  for (NodeId v = 0; v < rmat.num_nodes(); ++v) {
    if (rmat.degree(v) == 0) isolated.push_back(v);
    if (rmat.degree(v) > rmat.degree(hub)) hub = v;
    for (uint32_t k = 0; k < rmat.degree(v); ++k) {
      arcs.push_back({v, rmat.neighbors(v)[k], rmat.weights(v)[k]});
    }
  }
  ASSERT_GE(isolated.size(), 3u);
  // isolated[0] - isolated[1] is the nodes' only edge; so is isolated[2] - hub
  // for isolated[2].
  const NodeId pair[][2] = {{isolated[0], isolated[1]}, {isolated[2], hub}};
  for (const auto& [u, w] : pair) {
    arcs.push_back({u, w, 1.0f});
    arcs.push_back({w, u, 1.0f});
  }
  const Graph base =
      Graph::FromEdges(rmat.num_nodes(), arcs, /*undirected=*/false).value();

  for (const auto& [u, w] : pair) {
    const std::vector<Mutation> muts = {{MutationKind::kDeleteEdge, u, w, 1.0f}};
    const linalg::DenseMatrix reference =
        RunDynamic(base, muts, 1, /*refresh_all=*/true, nullptr);
    for (const int threads : {1, 2, 8}) {
      engine::RefreshReport r;
      const linalg::DenseMatrix selective =
          RunDynamic(base, muts, threads, /*refresh_all=*/false, &r);
      ASSERT_EQ(selective.bytes(), reference.bytes());
      EXPECT_EQ(0, std::memcmp(selective.data(), reference.data(),
                               reference.bytes()))
          << "delete " << u << "-" << w << " at " << threads << " threads";
      EXPECT_EQ(r.mutations_applied, 1u);
      if (w != hub) {
        EXPECT_EQ(r.affected_rows, 2u);
      }
    }
  }
}

// The stage-2 basis R of a training run on `base`, in that run's CSDB row
// order, with the order itself. RunEmbedding is deterministic, so this is
// the basis DynamicEmbedder::Train captures.
std::pair<linalg::DenseMatrix, std::vector<NodeId>> TrainedBasis(
    const Graph& base, const engine::EngineOptions& options) {
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(1);
  const exec::Context ctx(ms.get(), &pool, 1);
  engine::EngineOptions opts = options;
  embed::ChebyshevCapture capture;
  opts.prone.capture = &capture;
  EXPECT_TRUE(engine::RunEmbedding(base, "test", opts, ctx).ok());
  linalg::DenseMatrix r0;
  sparse::UnpackDense(capture.terms[0], nullptr, &r0);
  return {std::move(r0), capture.perm};
}

// Refresh against an independent recompute: ChebyshevFilterApply over the
// mutated graph's propagation matrix, started from the trained R moved from
// the training CSDB order into the mutated one, then L2-normalized and put
// in node order. The batch moves the degree order, so the captured state is
// re-permuted before it is refreshed.
TEST_F(IncrementalRefreshTest, RefreshMatchesFilterOverMutatedGraph) {
  const Graph base = RmatGraph();
  const std::vector<Mutation> muts = graph::SyntheticMutations(base, 16, 9);
  const auto [r0, old_perm] = TrainedBasis(base, Options(1));

  MutableGraph mg(base);
  for (const Mutation& m : muts) mg.Log(0, m);
  ASSERT_TRUE(mg.Synchronize().ok());
  const CsdbMatrix s = embed::BuildPropagationMatrix(CsdbMatrix::FromGraph(mg.graph()));
  const std::vector<NodeId>& new_perm = s.perm();
  ASSERT_NE(new_perm, old_perm);
  const size_t n = r0.rows();
  std::vector<uint32_t> new_row(n);
  for (size_t r = 0; r < n; ++r) new_row[new_perm[r]] = static_cast<uint32_t>(r);
  linalg::DenseMatrix r(n, r0.cols());
  for (size_t c = 0; c < r0.cols(); ++c) {
    for (size_t i = 0; i < n; ++i) r.At(new_row[old_perm[i]], c) = r0.At(i, c);
  }
  const embed::SpmmExecutor plain = [](const CsdbMatrix& m,
                                       const sparse::SpmmOperands& dense) {
    dense.SizeOutput(m.num_rows());
    sparse::ComputeAllRowsCsdb(m, dense, nullptr);
    return Result<double>(0.0);
  };
  const engine::EngineOptions opts = Options(1);
  const auto coeffs = embed::ChebyshevCoefficients(
      embed::ProneBandPass(opts.prone.mu, opts.prone.theta), opts.prone.chebyshev_order);
  linalg::DenseMatrix filtered;
  ASSERT_TRUE(embed::ChebyshevFilterApply(s, coeffs, r, &filtered, plain).ok());
  embed::L2NormalizeRows(&filtered, 0, n);
  linalg::DenseMatrix expect(n, r0.cols());
  for (size_t c = 0; c < r0.cols(); ++c) {
    for (size_t i = 0; i < n; ++i) expect.At(new_perm[i], c) = filtered.At(i, c);
  }

  for (const int threads : {1, 2, 3}) {
    for (const bool all_rows : {false, true}) {
      const linalg::DenseMatrix got = RunDynamic(base, muts, threads, all_rows, nullptr);
      ASSERT_EQ(got.bytes(), expect.bytes());
      EXPECT_EQ(0, std::memcmp(got.data(), expect.data(), expect.bytes()))
          << (all_rows ? "all-rows" : "selective") << " refresh at " << threads
          << " threads";
    }
  }
}

// With nothing logged, recomputing every row reproduces training's bits.
TEST_F(IncrementalRefreshTest, EmptyBatchAllRowsRefreshReproducesTraining) {
  const Graph base = RmatGraph();
  for (const int threads : {1, 2, 3}) {
    auto ms = memsim::MemorySystem::CreateDefault();
    ThreadPool pool(threads);
    const exec::Context ctx(ms.get(), &pool, threads);
    engine::DynamicEmbedder dyn(base, Options(threads), "test", threads);
    ASSERT_TRUE(dyn.Train(ctx).ok());
    const linalg::DenseMatrix trained = dyn.embedding();
    auto res = dyn.Refresh(ctx, /*refresh_all_rows=*/true);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_FALSE(res.value().no_op);
    EXPECT_EQ(res.value().affected_rows, base.num_nodes());
    EXPECT_EQ(0, std::memcmp(trained.data(), dyn.embedding().data(), trained.bytes()))
        << threads << " threads";
  }
}

// Seeded differential sweep: small graphs with isolated nodes, node pairs
// joined only to each other (deleting their edge leaves levels whose rows
// all have zero nnz), self-loops and duplicate edges, refreshed after
// weighted insert/delete/reweight batches at 1, 2, 3 and 5 threads on 1, 2
// and 4 sockets. After every batch the selective refresh must equal the
// all-rows refresh bit for bit. A failure prints a one-line repro.
Graph SweepGraph(Rng* rng, std::vector<graph::Edge>* pair_edges) {
  const NodeId n = 20 + static_cast<NodeId>(rng->NextBounded(21));
  const NodeId isolated = 3;  // the last nodes start with no edge
  const NodeId core = n - isolated - 4;
  std::vector<graph::Edge> edges;
  for (NodeId p = core; p < core + 4; p += 2) {
    edges.push_back({p, p + 1, 1.0f});
    pair_edges->push_back(edges.back());
  }
  for (NodeId i = 0; i < 2 * core; ++i) {
    const NodeId u = static_cast<NodeId>(rng->NextBounded(core));
    const NodeId v = static_cast<NodeId>(rng->NextBounded(core));
    const float w = 0.25f * static_cast<float>(1 + rng->NextBounded(8));
    edges.push_back({u, v, w});                            // u == v: a self-loop
    if (rng->NextBounded(4) == 0) edges.push_back({u, v, w});  // a duplicate
  }
  return Graph::FromEdges(n, edges, /*undirected=*/true).value();
}

// A batch of 1 to 6 mutations drawn from the weighted mix insert 3 :
// delete 2 : delete a pair's edge 3 : reweight 2. Inserts may name a self-loop or an existing edge and
// deletes a missing one; Synchronize rejects those.
std::vector<Mutation> SweepBatch(const Graph& g, const std::vector<graph::Edge>& pair_edges,
                                 Rng* rng) {
  std::vector<Mutation> out;
  const size_t count = 1 + rng->NextBounded(6);
  auto random_arc = [&](NodeId* u, NodeId* v) {
    if (g.num_arcs() == 0) return false;
    const uint64_t arc = rng->NextBounded(g.num_arcs());
    *u = static_cast<NodeId>(std::upper_bound(g.offsets().begin(), g.offsets().end(), arc) -
                             g.offsets().begin() - 1);
    *v = g.neighbor_array()[arc];
    return true;
  };
  const float weight = 0.25f * static_cast<float>(1 + rng->NextBounded(8));
  for (size_t i = 0; i < count; ++i) {
    const uint64_t draw = rng->NextBounded(10);
    NodeId u = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
    NodeId v = static_cast<NodeId>(rng->NextBounded(g.num_nodes()));
    if (draw < 3) {
      out.push_back({MutationKind::kInsertEdge, u, v, weight});
    } else if (draw < 5) {
      if (random_arc(&u, &v)) out.push_back({MutationKind::kDeleteEdge, u, v, 0.0f});
    } else if (draw < 8) {
      const graph::Edge& e = pair_edges[rng->NextBounded(pair_edges.size())];
      out.push_back({MutationKind::kDeleteEdge, e.src, e.dst, 0.0f});
    } else if (random_arc(&u, &v)) {
      out.push_back({MutationKind::kUpdateWeight, u, v, weight});
    }
  }
  return out;
}

TEST_F(IncrementalRefreshTest, SeededSweepSelectiveMatchesAllRows) {
  constexpr int kBatches = 2;
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    const int order = 2 + static_cast<int>(seed % 3);
    Rng rng(seed);
    std::vector<graph::Edge> pair_edges;
    const Graph base = SweepGraph(&rng, &pair_edges);
    std::vector<std::vector<Mutation>> batches;
    {
      MutableGraph mg(base);
      for (int b = 0; b < kBatches; ++b) {
        batches.push_back(SweepBatch(mg.graph(), pair_edges, &rng));
        for (const Mutation& m : batches.back()) mg.Log(0, m);
        ASSERT_TRUE(mg.Synchronize().ok());
      }
    }
    for (const int sockets : {1, 2, 4}) {
      memsim::TopologyConfig topo;
      topo.num_sockets = sockets;
      for (const int threads : {1, 2, 3, 5}) {
        ThreadPool pool(threads);
        engine::EngineOptions opts = Options(threads);
        opts.prone.chebyshev_order = order;
        memsim::MemorySystem ms_sel(topo, memsim::DefaultProfiles());
        memsim::MemorySystem ms_all(topo, memsim::DefaultProfiles());
        const exec::Context sel_ctx(&ms_sel, &pool, threads);
        const exec::Context all_ctx(&ms_all, &pool, threads);
        engine::DynamicEmbedder sel(base, opts, "sweep", threads);
        engine::DynamicEmbedder all(base, opts, "sweep", threads);
        ASSERT_TRUE(sel.Train(sel_ctx).ok());
        ASSERT_TRUE(all.Train(all_ctx).ok());
        for (int b = 0; b < kBatches; ++b) {
          const std::string repro =
              "repro: seed=" + std::to_string(seed) + " order=" +
              std::to_string(order) + " nodes=" + std::to_string(base.num_nodes()) +
              " threads=" + std::to_string(threads) + " sockets=" +
              std::to_string(sockets) + " batch=" + std::to_string(b);
          for (size_t i = 0; i < batches[b].size(); ++i) {
            sel.Log(static_cast<int>(i), batches[b][i]);
            all.Log(static_cast<int>(i), batches[b][i]);
          }
          auto sel_res = sel.Refresh(sel_ctx);
          auto all_res = all.Refresh(all_ctx, /*refresh_all_rows=*/true);
          ASSERT_TRUE(sel_res.ok() && all_res.ok()) << repro;
          ASSERT_EQ(0, std::memcmp(sel.embedding().data(), all.embedding().data(),
                                   all.embedding().bytes()))
              << repro;
        }
      }
    }
  }
}

TEST_F(IncrementalRefreshTest, NoPendingMutationsIsANoOp) {
  const Graph base = RmatGraph(8, 1500);
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(2);
  const exec::Context ctx(ms.get(), &pool, 2);
  engine::DynamicEmbedder dyn(base, Options(2), "test", 2);
  ASSERT_TRUE(dyn.Train(ctx).ok());
  const linalg::DenseMatrix before = dyn.embedding();

  auto res = dyn.Refresh(ctx);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res.value().no_op);
  EXPECT_EQ(res.value().affected_rows, 0u);
  EXPECT_EQ(0, std::memcmp(before.data(), dyn.embedding().data(),
                           before.bytes()));
}

// Both of DynamicEmbedder's synchronization points return a failed rebuild
// as a Status: Train (mutations logged before training) and Refresh.
TEST_F(IncrementalRefreshTest, FailedSynchronizeIsReturnedByTrainAndRefresh) {
  const Graph base = RmatGraph(8, 1500);
  auto ms = memsim::MemorySystem::CreateDefault();
  ThreadPool pool(2);
  const exec::Context ctx(ms.get(), &pool, 2);
  ASSERT_GT(base.degree(0), 0u);
  const Mutation poisoned{MutationKind::kUpdateWeight, 0, base.neighbors(0)[0],
                          std::numeric_limits<float>::infinity()};

  engine::DynamicEmbedder dyn(base, Options(2), "test", 2);
  dyn.Log(0, poisoned);
  const Status train = dyn.Train(ctx);
  EXPECT_TRUE(train.IsInvalidArgument()) << train.ToString();
  EXPECT_FALSE(dyn.trained());

  ASSERT_TRUE(dyn.Train(ctx).ok());
  const linalg::DenseMatrix before = dyn.embedding();
  dyn.Log(0, poisoned);
  auto refresh = dyn.Refresh(ctx);
  ASSERT_FALSE(refresh.ok());
  EXPECT_TRUE(refresh.status().IsInvalidArgument()) << refresh.status().ToString();
  EXPECT_EQ(0, std::memcmp(before.data(), dyn.embedding().data(), before.bytes()));
}

TEST(ServeRefreshTest, RefreshRowsSwapsEmbeddingAndReconcilesCache) {
  auto ms = memsim::MemorySystem::CreateDefault();
  linalg::DenseMatrix embedding = linalg::GaussianMatrix(64, 8, 3);
  serve::ServerOptions options;
  options.worker_threads = 2;
  // 8 vectors of 32 B split evenly: 4 hot-pinned keys, 4 LRU frames.
  options.cache.capacity_bytes = 8 * 8 * sizeof(float);
  options.cache.hot_fraction = 0.5;
  const exec::Context ctx(ms.get(), nullptr, 2);
  serve::EmbeddingServer server(embedding, options, ctx);

  std::vector<prefetch::ScoredKey> popularity;
  for (uint32_t k = 0; k < 8; ++k) {
    popularity.push_back({k, 100u - k});  // keys 0..3 become the hot set
  }
  server.WarmHotSet(std::move(popularity));
  ASSERT_TRUE(server.Start().ok());

  // Pull key 10 through the LRU so the refresh has a resident key to evict.
  auto warm = server.Submit({serve::QueryKind::kLookup, 10, 0});
  ASSERT_TRUE(warm.ok());
  warm.value().get();

  const std::vector<uint32_t> refreshed = {0, 10, 50};
  server.RefreshRows(refreshed, [&] {
    for (const uint32_t key : refreshed) {
      for (size_t c = 0; c < embedding.cols(); ++c) {
        embedding.At(key, c) = static_cast<float>(key + c);
      }
    }
  });

  // Queries admitted after the refresh observe the swapped rows.
  auto after = server.Submit({serve::QueryKind::kLookup, 10, 0});
  ASSERT_TRUE(after.ok());
  const serve::QueryResult result = after.value().get();
  for (size_t c = 0; c < embedding.cols(); ++c) {
    EXPECT_FLOAT_EQ(result.embedding[c], static_cast<float>(10 + c));
  }
  server.Stop();

  const serve::EmbeddingServer::Stats stats = server.GetStats();
  EXPECT_EQ(stats.refreshes, 1u);
  EXPECT_EQ(stats.cache.refreshed_hot, 1u);        // key 0 re-staged in place
  EXPECT_EQ(stats.cache.refresh_invalidated, 1u);  // key 10 dropped from LRU
  EXPECT_GT(stats.sim_seconds, 0.0);
}

}  // namespace
}  // namespace omega
