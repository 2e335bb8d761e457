// serve-read and serve-refresh: EmbeddingServer under the benchmark's load
// generator (loadgen.h).
//
// serve-read serves a synthetic 32768 x 32 Gaussian embedding with 2 server
// workers: an open loop at kReadRate, then a closed loop of kWindow requests
// in flight. Threads: load generator (this thread) + 2 workers = 3.
//
// serve-refresh trains a DynamicEmbedder on the TW analogue (Chebyshev order
// 2) during set-up and serves its embedding, ranked by node degree, with 1
// server worker under the same open loop. A writer thread logs a seeded batch
// of kBatchMutations every kUpdateInterval, calls Refresh on a 1-thread pool,
// then RefreshRows, whose callback copies the refreshed rows into the served
// matrix. Threads: load generator + writer + 1 pool thread + 1 worker = 4.

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <thread>

#include "common/thread_pool.h"
#include "common/topk.h"
#include "graph/datasets.h"
#include "graph/mutable_graph.h"
#include "linalg/random_matrix.h"
#include "loadgen.h"
#include "omega/incremental.h"
#include "serve/server.h"
#include "sparse/spmm_kernels.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace serve = omega::serve;
using omega::linalg::DenseMatrix;

/// Open-loop arrival rate of both serving workloads, requests per second:
/// about half of serve-read's closed-loop saturation at the slowest host
/// speed measured (see README.md). A constant, never derived per run.
constexpr double kReadRate = 1000.0;
/// Closed-loop requests in flight: two full batches per worker.
constexpr size_t kWindow = 64;
/// Closed-loop requests served during set-up, before any timing.
constexpr uint64_t kWarmupRequests = 512;
constexpr double kZipfSkew = 0.99;
constexpr double kTopkFraction = 0.8;
constexpr uint32_t kTopk = 10;
/// serve-read checks every 16th result, up to 1024 per phase.
constexpr uint32_t kKeepEvery = 16;

constexpr uint32_t kReadNodes = 32768;
constexpr size_t kReadDim = 32;

constexpr size_t kBatchMutations = 16;
constexpr double kUpdateInterval = 0.1;  // seconds
constexpr int kRefreshThreads = 1;

serve::ServerOptions ServingOptions(int workers) {
  serve::ServerOptions options;
  options.worker_threads = workers;
  options.batched = true;
  options.cache.capacity_bytes = 1 << 20;
  options.cache.hot_fraction = 0.5;
  return options;
}

/// One served embedding: the server, its simulated machine, and the key
/// ranking its traffic follows. The served matrix must outlive it. Held by
/// unique_ptr so destruction always runs in reverse member order (server
/// before machine); member-wise move assignment would free `ms` first.
struct Serving {
  std::unique_ptr<omega::memsim::MemorySystem> ms;
  std::vector<uint32_t> rank_to_key;
  std::unique_ptr<serve::EmbeddingServer> server;
};

/// Builds, warms, starts, and exercises a server over `matrix`; popularity
/// score of rank r is `scores[r]`.
std::unique_ptr<Serving> StartServing(const DenseMatrix& matrix,
                                      std::vector<uint32_t> rank_to_key,
                                      const std::vector<uint64_t>& scores,
                                      int workers, uint64_t seed) {
  auto serving = std::make_unique<Serving>();
  Serving& s = *serving;
  s.ms = omega::memsim::MemorySystem::CreateDefault();
  s.rank_to_key = std::move(rank_to_key);
  const omega::exec::Context ctx(s.ms.get(), nullptr, workers);
  s.server = std::make_unique<serve::EmbeddingServer>(
      matrix, ServingOptions(workers), ctx);
  std::vector<omega::prefetch::ScoredKey> popularity;
  popularity.reserve(s.rank_to_key.size());
  for (size_t r = 0; r < s.rank_to_key.size(); ++r) {
    popularity.push_back({s.rank_to_key[r], scores[r]});
  }
  s.server->WarmHotSet(std::move(popularity));
  const omega::Status started = s.server->Start();
  if (!started.ok()) Die("cannot start server: " + started.ToString());
  RequestStream warmup(s.rank_to_key, StreamSeed(seed, 9), kZipfSkew,
                       kTopkFraction, kTopk);
  PhaseOptions options;
  options.open_loop = false;
  options.window = kWindow;
  options.max_requests = kWarmupRequests;
  SpanRecorder off(false, Clock::now());
  RunPhase(s.server.get(), &warmup, options, &off);
  return serving;
}

void AddPhase(const std::string& prefix, const PhaseReport& r,
              WorkloadResult* out) {
  out->attempted += r.attempted;
  out->op_failures += r.rejected;
  out->samples.Array(prefix + "latency_ms", r.latency_ms);
  out->samples.Array(prefix + "lag_ms", r.lag_ms);
  out->samples.Array(prefix + "submit_us", r.submit_us);
  out->samples.Array(prefix + "backlog_quarters", r.backlog_quarter_mean);
  JsonObject& v = out->values;
  v.Num(prefix + "attempted", static_cast<double>(r.attempted));
  v.Num(prefix + "rejected", static_cast<double>(r.rejected));
  v.Num(prefix + "completed", static_cast<double>(r.completed));
  v.Num(prefix + "wall_s", r.wall_seconds);
  v.Num(prefix + "backlog_max", static_cast<double>(r.backlog_max));
  v.Num(prefix + "sim_s", r.server_delta.sim_seconds);
  v.Num(prefix + "batches", static_cast<double>(r.server_delta.batches));
  v.Num(prefix + "server_completed",
        static_cast<double>(r.server_delta.completed));
  v.Num(prefix + "cache_hits", static_cast<double>(r.server_delta.cache.hits));
  v.Num(prefix + "cache_misses",
        static_cast<double>(r.server_delta.cache.misses));
  v.Num(prefix + "refreshed_hot",
        static_cast<double>(r.server_delta.cache.refreshed_hot));
  v.Num(prefix + "refresh_invalidated",
        static_cast<double>(r.server_delta.cache.refresh_invalidated));
  v.Num(prefix + "dram_bytes", static_cast<double>(r.traffic_delta.TierBytes(
                                   omega::memsim::Tier::kDram)));
  v.Num(prefix + "pm_bytes", static_cast<double>(r.traffic_delta.TierBytes(
                                 omega::memsim::Tier::kPm)));
  v.Num(prefix + "remote_fraction", r.traffic_delta.RemoteFraction());
}

/// Serial full-range reference of one top-k query: ScoreRows over every row,
/// then TopK without the query's own row.
std::vector<omega::ScoredId> ReferenceTopK(const DenseMatrix& e, uint32_t key,
                                           uint32_t k) {
  std::vector<float> q(e.cols());
  for (size_t c = 0; c < e.cols(); ++c) q[c] = e.At(key, c);
  const uint32_t n = static_cast<uint32_t>(e.rows());
  std::vector<float> scores(n);
  omega::sparse::kernels::ScoreRows(e, q.data(), 0, n, scores.data());
  omega::TopK selector(k);
  for (uint32_t c = 0; c < n; ++c) {
    if (c != key) selector.Offer(c, scores[c]);
  }
  return selector.Take();
}

bool LookupMatches(const DenseMatrix& e, const KeptResult& kept) {
  const std::vector<float>& got = kept.result.embedding;
  if (got.size() != e.cols()) return false;
  for (size_t c = 0; c < e.cols(); ++c) {
    const float want = e.At(kept.query.key, c);
    if (std::memcmp(&want, &got[c], sizeof(float)) != 0) return false;
  }
  return true;
}

}  // namespace

WorkloadResult RunServeRead(const RunConfig& cfg, SpanRecorder* spans) {
  WorkloadResult out;
  std::unique_ptr<DenseMatrix> matrix;
  std::unique_ptr<Serving> serving;
  std::vector<uint64_t> scores(kReadNodes);
  for (uint32_t r = 0; r < kReadNodes; ++r) scores[r] = kReadNodes - r;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serving.reset();
    matrix.reset();
    const Clock::time_point t0 = Clock::now();
    matrix = std::make_unique<DenseMatrix>(omega::linalg::GaussianMatrix(
        kReadNodes, kReadDim, StreamSeed(cfg.seed, 10)));
    serving = StartServing(*matrix,
                           serve::RankPermutation(kReadNodes,
                                                  StreamSeed(cfg.seed, 11)),
                           scores, 2, cfg.seed);
    const Clock::time_point t1 = Clock::now();
    out.setup_s.push_back(SecondsBetween(t0, t1));
    spans->Record(spans->NewId(), "setup.serve_read", 0, 0, t0, t1);
  }

  RequestStream stream(serving->rank_to_key, cfg.seed, kZipfSkew, kTopkFraction,
                       kTopk);
  PhaseOptions open;
  open.open_loop = true;
  open.rate = kReadRate;
  open.seconds = cfg.seconds / 2.0;
  open.keep_every = kKeepEvery;
  const PhaseReport open_report =
      RunPhase(serving->server.get(), &stream, open, spans);
  PhaseOptions closed;
  closed.open_loop = false;
  closed.window = kWindow;
  closed.seconds = cfg.seconds / 2.0;
  closed.keep_every = kKeepEvery;
  const PhaseReport closed_report =
      RunPhase(serving->server.get(), &stream, closed, spans);
  serving->server->Stop();
  AddPhase("open.", open_report, &out);
  AddPhase("closed.", closed_report, &out);

  uint64_t lookups = 0, lookups_failed = 0, topks = 0, topks_failed = 0;
  for (const PhaseReport* r : {&open_report, &closed_report}) {
    for (const KeptResult& kept : r->kept) {
      if (kept.query.kind == serve::QueryKind::kLookup) {
        ++lookups;
        if (!LookupMatches(*matrix, kept)) ++lookups_failed;
      } else {
        ++topks;
        if (ReferenceTopK(*matrix, kept.query.key, kept.query.k) !=
            kept.result.neighbors) {
          ++topks_failed;
        }
      }
    }
  }
  out.AddCheck("lookups_equal_rows", lookups, lookups_failed);
  out.AddCheck("topk_equals_serial_reference", topks, topks_failed);
  return out;
}

namespace {

/// The writer's measurements, one entry per update.
struct UpdateLog {
  std::vector<double> update_ms;        ///< logged -> RefreshRows returned
  std::vector<double> refresh_ms;       ///< DynamicEmbedder::Refresh
  std::vector<double> refresh_rows_ms;  ///< RefreshRows (lock + apply + cache)
  std::vector<double> affected_rows;
  std::vector<double> sim_ms;  ///< RefreshReport::total_seconds
  double sync_sim_s = 0.0;
  double delta_sim_s = 0.0;
  double recurrence_sim_s = 0.0;
  uint64_t csdb_touched_rows = 0;
  uint64_t csdb_reused_rows = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows_mismatched = 0;  ///< updates whose served rows differ
};

void RunWriter(omega::engine::DynamicEmbedder* embedder,
               const omega::exec::Context& ctx, serve::EmbeddingServer* server,
               DenseMatrix* served, uint64_t seed, Clock::time_point start,
               size_t updates, SpanRecorder* spans, UpdateLog* log) {
  for (size_t i = 0; i < updates; ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kUpdateInterval * i)));
    ++log->attempted;
    const std::vector<omega::graph::Mutation> batch =
        omega::graph::SyntheticMutations(embedder->graph(), kBatchMutations,
                                         StreamSeed(seed, 100 + i));
    const Clock::time_point logged = Clock::now();
    for (const omega::graph::Mutation& m : batch) embedder->Log(0, m);
    const Clock::time_point log_end = Clock::now();
    auto refreshed = embedder->Refresh(ctx);
    const Clock::time_point refresh_end = Clock::now();
    if (!refreshed.ok()) {
      ++log->failed;
      continue;
    }
    const omega::engine::RefreshReport& r = refreshed.value();
    const std::vector<uint32_t> keys(r.refreshed_nodes.begin(),
                                     r.refreshed_nodes.end());
    const DenseMatrix& fresh = embedder->embedding();
    Clock::time_point apply_start, apply_end;
    server->RefreshRows(keys, [&] {
      apply_start = Clock::now();
      for (size_t c = 0; c < served->cols(); ++c) {
        for (const uint32_t v : keys) served->At(v, c) = fresh.At(v, c);
      }
      apply_end = Clock::now();
    });
    const Clock::time_point done = Clock::now();
    if (std::memcmp(served->data(), fresh.data(), fresh.bytes()) != 0) {
      ++log->rows_mismatched;
    }
    log->update_ms.push_back(SecondsBetween(logged, done) * 1e3);
    log->refresh_ms.push_back(SecondsBetween(log_end, refresh_end) * 1e3);
    log->refresh_rows_ms.push_back(SecondsBetween(refresh_end, done) * 1e3);
    log->affected_rows.push_back(static_cast<double>(r.affected_rows));
    log->sim_ms.push_back(r.total_seconds * 1e3);
    log->sync_sim_s += r.sync_seconds;
    log->delta_sim_s += r.delta_seconds;
    log->recurrence_sim_s += r.refresh_seconds;
    log->csdb_touched_rows += r.csdb_touched_rows;
    log->csdb_reused_rows += r.csdb_reused_rows;
    if (spans->enabled()) {
      const uint64_t root = spans->NewId();
      spans->Record(root, "request.update", 0, root, logged, done);
      spans->Record(spans->NewId(), "graph.log", root, root, logged, log_end);
      spans->Record(spans->NewId(), "engine.refresh", root, root, log_end,
                    refresh_end);
      const uint64_t rows = spans->NewId();
      spans->Record(rows, "serve.refresh_rows", root, root, refresh_end, done);
      spans->Record(spans->NewId(), "serve.apply_rows", rows, root,
                    apply_start, apply_end);
    }
  }
}

}  // namespace

WorkloadResult RunServeRefresh(const RunConfig& cfg, SpanRecorder* spans) {
  WorkloadResult out;
  auto spec = omega::graph::FindDataset("TW");
  if (!spec.ok()) Die(spec.status().ToString());
  omega::graph::RmatParams rmat = spec.value().rmat;
  rmat.seed += cfg.seed;
  omega::engine::EngineOptions options;
  options.system = omega::engine::SystemKind::kOmega;
  options.num_threads = kRefreshThreads;
  options.prone.dim = 32;
  options.prone.oversample = 8;
  options.prone.chebyshev_order = 2;

  // Declared before the embedder: its plan cache releases simulated
  // reservations into the machine when destroyed.
  std::unique_ptr<omega::memsim::MemorySystem> embed_ms;
  omega::ThreadPool pool(kRefreshThreads);
  std::unique_ptr<omega::engine::DynamicEmbedder> embedder;
  std::unique_ptr<DenseMatrix> served;
  std::unique_ptr<Serving> serving;
  std::vector<double> rmat_s, train_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    serving.reset();
    served.reset();
    embedder.reset();
    const Clock::time_point t0 = Clock::now();
    auto g = omega::graph::GenerateRmat(rmat);
    if (!g.ok()) Die(g.status().ToString());
    const Clock::time_point t1 = Clock::now();
    embedder = std::make_unique<omega::engine::DynamicEmbedder>(
        std::move(g).value(), options, "TW", 1);
    embed_ms = omega::memsim::MemorySystem::CreateDefault();
    const omega::Status trained = embedder->Train(
        omega::exec::Context(embed_ms.get(), &pool, kRefreshThreads));
    if (!trained.ok()) Die("training failed: " + trained.ToString());
    const Clock::time_point t2 = Clock::now();
    served = std::make_unique<DenseMatrix>(embedder->embedding());
    const omega::graph::Graph& g0 = embedder->graph();
    std::vector<uint32_t> by_degree(g0.num_nodes());
    std::iota(by_degree.begin(), by_degree.end(), 0u);
    std::stable_sort(by_degree.begin(), by_degree.end(),
                     [&](uint32_t a, uint32_t b) {
                       return g0.degree(a) > g0.degree(b);
                     });
    std::vector<uint64_t> scores(by_degree.size());
    for (size_t r = 0; r < by_degree.size(); ++r) {
      scores[r] = g0.degree(by_degree[r]);
    }
    serving =
        StartServing(*served, std::move(by_degree), scores, 1, cfg.seed);
    const Clock::time_point t3 = Clock::now();
    rmat_s.push_back(SecondsBetween(t0, t1));
    train_s.push_back(SecondsBetween(t1, t2));
    out.setup_s.push_back(SecondsBetween(t0, t3));
    spans->Record(spans->NewId(), "graph.rmat", 0, 0, t0, t1);
    spans->Record(spans->NewId(), "engine.train", 0, 0, t1, t2);
    spans->Record(spans->NewId(), "setup.serve_refresh", 0, 0, t2, t3);
  }
  out.samples.Array("graph.rmat_s", rmat_s);
  out.samples.Array("engine.train_s", train_s);
  out.values.Num("train_sim_s", embedder->train_report().total_seconds);

  const size_t updates = std::max<size_t>(
      1, static_cast<size_t>(cfg.seconds / kUpdateInterval));
  RequestStream stream(serving->rank_to_key, cfg.seed, kZipfSkew, kTopkFraction,
                       kTopk);
  PhaseOptions open;
  open.open_loop = true;
  open.rate = kReadRate;
  open.seconds = cfg.seconds;
  UpdateLog log;
  const Clock::time_point start = Clock::now();
  const omega::exec::Context refresh_ctx(embed_ms.get(), &pool,
                                         kRefreshThreads);
  std::thread writer(RunWriter, embedder.get(), std::cref(refresh_ctx),
                     serving->server.get(), served.get(), cfg.seed, start,
                     updates, spans, &log);
  const PhaseReport open_report =
      RunPhase(serving->server.get(), &stream, open, spans);
  writer.join();
  serving->server->Stop();
  AddPhase("open.", open_report, &out);

  out.attempted += log.attempted;
  out.op_failures += log.failed;
  out.samples.Array("update_ms", log.update_ms);
  out.samples.Array("engine.refresh_ms", log.refresh_ms);
  out.samples.Array("serve.refresh_rows_ms", log.refresh_rows_ms);
  out.samples.Array("engine.refresh_affected_rows", log.affected_rows);
  out.samples.Array("update_sim_ms", log.sim_ms);
  out.values.Num("engine.refresh_sync_sim_s", log.sync_sim_s);
  out.values.Num("engine.refresh_delta_sim_s", log.delta_sim_s);
  out.values.Num("engine.refresh_recurrence_sim_s", log.recurrence_sim_s);
  out.values.Num("graph.csdb_touched_rows",
                 static_cast<double>(log.csdb_touched_rows));
  out.values.Num("graph.csdb_reused_rows",
                 static_cast<double>(log.csdb_reused_rows));
  out.AddCheck("served_rows_equal_embedder", log.attempted - log.failed,
               log.rows_mismatched);
  return out;
}

}  // namespace perfbench
