// Low-latency embedding serving: admission control, micro-batching, and
// batched lookup / top-k scoring against a trained embedding matrix.
//
// The scheduler is a bounded queue drained by worker threads. Submit() is
// non-blocking admission control: a full queue rejects with CapacityExceeded
// instead of queuing unbounded work (callers shed or back off). Workers close
// a batch on size-or-deadline — take up to max_batch requests, waiting at
// most batch_deadline_us past the oldest request's arrival — so per-request
// gathers coalesce into one grouped multi-key fetch through the HotCache and
// one shared scan services every top-k query in the batch. Per-request mode
// (batched = false) is the same pipeline with batch size pinned to 1: it
// pays the full embedding scan and an uncoalesced fetch per query, which is
// exactly the gap bench_serving measures.
//
// Results are bit-identical across worker counts, batch sizes, and the two
// modes: every score is reduced over ascending dimensions with a single
// accumulator (sparse::kernels::ScoreRows, one rounding policy for the SIMD
// and scalar paths), top-k ties break toward the smaller id (common TopK),
// and all data is read from the host matrix — the cache and the simulated
// tiers shape cost and counters, never values.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/topk.h"
#include "linalg/dense_matrix.h"
#include "memsim/sim_clock.h"
#include "memsim/worker_frame.h"
#include "omega/exec_context.h"
#include "prefetch/topm_store.h"
#include "serve/hot_cache.h"

namespace omega::serve {

enum class QueryKind { kLookup = 0, kTopK = 1 };

struct Query {
  QueryKind kind = QueryKind::kLookup;
  uint32_t key = 0;  ///< embedding row the query is about
  uint32_t k = 10;   ///< neighbors returned by a kTopK query
};

struct QueryResult {
  QueryKind kind = QueryKind::kLookup;
  uint32_t key = 0;
  std::vector<float> embedding;     ///< kLookup: the key's vector
  std::vector<ScoredId> neighbors;  ///< kTopK: best-first, self excluded
  uint32_t batch_size = 0;          ///< size of the batch that served this
};

struct ServerOptions {
  int worker_threads = 2;
  size_t queue_capacity = 1024;
  /// Batch-close rules: close at max_batch requests, or batch_deadline_us
  /// after the oldest queued request arrived, whichever first.
  size_t max_batch = 32;
  double batch_deadline_us = 200.0;
  /// false = serve one request per batch (the per-request baseline).
  bool batched = true;
  /// Node-block width of the shared top-k scan (keeps the scored embedding
  /// block cache-resident across the batch's queries).
  uint32_t score_block = 512;
  HotCacheOptions cache;
};

class EmbeddingServer {
 public:
  struct Stats {
    uint64_t accepted = 0;
    uint64_t rejected = 0;
    uint64_t completed = 0;
    uint64_t batches = 0;
    uint64_t refreshes = 0;    ///< RefreshRows calls served
    double sim_seconds = 0.0;  ///< warmup + refreshes + slowest worker's clock
    HotCache::Stats cache;
  };

  /// `embedding` must outlive the server. The context supplies the simulated
  /// machine (and optional trace sink); worker threads are the server's own.
  EmbeddingServer(const linalg::DenseMatrix& embedding, ServerOptions options,
                  const exec::Context& ctx);
  ~EmbeddingServer();

  EmbeddingServer(const EmbeddingServer&) = delete;
  EmbeddingServer& operator=(const EmbeddingServer&) = delete;

  /// Pins the hot set from a popularity ranking (key, score); charges the
  /// warm fill as an aux "serve.warmup" phase. Call before Start().
  void WarmHotSet(std::vector<prefetch::ScoredKey> popularity);

  /// Reserves the embedding on the cold tier and launches the workers.
  Status Start();

  /// Drains the queue (serving any remainder), joins the workers, and
  /// releases the cold-tier reservation. Idempotent; the destructor calls it.
  void Stop();

  /// Non-blocking admission: CapacityExceeded when the queue is full (the
  /// request is not enqueued), InvalidArgument for an out-of-range key.
  /// Submitting before Start() queues work the workers pick up at Start().
  Result<std::future<QueryResult>> Submit(const Query& query);

  /// Embedding-refresh hook for the dynamic-graph path: quiesces the serving
  /// workers (exclusive vs every in-flight ServeBatch), runs `apply` — the
  /// caller's callback that swaps the refreshed rows into the backing
  /// embedding matrix — then reconciles the hot cache for `keys`
  /// (HotCache::RefreshKeys: hot rows re-staged and still pinned,
  /// LRU-resident rows invalidated). Safe to call while serving; queued
  /// requests observe the refreshed rows. Charged as a "serve.refresh" phase.
  void RefreshRows(const std::vector<uint32_t>& keys,
                   const std::function<void()>& apply = nullptr);

  Stats GetStats() const;
  const ServerOptions& options() const { return options_; }
  const exec::Context& context() const { return ctx_; }
  HotCache* cache() { return cache_.get(); }

 private:
  struct Pending {
    Query query;
    std::promise<QueryResult> promise;
    std::chrono::steady_clock::time_point arrival;
  };

  void WorkerLoop(int worker);
  void ServeBatch(memsim::WorkerCtx* ctx, std::vector<Pending>* batch);
  /// Serves anything still queued on the calling thread (Stop without Start).
  void DrainInline();

  const linalg::DenseMatrix& embedding_;
  ServerOptions options_;
  exec::Context ctx_;
  std::unique_ptr<HotCache> cache_;
  memsim::WorkerFrame clocks_;
  memsim::SimClock warm_clock_;
  memsim::SimClock refresh_clock_;

  /// Readers: ServeBatch (scores against the embedding). Writer: RefreshRows
  /// (mutates the embedding through `apply` and reconciles the cache).
  std::shared_mutex refresh_mu_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  std::vector<std::thread> threads_;
  bool running_ = false;
  bool stopping_ = false;
  bool reserved_ = false;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> refreshes_{0};
};

}  // namespace omega::serve
