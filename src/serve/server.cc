#include "serve/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/logging.h"
#include "memsim/fault.h"
#include "sparse/spmm_kernels.h"

namespace omega::serve {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration MicrosDuration(double us) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::micro>(us));
}

}  // namespace

EmbeddingServer::EmbeddingServer(const linalg::DenseMatrix& embedding,
                                 ServerOptions options,
                                 const exec::Context& ctx)
    : embedding_(embedding),
      options_(std::move(options)),
      ctx_(ctx),
      clocks_(ctx.ms()->topology(), std::max(1, options_.worker_threads)) {
  OMEGA_CHECK(embedding_.rows() > 0 && embedding_.cols() > 0)
      << "serving needs a non-empty embedding";
  options_.worker_threads = std::max(1, options_.worker_threads);
  options_.max_batch = std::max<size_t>(1, options_.max_batch);
  options_.score_block = std::max<uint32_t>(1, options_.score_block);
  cache_ = std::make_unique<HotCache>(
      ctx_.ms(), embedding_.cols() * sizeof(float),
      static_cast<uint32_t>(embedding_.rows()), options_.cache);
}

EmbeddingServer::~EmbeddingServer() { Stop(); }

void EmbeddingServer::WarmHotSet(std::vector<prefetch::ScoredKey> popularity) {
  // Warmup is real setup time spent outside the serving loop, so it gets its
  // own non-aux phase rather than folding into serve.load.
  exec::PhaseSpan span(ctx_, "serve.warmup");
  memsim::WorkerCtx wctx;
  wctx.worker = static_cast<int>(memsim::kFaultStreamServe);
  wctx.cpu_socket = options_.cache.socket;
  wctx.active_threads = 1;
  wctx.clock = &warm_clock_;
  const double before = warm_clock_.seconds();
  cache_->WarmHotSet(&wctx, std::move(popularity));
  span.AddSimSeconds(warm_clock_.seconds() - before);
}

Status EmbeddingServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (running_) return Status::OK();
  if (!reserved_) {
    OMEGA_RETURN_NOT_OK(
        ctx_.ms()->Reserve(options_.cache.cold_home, embedding_.bytes()));
    reserved_ = true;
  }
  stopping_ = false;
  running_ = true;
  threads_.reserve(static_cast<size_t>(options_.worker_threads));
  for (int w = 0; w < options_.worker_threads; ++w) {
    threads_.emplace_back(&EmbeddingServer::WorkerLoop, this, w);
  }
  return Status::OK();
}

void EmbeddingServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  DrainInline();  // only finds work when Stop() runs without a Start()
  std::lock_guard<std::mutex> lock(mu_);
  running_ = false;
  stopping_ = false;
  if (reserved_) {
    ctx_.ms()->Release(options_.cache.cold_home, embedding_.bytes());
    reserved_ = false;
  }
}

Result<std::future<QueryResult>> EmbeddingServer::Submit(const Query& query) {
  if (query.key >= embedding_.rows()) {
    return Status::InvalidArgument("query key out of range");
  }
  std::future<QueryResult> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.size() >= options_.queue_capacity) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      return Status::CapacityExceeded("serving queue full");
    }
    Pending pending;
    pending.query = query;
    pending.arrival = Clock::now();
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    accepted_.fetch_add(1, std::memory_order_relaxed);
  }
  cv_.notify_one();
  return future;
}

void EmbeddingServer::WorkerLoop(int worker) {
  memsim::WorkerCtx wctx;
  // Offsetting the worker id moves these draws into the serving layer's own
  // fault stream namespace (kFaultStreamWorkerBase + worker).
  wctx.worker = static_cast<int>(memsim::kFaultStreamServe) + worker;
  wctx.cpu_socket = options_.cache.socket;
  wctx.active_threads = options_.worker_threads;
  wctx.clock = &clocks_.clock(static_cast<size_t>(worker));
  std::vector<Pending> batch;
  while (true) {
    batch.clear();
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stopping_) return;
        continue;
      }
      if (options_.batched && options_.max_batch > 1 && !stopping_) {
        // Size-or-deadline batch close: wait for more requests, but never
        // longer than the oldest one's deadline.
        const auto deadline =
            queue_.front().arrival + MicrosDuration(options_.batch_deadline_us);
        while (!stopping_ && !queue_.empty() &&
               queue_.size() < options_.max_batch &&
               cv_.wait_until(lock, deadline) != std::cv_status::timeout) {
        }
      }
      const size_t take = options_.batched
                              ? std::min(options_.max_batch, queue_.size())
                              : std::min<size_t>(1, queue_.size());
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    if (!batch.empty()) ServeBatch(&wctx, &batch);
  }
}

void EmbeddingServer::DrainInline() {
  memsim::WorkerCtx wctx;
  wctx.worker = static_cast<int>(memsim::kFaultStreamServe);
  wctx.cpu_socket = options_.cache.socket;
  wctx.active_threads = 1;
  wctx.clock = &clocks_.clock(0);
  while (true) {
    std::vector<Pending> batch;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (queue_.empty()) return;
      const size_t take = options_.batched
                              ? std::min(options_.max_batch, queue_.size())
                              : size_t{1};
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ServeBatch(&wctx, &batch);
  }
}

void EmbeddingServer::RefreshRows(const std::vector<uint32_t>& keys,
                                  const std::function<void()>& apply) {
  exec::PhaseSpan span(ctx_, "serve.refresh");
  // Exclusive vs the workers' shared locks in ServeBatch: no batch reads the
  // embedding mid-swap, and every batch admitted afterwards sees the fresh
  // rows and the reconciled cache.
  std::unique_lock<std::shared_mutex> lock(refresh_mu_);
  if (apply) apply();
  memsim::WorkerCtx wctx;
  wctx.worker = static_cast<int>(memsim::kFaultStreamServe);
  wctx.cpu_socket = options_.cache.socket;
  wctx.active_threads = 1;
  wctx.clock = &refresh_clock_;
  const double before = refresh_clock_.seconds();
  cache_->RefreshKeys(&wctx, keys.data(), keys.size());
  refreshes_.fetch_add(1, std::memory_order_relaxed);
  span.AddSimSeconds(refresh_clock_.seconds() - before);
}

void EmbeddingServer::ServeBatch(memsim::WorkerCtx* wctx,
                                 std::vector<Pending>* batch) {
  std::shared_lock<std::shared_mutex> refresh_lock(refresh_mu_);
  const size_t nb = batch->size();
  const size_t d = embedding_.cols();
  const uint32_t n = static_cast<uint32_t>(embedding_.rows());

  // 1. Grouped multi-key fetch: the batch's distinct keys in one coalesced
  // pass through the hot cache (sorted for a deterministic charge order).
  std::vector<uint32_t> keys(nb);
  for (size_t i = 0; i < nb; ++i) keys[i] = (*batch)[i].query.key;
  std::vector<uint32_t> distinct = keys;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  cache_->FetchKeys(wctx, distinct.data(), distinct.size(), options_.batched);

  // 2. Host gather: every request's vector, one contiguous column each.
  linalg::DenseMatrix gathered(d, nb);
  sparse::kernels::GatherRows(embedding_, keys.data(), nb, &gathered);

  // 3. Shared scan: score every node block once per top-k query while the
  // block is cache-resident; per-request mode degenerates to one query.
  std::vector<size_t> topk_members;
  for (size_t i = 0; i < nb; ++i) {
    if ((*batch)[i].query.kind == QueryKind::kTopK) topk_members.push_back(i);
  }
  std::vector<TopK> selectors;
  selectors.reserve(topk_members.size());
  for (size_t i : topk_members) selectors.emplace_back((*batch)[i].query.k);
  if (!topk_members.empty()) {
    std::vector<float> scores(options_.score_block);
    for (uint32_t c0 = 0; c0 < n; c0 += options_.score_block) {
      const uint32_t c1 = std::min(n, c0 + options_.score_block);
      for (size_t t = 0; t < topk_members.size(); ++t) {
        const size_t i = topk_members[t];
        sparse::kernels::ScoreRows(embedding_, gathered.ColData(i), c0, c1,
                                   scores.data());
        TopK& sel = selectors[t];
        const uint32_t self = (*batch)[i].query.key;
        for (uint32_t c = c0; c < c1; ++c) {
          if (c == self) continue;
          sel.Offer(c, scores[c - c0]);
        }
      }
    }
    // One sequential cold-tier scan of the whole embedding, shared by the
    // batch's top-k queries — the per-request baseline pays this per query.
    ctx_.ms()->ChargeAccess(wctx, options_.cache.cold_home,
                            memsim::MemOp::kRead, memsim::Pattern::kSequential,
                            embedding_.bytes(), 1);
    ctx_.ms()->ChargeCompute(wctx, topk_members.size() * size_t{n} * d);
  }

  // 4. Fulfill. Count the batch first: set_value unblocks clients, and a
  // stats snapshot taken after the last client returns must already see it.
  completed_.fetch_add(nb, std::memory_order_relaxed);
  batches_.fetch_add(1, std::memory_order_relaxed);
  size_t topk_cursor = 0;
  for (size_t i = 0; i < nb; ++i) {
    Pending& p = (*batch)[i];
    QueryResult result;
    result.kind = p.query.kind;
    result.key = p.query.key;
    result.batch_size = static_cast<uint32_t>(nb);
    if (p.query.kind == QueryKind::kLookup) {
      const float* col = gathered.ColData(i);
      result.embedding.assign(col, col + d);
    } else {
      result.neighbors = selectors[topk_cursor++].Take();
    }
    p.promise.set_value(std::move(result));
  }
}

EmbeddingServer::Stats EmbeddingServer::GetStats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.refreshes = refreshes_.load(std::memory_order_relaxed);
  s.sim_seconds =
      warm_clock_.seconds() + refresh_clock_.seconds() + clocks_.MaxSeconds();
  s.cache = cache_->GetStats();
  return s;
}

}  // namespace omega::serve
