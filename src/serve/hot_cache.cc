#include "serve/hot_cache.h"

#include <algorithm>
#include <utility>

namespace omega::serve {

namespace {

buffer::BufferManager::Options ManagerOptions(const HotCacheOptions& options) {
  buffer::BufferManager::Options mo;
  mo.capacity_bytes = options.capacity_bytes;
  mo.policy = buffer::EvictionPolicy::kHotPinned;
  return mo;
}

}  // namespace

HotCache::Stats HotCache::Stats::operator-(const Stats& other) const {
  Stats d = *this;
  d.hits -= other.hits;
  d.misses -= other.misses;
  d.evictions -= other.evictions;
  d.bypassed -= other.bypassed;
  d.degraded_fetches -= other.degraded_fetches;
  d.refreshed_hot -= other.refreshed_hot;
  d.refresh_invalidated -= other.refresh_invalidated;
  return d;
}

HotCache::HotCache(memsim::MemorySystem* ms, size_t vec_bytes,
                   uint32_t universe, HotCacheOptions options)
    : ms_(ms),
      vec_bytes_(vec_bytes),
      universe_(universe),
      options_(std::move(options)),
      manager_(ms, ManagerOptions(options_)),
      hot_set_(prefetch::TopMStore::Build({}, 0, universe)) {}

void HotCache::WarmHotSet(memsim::WorkerCtx* ctx,
                          std::vector<prefetch::ScoredKey> popularity) {
  const size_t hot_budget = static_cast<size_t>(
      static_cast<double>(options_.capacity_bytes) * options_.hot_fraction);
  const size_t m = vec_bytes_ > 0 ? hot_budget / vec_bytes_ : 0;
  hot_set_ = prefetch::TopMStore::Build(std::move(popularity), m, universe_);

  size_t pinned = 0;
  for (const prefetch::ScoredKey& e : hot_set_.entries()) {
    const buffer::PageKey key{memsim::Tier::kDram, options_.socket, e.key};
    auto handle = manager_.Pin(key, vec_bytes_);
    if (!handle.ok()) break;  // DRAM budget exhausted mid-warm
    manager_.MarkHot(key);
    handle.value().Release();  // hot frames stay resident unpinned
    ++pinned;
  }
  if (pinned > 0 && ctx != nullptr) {
    // One bulk staging pass: stream the hot vectors off the cold tier and
    // write them into their DRAM frames.
    ms_->ChargeAccess(ctx, options_.cold_home, memsim::MemOp::kRead,
                      memsim::Pattern::kSequential, pinned * vec_bytes_, 1);
    ms_->ChargeAccess(ctx, {memsim::Tier::kDram, options_.socket},
                      memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                      pinned * vec_bytes_, 1);
  }
}

void HotCache::ChargeColdRead(memsim::WorkerCtx* ctx, size_t count) {
  const Status st = ms_->ChargeAccessWithRetry(
      ctx, options_.cold_home, memsim::MemOp::kRead, memsim::Pattern::kRandom,
      count * vec_bytes_, count, memsim::FaultRetryPolicy{});
  if (st.ok()) return;
  // Retries exhausted: the final fault is still un-bucketed — serve the
  // group from the local replica and account it as degraded.
  ms_->faults().CountDegraded();
  degraded_fetches_.fetch_add(count, std::memory_order_relaxed);
  ms_->ChargeAccess(ctx, options_.replica_home, memsim::MemOp::kRead,
                    memsim::Pattern::kRandom, count * vec_bytes_, count);
}

bool HotCache::Admit(uint32_t key) {
  auto handle = manager_.Pin(
      buffer::PageKey{memsim::Tier::kDram, options_.socket, key}, vec_bytes_);
  if (!handle.ok()) {
    bypassed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  handle.value().Release();  // resident unpinned: LRU-evictable
  return true;
}

void HotCache::FetchKeys(memsim::WorkerCtx* ctx, const uint32_t* keys,
                         size_t n, bool grouped) {
  const memsim::Placement dram{memsim::Tier::kDram, options_.socket};
  if (!grouped) {
    // Per-request path: every key charges its own access run.
    for (size_t i = 0; i < n; ++i) {
      const uint32_t key = keys[i];
      bool hit = hot_set_.Contains(key);
      if (!hit) {
        auto handle = manager_.Lookup(
            buffer::PageKey{memsim::Tier::kDram, options_.socket, key});
        hit = handle.valid();
        handle.Release();
      }
      if (hit) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        ms_->ChargeAccess(ctx, dram, memsim::MemOp::kRead,
                          memsim::Pattern::kRandom, vec_bytes_, 1);
        continue;
      }
      misses_.fetch_add(1, std::memory_order_relaxed);
      ChargeColdRead(ctx, 1);
      if (Admit(key)) {
        ms_->ChargeAccess(ctx, dram, memsim::MemOp::kWrite,
                          memsim::Pattern::kRandom, vec_bytes_, 1);
      }
    }
    return;
  }

  // Grouped path: classify the whole batch first, then issue one coalesced
  // charge per class (DRAM hits, cold misses, DRAM fills).
  size_t hit_count = 0;
  std::vector<uint32_t> missed;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = keys[i];
    bool hit = hot_set_.Contains(key);
    if (!hit) {
      auto handle = manager_.Lookup(
          buffer::PageKey{memsim::Tier::kDram, options_.socket, key});
      hit = handle.valid();
      handle.Release();
    }
    if (hit) {
      ++hit_count;
    } else {
      missed.push_back(key);
    }
  }
  hits_.fetch_add(hit_count, std::memory_order_relaxed);
  misses_.fetch_add(missed.size(), std::memory_order_relaxed);
  if (hit_count > 0) {
    ms_->ChargeAccess(ctx, dram, memsim::MemOp::kRead, memsim::Pattern::kRandom,
                      hit_count * vec_bytes_, hit_count);
  }
  if (!missed.empty()) {
    ChargeColdRead(ctx, missed.size());
    size_t admitted = 0;
    for (uint32_t key : missed) {
      if (Admit(key)) ++admitted;
    }
    if (admitted > 0) {
      ms_->ChargeAccess(ctx, dram, memsim::MemOp::kWrite,
                        memsim::Pattern::kRandom, admitted * vec_bytes_,
                        admitted);
    }
  }
}

void HotCache::RefreshKeys(memsim::WorkerCtx* ctx, const uint32_t* keys,
                           size_t n) {
  size_t hot_count = 0;
  size_t invalidated = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t key = keys[i];
    if (hot_set_.Contains(key)) {
      ++hot_count;
      continue;
    }
    const buffer::PageKey pk{memsim::Tier::kDram, options_.socket, key};
    auto handle = manager_.Lookup(pk);
    const bool resident = handle.valid();
    handle.Release();
    if (resident && manager_.Evict(pk).ok()) ++invalidated;
  }
  refreshed_hot_.fetch_add(hot_count, std::memory_order_relaxed);
  refresh_invalidated_.fetch_add(invalidated, std::memory_order_relaxed);
  if (hot_count > 0 && ctx != nullptr) {
    // Re-stage the hot vectors in one coalesced pass: stream the fresh rows
    // off the cold tier and rewrite their resident DRAM frames.
    ms_->ChargeAccess(ctx, options_.cold_home, memsim::MemOp::kRead,
                      memsim::Pattern::kRandom, hot_count * vec_bytes_,
                      hot_count);
    ms_->ChargeAccess(ctx, {memsim::Tier::kDram, options_.socket},
                      memsim::MemOp::kWrite, memsim::Pattern::kRandom,
                      hot_count * vec_bytes_, hot_count);
  }
}

HotCache::Stats HotCache::GetStats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.bypassed = bypassed_.load(std::memory_order_relaxed);
  s.degraded_fetches = degraded_fetches_.load(std::memory_order_relaxed);
  s.refreshed_hot = refreshed_hot_.load(std::memory_order_relaxed);
  s.refresh_invalidated = refresh_invalidated_.load(std::memory_order_relaxed);
  s.evictions = manager_.GetStats().evictions;
  s.hot_keys = hot_set_.size();
  return s;
}

}  // namespace omega::serve
