// WoFP-style hot/cold embedding-vector cache for the serving layer.
//
// Trained embeddings live on a cold capacity tier (PM, SSD, or a remote
// store); the serving hot path keeps a DRAM budget of per-key vector frames
// in a BufferManager and charges every key fetch against the simulated
// machine. The budget splits WoFP-style (§III-C):
//
//   hot region  — hot_fraction of the budget, filled once by WarmHotSet with
//                 the top-m keys of a popularity ranking (TopMStore selection,
//                 ties toward smaller key) and pinned via kHotPinned: the hot
//                 set stays resident whatever the tail churns.
//   LRU region  — the remainder admits cold-miss keys on demand and rotates
//                 them least-recently-used; when everything resident is hot
//                 (or the budget is exhausted by pins) an admission is
//                 bypassed rather than blocking.
//
// Charging: a hit costs one DRAM random read of the vector; a miss costs a
// fault-aware cold read (bounded retry, then a degraded re-read from the
// local replica tier, preserving injected == retried + degraded + surfaced)
// plus a DRAM fill write when admitted. Grouped mode coalesces a batch's
// fetches into one charge per class — the batched multi-key fetch the
// scheduler exists to produce. Host bytes are never cached here: kernels read
// the host embedding matrix directly, so cache state affects simulated cost
// and counters, never results.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "memsim/fault.h"
#include "memsim/memory_system.h"
#include "prefetch/topm_store.h"

namespace omega::serve {

struct HotCacheOptions {
  /// DRAM byte budget across the hot and LRU regions.
  size_t capacity_bytes = 1 << 20;
  /// Share of the budget reserved for the pinned hot set (0 = pure LRU,
  /// 1 = pure hot-pinned).
  double hot_fraction = 0.5;
  /// Socket the cache (and the serving workers) live on.
  int socket = 0;
  /// Where cold vectors are read from on a miss.
  memsim::Placement cold_home{memsim::Tier::kPm, 0};
  /// Local replica served when a cold read exhausts its retries (the
  /// degraded path; must be a tier the fault plan leaves healthy).
  memsim::Placement replica_home{memsim::Tier::kSsd, 0};
};

class HotCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;         ///< LRU frames dropped for admissions
    uint64_t bypassed = 0;          ///< misses not admitted (budget pinned)
    uint64_t degraded_fetches = 0;  ///< cold reads served by the replica
    uint64_t refreshed_hot = 0;       ///< hot keys re-staged in place
    uint64_t refresh_invalidated = 0; ///< LRU-resident keys evicted as stale
    size_t hot_keys = 0;            ///< size of the pinned hot set

    double HitRate() const {
      const uint64_t total = hits + misses;
      return total > 0 ? static_cast<double>(hits) / total : 0.0;
    }

    /// Interval delta of the monotone counters; hot_keys keeps this side's.
    Stats operator-(const Stats& other) const;
  };

  /// `vec_bytes` is the simulated size of one key's vector; `universe` the
  /// key id space (embedding rows).
  HotCache(memsim::MemorySystem* ms, size_t vec_bytes, uint32_t universe,
           HotCacheOptions options);

  /// Selects the top-m keys of `popularity` (m = hot budget / vec_bytes) and
  /// pins them resident, charging the fill (sequential cold read + DRAM
  /// write) against `ctx`. Replaces any previous hot set selection is
  /// idempotent per construction; call once before serving.
  void WarmHotSet(memsim::WorkerCtx* ctx,
                  std::vector<prefetch::ScoredKey> popularity);

  /// Charges fetching `n` keys through the cache (see file comment).
  /// `grouped` coalesces the batch into one charge per class.
  void FetchKeys(memsim::WorkerCtx* ctx, const uint32_t* keys, size_t n,
                 bool grouped);

  /// Reconciles the cache after the caller rewrote the vectors of `keys` in
  /// the backing embedding: hot keys are re-staged in place (one coalesced
  /// cold read + DRAM rewrite — they stay pinned and keep serving hits), and
  /// LRU-resident keys are evicted so the next fetch misses to the fresh
  /// vector. Keys resident nowhere cost nothing.
  void RefreshKeys(memsim::WorkerCtx* ctx, const uint32_t* keys, size_t n);

  bool IsHot(uint32_t key) const { return hot_set_.Contains(key); }
  size_t vec_bytes() const { return vec_bytes_; }
  const HotCacheOptions& options() const { return options_; }
  Stats GetStats() const;

 private:
  /// Charges one cold group read (bounded retry, degraded replica fallback).
  void ChargeColdRead(memsim::WorkerCtx* ctx, size_t count);
  /// Admits one missed key into the LRU region; true when admitted.
  bool Admit(uint32_t key);

  memsim::MemorySystem* ms_;
  size_t vec_bytes_;
  uint32_t universe_;
  HotCacheOptions options_;
  buffer::BufferManager manager_;
  prefetch::TopMStore hot_set_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> bypassed_{0};
  std::atomic<uint64_t> degraded_fetches_{0};
  std::atomic<uint64_t> refreshed_hot_{0};
  std::atomic<uint64_t> refresh_invalidated_{0};
};

}  // namespace omega::serve
