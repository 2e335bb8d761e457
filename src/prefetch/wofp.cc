#include "prefetch/wofp.h"

#include <algorithm>

namespace omega::prefetch {

const char* PrefetcherTypeName(PrefetcherType type) {
  return type == PrefetcherType::kFrequencyBased ? "frequency" : "degree";
}

PrefetcherType SelectPrefetcherType(const sched::Workload& w, uint32_t num_nodes,
                                    double eta) {
  if (w.num_rows == 0) return PrefetcherType::kDegreeBased;
  const double avg_nnz_per_row =
      static_cast<double>(w.nnz) / static_cast<double>(w.num_rows);
  return avg_nnz_per_row >= static_cast<double>(num_nodes) * eta
             ? PrefetcherType::kFrequencyBased
             : PrefetcherType::kDegreeBased;
}

std::unique_ptr<WofpPrefetcher> WofpPrefetcher::Build(
    const graph::CsdbMatrix& a, const sched::Workload& w,
    const std::vector<uint32_t>& in_degrees, const WofpOptions& options,
    memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
    buffer::BufferManager* frames) {
  auto prefetcher = std::unique_ptr<WofpPrefetcher>(new WofpPrefetcher());
  prefetcher->ms_ = ms;
  prefetcher->placement_ = options.cache_placement;
  if (frames == nullptr) {
    // No shared pool: own a private one so the store still allocates through
    // the BufferManager (device-capacity bound, η-rule hot set).
    prefetcher->own_frames_ = std::make_unique<buffer::BufferManager>(
        ms, buffer::BufferManager::Options{0, buffer::EvictionPolicy::kHotPinned});
    frames = prefetcher->own_frames_.get();
  }
  prefetcher->frames_ = frames;
  prefetcher->type_ = SelectPrefetcherType(w, a.num_cols(), options.eta);
  prefetcher->workload_nnz_ = w.nnz;

  std::vector<ScoredKey> candidates;
  const auto& cols = a.col_list();
  // M = W_i * sigma (capacity reserved below; build the structures first).
  const size_t target_m =
      static_cast<size_t>(static_cast<double>(w.nnz) * options.sigma);
  if (prefetcher->type_ == PrefetcherType::kFrequencyBased) {
    // Dynamic column-frequency counting over the workload — the stream the
    // paper's back-end thread maintains with top-M eviction/insertion.
    // A row range's entries are one contiguous span of the column list.
    StreamingTopM tracker(target_m, a.num_cols());
    for (const sched::RowRange& range : w.ranges) {
      if (range.size() == 0) continue;
      tracker.Observe(cols.data() + a.Rows(range.begin).ptr(),
                      cols.data() + a.Rows(range.end).ptr());
    }
    const TopMStore observed = tracker.Finalize(a.num_cols());
    candidates.assign(observed.entries().begin(), observed.entries().end());
  } else {
    // Static global in-degree ranking (the paper: "statically utilizes the
    // descending in-degree of the vertex to populate the prefetcher").
    // Cheaper to build — no workload scan — but slots can go to rows the
    // workload never touches.
    candidates.reserve(in_degrees.size());
    for (graph::NodeId c = 0; c < in_degrees.size(); ++c) {
      if (in_degrees[c] > 0) candidates.push_back(ScoredKey{c, in_degrees[c]});
    }
  }

  // M = W_i * sigma, halved until the DRAM frame fits.
  size_t m = static_cast<size_t>(static_cast<double>(w.nnz) * options.sigma);
  m = std::min(m, candidates.size());
  while (m > 0) {
    const size_t bytes = m * 16;
    auto pin = frames->Pin(
        frames->UniqueKey(prefetcher->placement_.tier,
                          prefetcher->placement_.socket),
        bytes);
    if (pin.ok()) {
      prefetcher->slot_ = std::move(pin).value();
      // η rule: the top-m resident set is hot — never evicted under pool
      // pressure from other consumers.
      frames->MarkHot(prefetcher->slot_.key());
      break;
    }
    m /= 2;
  }
  prefetcher->store_ = TopMStore::Build(std::move(candidates), m, a.num_cols());

  if (options.charge_build && ctx != nullptr) {
    prefetcher->ReplayBuildCharges(ctx);
  }
  return prefetcher;
}

void WofpPrefetcher::ReplayBuildCharges(memsim::WorkerCtx* ctx) const {
  const memsim::Placement sparse_home{memsim::Tier::kPm, placement_.socket};
  if (type_ == PrefetcherType::kFrequencyBased) {
    // Frequency counting scans the workload's column list and maintains a
    // per-key counter in a hash structure — one bucket touch per element.
    // The back-end thread overlaps it with compute, but the memory traffic
    // still contends with the SpMM (this is the eta > 0 trade-off of
    // Fig. 19b).
    ms_->ChargeAccess(ctx, sparse_home, memsim::MemOp::kRead,
                      memsim::Pattern::kSequential,
                      workload_nnz_ * sizeof(graph::NodeId), 1);
    ms_->ChargeAccess(ctx, placement_, memsim::MemOp::kWrite,
                      memsim::Pattern::kRandom, workload_nnz_ * 64, workload_nnz_);
  }
  // Write the selected entries into the DRAM store, fetching each cached
  // dense value from PM once (the actual prefetch).
  ms_->ChargeAccess(ctx, placement_, memsim::MemOp::kWrite,
                    memsim::Pattern::kRandom, store_.SimBytes(), store_.size());
  ms_->ChargeAccess(ctx, sparse_home, memsim::MemOp::kRead,
                    memsim::Pattern::kRandom, store_.size() * 64, store_.size());
}

uint64_t WofpPrefetcher::BytesPerHit() const {
  // Interpolate from ~cache-resident (16B: key + value probe) to full DRAM
  // lines plus hash overhead (96B) as the store outgrows the CPU caches.
  constexpr uint64_t kCacheResidentBytes = 16;
  constexpr uint64_t kDramBytes = 96;
  constexpr double kCpuCacheBytes = 512.0 * 1024;
  const double f = std::min(1.0, static_cast<double>(store_.SimBytes()) /
                                     kCpuCacheBytes);
  return kCacheResidentBytes +
         static_cast<uint64_t>(f * (kDramBytes - kCacheResidentBytes));
}

WofpPrefetcher::~WofpPrefetcher() {
  if (slot_.valid()) {
    // The store dies with the prefetcher: unpin and drop the frame so the
    // capacity returns to the pool (and the simulated device) immediately.
    const buffer::PageKey key = slot_.key();
    slot_.Release();
    if (frames_ != nullptr) frames_->Evict(key);
  }
}

CacheProbeResult ProbeCacheTier(memsim::MemorySystem* ms,
                                memsim::Placement cache_placement,
                                uint64_t* site) {
  CacheProbeResult result;
  if (!ms->faults_enabled()) return result;

  // A short burst of cache-line-sized random reads — representative of the
  // gather-intercept hits the prefetcher will serve — with two immediate
  // retries (no backoff).
  constexpr size_t kProbeBytes = 4096;
  constexpr size_t kProbeAccesses = 64;
  constexpr memsim::FaultRetryPolicy kProbeRetry{2, 0.0};
  memsim::SimClock clock;
  const memsim::MemorySystem::RetryOutcome probe = ms->RetryAccessSeconds(
      cache_placement, std::max(0, cache_placement.socket),
      memsim::MemOp::kRead, memsim::Pattern::kRandom, kProbeBytes,
      kProbeAccesses, 1, memsim::kFaultStreamWofpProbe, (*site)++, kProbeRetry,
      &clock);
  if (probe.delivered()) {
    clock.Advance(probe.seconds);
  } else {
    // The tier keeps faulting: report unhealthy so the caller degrades to
    // PM-resident gathers without the cache.
    ms->faults().CountDegraded();
    result.healthy = false;
  }
  result.seconds = clock.seconds();
  return result;
}

}  // namespace omega::prefetch
