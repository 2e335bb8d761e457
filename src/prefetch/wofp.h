// WoFP — the Workload Feature-aware Prefetcher (§III-C).
//
// For each workload allocated by EaTA, WoFP pins the most valuable rows of
// the dense operand in DRAM so the SpMM gather stream hits DRAM instead of
// PM. The prefetcher type is chosen per workload by the paper's rule
//     W_i / Rows_i >= |V| * eta  ->  frequency-based (count column-index
//                                    occurrences within the workload),
//     otherwise                  ->  degree-based (use the vertex in-degree
//                                    as a static popularity proxy),
// and its capacity is M = W_i * sigma entries.

#pragma once

#include <memory>
#include <vector>

#include "buffer/buffer_manager.h"
#include "graph/csdb.h"
#include "memsim/memory_system.h"
#include "prefetch/topm_store.h"
#include "sched/workload.h"
#include "sparse/spmm.h"

namespace omega::prefetch {

enum class PrefetcherType { kFrequencyBased, kDegreeBased };

const char* PrefetcherTypeName(PrefetcherType type);

struct WofpOptions {
  /// eta: prefetcher-type selection threshold (Fig. 19b). The workload is
  /// "dense enough" for frequency counting when avg nnz/row >= |V| * eta.
  double eta = 2e-3;
  /// sigma: prefetch capacity fraction, M = W_i * sigma (Fig. 19c).
  double sigma = 0.10;
  /// Where cached entries live (per-socket DRAM under NaDP).
  memsim::Placement cache_placement{memsim::Tier::kDram, 0};
  /// Charge the build scan / store construction to the worker clock.
  bool charge_build = true;
};

/// A built prefetcher for one workload; implements the gather-intercept
/// interface consumed by the SpMM kernels.
class WofpPrefetcher final : public sparse::DenseCacheView {
 public:
  /// Builds the prefetcher for workload `w` of matrix `a`.
  ///
  /// `in_degrees[c]` is the in-degree of column c (for symmetric adjacency
  /// matrices this equals the row degree; see sparse::ComputeInDegrees).
  /// Build cost — the workload scan and the store writes — is charged to
  /// `ctx` when options.charge_build is set. If DRAM cannot hold M entries
  /// the capacity is halved until the reservation fits (possibly 0 entries).
  ///
  /// The store's DRAM frame is pinned through `frames` (marked hot: the η
  /// rule's resident set survives pool churn); with a null `frames` the
  /// prefetcher owns a private single-frame pool, so placement always goes
  /// through a BufferManager.
  static std::unique_ptr<WofpPrefetcher> Build(const graph::CsdbMatrix& a,
                                               const sched::Workload& w,
                                               const std::vector<uint32_t>& in_degrees,
                                               const WofpOptions& options,
                                               memsim::MemorySystem* ms,
                                               memsim::WorkerCtx* ctx,
                                               buffer::BufferManager* frames = nullptr);

  ~WofpPrefetcher() override;

  WofpPrefetcher(const WofpPrefetcher&) = delete;
  WofpPrefetcher& operator=(const WofpPrefetcher&) = delete;

  bool Contains(graph::NodeId col) const override { return store_.Contains(col); }
  memsim::Placement placement() const override { return placement_; }

  /// Re-issues the exact simulated charge sequence of the build — the
  /// frequency scan (when applicable) followed by the store writes and PM
  /// fetches — on `ctx`'s clock. Build() calls this once when charging is
  /// enabled; a reused plan calls it per execute so that the simulated clock
  /// pays the warm-up on every call exactly as per-call planning does, even
  /// though the host-side store is built only once (DESIGN.md's two-clock
  /// contract).
  void ReplayBuildCharges(memsim::WorkerCtx* ctx) const;

  /// Hit cost grows with store size: small stores stay CPU-cache resident,
  /// oversized ones pay full DRAM lines plus hashmap probing.
  uint64_t BytesPerHit() const override;

  PrefetcherType type() const { return type_; }
  const TopMStore& store() const { return store_; }

 private:
  WofpPrefetcher() = default;

  TopMStore store_;
  PrefetcherType type_ = PrefetcherType::kDegreeBased;
  memsim::Placement placement_{memsim::Tier::kDram, 0};
  memsim::MemorySystem* ms_ = nullptr;
  /// Fallback pool when Build() is given no shared one; declared before
  /// slot_ so the pin is released before its manager dies.
  std::unique_ptr<buffer::BufferManager> own_frames_;
  buffer::BufferManager* frames_ = nullptr;  ///< pool holding slot_
  buffer::PinHandle slot_;                   ///< the store's hot DRAM frame
  uint64_t workload_nnz_ = 0;  ///< W_i of the workload built for (for replay)
};

/// Decides the prefetcher type for a workload by the paper's eta rule.
PrefetcherType SelectPrefetcherType(const sched::Workload& w, uint32_t num_nodes,
                                    double eta);

/// Outcome of a fault probe against the prefetcher's cache tier.
struct CacheProbeResult {
  double seconds = 0.0;   ///< simulated cost of the probe incl. retries
  bool healthy = true;    ///< false: the tier kept faulting; drop the cache
};

/// Probes the WoFP cache tier with a short random-read burst before a run
/// uses it, retrying a faulted probe twice (no backoff) on the
/// kFaultStreamWofpProbe stream. Only meaningful under an enabled fault plan
/// (otherwise returns {0, true} with no charge). A probe that keeps faulting
/// marks the tier unhealthy — the engine reacts by dropping the cache and
/// falling back to PM-resident gathers. The drop-causing final fault is
/// counted degraded; recovered probes count retried. `site` is a caller-owned cursor advanced per probe.
CacheProbeResult ProbeCacheTier(memsim::MemorySystem* ms,
                                memsim::Placement cache_placement,
                                uint64_t* site);

}  // namespace omega::prefetch
