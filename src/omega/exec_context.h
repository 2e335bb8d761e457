// Execution context + per-phase trace/attribution layer.
//
// Every engine and parallel-kernel entry point used to hand-thread the same
// (MemorySystem*, ThreadPool*, int threads) triple. exec::Context bundles the
// three — plus an optional TraceRecorder sink — so a call chain carries one
// object, and any layer can open a PhaseSpan to attribute the simulated
// seconds and per-tier traffic of the code it brackets.
//
// PhaseSpan is the RAII tracer: construction snapshots the MemorySystem's
// global traffic counters and the wall clock; destruction (or Finish())
// subtracts the snapshots and appends a PhaseRecord{name, sim seconds,
// traffic delta, remote fraction} to the recorder. Simulated seconds cannot
// be observed from a global clock (each phase computes them analytically or
// as a straggler max), so the code inside the span reports them via
// AddSimSeconds().
//
// Span semantics:
//  - Spans may nest; an outer span's traffic delta includes its inner spans'.
//  - `aux` records mark phases whose simulated time is already contained in a
//    sibling/parent phase (e.g. WoFP store construction inside an SpMM);
//    consumers summing phase times to a total must skip them.
//  - Sibling spans that together bracket all charged code partition the
//    global traffic: the sum of their deltas equals the global snapshot.

#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "memsim/memory_system.h"

namespace omega::exec {

/// One attributed phase of a run.
struct PhaseRecord {
  std::string name;
  double sim_seconds = 0.0;   ///< simulated duration reported by the phase
  double wall_seconds = 0.0;  ///< host wall time spent inside the span
  bool aux = false;           ///< time already contained in another phase

  memsim::TrafficSnapshot traffic;  ///< counter delta over the span
  double remote_fraction = 0.0;     ///< RemoteFraction() of the delta
  memsim::FaultCounters faults;     ///< fault-counter delta over the span

  /// Async-staging accounting: total solo staging-fetch seconds issued inside
  /// the phase, and the part hidden behind compute. Zero for phases with no
  /// overlapped staging (every phase when --async-staging is off).
  double fetch_seconds = 0.0;
  double hidden_seconds = 0.0;

  /// Hot-cache accounting: key-fetch hits/misses/evictions inside the phase.
  /// Zero for phases that fetch through no cache (all training phases).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  /// SpMM plan-cache accounting: lookups served from a cached inspector plan,
  /// plans built, and slots dropped by delta invalidation inside the phase.
  uint64_t plan_hits = 0;
  uint64_t plan_misses = 0;
  uint64_t plan_invalidations = 0;

  /// Checkpoint-log accounting: entries and bytes appended to (or scanned
  /// back from) the durable store, and the persist barriers charged. Zero
  /// for phases that touch no checkpoint log (every phase with durability
  /// off).
  uint64_t ckpt_entries = 0;
  uint64_t ckpt_bytes = 0;
  uint64_t persist_barriers = 0;

  uint64_t TierBytes(memsim::Tier t) const { return traffic.TierBytes(t); }
  uint64_t TotalBytes() const { return traffic.TotalBytes(); }
  /// Fraction of the phase's staging-fetch time hidden behind compute.
  double OverlapEfficiency() const {
    return fetch_seconds > 0.0 ? hidden_seconds / fetch_seconds : 0.0;
  }
  /// Hit fraction of the phase's cache fetches; 0 when it made none.
  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total > 0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// Thread-safe append-only sink of PhaseRecords for one run.
class TraceRecorder {
 public:
  void Record(PhaseRecord record);

  /// Moves the accumulated records out, leaving the recorder empty.
  std::vector<PhaseRecord> TakeRecords();

  /// Copy of the records accumulated so far.
  std::vector<PhaseRecord> Records() const;

 private:
  mutable std::mutex mu_;
  std::vector<PhaseRecord> records_;
};

/// Bundled execution plumbing: the simulated machine, the worker pool, the
/// resolved thread count, and the trace sink. Cheap to copy (four pointers).
class Context {
 public:
  /// `threads` <= 0 resolves to the pool's size (or 1 without a pool).
  /// `pool` may be null for call chains that only charge analytic costs.
  Context(memsim::MemorySystem* ms, ThreadPool* pool = nullptr, int threads = 0,
          TraceRecorder* trace = nullptr);

  memsim::MemorySystem* ms() const { return ms_; }
  ThreadPool* pool() const { return pool_; }
  int threads() const { return threads_; }
  TraceRecorder* trace() const { return trace_; }

  /// Same plumbing with a different resolved thread count / trace sink.
  Context WithThreads(int threads) const;
  Context WithTrace(TraceRecorder* trace) const;

 private:
  memsim::MemorySystem* ms_;
  ThreadPool* pool_;
  int threads_;
  TraceRecorder* trace_;
};

/// Scoped phase tracer (see file comment). With a null recorder the span is
/// inert apart from accumulating sim seconds.
class PhaseSpan {
 public:
  PhaseSpan(const Context& ctx, std::string name, bool aux = false);
  ~PhaseSpan();

  PhaseSpan(const PhaseSpan&) = delete;
  PhaseSpan& operator=(const PhaseSpan&) = delete;

  /// Accumulates simulated seconds attributed to this phase.
  void AddSimSeconds(double seconds) { sim_seconds_ += seconds; }
  double sim_seconds() const { return sim_seconds_; }

  /// Accumulates async-staging accounting: `fetch` solo fetch seconds issued
  /// in this phase, of which `hidden` were absorbed behind compute.
  void AddFetchSeconds(double fetch, double hidden) {
    fetch_seconds_ += fetch;
    hidden_seconds_ += hidden;
  }

  /// Accumulates hot-cache accounting for the phase's key fetches.
  void AddCacheCounters(uint64_t hits, uint64_t misses, uint64_t evictions) {
    cache_hits_ += hits;
    cache_misses_ += misses;
    cache_evictions_ += evictions;
  }

  /// Accumulates SpMM plan-cache accounting for the phase's lookups.
  void AddPlanCounters(uint64_t hits, uint64_t misses, uint64_t invalidations) {
    plan_hits_ += hits;
    plan_misses_ += misses;
    plan_invalidations_ += invalidations;
  }

  /// Accumulates checkpoint-log accounting for the phase's appends/scans.
  void AddCkptCounters(uint64_t entries, uint64_t bytes, uint64_t barriers) {
    ckpt_entries_ += entries;
    ckpt_bytes_ += bytes;
    persist_barriers_ += barriers;
  }

  /// Records the phase now (the destructor then does nothing).
  void Finish();

 private:
  const Context ctx_;
  std::string name_;
  bool aux_;
  bool finished_ = false;
  double sim_seconds_ = 0.0;
  double fetch_seconds_ = 0.0;
  double hidden_seconds_ = 0.0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  uint64_t cache_evictions_ = 0;
  uint64_t plan_hits_ = 0;
  uint64_t plan_misses_ = 0;
  uint64_t plan_invalidations_ = 0;
  uint64_t ckpt_entries_ = 0;
  uint64_t ckpt_bytes_ = 0;
  uint64_t persist_barriers_ = 0;
  double wall_start_ = 0.0;
  memsim::TrafficSnapshot traffic_start_;
  memsim::FaultCounters faults_start_;
};

}  // namespace omega::exec
