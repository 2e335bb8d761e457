// ASL — Asynchronous Adaptive Streaming Loading (§III-E, Fig. 11).
//
// The dense matrices of the embedding pipeline exceed DRAM, so they are kept
// on PM and streamed into DRAM in column partitions. ASL sizes the partition
// count n from the peak-memory model
//   M_l + M_al + M_s + M_r + M_ri + M_li <= M_total              (Eq. 8)
// which with M_l = M_al = M_li = (d/n)|V|s and M_r = M_ri = d|V|s solves to
//   n >= 3 d |V| s / (M_total - M_s - 2 d |V| s)                 (Eq. 9)
// and overlaps each partition's PM->DRAM load with the previous partition's
// compute (double buffering): the pipeline's simulated duration is
//   load_0 + sum_k max(compute_k, load_{k+1}) + compute_{n-1}.

#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/status.h"
#include "memsim/memory_system.h"
#include "omega/exec_context.h"

namespace omega::stream {

/// Inputs of the Eq. 8/9 sizing model.
struct AslConfig {
  size_t dense_rows = 0;     ///< |V|
  size_t dense_cols = 0;     ///< d (embedding dimension)
  size_t element_bytes = 4;  ///< size(type)
  size_t sparse_bytes = 0;   ///< M_s: CSDB footprint
  size_t dram_budget = 0;    ///< M_total: DRAM available to the pipeline
  /// When > 0, Run() uses this partition count directly instead of solving
  /// Eq. 9 — the plan layer caches the solve per (rows, cols) so repeated
  /// passes skip it. Must come from OptimalPartitions for the same inputs;
  /// 0 keeps the per-call solve.
  size_t fixed_partitions = 0;

  // --- Fault recovery (consulted only when ctx.ms()->faults_enabled()) -----
  // Partition loads retry through buffer::StageFetch (3 retries, backoff
  // 1e-4 s doubling, on the kFaultStreamAsl stream).

  /// After the retries are exhausted: true streams the partition from its
  /// semi-external home on SSD instead (degraded but running); false
  /// surfaces the fault as an IOError from Run().
  bool allow_degraded = true;
  /// Optional caller-owned fault-site cursor so repeated passes draw fresh
  /// sites (the engine persists one across its SpMM calls). With a null
  /// cursor the streamer uses a per-instance cursor.
  uint64_t* fault_site = nullptr;

  // --- Async staging (opt-in; default off keeps the seed charge model) -----

  /// When true, Run() additionally reports `overlapped_seconds`: the
  /// pipelined duration with each partition's fetch charged concurrently
  /// against the previous partition's compute via
  /// SimClock::OverlappedSeconds, at `fetch_slowdown` (the Fig. 9
  /// bandwidth-sharing penalty of the fetch stream). Fault-recovered loads
  /// are never overlapped: they fall back to the synchronous retry/degrade
  /// path and their full cost stays exposed.
  bool async_staging = false;
  /// From buffer::FetchSlowdown for the pm_home -> dram_home copy; 1.0 means
  /// the fetch and compute streams do not contend.
  double fetch_slowdown = 1.0;
};

/// Eq. 9. Fails with CapacityExceeded when even maximal partitioning cannot
/// fit (denominator <= 0). The result is clamped to [1, dense_cols].
Result<size_t> OptimalPartitions(const AslConfig& config);

/// Column range of partition `k` out of `n` over `cols` columns.
std::pair<size_t, size_t> PartitionColumns(size_t cols, size_t n, size_t k);

/// Per-partition record of one streaming pass.
struct AslPartitionTrace {
  size_t col_begin = 0;
  size_t col_end = 0;
  double load_seconds = 0.0;
  double compute_seconds = 0.0;
  /// The load hit the retry or degrade path; its cost stays exposed (never
  /// hidden behind compute) in the async-staging pipeline.
  bool fault_recovered = false;
};

/// Outcome of one streaming pass.
struct AslRunResult {
  double total_seconds = 0.0;        ///< pipelined duration
  double serial_seconds = 0.0;       ///< non-overlapped (sum) duration
  std::vector<AslPartitionTrace> partitions;

  /// Fault recovery of this pass (zero without an enabled fault plan).
  /// load_retries counts media/timeout faults recovered by the retry loop
  /// (stalls self-absorb); degraded_partitions counts partitions served from
  /// the semi-external fallback after retries were exhausted.
  uint64_t load_retries = 0;
  uint64_t degraded_partitions = 0;
  /// Degraded partitions mean the PM home is unreliable: callers caching the
  /// Eq. 9 solve should invalidate it and re-partition on the next pass.
  bool rebuild_recommended = false;

  /// Async-staging accounting (always computed; only consumed by callers
  /// running with AslConfig::async_staging on). overlapped_seconds is the
  /// pipelined duration with fetches charged concurrently at the configured
  /// fetch_slowdown; fetch_seconds is the total solo fetch cost and
  /// hidden_seconds the part of it absorbed behind compute.
  double overlapped_seconds = 0.0;
  double fetch_seconds = 0.0;
  double hidden_seconds = 0.0;

  /// Fraction of load time hidden behind compute.
  double OverlapEfficiency() const {
    return serial_seconds > 0.0 ? 1.0 - total_seconds / serial_seconds : 0.0;
  }
};

/// Double-buffered streaming executor over the simulated machine.
class AslStreamer {
 public:
  /// Streams from `pm_home` to `dram_home`; the loader runs on one simulated
  /// background thread per pass. When the context carries a TraceRecorder,
  /// Run() records an aux "asl.load" phase for the staging traffic (its
  /// pipelined time is contained in the caller's SpMM phase).
  ///
  /// With a BufferManager, Run() pins each partition's DRAM frame through it
  /// (double-buffered: at most two staged frames pinned at once), so the
  /// staging working set shares the pool with every other consumer. Null
  /// keeps the streamer free of capacity bookkeeping (pure charge model).
  AslStreamer(const exec::Context& ctx, AslConfig config, memsim::Placement pm_home,
              memsim::Placement dram_home,
              buffer::BufferManager* frames = nullptr)
      : ctx_(ctx),
        config_(config),
        pm_home_(pm_home),
        dram_home_(dram_home),
        frames_(frames) {}

  /// Simulated seconds to copy one partition PM -> DRAM.
  double LoadSeconds(size_t col_begin, size_t col_end) const;

  /// Runs `compute_fn(partition, col_begin, col_end)` for every partition;
  /// the callback performs the real computation and returns its *simulated*
  /// duration. Loads overlap the previous partition's compute.
  ///
  /// Under an enabled fault plan each partition load retries faulted PM reads
  /// (buffer::StageFetch); a partition that keeps failing degrades to the
  /// semi-external fallback home (or surfaces an IOError when
  /// config.allow_degraded is false). All wasted attempts, backoff waits,
  /// and fallback streams are charged into the load pipeline.
  Result<AslRunResult> Run(
      const std::function<double(size_t, size_t, size_t)>& compute_fn);

 private:
  /// Fault-aware load of one partition; returns its pipelined load seconds
  /// and updates the run's recovery counters.
  Result<double> LoadPartition(size_t col_begin, size_t col_end,
                               AslRunResult* result);

  exec::Context ctx_;
  AslConfig config_;
  memsim::Placement pm_home_;
  memsim::Placement dram_home_;
  buffer::BufferManager* frames_ = nullptr;  ///< optional shared frame pool
  uint64_t local_fault_site_ = 0;  ///< used when config.fault_site is null
};

}  // namespace omega::stream
