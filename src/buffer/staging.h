// Partition-staging helpers.
//
// SliceColumns and NumColumnPasses are the column-slicing arithmetic that
// stream/asl and sparse/semi_external share. StageFetch is ASL's partition
// load alone: a sequential read from `from` overlapped with a sequential
// write to `to` on one background loader stream. Under fault injection the
// read side goes through memsim's bounded-retry loop
// (MemorySystem::RetryAccessSeconds); StageFetch owns only what happens once
// the retries run out: degrade to the semi-external home, or surface.
//
// FetchSlowdown feeds SimClock::OverlappedSeconds: when an async staging
// fetch shares a device with `compute_threads` compute streams, the Fig. 9
// saturation curves give the fetch a smaller per-stream share than it would
// get running alone; the ratio is how much slower the overlapped fetch
// progresses while compute is active.

#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "memsim/memory_system.h"

namespace omega::buffer {

/// Column range of slice `k` out of `n` over `cols` columns (last slice may
/// be short; slices beyond the columns are empty).
std::pair<size_t, size_t> SliceColumns(size_t cols, size_t n, size_t k);

/// Number of column blocks of width `block` covering `cols` columns.
uint64_t NumColumnPasses(size_t cols, size_t block = 16);

/// Simulated seconds of the healthy staged copy: max of the read stream on
/// `from` and the write stream on `to`, one background loader thread. Charges
/// traffic on both devices.
double StageSeconds(memsim::MemorySystem* ms, size_t bytes,
                    memsim::Placement from, memsim::Placement to);

struct StageFetchConfig {
  memsim::Placement from;
  memsim::Placement to;

  // Fault recovery (consulted only when ms->faults_enabled()). The read
  // retries with FaultRetryPolicy{} on the kFaultStreamAsl stream.
  /// After the retries run out: true streams the slice from its
  /// semi-external home on SSD instead, false surfaces an IOError.
  bool allow_degraded = true;
  /// Caller-owned fault-site cursor; one site is consumed per non-empty fetch.
  /// Null uses a throwaway cursor (only sensible for single-shot callers).
  uint64_t* fault_site = nullptr;
  /// Prefix of the surfaced IOError message, e.g. "ASL: partition load [0, 8)".
  std::string label = "stage fetch";
};

struct StageFetchResult {
  double seconds = 0.0;    ///< pipelined cost of the fetch, faults included
  uint64_t retries = 0;    ///< media/timeout faults recovered by retrying
  bool degraded = false;   ///< served from SSD after the retries ran out
};

/// Fault-aware staged copy of `bytes` from `from` to `to`. Healthy (or
/// fault-injection off) it charges exactly StageSeconds; under faults the
/// read side retries (3 retries, backoff 1e-4 s doubling), then either
/// degrades to the SSD home or surfaces an IOError, preserving the
/// injected == retried + degraded + surfaced accounting identity.
Result<StageFetchResult> StageFetch(memsim::MemorySystem* ms, size_t bytes,
                                    const StageFetchConfig& cfg);

/// How much slower a staging fetch progresses while `compute_threads` compute
/// streams are active on the endpoint devices: the fetch is one of
/// (compute_threads + 1) streams, so each leg slows by
/// PerThreadGbps(1) / PerThreadGbps(compute_threads + 1) on its device; the
/// copy is bounded by its slower leg. Always >= 1.
double FetchSlowdown(const memsim::MemorySystem* ms, memsim::Placement from,
                     memsim::Placement to, int compute_threads);

}  // namespace omega::buffer
