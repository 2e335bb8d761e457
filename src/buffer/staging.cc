#include "buffer/staging.h"

#include <algorithm>

namespace omega::buffer {

std::pair<size_t, size_t> SliceColumns(size_t cols, size_t n, size_t k) {
  const size_t per = (cols + n - 1) / n;
  const size_t begin = std::min(cols, k * per);
  const size_t end = std::min(cols, begin + per);
  return {begin, end};
}

uint64_t NumColumnPasses(size_t cols, size_t block) {
  return (cols + block - 1) / block;
}

double StageSeconds(memsim::MemorySystem* ms, size_t bytes,
                    memsim::Placement from, memsim::Placement to) {
  if (bytes == 0) return 0.0;
  // The copy pipeline is bounded by the slower of the source read stream and
  // the destination write stream; one background loader thread homed on the
  // destination socket.
  const int socket = std::max(0, to.socket);
  const double read =
      ms->AccessSeconds(from, socket, memsim::MemOp::kRead,
                        memsim::Pattern::kSequential, bytes, 1, 1);
  const double write =
      ms->AccessSeconds(to, socket, memsim::MemOp::kWrite,
                        memsim::Pattern::kSequential, bytes, 1, 1);
  return std::max(read, write);
}

Result<StageFetchResult> StageFetch(memsim::MemorySystem* ms, size_t bytes,
                                    const StageFetchConfig& cfg) {
  StageFetchResult result;
  if (bytes == 0) return result;
  if (!ms->faults_enabled()) {
    result.seconds = StageSeconds(ms, bytes, cfg.from, cfg.to);
    return result;
  }

  const int socket = std::max(0, cfg.to.socket);
  // The destination write side is charged once, against the attempt that
  // actually delivers the data; only the source read stream is fault-prone.
  const double write =
      ms->AccessSeconds(cfg.to, socket, memsim::MemOp::kWrite,
                        memsim::Pattern::kSequential, bytes, 1, 1);

  uint64_t throwaway = 0;
  uint64_t* cursor = cfg.fault_site != nullptr ? cfg.fault_site : &throwaway;
  memsim::SimClock cost;
  const memsim::MemorySystem::RetryOutcome read = ms->RetryAccessSeconds(
      cfg.from, socket, memsim::MemOp::kRead, memsim::Pattern::kSequential,
      bytes, 1, 1, memsim::kFaultStreamAsl, (*cursor)++,
      memsim::FaultRetryPolicy{}, &cost);
  result.retries = static_cast<uint64_t>(read.retries);
  if (read.delivered()) {
    cost.Advance(std::max(read.seconds, write));
  } else if (cfg.allow_degraded) {
    // Stream from the slower semi-external home instead of the failing
    // source.
    ms->faults().CountDegraded();
    result.degraded = true;
    const double fallback_read =
        ms->AccessSeconds({memsim::Tier::kSsd, 0}, socket,
                          memsim::MemOp::kRead, memsim::Pattern::kSequential,
                          bytes, 1, 1);
    cost.Advance(std::max(fallback_read, write));
  } else {
    ms->faults().CountSurfaced();
    return read.Error(cfg.label);
  }
  result.seconds = cost.seconds();
  return result;
}

double FetchSlowdown(const memsim::MemorySystem* ms, memsim::Placement from,
                     memsim::Placement to, int compute_threads) {
  const auto& profiles = ms->cost_model().profiles();
  auto leg = [&](memsim::Placement p, memsim::MemOp op) {
    const memsim::BandwidthCurve& curve =
        profiles.Get(p.tier).Curve(op, memsim::Pattern::kSequential,
                                   memsim::Locality::kLocal);
    const double solo = curve.PerThreadGbps(1);
    const double shared = curve.PerThreadGbps(compute_threads + 1);
    return shared > 0.0 ? solo / shared : 1.0;
  };
  return std::max(1.0, std::max(leg(from, memsim::MemOp::kRead),
                                leg(to, memsim::MemOp::kWrite)));
}

}  // namespace omega::buffer
