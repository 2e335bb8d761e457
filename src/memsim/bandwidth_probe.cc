#include "memsim/bandwidth_probe.h"

#include "memsim/worker_frame.h"

namespace omega::memsim {

BandwidthSample ProbeBandwidth(MemorySystem* ms, Tier tier, MemOp op, Pattern pat,
                               Locality loc, int threads, size_t bytes_per_thread) {
  // Data lives on socket 0; the CPU socket is chosen so the access has the
  // requested locality.
  const Placement data{tier, 0};
  const int cpu_socket = (loc == Locality::kLocal) ? 0 : 1;

  // For random traffic, model 64-byte touches (one cache line per access).
  const size_t access_granularity = (pat == Pattern::kRandom) ? 64 : bytes_per_thread;
  const size_t accesses = bytes_per_thread / access_granularity;

  // Every worker contends with the whole pool, but all of them run on
  // `cpu_socket` rather than on their layout socket.
  WorkerFrame frame(ms->topology(), threads);
  const double seconds = frame.Run(nullptr, [&](size_t, WorkerCtx* ctx) {
    ctx->cpu_socket = cpu_socket;
    ms->ChargeAccess(ctx, data, op, pat, bytes_per_thread, accesses);
  });
  BandwidthSample sample;
  sample.tier = tier;
  sample.op = op;
  sample.pattern = pat;
  sample.locality = loc;
  sample.threads = threads;
  sample.gbps =
      seconds > 0.0
          ? static_cast<double>(bytes_per_thread) * threads / (seconds * 1e9)
          : 0.0;
  return sample;
}

std::vector<BandwidthSample> ProbeTier(MemorySystem* ms, Tier tier,
                                       const std::vector<int>& thread_counts,
                                       size_t bytes_per_thread) {
  std::vector<BandwidthSample> out;
  for (MemOp op : {MemOp::kRead, MemOp::kWrite}) {
    for (Pattern pat : {Pattern::kSequential, Pattern::kRandom}) {
      for (Locality loc : {Locality::kLocal, Locality::kRemote}) {
        for (int t : thread_counts) {
          out.push_back(ProbeBandwidth(ms, tier, op, pat, loc, t, bytes_per_thread));
        }
      }
    }
  }
  return out;
}

}  // namespace omega::memsim
