#include "memsim/worker_frame.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace omega::memsim {

WorkerFrame::WorkerFrame(const Topology& topology, int workers,
                         Contention contention, uint64_t fault_site)
    : clocks_(static_cast<size_t>(std::max(0, workers))), ctxs_(clocks_.size()) {
  for (int w = 0; w < workers; ++w) {
    WorkerCtx& ctx = ctxs_[w];
    ctx.worker = w;
    ctx.cpu_socket = topology.SocketOfWorker(w, workers);
    ctx.active_threads = contention == Contention::kPool
                             ? workers
                             : topology.ThreadsOnSocket(ctx.cpu_socket, workers);
    ctx.clock = &clocks_[w];
    ctx.fault_site = fault_site;
  }
}

double WorkerFrame::Run(ThreadPool* pool,
                        const std::function<void(size_t, WorkerCtx*)>& fn) {
  std::vector<double> start(size());
  for (size_t w = 0; w < size(); ++w) start[w] = seconds(w);
  if (pool == nullptr) {
    for (size_t w = 0; w < size(); ++w) fn(w, &ctxs_[w]);
  } else {
    const size_t threads = pool->size();
    pool->RunOnAll([&](size_t t) {
      for (size_t w = t; w < size(); w += threads) fn(w, &ctxs_[w]);
    });
  }
  double lap = 0.0;
  for (size_t w = 0; w < size(); ++w) lap = std::max(lap, seconds(w) - start[w]);
  return lap;
}

double WorkerFrame::MaxSeconds() const {
  double mx = 0.0;
  for (const SimClock& c : clocks_) mx = std::max(mx, c.seconds());
  return mx;
}

}  // namespace omega::memsim
