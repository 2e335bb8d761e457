// The simulated-worker frame of one parallel charge phase.
//
// NaDP (§III-D) binds worker blocks to sockets and prices a parallel phase by
// its straggler. WorkerFrame is that binding, written once: one SimClock and
// one WorkerCtx per worker, laid out on the sockets by Topology, run on a
// pool, and reduced to the straggler's seconds.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "memsim/memory_system.h"

namespace omega {
class ThreadPool;
}  // namespace omega

namespace omega::memsim {

/// Which workers a frame's charges contend with for device bandwidth.
enum class Contention {
  kPool,    ///< the whole pool (Interleaved placement, the CSR baselines)
  kSocket,  ///< the worker's socket group only (NaDP's socket-bound groups)
};

class WorkerFrame {
 public:
  /// `workers` workers bound to sockets by Topology::SocketOfWorker. Every
  /// WorkerCtx starts its fault-draw cursor at `fault_site`: an execute that
  /// issues fault-aware charges passes MemorySystem::NextFaultEpoch() so no
  /// two executes replay the same draw keys.
  WorkerFrame(const Topology& topology, int workers,
              Contention contention = Contention::kPool,
              uint64_t fault_site = 0);

  WorkerFrame(const WorkerFrame&) = delete;  // contexts point at the clocks
  WorkerFrame& operator=(const WorkerFrame&) = delete;

  size_t size() const { return clocks_.size(); }
  WorkerCtx* ctx(size_t worker) { return &ctxs_[worker]; }
  SimClock& clock(size_t worker) { return clocks_[worker]; }
  double seconds(size_t worker) const { return clocks_[worker].seconds(); }

  /// Runs fn(worker, ctx) once per worker, worker w on pool thread w modulo
  /// the pool's size, so a pool smaller than the frame runs workers in turn
  /// and a larger one leaves threads idle. A null pool runs the workers in
  /// order on the calling thread. Each worker charges only its own clock, so
  /// the seconds do not depend on the pool. Returns the lap's straggler: the
  /// largest clock advance any worker made during this call.
  double Run(ThreadPool* pool,
             const std::function<void(size_t, WorkerCtx*)>& fn);

  /// The phase's simulated duration: the slowest worker's clock.
  double MaxSeconds() const;

 private:
  std::vector<SimClock> clocks_;
  std::vector<WorkerCtx> ctxs_;
};

}  // namespace omega::memsim
