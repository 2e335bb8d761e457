// MemorySystem: the central heterogeneous-memory simulator object.
//
// It combines the machine topology, calibrated device profiles, per-tier
// capacity accounting, and traffic statistics. Kernels execute their real
// computation on host memory and *charge* the traffic they would have
// generated on the simulated machine; MemorySystem converts each charge into
// simulated seconds on the worker's SimClock and tallies global counters
// (the simulated equivalent of the paper's VTune local/remote profiling).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "memsim/cost_model.h"
#include "memsim/fault.h"
#include "memsim/sim_clock.h"
#include "memsim/topology.h"

namespace omega::memsim {

/// Where a buffer lives on the simulated machine.
///
/// socket == kInterleaved models the OS "Interleaved" NUMA policy the paper
/// uses as the no-NaDP baseline (§III-D): pages round-robin across sockets,
/// so capacity is drawn evenly from all sockets and every access stream is
/// half local / half remote on a two-socket machine.
struct Placement {
  Tier tier = Tier::kDram;
  int socket = 0;

  static constexpr int kInterleaved = -1;

  bool interleaved() const { return socket == kInterleaved; }

  bool operator==(const Placement& other) const {
    return tier == other.tier && socket == other.socket;
  }
};

/// Immutable snapshot of traffic counters, in bytes.
struct TrafficSnapshot {
  /// Indexed by [tier][op][pattern][locality].
  uint64_t bytes[kNumTiers][2][2][2] = {};

  uint64_t TotalBytes() const;
  uint64_t TierBytes(Tier t) const;
  uint64_t LocalityBytes(Locality loc) const;
  /// Fraction of DRAM+PM traffic that was remote; the paper reports >43%
  /// remote without NaDP. Returns 0.0 when no DRAM/PM bytes moved (a phase
  /// that only touched SSD/network, or an empty phase).
  double RemoteFraction() const;

  /// Counter-wise arithmetic: counters are monotonic, so subtracting an
  /// earlier snapshot from a later one yields the traffic of the interval
  /// (this is what PhaseSpan records per phase).
  TrafficSnapshot operator-(const TrafficSnapshot& other) const;
  TrafficSnapshot& operator+=(const TrafficSnapshot& other);
  bool operator==(const TrafficSnapshot& other) const;
};

/// Execution context of one simulated worker thread within a parallel phase.
struct WorkerCtx {
  int worker = 0;          ///< stable worker index within the pool
  int cpu_socket = 0;      ///< socket this worker is bound to
  int active_threads = 1;  ///< number of workers concurrently using memory
  SimClock* clock = nullptr;
  /// Fault-draw cursor: each fault-aware charge through this context consumes
  /// one site in the worker's draw stream. Resets with the context (one
  /// parallel phase), so a fixed seed replays the same faults per phase.
  uint64_t fault_site = 0;
};

/// The simulated heterogeneous-memory machine.
class MemorySystem {
 public:
  MemorySystem(TopologyConfig topo, ProfileSet profiles);

  /// Convenience: default topology + calibrated default profiles.
  static std::unique_ptr<MemorySystem> CreateDefault();

  const Topology& topology() const { return topology_; }
  const CostModel& cost_model() const { return cost_model_; }

  // --- Capacity accounting -------------------------------------------------

  /// Reserves `bytes` on (tier, socket); fails with CapacityExceeded when the
  /// simulated device is full. This is how "cannot run DRAM-only on
  /// billion-scale graphs" manifests.
  Status Reserve(Placement p, size_t bytes);
  void Release(Placement p, size_t bytes);

  /// Bytes reserved on (tier, socket); `socket` must name one of the
  /// topology's sockets (kInterleaved is not a device).
  size_t UsedBytes(Tier tier, int socket) const;
  size_t CapacityBytes(Tier tier) const {
    return topology_.config().TierCapacityPerSocket(tier);
  }
  /// Free bytes on the given device, saturating at 0.
  size_t AvailableBytes(Tier tier, int socket) const;

  // --- Charging ------------------------------------------------------------

  /// Computes simulated seconds for a classified access from `cpu_socket` to
  /// data placed at `p`, updates traffic counters, and returns the cost.
  double AccessSeconds(Placement p, int cpu_socket, MemOp op, Pattern pat,
                       size_t bytes, size_t accesses, int active_threads);

  /// Charges an access run against the worker's clock.
  void ChargeAccess(WorkerCtx* ctx, Placement p, MemOp op, Pattern pat, size_t bytes,
                    size_t accesses = 1);

  /// Charges `ops` multiply-accumulate operations against the worker's clock.
  void ChargeCompute(WorkerCtx* ctx, size_t ops);

  // --- Fault injection -----------------------------------------------------
  //
  // With no plan installed (or plan.enabled == false) every fault-aware API
  // below reduces exactly to its charge-only counterpart: same AccessSeconds
  // calls, same traffic, same clock advances — the disabled-injector path is
  // byte-identical to the seed simulation.

  /// Installs `plan` and zeroes the fault counters.
  void SetFaultPlan(FaultPlan plan) { injector_.SetPlan(plan); }
  const FaultPlan& fault_plan() const { return injector_.plan(); }
  bool faults_enabled() const { return injector_.enabled(); }
  FaultInjector& faults() { return injector_; }

  /// Zeroes the counters and the execute-epoch cursor: called at run start so
  /// two identical runs replay identical draw keys.
  void ResetFaults() {
    injector_.ResetCounters();
    fault_epoch_.store(0, std::memory_order_relaxed);
  }
  FaultCounters Faults() const { return injector_.Counters(); }

  /// Distinct fault-site base for one execute. Per-execute WorkerCtxs start
  /// their fault_site cursor here; without it every execute would replay the
  /// same (stream, site=0) draw. Executes within a run are serial, so the
  /// sequence — and thus every draw key — is deterministic per run.
  uint64_t NextFaultEpoch() {
    return fault_epoch_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Outcome of one fault-aware access attempt.
  struct FaultDraw {
    FaultKind kind = FaultKind::kNone;
    /// Simulated seconds the attempt cost. kNone: the plain access cost.
    /// kTransientStall: access cost plus the stall penalty (data moved; the
    /// stall is already counted as retried). kMediaError: the wasted attempt
    /// (traffic charged, no data). kTimeout: the timeout wait (no traffic).
    double seconds = 0.0;
  };

  /// Analytic fault-aware access: samples the plan at (stream, site, attempt)
  /// and returns the attempt's cost. The caller owns recovery of media errors
  /// and timeouts (and their retried/degraded/surfaced bucketing).
  FaultDraw TryAccessSeconds(Placement p, int cpu_socket, MemOp op, Pattern pat,
                             size_t bytes, size_t accesses, int active_threads,
                             uint64_t stream, uint64_t site, uint32_t attempt);

  /// Outcome of RetryAccessSeconds.
  struct RetryOutcome {
    /// Cost of the attempt that delivered, left for the caller to charge
    /// (StageFetch charges max(read, write)); 0 when the retries ran out.
    double seconds = 0.0;
    /// Faulted attempts that were retried (each counted as retried).
    int retries = 0;
    /// The media error or timeout that exhausted the retries, un-bucketed:
    /// the caller records it as degraded or surfaced. kNone when delivered.
    FaultKind exhausted = FaultKind::kNone;

    bool delivered() const { return exhausted == FaultKind::kNone; }
    /// IOError "<what> failed after <retries> retries: <fault>".
    Status Error(const std::string& what) const;
  };

  /// The bounded-retry loop every fault-recovery site shares: attempts
  /// 0..policy.max_retries of TryAccessSeconds at one (stream, site). Each
  /// faulted attempt's seconds go into `clock`, then, if it will be retried,
  /// its backoff wait (counted as fault penalty; the wait grows by
  /// backoff_multiplier per retry). Stalls self-recover inside the draw.
  RetryOutcome RetryAccessSeconds(Placement p, int cpu_socket, MemOp op,
                                  Pattern pat, size_t bytes, size_t accesses,
                                  int active_threads, uint64_t stream,
                                  uint64_t site, const FaultRetryPolicy& policy,
                                  SimClock* clock);

  /// RetryAccessSeconds on the worker's stream and next fault site, with the
  /// delivering attempt charged to the worker's clock as well. An exhausted
  /// access returns an IOError and leaves its final fault un-bucketed.
  Status ChargeAccessWithRetry(WorkerCtx* ctx, Placement p, MemOp op,
                               Pattern pat, size_t bytes, size_t accesses,
                               const FaultRetryPolicy& policy);

  /// Tail-stall hook for deep charge loops with no recovery story (the NaDP
  /// gather path): one stall-only draw per call; on a hit the worker's clock
  /// absorbs plan.tail_stall_fraction * base_seconds. No-op when disabled.
  void ChargeTailStall(WorkerCtx* ctx, Tier tier, double base_seconds);

  // --- Durability ----------------------------------------------------------

  /// Cost of one persist barrier against `tier`: the tier's local access
  /// latency plus the profile's persist_barrier_ns ordering cost. Increments
  /// the barrier counter (the durable log's flush/ordering traffic).
  double PersistBarrierSeconds(Tier tier);

  /// Charges one persist barrier to the worker's clock.
  void ChargePersistBarrier(WorkerCtx* ctx, Tier tier);

  /// Persist barriers charged since the last ResetTraffic.
  uint64_t PersistBarriers() const {
    return persist_barriers_.load(std::memory_order_relaxed);
  }

  // --- Statistics ----------------------------------------------------------

  void ResetTraffic();
  TrafficSnapshot Traffic() const;

 private:
  Topology topology_;
  CostModel cost_model_;
  FaultInjector injector_;
  std::atomic<uint64_t> fault_epoch_{0};

  mutable std::mutex capacity_mu_;
  // used_[tier][socket]
  std::vector<std::array<size_t, kNumTiers>> used_by_socket_;

  // traffic_[tier][op][pattern][locality]
  std::atomic<uint64_t> traffic_[kNumTiers][2][2][2] = {};
  std::atomic<uint64_t> persist_barriers_{0};
};

}  // namespace omega::memsim
