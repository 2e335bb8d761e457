// Deterministic fault injection for the simulated memory hierarchy.
//
// The paper's premise is that the capacity tiers are slower AND less reliable
// than DRAM: PM devices exhibit tail stalls and media errors, SSDs wear, and
// remote nodes time out. A FaultPlan gives each (tier, op, pattern) class a
// rate for three typed faults:
//
//   kTransientStall — the access succeeds but costs extra simulated seconds
//                     (device-internal retry / thermal throttle); absorbed at
//                     the charge site, no caller action needed.
//   kMediaError     — the read fails after costing a full wasted attempt;
//                     the caller owns recovery (retry / fall back / surface).
//   kTimeout        — a remote access never answers; the caller waits out
//                     plan.timeout_seconds and recovers (e.g. the local
//                     replica in distributed_sim).
//
// Determinism: every draw is a pure hash of (plan.seed, stream, site,
// attempt) — no global counter, no RNG state — so a fixed seed reproduces the
// exact fault sequence regardless of thread interleaving, and the fault set
// at rate r1 is a subset of the set at r2 > r1 (the same uniform value is
// compared against a larger threshold), which makes simulated time monotone
// in the fault rate. `stream` namespaces independent draw sequences (one per
// consumer), `site` indexes the access within the stream, `attempt` indexes
// retries of the same access.
//
// Accounting identity: every drawn non-none fault lands in exactly one
// recovery bucket — injected == retried + degraded + surfaced + recovered.
// Stalls self-recover and are counted as retried at the draw site; media
// errors and timeouts are bucketed by the recovering caller; machine losses
// (whole simulated machines killed in the durable distributed path) are
// bucketed as recovered once the machine replays the shared log from its
// last checkpoint.

#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "memsim/types.h"

namespace omega::memsim {

enum class FaultKind {
  kNone = 0,
  kTransientStall,
  kMediaError,
  kTimeout,
  /// A whole simulated machine dies mid-run (durable distributed path only;
  /// drawn per (machine, round) via DrawMachineLoss, never by Draw).
  kMachineLoss,
};

/// Number of real (non-kNone) fault kinds.
inline constexpr int kNumFaultKinds = 4;

const char* FaultKindName(FaultKind kind);

/// Per-access-class fault probabilities (each in [0, 1]).
struct FaultRates {
  double stall = 0.0;
  double media = 0.0;
  double timeout = 0.0;

  bool any() const { return stall > 0.0 || media > 0.0 || timeout > 0.0; }
};

/// The seeded fault schedule owned by a MemorySystem. Value type: cheap to
/// copy, comparable runs install identical plans.
struct FaultPlan {
  /// An installed plan injects only when enabled; a zero-rate enabled plan is
  /// legal (draws happen, nothing fires) and must charge identically to a
  /// disabled one.
  bool enabled = false;
  uint64_t seed = 42;

  /// Extra simulated seconds of a transient stall, as a multiple of the
  /// stalled access's own cost.
  double stall_multiplier = 4.0;
  /// Tail-stall penalty of a whole gather phase, as a fraction of the
  /// worker's phase seconds (the deep SpMM path draws one stall per worker
  /// per execute rather than per access).
  double tail_stall_fraction = 0.1;
  /// Simulated seconds a timed-out remote access wastes before the caller
  /// recovers.
  double timeout_seconds = 0.02;

  /// rates[tier][op][pattern]
  FaultRates rates[kNumTiers][2][2];

  /// Probability that a simulated machine dies in one sync round of the
  /// durable distributed path. Drawn per (machine, round) on its own stream
  /// (DrawMachineLoss); paths outside that opt-in never consult it, so plans
  /// carrying a machine-loss rate charge identically everywhere else.
  double machine_loss = 0.0;
  /// Explicit deterministic kill schedule: (machine, round) pairs that die
  /// regardless of machine_loss. Used by the crash tests and bench_recovery
  /// to force a loss at a known round.
  std::vector<std::pair<int, uint64_t>> kills;

  FaultRates& at(Tier t, MemOp op, Pattern pat) {
    return rates[static_cast<int>(t)][static_cast<int>(op)][static_cast<int>(pat)];
  }
  const FaultRates& at(Tier t, MemOp op, Pattern pat) const {
    return rates[static_cast<int>(t)][static_cast<int>(op)][static_cast<int>(pat)];
  }
  /// Sets the same rates for every op/pattern class of a tier.
  void SetTier(Tier t, FaultRates r);
};

/// Named profiles for `--fault-profile=` and the benches. Spec is
/// "name[:seed]": none | pm-stall | pm-degraded | worn-ssd | flaky-net |
/// flaky-pim | chaos, e.g. "pm-degraded:7" — or "@path" to load a custom
/// plan from a profile file (see FaultPlanFromFile).
Result<FaultPlan> FaultPlanFromProfile(const std::string& spec);
const std::vector<std::string>& FaultProfileNames();

/// Parses a fault-plan profile file. Line grammar ('#' starts a comment):
///   seed <n>
///   stall-multiplier <x> | tail-stall-fraction <x> | timeout-seconds <x>
///   machine-loss <rate>
///   kill <machine> <round>
///   rate <tier> <op> <pattern> <kind> <rate>
/// with tier in dram|pm|ssd|net|pim (or *), op in read|write|*, pattern in
/// seq|rand|*, kind in stall|media|timeout. <n>, <machine> and <round> are
/// decimal integers (seed and round below 2^64, machine below 2^31). Unknown
/// names and out-of-range values are rejected with a "<path>:<line>:"
/// prefixed error instead of being silently ignored or truncated.
Result<FaultPlan> FaultPlanFromFile(const std::string& path);

/// Immutable snapshot of the injector's counters. All integers (the penalty
/// accumulates in integer nanoseconds) so snapshots of a fixed seed are
/// byte-identical across runs and thread interleavings.
struct FaultCounters {
  uint64_t stalls = 0;    ///< injected transient stalls
  uint64_t media = 0;     ///< injected media errors
  uint64_t timeouts = 0;  ///< injected timeouts
  uint64_t machine_losses = 0;  ///< injected whole-machine kills
  uint64_t retried = 0;   ///< recovered by retry (stalls count here)
  uint64_t degraded = 0;  ///< recovered by falling back to a slower path
  uint64_t surfaced = 0;  ///< propagated to the caller as a failed run
  uint64_t recovered = 0;  ///< machine losses recovered by log replay
  uint64_t penalty_nanos = 0;  ///< simulated nanoseconds charged to faults

  uint64_t InjectedTotal() const {
    return stalls + media + timeouts + machine_losses;
  }
  /// The accounting identity every run must satisfy.
  bool Accounted() const {
    return InjectedTotal() == retried + degraded + surfaced + recovered;
  }
  double PenaltySeconds() const { return penalty_nanos * 1e-9; }

  FaultCounters operator-(const FaultCounters& other) const;
  bool operator==(const FaultCounters& other) const;
};

/// "injected=5 (stall=2 media=3 timeout=0) retried=4 degraded=1 surfaced=0
/// penalty=1.23e-02s" — stable across runs of the same seed, used by tests
/// and bench_fault_tolerance to compare fault reports byte-for-byte.
std::string FaultCountersSummary(const FaultCounters& c);

/// The plan plus thread-safe counters. Owned by MemorySystem; consumers go
/// through the MemorySystem charge APIs rather than drawing directly.
class FaultInjector {
 public:
  void SetPlan(FaultPlan plan);
  const FaultPlan& plan() const { return plan_; }
  bool enabled() const { return plan_.enabled; }

  void ResetCounters();
  FaultCounters Counters() const;

  /// Draws the fault (if any) of one access attempt and counts it as
  /// injected. Pure in (seed, stream, site, attempt): the same key always
  /// yields the same kind under the same rates.
  FaultKind Draw(Tier t, MemOp op, Pattern pat, uint64_t stream, uint64_t site,
                 uint32_t attempt);

  /// Stall-only draw for charge paths with no recovery story (the deep SpMM
  /// gather loop): media/timeout thresholds are not consulted, so no fault
  /// can fire that the caller cannot absorb. Counts injected + retried.
  bool DrawTailStall(Tier t, MemOp op, Pattern pat, uint64_t stream,
                     uint64_t site);

  /// Draws whether `machine` dies in sync round `round` of the durable
  /// distributed path. Fires for every (machine, round) in plan.kills, and
  /// otherwise with probability plan.machine_loss on its own stream. Counts
  /// injected (machine_losses); the caller buckets the loss as recovered
  /// once the replay completes (or surfaced if it cannot).
  bool DrawMachineLoss(int machine, uint64_t round);

  // Recovery bookkeeping (callers bucket media errors / timeouts).
  void CountRetried(uint64_t n = 1) {
    retried_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountDegraded(uint64_t n = 1) {
    degraded_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountSurfaced(uint64_t n = 1) {
    surfaced_.fetch_add(n, std::memory_order_relaxed);
  }
  void CountRecovered(uint64_t n = 1) {
    recovered_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Simulated seconds attributable to faults (stall penalties, wasted
  /// attempts, timeout waits, retry backoff). Accumulated as integer
  /// nanoseconds so the sum is order-independent.
  void AddPenaltySeconds(double seconds);

 private:
  FaultPlan plan_;
  std::atomic<uint64_t> stalls_{0};
  std::atomic<uint64_t> media_{0};
  std::atomic<uint64_t> timeouts_{0};
  std::atomic<uint64_t> machine_losses_{0};
  std::atomic<uint64_t> retried_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> surfaced_{0};
  std::atomic<uint64_t> recovered_{0};
  std::atomic<uint64_t> penalty_nanos_{0};
};

/// Bounded-retry policy of MemorySystem::RetryAccessSeconds. Each site passes
/// its own constant (DESIGN.md "Fault model and recovery" lists them).
struct FaultRetryPolicy {
  int max_retries = 3;
  double backoff_seconds = 1e-4;  ///< first retry's wait; doubles per retry
  double backoff_multiplier = 2.0;
};

/// Draw-stream ids: each consumer owns one so its fault sequence is
/// independent of what other consumers draw.
inline constexpr uint64_t kFaultStreamAsl = 0xA51;
inline constexpr uint64_t kFaultStreamWofpProbe = 0x30F9;
inline constexpr uint64_t kFaultStreamProneStaging = 0x9201;
inline constexpr uint64_t kFaultStreamOutOfCore = 0x00C5;
inline constexpr uint64_t kFaultStreamDistNet = 0xD157;
/// Serving-layer cold-fetch draws; each server worker offsets by its index.
inline constexpr uint64_t kFaultStreamServe = 0x5E4E;
/// Checkpoint writer/reader IO against the PM tier.
inline constexpr uint64_t kFaultStreamDurable = 0xCC97;
/// Replicated shared-log replica writes over the NET tier.
inline constexpr uint64_t kFaultStreamSharedLog = 0x510C;
/// Machine-loss draws in the durable distributed path (one site per
/// (machine, round)).
inline constexpr uint64_t kFaultStreamMachineLoss = 0xDEAD;
/// Per-worker streams offset by the worker index.
inline constexpr uint64_t kFaultStreamWorkerBase = 0x1000000;
/// PimSpmm's DMA controller: a synthetic worker index far above any real
/// worker, so the gang-DMA transfer draws (ship / broadcast / readback) own
/// the kFaultStreamPim stream through the same worker-stream charge helpers.
inline constexpr int kPimControllerWorker = 0x911400;
inline constexpr uint64_t kFaultStreamPim =
    kFaultStreamWorkerBase + kPimControllerWorker;

}  // namespace omega::memsim
