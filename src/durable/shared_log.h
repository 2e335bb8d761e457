// zlog/CORFU-style replicated shared log for the distributed simulation.
//
// CORFU's split of concerns: a *sequencer* hands out globally ordered
// positions (a counter, not an IO path), and each position's entry is then
// written to a replica set over the network; an append is durable once a
// quorum of replicas acks. Recovery is reading the log back: a machine that
// lost its state replays every record after its last checkpoint, and because
// positions are totally ordered, replay through a per-machine watermark is
// idempotent — replaying a prefix twice applies it once.
//
// The simulation charges the replica writes (and the replay reads) against
// the NET tier with per-replica fault draws on kFaultStreamSharedLog, so a
// flaky-net plan exercises the real quorum logic: a replica that exhausts
// its retries while the quorum still holds is counted degraded; losing the
// quorum surfaces IOError (and counts each lost replica's final fault as
// surfaced), preserving injected == retried + degraded + surfaced +
// recovered.

#pragma once

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "memsim/memory_system.h"

namespace omega::durable {

/// CORFU's sequencer: a network counter that orders appends without moving
/// data. Gap-free by construction (fetch_add); thread-safe.
class LogSequencer {
 public:
  uint64_t Next() { return next_.fetch_add(1, std::memory_order_relaxed); }
  uint64_t Tail() const { return next_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> next_{0};
};

struct SharedLogOptions {
  int replicas = 3;
  /// Acks required for a durable append; 0 resolves to majority
  /// (replicas / 2 + 1).
  int quorum = 0;
  /// Where replica writes land (the NET tier).
  memsim::Placement placement{memsim::Tier::kNetwork, 0};
  int threads = 1;

  int ResolvedQuorum() const { return quorum > 0 ? quorum : replicas / 2 + 1; }
};

/// One sequenced update batch (metadata only; batch contents are analytic).
struct LogRecord {
  uint64_t position = 0;
  int machine = 0;
  uint64_t bytes = 0;
};

class ReplicatedLog {
 public:
  ReplicatedLog(memsim::MemorySystem* ms, SharedLogOptions options);

  struct AppendResult {
    uint64_t position = 0;
    /// Simulated seconds of the append: replicas write in parallel, so this
    /// is the slowest replica's attempt chain.
    double seconds = 0.0;
    int acks = 0;
  };

  /// Sequences and replicates one machine's update batch. IOError when fewer
  /// than quorum replicas ack after bounded retries; fault bucketing per the
  /// file comment. Thread-safe.
  Result<AppendResult> Append(int machine, uint64_t bytes);

  struct ReplayResult {
    uint64_t applied = 0;  ///< records newly applied by this call
    uint64_t skipped = 0;  ///< records at or below the watermark (no-ops)
    double seconds = 0.0;  ///< charged NET read time of the applied records
  };

  /// Replays all records with position < `upto` into `machine`'s cursor,
  /// skipping anything already applied. Charged as sequential NET reads.
  /// Thread-safe; idempotent (same `upto` twice applies nothing new).
  ReplayResult Replay(int machine, uint64_t upto);

  /// Marks positions < `upto` as incorporated into `machine`'s durable
  /// checkpoint: advances the watermark (and digest) with no simulated
  /// charge — the machine already applied those records during normal sync;
  /// the checkpoint merely persists that state. A subsequent Replay starts
  /// here, so recovery replays only the records since the last checkpoint.
  void AdvanceCheckpoint(int machine, uint64_t upto);

  /// Order-sensitive digest of the records `machine` has applied: equal
  /// digests mean equal applied sequences (the idempotence tests' witness).
  uint64_t Digest(int machine) const;

  /// Next unapplied position of the machine's cursor (0 = nothing applied).
  uint64_t Watermark(int machine) const;

  uint64_t Tail() const { return sequencer_.Tail(); }
  std::vector<LogRecord> Records() const;
  const SharedLogOptions& options() const { return options_; }

 private:
  struct Cursor {
    uint64_t watermark = 0;
    uint64_t digest = 0;
  };

  memsim::MemorySystem* ms_;
  SharedLogOptions options_;
  LogSequencer sequencer_;

  mutable std::mutex mu_;
  std::vector<LogRecord> records_;  ///< indexed by position once filled
  std::unordered_map<int, Cursor> cursors_;
};

/// Deterministic interleaving for the seeded concurrent-append property
/// tests: a SplitMix64-shuffled order of `machines * batches_per_machine`
/// append slots, batch b of machine m appearing exactly once.
std::vector<int> DeterministicSchedule(uint64_t seed, int machines,
                                       int batches_per_machine);

}  // namespace omega::durable
