#include "durable/shared_log.h"

#include <algorithm>

#include "common/rng.h"

namespace omega::durable {

ReplicatedLog::ReplicatedLog(memsim::MemorySystem* ms,
                             SharedLogOptions options)
    : ms_(ms), options_(options) {}

Result<ReplicatedLog::AppendResult> ReplicatedLog::Append(int machine,
                                                          uint64_t bytes) {
  AppendResult result;
  result.position = sequencer_.Next();

  // Replicas are written in parallel; the append completes when the slowest
  // chain does. Draw sites are derived from the position, so a fixed seed
  // replays the same fault per (position, replica, attempt) regardless of
  // which thread performed the append.
  int failed_finals = 0;
  for (int replica = 0; replica < options_.replicas; ++replica) {
    const uint64_t site =
        result.position * static_cast<uint64_t>(options_.replicas) + replica;
    memsim::SimClock chain;
    const memsim::MemorySystem::RetryOutcome w = ms_->RetryAccessSeconds(
        options_.placement, /*cpu_socket=*/0, memsim::MemOp::kWrite,
        memsim::Pattern::kSequential, bytes, /*accesses=*/1, options_.threads,
        memsim::kFaultStreamSharedLog, site, memsim::FaultRetryPolicy{},
        &chain);
    if (w.delivered()) {
      chain.Advance(w.seconds);
      ++result.acks;
    } else {
      ++failed_finals;  // left for the quorum decision below
    }
    result.seconds = std::max(result.seconds, chain.seconds());
  }

  // The position is consumed either way (a CORFU hole); record it so replay
  // stays position-indexed even across a failed append.
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (records_.size() <= result.position) {
      records_.resize(result.position + 1);
    }
    records_[result.position] = LogRecord{result.position, machine, bytes};
  }

  if (result.acks >= options_.ResolvedQuorum()) {
    // Lost replicas while the quorum holds: the log degrades to fewer
    // copies, the append still succeeds.
    if (failed_finals > 0) ms_->faults().CountDegraded(failed_finals);
    return result;
  }
  ms_->faults().CountSurfaced(failed_finals);
  return Status::IOError(
      "shared log quorum lost at position " +
      std::to_string(result.position) + ": " + std::to_string(result.acks) +
      "/" + std::to_string(options_.ResolvedQuorum()) + " acks");
}

ReplicatedLog::ReplayResult ReplicatedLog::Replay(int machine, uint64_t upto) {
  ReplayResult result;
  uint64_t replay_bytes = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Cursor& cursor = cursors_[machine];
    const uint64_t end = std::min<uint64_t>(upto, records_.size());
    result.skipped = std::min(end, cursor.watermark);
    for (uint64_t p = cursor.watermark; p < end; ++p) {
      const LogRecord& record = records_[p];
      cursor.digest = SplitMix64(cursor.digest ^ (record.position + 1));
      cursor.digest =
          SplitMix64(cursor.digest ^ static_cast<uint64_t>(record.machine));
      replay_bytes += record.bytes;
      ++result.applied;
    }
    cursor.watermark = std::max(cursor.watermark, end);
  }
  if (result.applied > 0) {
    result.seconds = ms_->AccessSeconds(
        options_.placement, /*cpu_socket=*/0, memsim::MemOp::kRead,
        memsim::Pattern::kSequential, replay_bytes, result.applied,
        options_.threads);
  }
  return result;
}

void ReplicatedLog::AdvanceCheckpoint(int machine, uint64_t upto) {
  std::lock_guard<std::mutex> lock(mu_);
  Cursor& cursor = cursors_[machine];
  const uint64_t end = std::min<uint64_t>(upto, records_.size());
  for (uint64_t p = cursor.watermark; p < end; ++p) {
    const LogRecord& record = records_[p];
    cursor.digest = SplitMix64(cursor.digest ^ (record.position + 1));
    cursor.digest =
        SplitMix64(cursor.digest ^ static_cast<uint64_t>(record.machine));
  }
  cursor.watermark = std::max(cursor.watermark, end);
}

uint64_t ReplicatedLog::Digest(int machine) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cursors_.find(machine);
  return it == cursors_.end() ? 0 : it->second.digest;
}

uint64_t ReplicatedLog::Watermark(int machine) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cursors_.find(machine);
  return it == cursors_.end() ? 0 : it->second.watermark;
}

std::vector<LogRecord> ReplicatedLog::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<int> DeterministicSchedule(uint64_t seed, int machines,
                                       int batches_per_machine) {
  std::vector<int> slots;
  slots.reserve(static_cast<size_t>(machines) * batches_per_machine);
  for (int m = 0; m < machines; ++m) {
    for (int b = 0; b < batches_per_machine; ++b) slots.push_back(m);
  }
  uint64_t h = seed;
  for (size_t i = slots.size(); i > 1; --i) {
    h = SplitMix64(h ^ i);
    std::swap(slots[i - 1], slots[h % i]);
  }
  return slots;
}

}  // namespace omega::durable
