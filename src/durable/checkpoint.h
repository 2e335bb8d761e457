// Crash-consistent checkpoint store on the simulated PM tier.
//
// The store is an append-only record log living on persistent memory. Real
// PM log writers (pmemlog, FlatStore, the "header dancing" of single-machine
// Optane graph systems) make torn writes detectable by ordering each append
// as payload-first, persist barrier, then a monotonically stamped +
// checksummed header, second barrier. We model exactly that: every Append
// charges the payload and header as PM writes plus two explicit persist
// barriers (MemorySystem::ChargePersistBarrier cost), and the host-side byte
// image carries the real header layout so Scan() can detect a torn or
// corrupted tail and truncate it instead of replaying garbage.
//
// Capacity flows through the PR6 BufferManager: each appended entry pins an
// accounting-only page on the PM tier (hot, never evicted), so a checkpoint
// that outgrows the simulated device surfaces CapacityExceeded like any
// other resident working set.
//
// On top of the raw entry log sits the snapshot layer used by the engine:
// one checkpoint = a meta entry, N matrix entries, and a commit marker that
// names the meta entry's stamp. ReadLastSnapshot walks back to the last
// commit whose whole group survived — a crash mid-checkpoint (torn final
// entry, missing commit) silently falls back to the previous snapshot.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/status.h"
#include "linalg/dense_matrix.h"
#include "memsim/memory_system.h"

namespace omega::durable {

/// Simulated-cost tally of one checkpoint operation (append / scan /
/// snapshot). Callers feed `seconds` to their PhaseSpan and the counters to
/// AddCkptCounters.
struct CkptCosts {
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t barriers = 0;
  double seconds = 0.0;

  CkptCosts& operator+=(const CkptCosts& other) {
    entries += other.entries;
    bytes += other.bytes;
    barriers += other.barriers;
    seconds += other.seconds;
    return *this;
  }
};

/// Entry types of the snapshot layer. The store itself treats types opaquely.
enum class EntryType : uint32_t {
  kMeta = 1,    ///< snapshot header: stage + term + matrix count + words
  kMatrix = 2,  ///< one named DenseMatrix (tag + dims + raw floats)
  kCommit = 3,  ///< commit marker: payload = the group's meta stamp
};

/// One decoded entry of the valid prefix.
struct LogEntry {
  uint64_t stamp = 0;
  uint32_t type = 0;
  std::vector<uint8_t> payload;
};

struct CheckpointOptions {
  /// Where the log lives; the paper's durability story is the PM tier.
  memsim::Placement placement{memsim::Tier::kPm, 0};
  /// active_threads for the charge model (the log writer is one stream).
  int threads = 1;
  /// Largest PM write charged per fault draw; a multi-MB matrix entry is a
  /// chunked stream of draws, so one media error wastes one chunk.
  size_t chunk_bytes = 1 << 20;
};

class CheckpointStore {
 public:
  CheckpointStore(memsim::MemorySystem* ms, CheckpointOptions options);

  /// Appends one entry: payload chunks charged as fault-aware PM writes,
  /// barrier, stamped header write, barrier. IOError once a chunk exhausts
  /// its retries (the final fault is left un-bucketed for the caller).
  Result<CkptCosts> Append(uint32_t type, const void* payload, size_t bytes);

  /// Test hook: the crash happened between the payload stream and the final
  /// header persist — the header lands with a stale checksum over a
  /// half-written payload. Scan() must refuse the entry.
  Result<CkptCosts> AppendTorn(uint32_t type, const void* payload,
                               size_t bytes);

  /// Test hook: flips one payload byte of the last entry (silent media
  /// corruption below the fault injector).
  void CorruptTailChecksum();

  struct ScanResult {
    std::vector<LogEntry> entries;  ///< the valid prefix, in stamp order
    bool torn_tail = false;         ///< bytes after the prefix failed checks
  };

  /// Host-side walk of the image: magic + monotone stamp + checksum checks,
  /// stopping at the first violation. Free of simulated cost (Restore paths
  /// use ChargedScan).
  ScanResult Scan() const;

  /// Scan plus the simulated cost of reading the whole image back from PM
  /// and checksumming it.
  ScanResult ChargedScan(CkptCosts* costs);

  /// Drops the torn/corrupt tail (and its BufferManager reservations) so the
  /// next Append continues from the valid prefix. Returns entries dropped.
  size_t TruncateToValidPrefix();

  uint64_t entry_count() const { return entry_count_; }
  size_t image_bytes() const { return image_.size(); }
  memsim::MemorySystem* memory_system() const { return ms_; }
  const CheckpointOptions& options() const { return options_; }

  /// Host-side persistence of the image for --restore-from across processes.
  Status SaveToFile(const std::string& path) const;
  Status LoadFromFile(const std::string& path);

 private:
  Result<CkptCosts> AppendImpl(uint32_t type, const void* payload,
                               size_t bytes, bool torn);

  memsim::MemorySystem* ms_;
  CheckpointOptions options_;
  buffer::BufferManager pool_;
  std::vector<uint8_t> image_;
  std::vector<buffer::PinHandle> entry_pins_;
  std::vector<size_t> entry_offsets_;  ///< image offset of each entry header
  uint64_t next_stamp_ = 0;
  uint64_t entry_count_ = 0;
  uint64_t fault_site_ = 0;
};

/// One engine checkpoint: where the run was, plus the matrices needed to
/// resume bitwise-identically. `stage` is engine-defined (the store does not
/// interpret it); `words` carries non-matrix state (e.g. a permutation).
struct CheckpointSnapshot {
  uint32_t stage = 0;
  uint64_t next_term = 0;
  std::vector<std::pair<std::string, linalg::DenseMatrix>> matrices;
  std::vector<uint64_t> words;
};

/// Writes the snapshot as one committed group (meta + matrices + commit).
Result<CkptCosts> WriteSnapshot(CheckpointStore* store,
                                const CheckpointSnapshot& snapshot);

/// Crash-mid-checkpoint variant: the group's final entry is torn and the
/// commit marker is never written, as if the process died between the
/// payload stream and the header persist. ReadLastSnapshot must fall back
/// to the previous committed snapshot.
Result<CkptCosts> WriteSnapshotTorn(CheckpointStore* store,
                                    const CheckpointSnapshot& snapshot);

/// Decodes the last committed snapshot of the store's valid prefix;
/// NotFound when no commit survives. Charges the restore scan into *costs
/// (pass nullptr for a free host-side read).
Result<CheckpointSnapshot> ReadLastSnapshot(CheckpointStore* store,
                                            CkptCosts* costs);

/// Marker status used by the crash-matrix tests and the engine's simulated
/// kill points: an IOError whose message identifies the kill site.
Status KilledError(const std::string& where);
bool IsKilledError(const Status& status);

}  // namespace omega::durable
