// Top-M key/value store — the data structure backing WoFP (§III-C, Fig. 8).
//
// Maps dense-matrix row indices (keys) to prefetch metadata (score: access
// frequency or vertex in-degree). Construction selects the M highest-scored
// keys; membership queries are O(1) via a bitmap over the column id space,
// which is what the SpMM inner loop consults per gather.

#pragma once

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "graph/graph.h"

namespace omega::prefetch {

/// One candidate entry.
struct ScoredKey {
  graph::NodeId key = 0;
  uint64_t score = 0;
};

/// Streaming top-M frequency tracker — the dynamic counting structure the
/// paper's frequency-based prefetcher maintains in a back-end thread
/// ("entails eviction and insertion operations for objects in the Top-M").
/// Observe() counts occurrences; Finalize() materializes the current top-M
/// into a TopMStore. Exact counts in a dense array indexed by key, sized to
/// `universe` up front and grown to the largest key observed beyond it, with
/// lazy selection. TopMStore::Build's order is strict, so the store does not
/// depend on the order in which keys were observed.
class StreamingTopM {
 public:
  explicit StreamingTopM(size_t capacity, uint32_t universe = 0)
      : capacity_(capacity), counts_(universe, 0) {}

  void Observe(graph::NodeId key) {
    if (key >= counts_.size()) counts_.resize(static_cast<size_t>(key) + 1, 0);
    ++counts_[key];
  }

  /// Observes every key of [begin, end), in order.
  void Observe(const graph::NodeId* begin, const graph::NodeId* end) {
    for (const graph::NodeId* key = begin; key != end; ++key) Observe(*key);
  }

  /// Number of distinct keys observed so far.
  size_t DistinctKeys() const {
    return static_cast<size_t>(
        std::count_if(counts_.begin(), counts_.end(), [](uint64_t c) { return c != 0; }));
  }

  /// Total observations.
  uint64_t TotalObservations() const {
    return std::accumulate(counts_.begin(), counts_.end(), uint64_t{0});
  }

  /// Current count of a key (0 if unseen).
  uint64_t CountOf(graph::NodeId key) const {
    return key < counts_.size() ? counts_[key] : 0;
  }

  /// Builds the top-`capacity` store over `universe` (see TopMStore::Build).
  class TopMStore Finalize(uint32_t universe) const;

 private:
  size_t capacity_;
  std::vector<uint64_t> counts_;  // counts_[key]
};

class TopMStore {
 public:
  TopMStore() = default;

  /// Selects the `m` highest-scored candidates (ties broken by smaller key
  /// for determinism). `universe` is the column id space size for the bitmap.
  static TopMStore Build(std::vector<ScoredKey> candidates, size_t m,
                         uint32_t universe);

  bool Contains(graph::NodeId key) const {
    return key < bitmap_.size() && bitmap_[key] != 0;
  }

  size_t size() const { return entries_.size(); }
  const std::vector<ScoredKey>& entries() const { return entries_; }

  /// Smallest score admitted; 0 when empty (used by eviction tests).
  uint64_t MinScore() const;

  /// Simulated bytes the store occupies in DRAM: key (4) + cached dense value
  /// slot (4) + score (8) per entry, as in Fig. 8's key-value layout.
  size_t SimBytes() const { return entries_.size() * 16; }

 private:
  std::vector<ScoredKey> entries_;
  std::vector<uint8_t> bitmap_;
};

}  // namespace omega::prefetch
