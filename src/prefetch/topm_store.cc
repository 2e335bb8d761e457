#include "prefetch/topm_store.h"

#include <algorithm>

namespace omega::prefetch {

TopMStore TopMStore::Build(std::vector<ScoredKey> candidates, size_t m,
                           uint32_t universe) {
  TopMStore store;
  store.bitmap_.assign(universe, 0);
  if (candidates.empty() || m == 0) return store;

  m = std::min(m, candidates.size());
  auto better = [](const ScoredKey& a, const ScoredKey& b) {
    return a.score != b.score ? a.score > b.score : a.key < b.key;
  };
  std::nth_element(candidates.begin(), candidates.begin() + (m - 1), candidates.end(),
                   better);
  candidates.resize(m);
  std::sort(candidates.begin(), candidates.end(), better);

  store.entries_ = std::move(candidates);
  for (const ScoredKey& e : store.entries_) {
    if (e.key < universe) store.bitmap_[e.key] = 1;
  }
  return store;
}

uint64_t TopMStore::MinScore() const {
  return entries_.empty() ? 0 : entries_.back().score;
}

TopMStore StreamingTopM::Finalize(uint32_t universe) const {
  std::vector<ScoredKey> candidates;
  candidates.reserve(DistinctKeys());
  for (size_t key = 0; key < counts_.size(); ++key) {
    if (counts_[key] != 0) {
      candidates.push_back(ScoredKey{static_cast<graph::NodeId>(key), counts_[key]});
    }
  }
  return TopMStore::Build(std::move(candidates), capacity_, universe);
}

}  // namespace omega::prefetch
