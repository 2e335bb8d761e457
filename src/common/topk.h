// Bounded top-k selection and small order-statistics helpers.
//
// TopK keeps the k best (id, score) pairs seen so far in a size-k min-heap:
// Offer is O(log k) only when the candidate beats the current worst, O(1)
// otherwise, so selecting k winners from n candidates is O(n + k log k log n)
// instead of sorting all n. Ordering is total and deterministic — higher
// score wins, equal scores break toward the smaller id — so the selected set
// and its order never depend on offer order, which is what lets the serving
// scorer produce bit-identical top-k lists regardless of how a scan is
// blocked or batched.
//
// Percentile/StdDev are the order-statistics helpers the latency benches
// share (sort + linear interpolation, population standard deviation).

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace omega {

/// One scored candidate.
struct ScoredId {
  uint32_t id = 0;
  float score = 0.0f;

  bool operator==(const ScoredId& other) const {
    return id == other.id && score == other.score;
  }
};

/// True when a ranks strictly ahead of b: higher score first, ties broken by
/// smaller id (the same rule TopMStore uses for its top-M selection).
inline bool ScoredBetter(const ScoredId& a, const ScoredId& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Bounded selector of the k best candidates (see file comment). k == 0 keeps
/// nothing.
class TopK {
 public:
  explicit TopK(size_t k) : k_(k) { heap_.reserve(k); }

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }

  void Offer(uint32_t id, float score) { Offer(ScoredId{id, score}); }
  void Offer(const ScoredId& candidate);

  /// Moves the winners out, best first, leaving the selector empty.
  std::vector<ScoredId> Take();

 private:
  size_t k_;
  // Min-heap on ScoredBetter: the worst retained candidate sits at front.
  std::vector<ScoredId> heap_;
};

/// p in [0, 100]; linear interpolation between the two straddling order
/// statistics. 0 for an empty input.
double Percentile(std::vector<double> values, double p);

/// Population standard deviation; 0 for an empty input.
double StdDev(const std::vector<double>& values);

}  // namespace omega
