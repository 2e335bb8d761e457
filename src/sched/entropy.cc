#include "sched/entropy.h"

#include <algorithm>
#include <cmath>

namespace omega::sched {

void EntropyAccumulator::AddRow(uint32_t degree) {
  ++rows_;
  if (degree == 0) return;
  s1_ += degree;
  s2_ += static_cast<double>(degree) * std::log(static_cast<double>(degree));
}

void EntropyAccumulator::RemoveRow(uint32_t degree) {
  --rows_;
  if (degree == 0) return;
  s1_ -= degree;
  s2_ -= static_cast<double>(degree) * std::log(static_cast<double>(degree));
}

void EntropyAccumulator::Reset() {
  s1_ = 0;
  s2_ = 0.0;
  rows_ = 0;
}

double EntropyAccumulator::Entropy() const {
  if (s1_ == 0) return 0.0;
  const double s1 = static_cast<double>(s1_);
  return std::max(0.0, std::log(s1) - s2_ / s1);
}

double NormalizedEntropy(double entropy, uint32_t num_nodes) {
  if (num_nodes <= 1) return 0.0;
  const double z = entropy / std::log(static_cast<double>(num_nodes));
  return std::clamp(z, 0.0, 1.0);
}

double ScatterFactor(double entropy, uint32_t num_nodes, double beta) {
  const double z = NormalizedEntropy(entropy, num_nodes);
  return 1.0 - z + beta * z;
}

double WorkloadEntropy(const graph::CsdbMatrix& a, const Workload& w) {
  EntropyAccumulator acc;
  for (const RowRange& range : w.ranges) {
    if (range.size() == 0) continue;
    for (auto cur = a.Rows(range.begin); cur.row() < range.end; cur.Next()) {
      acc.AddRow(cur.degree());
    }
  }
  return acc.Entropy();
}

void AnnotateWorkload(const graph::CsdbMatrix& a, double beta, Workload* w) {
  RefreshCounts(a, w);
  w->entropy = WorkloadEntropy(a, *w);
  w->scatter = ScatterFactor(w->entropy, a.num_cols(), beta);
}

}  // namespace omega::sched
