// Entropy measures for thread allocation (§III-B, Eqs. 3-5).
//
// The workload entropy of rows n..m assigned to thread p_i is
//   H_i = sum_j -(|Row_j|/W_i) log(|Row_j|/W_i)                       (Eq. 3)
// which, with S1 = sum_j |Row_j| = W_i and S2 = sum_j |Row_j| log|Row_j|,
// simplifies to H_i = log(S1) - S2/S1 — enabling O(1) incremental updates as
// rows are added to or removed from a candidate workload.

#pragma once

#include <cstdint>

#include "graph/csdb.h"
#include "sched/workload.h"

namespace omega::sched {

/// Incremental accumulator of workload entropy.
class EntropyAccumulator {
 public:
  void AddRow(uint32_t degree);
  void RemoveRow(uint32_t degree);
  void Reset();

  uint64_t nnz() const { return s1_; }
  uint32_t rows() const { return rows_; }

  /// H per Eq. 3; 0 for empty workloads.
  double Entropy() const;

 private:
  uint64_t s1_ = 0;   // sum of degrees
  double s2_ = 0.0;   // sum of degree * log(degree)
  uint32_t rows_ = 0;
};

/// Z(H) = H / log|V|, clamped into [0, 1] (§III-B).
double NormalizedEntropy(double entropy, uint32_t num_nodes);

/// W_sca = 1 - Z(H) + beta * Z(H)  (Eq. 5), where beta = BW_rand / BW_seq.
double ScatterFactor(double entropy, uint32_t num_nodes, double beta);

/// Entropy of an arbitrary workload (sums Eq. 3 across its ranges).
double WorkloadEntropy(const graph::CsdbMatrix& a, const Workload& w);

/// Fills `w`'s entropy and scatter fields.
void AnnotateWorkload(const graph::CsdbMatrix& a, double beta, Workload* w);

}  // namespace omega::sched
