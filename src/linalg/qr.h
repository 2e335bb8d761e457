// Reduced (thin) QR factorization of tall-skinny matrices via Householder
// reflections — the orthonormalization step of the randomized range finder.
//
// The elimination is left-looking, in groups of 4 columns handed out in
// ascending order on a pool. A group copies its columns into row-interleaved
// lanes and applies each earlier reflector as soon as the group that forms
// it publishes it; one pass applies a reflector and takes the next one's dot
// products. It then forms its own reflectors and, at once, its 4 columns of
// Q. Every element gets the value and every dot product the ascending chain
// of applying the reflectors one at a time, column by column, so the
// factorization is bit-identical to that textbook loop at any thread count.

#pragma once

#include <cstddef>
#include <memory>

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace omega::linalg {

/// Scratch that a caller keeps across ReducedQr calls: the n x k double
/// reflector store plus one group's lanes per worker. It grows to the
/// largest factorization it has served and is freed with the workspace;
/// RandomizedSvd owns one for its QRs.
class QrWorkspace {
 public:
  /// At least `count` doubles, uninitialized; earlier contents are not kept.
  double* Reserve(size_t count);

 private:
  std::unique_ptr<double[]> data_;
  size_t capacity_ = 0;
};

/// Computes A = Q * R with Q (n x k) having orthonormal columns and R (k x k)
/// upper triangular. Requires n >= k. `r` may be nullptr if not needed.
/// Every element of Q is written, so Q's storage is kept when it already
/// holds n * k elements (DenseMatrix::ResizeForOverwrite): a second call of
/// the same shape allocates no Q. The working arrays come from `workspace`
/// when given, from a workspace local to the call otherwise.
Status ReducedQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                 ThreadPool* pool = nullptr, QrWorkspace* workspace = nullptr);

}  // namespace omega::linalg
