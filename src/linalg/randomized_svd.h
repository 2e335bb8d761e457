// Randomized truncated SVD (Halko, Martinsson, Tropp; SIAM Review 2011) —
// the t-SVD used by ProNE's sparse matrix factorization step (§II-A).
//
// The operator is supplied as a pair of callbacks (Y = A*X and Y = A^T*X) so
// the caller can plug in any SpMM kernel — including omega's heterogeneous-
// memory-charged kernels — without this module knowing about sparse formats.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace omega::linalg {

/// Applies an n x m linear operator to a dense block: out = Op * in.
/// `in` has m rows. `out` arrives with any shape and contents (RandomizedSvd
/// hands back a block it used before); the callback makes it n x in.cols()
/// and overwrites every element.
using MatMulFn = std::function<Status(const DenseMatrix& in, DenseMatrix* out)>;

struct RandomizedSvdOptions {
  size_t rank = 32;         ///< number of singular triplets to return
  size_t oversample = 8;    ///< extra random directions for accuracy
  int power_iterations = 1; ///< subspace iterations (improves spectral decay)
  uint64_t seed = 7;

  /// Optional worker pool for the dense stages (QR, GEMM). Host-side
  /// parallelism only: results are bit-identical with or without it (the
  /// dense kernels reduce in fixed order; see gemm.h).
  ThreadPool* pool = nullptr;
};

/// The left half of a truncated SVD; a caller that needs the right singular
/// vectors forms V = A^T U Sigma^-1.
struct SvdResult {
  DenseMatrix u;                 ///< n x rank, orthonormal columns
  std::vector<double> singular;  ///< rank values, non-increasing
};

/// Computes the truncated SVD of an n x m operator given by `apply` (A*X) and
/// `apply_t` (A^T*X).
Result<SvdResult> RandomizedSvd(size_t n, size_t m, const MatMulFn& apply,
                                const MatMulFn& apply_t,
                                const RandomizedSvdOptions& options);

}  // namespace omega::linalg
