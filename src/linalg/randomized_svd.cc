#include "linalg/randomized_svd.h"

#include <cmath>

#include "linalg/eigen.h"
#include "linalg/gemm.h"
#include "linalg/qr.h"
#include "linalg/random_matrix.h"

namespace omega::linalg {

Result<SvdResult> RandomizedSvd(size_t n, size_t m, const MatMulFn& apply,
                                const MatMulFn& apply_t,
                                const RandomizedSvdOptions& options) {
  const size_t l = options.rank + options.oversample;
  ThreadPool* pool = options.pool;
  if (options.rank == 0) return Status::InvalidArgument("rank must be positive");
  if (l > n || l > m) {
    return Status::InvalidArgument("rank + oversample exceeds matrix dimensions");
  }

  // Stage A: randomized range finder. Y = A * Omega, Omega m x l Gaussian.
  DenseMatrix omega_mat = GaussianMatrix(m, l, options.seed, pool);
  DenseMatrix y(n, l);
  OMEGA_RETURN_NOT_OK(apply(omega_mat, &y));

  DenseMatrix q;
  OMEGA_RETURN_NOT_OK(ReducedQr(y, &q, nullptr, pool));

  // Power iterations with re-orthonormalization: Q <- qr(A * qr(A^T Q)).
  for (int it = 0; it < options.power_iterations; ++it) {
    DenseMatrix z(m, l);
    OMEGA_RETURN_NOT_OK(apply_t(q, &z));
    DenseMatrix qz;
    OMEGA_RETURN_NOT_OK(ReducedQr(z, &qz, nullptr, pool));
    DenseMatrix y2(n, l);
    OMEGA_RETURN_NOT_OK(apply(qz, &y2));
    OMEGA_RETURN_NOT_OK(ReducedQr(y2, &q, nullptr, pool));
  }

  // Stage B: B^T = A^T * Q  (m x l). Then B = Q^T A and
  // B B^T = (B^T)^T (B^T) is l x l symmetric.
  DenseMatrix bt(m, l);
  OMEGA_RETURN_NOT_OK(apply_t(q, &bt));

  DenseMatrix bbt;
  OMEGA_RETURN_NOT_OK(GemmTransA(bt, bt, &bbt, pool));  // (l x l) = bt^T * bt

  OMEGA_ASSIGN_OR_RETURN(EigenResult eig, SymmetricEigen(bbt));

  // Singular values and truncation.
  SvdResult result;
  const size_t k = options.rank;
  result.singular.resize(k);
  for (size_t i = 0; i < k; ++i) {
    result.singular[i] = std::sqrt(std::max(0.0, eig.eigenvalues[i]));
  }

  // U = Q * W_k  (n x k).
  DenseMatrix wk = eig.eigenvectors.SliceCols(0, k);
  OMEGA_RETURN_NOT_OK(Gemm(q, wk, &result.u, pool));

  return result;
}

}  // namespace omega::linalg
