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

  // Three dense blocks cycle through the range finder, each allocated once
  // (the callbacks keep a block's storage when its shape already fits):
  // `x` carries Omega, Z, Y2 and B^T; `y` carries Y and QZ; `q` holds Q. The
  // QRs share one workspace.
  DenseMatrix x = GaussianMatrix(m, l, options.seed, pool);
  DenseMatrix y;
  DenseMatrix q;
  QrWorkspace qr_work;

  // Stage A: randomized range finder. Y = A * Omega, Omega m x l Gaussian.
  OMEGA_RETURN_NOT_OK(apply(x, &y));
  OMEGA_RETURN_NOT_OK(ReducedQr(y, &q, nullptr, pool, &qr_work));

  // Power iterations with re-orthonormalization: Q <- qr(A * qr(A^T Q)).
  for (int it = 0; it < options.power_iterations; ++it) {
    OMEGA_RETURN_NOT_OK(apply_t(q, &x));                            // Z
    OMEGA_RETURN_NOT_OK(ReducedQr(x, &y, nullptr, pool, &qr_work));  // QZ
    OMEGA_RETURN_NOT_OK(apply(y, &x));                              // Y2
    OMEGA_RETURN_NOT_OK(ReducedQr(x, &q, nullptr, pool, &qr_work));
  }

  // Stage B: B^T = A^T * Q  (m x l). Then B = Q^T A and
  // B B^T = (B^T)^T (B^T) is l x l symmetric.
  DenseMatrix& bt = x;
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
