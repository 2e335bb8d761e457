// Reduced (thin) QR factorization of tall-skinny matrices via Householder
// reflections — the orthonormalization step of the randomized range finder.
//
// The Householder elimination is inherently sequential in the column being
// reduced, but applying each reflector to the trailing columns and forming
// the k columns of Q are embarrassingly parallel per column. Both run in
// groups of a few columns that share the reflector's loads, and with a pool
// the groups fan out; every column's arithmetic stays a fixed sequential
// chain, so the factorization is bit-identical at any thread count.

#pragma once

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace omega::linalg {

/// Computes A = Q * R with Q (n x k) having orthonormal columns and R (k x k)
/// upper triangular. Requires n >= k. `r` may be nullptr if not needed.
Status ReducedQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                 ThreadPool* pool = nullptr);

}  // namespace omega::linalg
