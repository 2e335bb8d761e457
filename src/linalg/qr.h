// Reduced (thin) QR factorization of tall-skinny matrices via Householder
// reflections — the orthonormalization step of the randomized range finder.
//
// The elimination is sequential in the column being reduced. With
// look-ahead, each step streams the trailing columns once: one pass applies
// reflector j and takes reflector j + 1's dot products, and the worker that
// updates column j + 2 forms reflector j + 2 while the rest of the pass runs.
// Forming Q fuses the same way, backward. The trailing columns and the Q
// panels fan out across a pool in groups that share the reflectors' loads. Every element gets the value and every dot product the ascending
// chain of applying the reflectors one at a time, column by column, so the
// factorization is bit-identical to that textbook loop at any thread count.

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
