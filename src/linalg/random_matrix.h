// Deterministic random test/projection matrices.

#pragma once

#include <cstdint>

#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace omega::linalg {

/// i.i.d. standard-normal entries; each column draws from its own Rng seeded
/// by (seed, column), so the result is identical regardless of generation
/// order or thread count. With a pool, columns fan out across its workers
/// once the matrix is large enough to repay the dispatch.
DenseMatrix GaussianMatrix(size_t rows, size_t cols, uint64_t seed,
                           ThreadPool* pool = nullptr);

}  // namespace omega::linalg
