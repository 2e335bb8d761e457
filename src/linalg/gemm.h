// Dense matrix products used by the tSVD pipeline. The matrices are tall and
// skinny (n x k with k <= ~160), so the kernels are register/cache-blocked
// over row tiles and column panels and optionally parallelized over output
// columns on the ThreadPool.
//
// Determinism contract: for every output element the reduction over the
// inner dimension runs in a fixed ascending order, independent of tile
// boundaries and thread count. Results are therefore bit-identical whether a
// kernel runs serially, on 1 worker, or on 36 — a property the embedding
// pipeline's reproducibility tests rely on.
//
// All three kernels detect output aliasing (c == &a or c == &b) and compute
// through a temporary, so in-place calls like Gemm(a, b, &a) are safe.

#pragma once

#include "common/status.h"
#include "common/thread_pool.h"
#include "linalg/dense_matrix.h"

namespace omega::linalg {

/// C = A * B. Blocked; parallel over column panels when `pool` is given.
Status Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
            ThreadPool* pool = nullptr);

/// C = A^T * B (A is n x k, B is n x m, C is k x m); accumulates in double.
/// When `a` and `b` are the same object, C is symmetric: each element on or
/// above the diagonal is computed once and mirrored, with the same bits.
Status GemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                  ThreadPool* pool = nullptr);

/// C = A * B^T.
Status GemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                  ThreadPool* pool = nullptr);

/// Reference single-threaded scalar triple loop (the pre-blocking kernel).
/// Kept as the correctness oracle for tests and the baseline the micro
/// benchmarks compare the blocked kernels against. Aliasing-safe.
Status GemmNaive(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c);

}  // namespace omega::linalg
