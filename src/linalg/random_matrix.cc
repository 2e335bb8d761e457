#include "linalg/random_matrix.h"

#include "common/rng.h"

namespace omega::linalg {

namespace {

// Entries below this many are drawn inline; a pool dispatch would cost more.
constexpr size_t kParallelEntries = 1 << 15;

}  // namespace

DenseMatrix GaussianMatrix(size_t rows, size_t cols, uint64_t seed, ThreadPool* pool) {
  DenseMatrix m = DenseMatrix::Uninitialized(rows, cols);  // every entry drawn
  auto fill_columns = [&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      Rng rng(SplitMix64(seed ^ (0x9e3779b9ULL * (c + 1))));
      float* col = m.ColData(c);
      for (size_t r = 0; r < rows; ++r) col[r] = static_cast<float>(rng.NextGaussian());
    }
  };
  if (pool != nullptr && pool->size() > 1 && cols > 1 && rows * cols >= kParallelEntries) {
    pool->ParallelFor(cols, fill_columns);
  } else {
    fill_columns(0, 0, cols);
  }
  return m;
}

}  // namespace omega::linalg
