#include "linalg/dense_matrix.h"

#include <cmath>
#include <limits>

#include "common/thread_pool.h"

namespace omega::linalg {

void ForEachRowBlock(size_t rows, size_t cols, ThreadPool* pool,
                     const std::function<void(size_t, size_t)>& fn) {
  if (pool != nullptr && pool->size() > 1 && rows * cols >= (1 << 15)) {
    pool->ParallelFor(rows, [&](size_t, size_t begin, size_t end) { fn(begin, end); });
  } else {
    fn(0, rows);
  }
}

Status DenseMatrix::AddScaled(const DenseMatrix& other, float alpha,
                              ThreadPool* pool) {
  if (other.rows_ != rows_ || other.cols_ != cols_) {
    return Status::InvalidArgument("AddScaled shape mismatch");
  }
  const float* src = other.data_.data();
  float* dst = data_.data();
  ForEachRowBlock(data_.size(), 1, pool, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) dst[i] += alpha * src[i];
  });
  return Status::OK();
}

void DenseMatrix::Scale(float alpha, ThreadPool* pool) {
  float* dst = data_.data();
  ForEachRowBlock(data_.size(), 1, pool, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) dst[i] *= alpha;
  });
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return std::sqrt(sum);
}

DenseMatrix DenseMatrix::SliceCols(size_t col_begin, size_t col_end) const {
  DenseMatrix out(rows_, col_end - col_begin);
  for (size_t c = col_begin; c < col_end; ++c) {
    const float* src = ColData(c);
    float* dst = out.ColData(c - col_begin);
    for (size_t r = 0; r < rows_; ++r) dst[r] = src[r];
  }
  return out;
}

DenseMatrix DenseMatrix::Transposed() const {
  DenseMatrix out(cols_, rows_);
  for (size_t c = 0; c < cols_; ++c) {
    for (size_t r = 0; r < rows_; ++r) out.At(c, r) = At(r, c);
  }
  return out;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::numeric_limits<double>::infinity();
  }
  double mx = 0.0;
  for (size_t i = 0; i < a.data_.size(); ++i) {
    mx = std::max(mx, std::abs(static_cast<double>(a.data_[i]) - b.data_[i]));
  }
  return mx;
}

}  // namespace omega::linalg
