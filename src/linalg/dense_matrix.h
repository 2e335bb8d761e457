// Column-major dense matrix.
//
// Column-major is load-bearing for the reproduction: the paper's SpMM
// (Algorithm 1) iterates "for column t in B", relying on the dense operand
// and the result matrix being stored column-major so result writes are
// sequential (§III-B, operation 5).
//
// Storage is 64-byte aligned (one cache line, the widest vector register on
// current x86) so the blocked GEMM kernels and the compiler's autovectorizer
// never pay split-line penalties on column starts.

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <utility>
#include <vector>

#include "common/status.h"

namespace omega {
class ThreadPool;
}  // namespace omega

namespace omega::linalg {

/// Minimal allocator putting every allocation on an `Alignment`-byte
/// boundary; lets DenseMatrix keep the std::vector API. It default-initialises
/// elements constructed without a value, so resize() leaves new floats
/// unwritten instead of zero-filling them; assign() and copies still write.
template <typename T, size_t Alignment>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, size_t) {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  bool operator==(const AlignedAllocator&) const { return true; }
  bool operator!=(const AlignedAllocator&) const { return false; }
};

inline constexpr size_t kDenseAlignment = 64;

/// Runs fn(begin, end) over [0, rows) of a pass over rows x cols elements:
/// split across `pool` once the pass is large enough to repay the dispatch
/// (~L2-sized), as one call otherwise. Only for passes whose every element is
/// independent, so the result is bit-identical at any thread count.
void ForEachRowBlock(size_t rows, size_t cols, ThreadPool* pool,
                     const std::function<void(size_t, size_t)>& fn);

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(size_t rows, size_t cols) : rows_(rows), cols_(cols) {
    data_.assign(rows * cols, 0.0f);
  }

  /// A rows x cols matrix whose elements are left unwritten (no zero-fill).
  /// Only for outputs whose producer writes every element before any is read.
  static DenseMatrix Uninitialized(size_t rows, size_t cols) {
    DenseMatrix m;
    m.ResizeForOverwrite(rows, cols);
    return m;
  }

  /// Makes this rows x cols for a producer that overwrites every element:
  /// the storage is kept when it already holds rows * cols elements, and
  /// otherwise released and replaced by Uninitialized storage. The elements
  /// are unspecified afterwards.
  void ResizeForOverwrite(size_t rows, size_t cols) {
    if (rows * cols != data_.size()) {
      decltype(data_)().swap(data_);  // free before the new allocation
      data_.resize(rows * cols);
    }
    rows_ = rows;
    cols_ = cols;
  }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  size_t bytes() const { return data_.size() * sizeof(float); }

  float& At(size_t r, size_t c) { return data_[c * rows_ + r]; }
  float At(size_t r, size_t c) const { return data_[c * rows_ + r]; }

  float* ColData(size_t c) { return data_.data() + c * rows_; }
  const float* ColData(size_t c) const { return data_.data() + c * rows_; }

  /// Element distance between consecutive columns — the panel kernels index a
  /// multi-column panel as ColData(t0)[c + j * col_stride()].
  size_t col_stride() const { return rows_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Fill(float v) { data_.assign(data_.size(), v); }

  /// this += alpha * other (same shape required). With a pool the flat range
  /// is split across workers; per-element arithmetic is unchanged, so the
  /// result is bit-identical at any thread count.
  Status AddScaled(const DenseMatrix& other, float alpha,
                   ThreadPool* pool = nullptr);

  /// this *= alpha.
  void Scale(float alpha, ThreadPool* pool = nullptr);

  double FrobeniusNorm() const;

  /// Sub-view copy of columns [col_begin, col_end).
  DenseMatrix SliceCols(size_t col_begin, size_t col_end) const;

  /// Returns the transpose (cols x rows).
  DenseMatrix Transposed() const;

  /// Max |a_ij - b_ij|; returns infinity on shape mismatch.
  static double MaxAbsDiff(const DenseMatrix& a, const DenseMatrix& b);

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float, AlignedAllocator<float, kDenseAlignment>> data_;
};

}  // namespace omega::linalg
