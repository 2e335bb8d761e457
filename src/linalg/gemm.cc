#include "linalg/gemm.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace omega::linalg {

namespace {

// Row tile held in registers/L1 while the k reduction runs. 64 floats is one
// tile = 4 cache lines, small enough that acc[] stays in vector registers.
constexpr size_t kRowTile = 64;
// k-panel width: one (kRowTile x kKBlock) A block is 32 KiB, L1-resident
// across every column of the panel it is reused for.
constexpr size_t kKBlock = 128;
// Output columns per parallel task. Dense columns are uniform work, so the
// static ParallelFor split is balanced by construction.
constexpr size_t kMinColsPerTask = 2;

bool ShouldParallelize(ThreadPool* pool, size_t cols, size_t work_per_col) {
  // A dispatch costs ~a few microseconds of rendezvous; only fan out when
  // every worker gets meaningful work.
  return pool != nullptr && pool->size() > 1 &&
         cols >= kMinColsPerTask * 2 && cols * work_per_col >= (1u << 16);
}

// Register micro-tile: kMicroRows floats of kMicroCols output columns live in
// vector registers while a k-panel streams past. acc[4][16] is 8 AVX2
// registers; with the A stripe and 4 B broadcasts the kernel fits in 16 ymm.
constexpr size_t kMicroRows = 16;
constexpr size_t kMicroCols = 4;

// One column stripe C[i:i+ib, j] += A[i:i+ib, k0:k0+kb) * B[k0:k0+kb, j].
// Generic path for row/column tails; same ascending-k per-element order as
// the micro-kernel, so tile boundaries never show up in the output bits.
void GemmColumnStripe(const DenseMatrix& a, const DenseMatrix& b,
                      DenseMatrix* c, size_t j, size_t k0, size_t kb, size_t i,
                      size_t ib) {
  float acc[kRowTile];
  float* cj = c->ColData(j) + i;
  const float* bj = b.ColData(j) + k0;
  for (size_t ii = 0; ii < ib; ++ii) acc[ii] = cj[ii];
  for (size_t k = 0; k < kb; ++k) {
    const float bkj = bj[k];
    const float* ak = a.ColData(k0 + k) + i;
    for (size_t ii = 0; ii < ib; ++ii) acc[ii] += ak[ii] * bkj;
  }
  for (size_t ii = 0; ii < ib; ++ii) cj[ii] = acc[ii];
}

// C[:, j_begin:j_end) += A * B[:, j_begin:j_end) with C pre-zeroed.
// Blocked i -> k -> j so one A block is reused across the whole column
// panel; inside a block, full 16x4 tiles run the register micro-kernel and
// ragged edges fall back to the column stripe. The reduction order for every
// c[i][j] is ascending k regardless of blocking, which keeps results
// bit-identical to the scalar triple loop.
void GemmPanel(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
               size_t j_begin, size_t j_end) {
  const size_t n = a.rows();
  const size_t kk_total = a.cols();
  for (size_t i0 = 0; i0 < n; i0 += kRowTile) {
    const size_t ib = std::min(kRowTile, n - i0);
    for (size_t k0 = 0; k0 < kk_total; k0 += kKBlock) {
      const size_t kb = std::min(kKBlock, kk_total - k0);
      size_t j = j_begin;
      for (; j + kMicroCols <= j_end; j += kMicroCols) {
        size_t ii = 0;
        for (; ii + kMicroRows <= ib; ii += kMicroRows) {
          const size_t i = i0 + ii;
          float acc[kMicroCols][kMicroRows];
          const float* bcol[kMicroCols];
          for (size_t jj = 0; jj < kMicroCols; ++jj) {
            const float* cj = c->ColData(j + jj) + i;
            for (size_t r = 0; r < kMicroRows; ++r) acc[jj][r] = cj[r];
            bcol[jj] = b.ColData(j + jj) + k0;
          }
          for (size_t k = 0; k < kb; ++k) {
            const float* ak = a.ColData(k0 + k) + i;
            for (size_t jj = 0; jj < kMicroCols; ++jj) {
              const float bjk = bcol[jj][k];
              for (size_t r = 0; r < kMicroRows; ++r) {
                acc[jj][r] += ak[r] * bjk;
              }
            }
          }
          for (size_t jj = 0; jj < kMicroCols; ++jj) {
            float* cj = c->ColData(j + jj) + i;
            for (size_t r = 0; r < kMicroRows; ++r) cj[r] = acc[jj][r];
          }
        }
        if (ii < ib) {
          for (size_t jj = 0; jj < kMicroCols; ++jj) {
            GemmColumnStripe(a, b, c, j + jj, k0, kb, i0 + ii, ib - ii);
          }
        }
      }
      for (; j < j_end; ++j) GemmColumnStripe(a, b, c, j, k0, kb, i0, ib);
    }
  }
}

// C[:, j_begin:j_end) of C = A^T * B; per-element double dot over A rows.
void GemmTransAPanel(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                     size_t j_begin, size_t j_end) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  for (size_t j = j_begin; j < j_end; ++j) {
    const float* bj = b.ColData(j);
    // 4 output rows at a time so one streamed pass of bj feeds 4 dots.
    size_t i = 0;
    for (; i + 4 <= m; i += 4) {
      const float* a0 = a.ColData(i);
      const float* a1 = a.ColData(i + 1);
      const float* a2 = a.ColData(i + 2);
      const float* a3 = a.ColData(i + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t r = 0; r < n; ++r) {
        const double br = bj[r];
        s0 += static_cast<double>(a0[r]) * br;
        s1 += static_cast<double>(a1[r]) * br;
        s2 += static_cast<double>(a2[r]) * br;
        s3 += static_cast<double>(a3[r]) * br;
      }
      c->At(i, j) = static_cast<float>(s0);
      c->At(i + 1, j) = static_cast<float>(s1);
      c->At(i + 2, j) = static_cast<float>(s2);
      c->At(i + 3, j) = static_cast<float>(s3);
    }
    for (; i < m; ++i) {
      const float* ai = a.ColData(i);
      double acc = 0.0;
      for (size_t r = 0; r < n; ++r) acc += static_cast<double>(ai[r]) * bj[r];
      c->At(i, j) = static_cast<float>(acc);
    }
  }
}

// C[:, j_begin:j_end) of C = A * B^T. Row j of B is packed contiguous once
// per output column, then the column follows the Gemm row-tile kernel.
void GemmTransBPanel(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                     size_t j_begin, size_t j_end) {
  const size_t n = a.rows();
  const size_t kk_total = a.cols();
  std::vector<float> brow(kk_total);
  float acc[kRowTile];
  for (size_t j = j_begin; j < j_end; ++j) {
    for (size_t k = 0; k < kk_total; ++k) brow[k] = b.At(j, k);
    float* cj = c->ColData(j);
    for (size_t i0 = 0; i0 < n; i0 += kRowTile) {
      const size_t ib = std::min(kRowTile, n - i0);
      for (size_t ii = 0; ii < ib; ++ii) acc[ii] = 0.0f;
      for (size_t k = 0; k < kk_total; ++k) {
        const float bjk = brow[k];
        const float* ak = a.ColData(k) + i0;
        for (size_t ii = 0; ii < ib; ++ii) acc[ii] += ak[ii] * bjk;
      }
      for (size_t ii = 0; ii < ib; ++ii) cj[i0 + ii] = acc[ii];
    }
  }
}

// Output tiles (i0, j) of the Gram product C = A^T * A on or above the
// diagonal block: rows [i0, i0 + 4) of column j with i0 <= j, in column
// order. Every tile streams four columns of A against column j, so tiles are
// uniform work and a static split of this list balances the triangle.
std::vector<std::pair<size_t, size_t>> GramTiles(size_t m) {
  std::vector<std::pair<size_t, size_t>> tiles;
  for (size_t j = 0; j < m; ++j) {
    for (size_t i0 = 0; i0 <= j; i0 += 4) tiles.emplace_back(i0, j);
  }
  return tiles;
}

// Tiles [begin, end) of GramTiles(m): the same per-element double dot as
// GemmTransAPanel, computed once for each i <= j and written to both (i, j)
// and (j, i). A product of two doubles does not depend on operand order, so
// the mirrored element is the one GemmTransAPanel computes. Elements of a
// diagonal tile below the diagonal are left to the tile that owns them.
void GramTilesPanel(const DenseMatrix& a, DenseMatrix* c,
                    const std::vector<std::pair<size_t, size_t>>& tiles, size_t begin,
                    size_t end) {
  const size_t n = a.rows();
  const size_t m = a.cols();
  for (size_t t = begin; t < end; ++t) {
    const auto [i0, j] = tiles[t];
    const float* bj = a.ColData(j);
    double s[4] = {0.0, 0.0, 0.0, 0.0};
    if (i0 + 4 <= m) {
      const float* a0 = a.ColData(i0);
      const float* a1 = a.ColData(i0 + 1);
      const float* a2 = a.ColData(i0 + 2);
      const float* a3 = a.ColData(i0 + 3);
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (size_t r = 0; r < n; ++r) {
        const double br = bj[r];
        s0 += static_cast<double>(a0[r]) * br;
        s1 += static_cast<double>(a1[r]) * br;
        s2 += static_cast<double>(a2[r]) * br;
        s3 += static_cast<double>(a3[r]) * br;
      }
      s[0] = s0;
      s[1] = s1;
      s[2] = s2;
      s[3] = s3;
    } else {
      for (size_t i = i0; i <= j; ++i) {
        const float* ai = a.ColData(i);
        double acc = 0.0;
        for (size_t r = 0; r < n; ++r) acc += static_cast<double>(ai[r]) * bj[r];
        s[i - i0] = acc;
      }
    }
    for (size_t i = i0; i < i0 + 4 && i <= j; ++i) {
      c->At(i, j) = static_cast<float>(s[i - i0]);
      c->At(j, i) = static_cast<float>(s[i - i0]);
    }
  }
}

// C = A^T * A through the tiles of its upper triangle.
Status RunGram(const DenseMatrix& a, DenseMatrix* c, ThreadPool* pool) {
  const size_t m = a.cols();
  DenseMatrix tmp;
  DenseMatrix* out = c == &a ? &tmp : c;
  *out = DenseMatrix(m, m);
  const auto tiles = GramTiles(m);
  if (ShouldParallelize(pool, m, a.rows() * m)) {
    pool->ParallelFor(tiles.size(), [&](size_t, size_t begin, size_t end) {
      GramTilesPanel(a, out, tiles, begin, end);
    });
  } else {
    GramTilesPanel(a, out, tiles, 0, tiles.size());
  }
  if (out == &tmp) *c = std::move(tmp);
  return Status::OK();
}

using PanelFn = void (*)(const DenseMatrix&, const DenseMatrix&, DenseMatrix*,
                         size_t, size_t);

// Shared driver: aliasing detection, output allocation, panel fan-out.
Status RunBlocked(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                  ThreadPool* pool, size_t out_rows, size_t out_cols,
                  size_t work_per_col, PanelFn panel) {
  // `*c = DenseMatrix(...)` would destroy an aliased input before it is
  // read; compute into a temporary and move it over the output instead.
  const bool aliased = (c == &a) || (c == &b);
  DenseMatrix tmp;
  DenseMatrix* out = aliased ? &tmp : c;
  *out = DenseMatrix(out_rows, out_cols);
  if (ShouldParallelize(pool, out_cols, work_per_col)) {
    pool->ParallelFor(out_cols, [&](size_t, size_t begin, size_t end) {
      panel(a, b, out, begin, end);
    });
  } else {
    panel(a, b, out, 0, out_cols);
  }
  if (aliased) *c = std::move(tmp);
  return Status::OK();
}

}  // namespace

Status Gemm(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
            ThreadPool* pool) {
  if (a.cols() != b.rows()) return Status::InvalidArgument("Gemm: inner dim mismatch");
  return RunBlocked(a, b, c, pool, a.rows(), b.cols(), a.rows() * a.cols(),
                    &GemmPanel);
}

Status GemmTransA(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                  ThreadPool* pool) {
  if (a.rows() != b.rows()) {
    return Status::InvalidArgument("GemmTransA: row dim mismatch");
  }
  if (&a == &b) return RunGram(a, c, pool);
  return RunBlocked(a, b, c, pool, a.cols(), b.cols(), a.rows() * a.cols(),
                    &GemmTransAPanel);
}

Status GemmTransB(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c,
                  ThreadPool* pool) {
  if (a.cols() != b.cols()) {
    return Status::InvalidArgument("GemmTransB: col dim mismatch");
  }
  return RunBlocked(a, b, c, pool, a.rows(), b.rows(), a.rows() * a.cols(),
                    &GemmTransBPanel);
}

Status GemmNaive(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix* c) {
  if (a.cols() != b.rows()) {
    return Status::InvalidArgument("GemmNaive: inner dim mismatch");
  }
  const bool aliased = (c == &a) || (c == &b);
  DenseMatrix tmp;
  DenseMatrix* out = aliased ? &tmp : c;
  *out = DenseMatrix(a.rows(), b.cols());
  for (size_t j = 0; j < b.cols(); ++j) {
    const float* bj = b.ColData(j);
    float* cj = out->ColData(j);
    for (size_t k = 0; k < a.cols(); ++k) {
      const float bkj = bj[k];
      const float* ak = a.ColData(k);
      for (size_t i = 0; i < a.rows(); ++i) cj[i] += ak[i] * bkj;
    }
  }
  if (aliased) *c = std::move(tmp);
  return Status::OK();
}

}  // namespace omega::linalg
