// Host SpMM kernels — see spmm_kernels.h for the contract.
//
// This translation unit is the SpMM analogue of linalg/gemm.cc's per-TU ISA
// split: under OMEGA_SPMM_SIMD the build compiles it with -mavx2 -mfma (and
// always with -ffp-contract=off), and the __AVX2__/__FMA__ macros select the
// vector packed-slab and CSR panel kernels plus explicit-FMA scalar paths.
// Without the option the same sources compile to plain multiply-add scalar
// loops.

#include "sparse/spmm_kernels.h"

#include <algorithm>
#include <iterator>
#include <new>

#include <sys/mman.h>

#if defined(__AVX2__) && defined(__FMA__)
#include <immintrin.h>
#define OMEGA_SPMM_SIMD_TU 1
#else
#define OMEGA_SPMM_SIMD_TU 0
#endif

namespace omega::sparse::kernels {

namespace {

// Single rounding policy for every scalar path in this TU (header comment):
// fused when the vector kernel is fused, two roundings when it is not.
inline float MulAdd(float v, float b, float acc) {
#if OMEGA_SPMM_SIMD_TU
  return __builtin_fmaf(v, b, acc);
#else
  return v * b + acc;
#endif
}

// --- Scalar panel paths (also the tail/fallback paths of the SIMD build) ---

// One row of a full kPanelCols-wide panel, degree known at compile time so
// the k loop fully unrolls (the CSDB short-row path).
template <uint32_t kDeg>
inline void PanelRowFixed(const graph::NodeId* cols, const float* vals,
                          const float* bp, size_t bstride, float* cp,
                          size_t cstride, uint32_t r) {
  float acc[kPanelCols] = {};
  for (uint32_t k = 0; k < kDeg; ++k) {
    const size_t col = cols[k];
    const float v = vals[k];
    for (size_t j = 0; j < kPanelCols; ++j) {
      acc[j] = MulAdd(v, bp[col + j * bstride], acc[j]);
    }
  }
  for (size_t j = 0; j < kPanelCols; ++j) cp[r + j * cstride] = acc[j];
}

// One row of a full panel, runtime degree.
inline void PanelRow(const graph::NodeId* cols, const float* vals, uint32_t deg,
                     const float* bp, size_t bstride, float* cp, size_t cstride,
                     uint32_t r) {
  float acc[kPanelCols] = {};
  for (uint32_t k = 0; k < deg; ++k) {
    const size_t col = cols[k];
    const float v = vals[k];
    for (size_t j = 0; j < kPanelCols; ++j) {
      acc[j] = MulAdd(v, bp[col + j * bstride], acc[j]);
    }
  }
  for (size_t j = 0; j < kPanelCols; ++j) cp[r + j * cstride] = acc[j];
}

// One row of a ragged tail panel (pw < kPanelCols columns).
inline void PanelRowTail(const graph::NodeId* cols, const float* vals,
                         uint32_t deg, const float* bp, size_t bstride,
                         float* cp, size_t cstride, uint32_t r, size_t pw) {
  float acc[kPanelCols] = {};
  for (uint32_t k = 0; k < deg; ++k) {
    const size_t col = cols[k];
    const float v = vals[k];
    for (size_t j = 0; j < pw; ++j) {
      acc[j] = MulAdd(v, bp[col + j * bstride], acc[j]);
    }
  }
  for (size_t j = 0; j < pw; ++j) cp[r + j * cstride] = acc[j];
}

// Full scalar panel over one CSDB degree span: constant-degree rows, deg <= 4
// dispatched to the unrolled specializations.
void CsdbSpanPanelScalar(const graph::CsdbMatrix::BlockSpan& s,
                         const graph::NodeId* cols, const float* vals,
                         const float* bp, size_t bstride, float* cp,
                         size_t cstride) {
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  switch (deg) {
    case 0:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r) {
        for (size_t j = 0; j < kPanelCols; ++j) cp[r + j * cstride] = 0.0f;
      }
      return;
    case 1:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += 1) {
        PanelRowFixed<1>(cols + ptr, vals + ptr, bp, bstride, cp, cstride, r);
      }
      return;
    case 2:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += 2) {
        PanelRowFixed<2>(cols + ptr, vals + ptr, bp, bstride, cp, cstride, r);
      }
      return;
    case 3:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += 3) {
        PanelRowFixed<3>(cols + ptr, vals + ptr, bp, bstride, cp, cstride, r);
      }
      return;
    case 4:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += 4) {
        PanelRowFixed<4>(cols + ptr, vals + ptr, bp, bstride, cp, cstride, r);
      }
      return;
    default:
      for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
        PanelRow(cols + ptr, vals + ptr, deg, bp, bstride, cp, cstride, r);
      }
      return;
  }
}

// Ragged tail panel over one CSDB degree span.
void CsdbSpanPanelTail(const graph::CsdbMatrix::BlockSpan& s,
                       const graph::NodeId* cols, const float* vals,
                       const float* bp, size_t bstride, float* cp,
                       size_t cstride, size_t pw) {
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    PanelRowTail(cols + ptr, vals + ptr, deg, bp, bstride, cp, cstride, r, pw);
  }
}

// One packed slab over one CSDB degree span (PackedSpanSimd /
// PackedSpanScalar below): p is the packed row of node 0 offset to the slab,
// pstride the packed width, sw the slab width, cp C's first slab column.
using PackedSpanFn = void (*)(const graph::CsdbMatrix::BlockSpan& s,
                              const graph::NodeId* cols, const float* vals,
                              const float* p, size_t pstride, size_t sw,
                              float* cp, size_t cstride);

#if OMEGA_SPMM_SIMD_TU

// The strided-gather index vector {0, bstride, ..., 7*bstride} must fit in
// int32; beyond this row count (no dataset analogue comes close) the CSR
// panels and GatherRows fall back to their bit-identical scalar loops. The
// packed CSDB kernel gathers nothing, so it needs no such guard.
constexpr size_t kMaxSimdStride = (size_t{1} << 31) / (kPanelCols - 1) - 1;

// One row of a full panel: 8 column accumulators in one ymm, one
// constant-stride gather + one FMA per nonzero, single ascending-k chain.
inline void PanelRowSimd(const graph::NodeId* cols, const float* vals,
                         uint32_t deg, const float* bp, __m256i vindex,
                         float* cp, size_t cstride, uint32_t r) {
  __m256 acc = _mm256_setzero_ps();
  for (uint32_t k = 0; k < deg; ++k) {
    const __m256 bv = _mm256_i32gather_ps(bp + cols[k], vindex, 4);
    acc = _mm256_fmadd_ps(_mm256_set1_ps(vals[k]), bv, acc);
  }
  alignas(32) float out[kPanelCols];
  _mm256_store_ps(out, acc);
  for (size_t j = 0; j < kPanelCols; ++j) cp[r + j * cstride] = out[j];
}

inline __m256i PanelIndex(size_t bstride) {
  const int s = static_cast<int>(bstride);
  return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
}

// Lanes [0, tail) of the masked tail load.
inline __m256i TailMask(size_t tail) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One packed slab of sw = 8 * kVecs (+ sw % 8 when kTail) columns over one
// CSDB degree span: per nonzero, kVecs contiguous vector loads from the
// packed row plus, with kTail, one masked load of the slab's last sw % 8
// columns. Masked-off lanes load 0 and are never stored; every live lane is
// the same single fused ascending-k chain as MulAdd, so each element lands
// on CsdbPanelSpmmScalar's bits. No argument is a vector type, so the
// compiler ends the function with vzeroupper: a dirty upper-YMM state
// leaking into the SSE code of other translation units slows all of it down.
template <size_t kVecs, bool kTail>
void PackedSpanSimd(const graph::CsdbMatrix::BlockSpan& s,
                    const graph::NodeId* cols, const float* vals,
                    const float* p, size_t pstride, size_t sw, float* cp,
                    size_t cstride) {
  constexpr size_t kAcc = kVecs + (kTail ? 1 : 0);
  const __m256i tail_mask = TailMask(sw % kPanelCols);
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    __m256 acc[kAcc] = {};
    for (uint32_t k = 0; k < deg; ++k) {
      const __m256 v = _mm256_set1_ps(vals[ptr + k]);
      const float* row = p + size_t{cols[ptr + k]} * pstride;
#pragma GCC unroll 8
      for (size_t i = 0; i < kVecs; ++i) {
        acc[i] = _mm256_fmadd_ps(v, _mm256_loadu_ps(row + i * kPanelCols),
                                 acc[i]);
      }
      if constexpr (kTail) {
        acc[kVecs] = _mm256_fmadd_ps(
            v, _mm256_maskload_ps(row + kVecs * kPanelCols, tail_mask),
            acc[kVecs]);
      }
    }
    alignas(32) float out[kAcc * kPanelCols];
#pragma GCC unroll 8
    for (size_t i = 0; i < kAcc; ++i) {
      _mm256_store_ps(out + i * kPanelCols, acc[i]);
    }
    for (size_t j = 0; j < sw; ++j) cp[r + j * cstride] = out[j];
  }
}

// The instantiation for a slab width in [1, kMaxSlabCols].
PackedSpanFn SelectPackedSpan(size_t sw) {
  static constexpr PackedSpanFn kFull[] = {
      nullptr,
      &PackedSpanSimd<1, false>, &PackedSpanSimd<2, false>,
      &PackedSpanSimd<3, false>, &PackedSpanSimd<4, false>,
      &PackedSpanSimd<5, false>, &PackedSpanSimd<6, false>,
      &PackedSpanSimd<7, false>, &PackedSpanSimd<8, false>};
  static constexpr PackedSpanFn kTailed[] = {
      &PackedSpanSimd<0, true>, &PackedSpanSimd<1, true>,
      &PackedSpanSimd<2, true>, &PackedSpanSimd<3, true>,
      &PackedSpanSimd<4, true>, &PackedSpanSimd<5, true>,
      &PackedSpanSimd<6, true>, &PackedSpanSimd<7, true>};
  static_assert(std::size(kFull) == kMaxSlabCols / kPanelCols + 1);
  return sw % kPanelCols == 0 ? kFull[sw / kPanelCols]
                              : kTailed[sw / kPanelCols];
}

#else  // !OMEGA_SPMM_SIMD_TU

// Scalar build: the same packed slab with one MulAdd chain per column.
void PackedSpanScalar(const graph::CsdbMatrix::BlockSpan& s,
                      const graph::NodeId* cols, const float* vals,
                      const float* p, size_t pstride, size_t sw, float* cp,
                      size_t cstride) {
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    float acc[kMaxSlabCols] = {};
    for (uint32_t k = 0; k < deg; ++k) {
      const float v = vals[ptr + k];
      const float* row = p + size_t{cols[ptr + k]} * pstride;
      for (size_t j = 0; j < sw; ++j) acc[j] = MulAdd(v, row[j], acc[j]);
    }
    for (size_t j = 0; j < sw; ++j) cp[r + j * cstride] = acc[j];
  }
}

#endif  // OMEGA_SPMM_SIMD_TU

}  // namespace

bool SpmmSimdEnabled() { return OMEGA_SPMM_SIMD_TU != 0; }

void CsdbPanelSpmmScalar(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                         linalg::DenseMatrix* c, uint32_t row_begin,
                         uint32_t row_end, size_t col_begin, size_t col_end) {
  const graph::NodeId* cols = a.col_list().data();
  const float* vals = a.nnz_list().data();
  const size_t bstride = b.col_stride();
  const size_t cstride = c->col_stride();
  for (size_t t0 = col_begin; t0 < col_end; t0 += kPanelCols) {
    const size_t pw = std::min(kPanelCols, col_end - t0);
    const float* bp = b.ColData(t0);
    float* cp = c->ColData(t0);
    for (auto blk = a.BlocksInRange(row_begin, row_end); !blk.AtEnd();
         blk.Next()) {
      if (pw == kPanelCols) {
        CsdbSpanPanelScalar(blk.span(), cols, vals, bp, bstride, cp, cstride);
      } else {
        CsdbSpanPanelTail(blk.span(), cols, vals, bp, bstride, cp, cstride, pw);
      }
    }
  }
}

PackedOperand::PackedOperand(size_t rows, size_t col_begin, size_t col_end)
    : rows_(rows), col_begin_(col_begin), width_(col_end - col_begin) {
  const size_t bytes = rows_ * width_ * sizeof(float);
  if (bytes == 0) return;
  // Mapped straight from the OS and unmapped on release. Recycled through
  // malloc instead, these large short-lived buffers left the arena of the
  // thread that packed them (a refresh writer, say) holding resident pages,
  // which raised the process's peak RSS.
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  data_ = std::unique_ptr<float, Unmap>(static_cast<float*>(p), Unmap{bytes});
}

void PackedOperand::Unmap::operator()(float* p) const { munmap(p, bytes); }

void PackRows(const linalg::DenseMatrix& b, size_t row_begin, size_t row_end,
              PackedOperand* packed) {
  // Tiles of 16 rows: each source column contributes one cache line per
  // tile while the tile's destination rows stay in L1.
  constexpr size_t kTileRows = 16;
  const size_t w = packed->width();
  for (size_t r0 = row_begin; r0 < row_end; r0 += kTileRows) {
    const size_t r1 = std::min(row_end, r0 + kTileRows);
    for (size_t j = 0; j < w; ++j) {
      const float* src = b.ColData(packed->col_begin() + j);
      for (size_t r = r0; r < r1; ++r) packed->Row(r)[j] = src[r];
    }
  }
}

void CsdbPackedSpmm(const graph::CsdbMatrix& a, const PackedOperand& packed,
                    linalg::DenseMatrix* c, uint32_t row_begin,
                    uint32_t row_end) {
  const graph::NodeId* cols = a.col_list().data();
  const float* vals = a.nnz_list().data();
  const size_t width = packed.width();
  const size_t cstride = c->col_stride();
  for (size_t s0 = 0; s0 < width; s0 += kMaxSlabCols) {
    const size_t sw = std::min(kMaxSlabCols, width - s0);
    const float* p = packed.Row(0) + s0;
    float* cp = c->ColData(packed.col_begin() + s0);
#if OMEGA_SPMM_SIMD_TU
    const PackedSpanFn span_fn = SelectPackedSpan(sw);
#else
    const PackedSpanFn span_fn = &PackedSpanScalar;
#endif
    for (auto blk = a.BlocksInRange(row_begin, row_end); !blk.AtEnd();
         blk.Next()) {
      span_fn(blk.span(), cols, vals, p, width, sw, cp, cstride);
    }
  }
}

void CsrPanelSpmmScalar(const graph::CsrMatrix& a, const linalg::DenseMatrix& b,
                        linalg::DenseMatrix* c, uint32_t row_begin,
                        uint32_t row_end, size_t col_begin, size_t col_end) {
  const graph::NodeId* cols = a.col_idx().data();
  const float* vals = a.values().data();
  const size_t bstride = b.col_stride();
  const size_t cstride = c->col_stride();
  for (size_t t0 = col_begin; t0 < col_end; t0 += kPanelCols) {
    const size_t pw = std::min(kPanelCols, col_end - t0);
    const float* bp = b.ColData(t0);
    float* cp = c->ColData(t0);
    for (uint32_t r = row_begin; r < row_end; ++r) {
      const uint64_t start = a.RowBegin(r);
      const uint32_t deg = a.RowDegree(r);
      if (pw == kPanelCols) {
        PanelRow(cols + start, vals + start, deg, bp, bstride, cp, cstride, r);
      } else {
        PanelRowTail(cols + start, vals + start, deg, bp, bstride, cp, cstride,
                     r, pw);
      }
    }
  }
}

void GatherRowsScalar(const linalg::DenseMatrix& e, const uint32_t* keys,
                      size_t n, linalg::DenseMatrix* out) {
  const size_t d = e.cols();
  const size_t estride = e.col_stride();
  for (size_t i = 0; i < n; ++i) {
    const float* src = e.data() + keys[i];
    float* dst = out->ColData(i);
    for (size_t j = 0; j < d; ++j) dst[j] = src[j * estride];
  }
}

void GatherRows(const linalg::DenseMatrix& e, const uint32_t* keys, size_t n,
                linalg::DenseMatrix* out) {
#if OMEGA_SPMM_SIMD_TU
  const size_t estride = e.col_stride();
  if (estride <= kMaxSimdStride) {
    const size_t d = e.cols();
    const __m256i vindex = PanelIndex(estride);
    for (size_t i = 0; i < n; ++i) {
      const float* src = e.data() + keys[i];
      float* dst = out->ColData(i);
      size_t j = 0;
      for (; j + kPanelCols <= d; j += kPanelCols) {
        _mm256_storeu_ps(dst + j,
                         _mm256_i32gather_ps(src + j * estride, vindex, 4));
      }
      for (; j < d; ++j) dst[j] = src[j * estride];
    }
    return;
  }
#endif
  GatherRowsScalar(e, keys, n, out);
}

void ScoreRowsScalar(const linalg::DenseMatrix& e, const float* q,
                     uint32_t row_begin, uint32_t row_end, float* scores) {
  const size_t d = e.cols();
  const size_t estride = e.col_stride();
  for (uint32_t c = row_begin; c < row_end; ++c) {
    const float* row = e.data() + c;
    float acc = 0.0f;
    for (size_t j = 0; j < d; ++j) acc = MulAdd(row[j * estride], q[j], acc);
    scores[c - row_begin] = acc;
  }
}

void ScoreRows(const linalg::DenseMatrix& e, const float* q,
               uint32_t row_begin, uint32_t row_end, float* scores) {
#if OMEGA_SPMM_SIMD_TU
  const size_t d = e.cols();
  const size_t estride = e.col_stride();
  uint32_t c = row_begin;
  for (; c + kPanelCols <= row_end; c += kPanelCols) {
    const float* row = e.data() + c;
    __m256 acc = _mm256_setzero_ps();
    for (size_t j = 0; j < d; ++j) {
      const __m256 ev = _mm256_loadu_ps(row + j * estride);
      acc = _mm256_fmadd_ps(ev, _mm256_set1_ps(q[j]), acc);
    }
    _mm256_storeu_ps(scores + (c - row_begin), acc);
  }
  // Tail rows: per-lane the vector loop is the identical single-accumulator
  // fused ascending-j chain, so the scalar tail rounds the same.
  ScoreRowsScalar(e, q, c, row_end, scores + (c - row_begin));
#else
  ScoreRowsScalar(e, q, row_begin, row_end, scores);
#endif
}

void CsrPanelSpmm(const graph::CsrMatrix& a, const linalg::DenseMatrix& b,
                  linalg::DenseMatrix* c, uint32_t row_begin, uint32_t row_end,
                  size_t col_begin, size_t col_end) {
#if OMEGA_SPMM_SIMD_TU
  const size_t bstride = b.col_stride();
  if (bstride <= kMaxSimdStride) {
    const graph::NodeId* cols = a.col_idx().data();
    const float* vals = a.values().data();
    const size_t cstride = c->col_stride();
    const __m256i vindex = PanelIndex(bstride);
    for (size_t t0 = col_begin; t0 < col_end; t0 += kPanelCols) {
      const size_t pw = std::min(kPanelCols, col_end - t0);
      const float* bp = b.ColData(t0);
      float* cp = c->ColData(t0);
      for (uint32_t r = row_begin; r < row_end; ++r) {
        const uint64_t start = a.RowBegin(r);
        const uint32_t deg = a.RowDegree(r);
        if (pw == kPanelCols) {
          PanelRowSimd(cols + start, vals + start, deg, bp, vindex, cp, cstride,
                       r);
        } else {
          PanelRowTail(cols + start, vals + start, deg, bp, bstride, cp,
                       cstride, r, pw);
        }
      }
    }
    return;
  }
#endif
  CsrPanelSpmmScalar(a, b, c, row_begin, row_end, col_begin, col_end);
}

}  // namespace omega::sparse::kernels
