// Host SpMM kernels — see spmm_kernels.h for the contract.
//
// This translation unit is the SpMM analogue of linalg/gemm.cc's per-TU ISA
// split: under OMEGA_SPMM_SIMD the build compiles it with -mavx2 -mfma (and
// always with -ffp-contract=off), and the __AVX2__/__FMA__ macros select the
// vector packed-slab bodies plus explicit-FMA scalar paths.
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

// C(r, t) = sum_k vals[k] * B(cols[k], t) for t in [col_begin, col_end), read
// from B in place: one MulAdd chain per column over the row's deg nonzeros in
// ascending k, the chain every packed body reproduces lane by lane.
inline void OracleRow(const graph::NodeId* cols, const float* vals,
                      uint32_t deg, const linalg::DenseMatrix& b,
                      linalg::DenseMatrix* c, uint32_t r, size_t col_begin,
                      size_t col_end) {
  for (size_t t = col_begin; t < col_end; ++t) {
    const float* bt = b.ColData(t);
    float acc = 0.0f;
    for (uint32_t k = 0; k < deg; ++k) acc = MulAdd(vals[k], bt[cols[k]], acc);
    c->ColData(t)[r] = acc;
  }
}

// One packed slab over one span of constant-degree rows (PackedSpanSimd /
// PackedSpanScalar below): a CSDB degree block, or a single CSR row. p is the
// packed row of node 0 offset to the slab, pstride the packed width, sw the
// slab width, cp C's first slab column.
using PackedSpanFn = void (*)(const graph::CsdbMatrix::BlockSpan& s,
                              const graph::NodeId* cols, const float* vals,
                              const float* p, size_t pstride, size_t sw,
                              float* cp, size_t cstride);

#if OMEGA_SPMM_SIMD_TU

// Floats per AVX2 vector.
constexpr size_t kLanes = 8;

// GatherRows' strided index vector {0, stride, ..., 7*stride} must fit in
// int32; beyond this row count (no dataset analogue comes close) it falls
// back to its bit-identical scalar loop. The packed kernels gather nothing,
// so they need no such guard.
constexpr size_t kMaxSimdStride = (size_t{1} << 31) / (kLanes - 1) - 1;

inline __m256i PanelIndex(size_t stride) {
  const int s = static_cast<int>(stride);
  return _mm256_setr_epi32(0, s, 2 * s, 3 * s, 4 * s, 5 * s, 6 * s, 7 * s);
}

// Lanes [0, tail) of the masked tail load.
inline __m256i TailMask(size_t tail) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(tail)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// One packed slab of sw = 8 * kVecs (+ sw % 8 when kTail) columns over one
// span: per nonzero, kVecs contiguous vector loads from the packed row plus,
// with kTail, one masked load of the slab's last sw % 8 columns. Masked-off
// lanes load 0 and are never stored; every live lane is the same single
// fused ascending-k chain as MulAdd, so each element lands on OracleRow's
// bits. No argument is a vector type, so the compiler ends the function with
// vzeroupper: a dirty upper-YMM state leaking into the SSE code of other
// translation units slows all of it down.
template <size_t kVecs, bool kTail>
void PackedSpanSimd(const graph::CsdbMatrix::BlockSpan& s,
                    const graph::NodeId* cols, const float* vals,
                    const float* p, size_t pstride, size_t sw, float* cp,
                    size_t cstride) {
  constexpr size_t kAcc = kVecs + (kTail ? 1 : 0);
  const __m256i tail_mask = TailMask(sw % kLanes);
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    __m256 acc[kAcc] = {};
    for (uint32_t k = 0; k < deg; ++k) {
      const __m256 v = _mm256_set1_ps(vals[ptr + k]);
      const float* row = p + size_t{cols[ptr + k]} * pstride;
#pragma GCC unroll 8
      for (size_t i = 0; i < kVecs; ++i) {
        acc[i] = _mm256_fmadd_ps(v, _mm256_loadu_ps(row + i * kLanes), acc[i]);
      }
      if constexpr (kTail) {
        acc[kVecs] = _mm256_fmadd_ps(
            v, _mm256_maskload_ps(row + kVecs * kLanes, tail_mask), acc[kVecs]);
      }
    }
    alignas(32) float out[kAcc * kLanes];
#pragma GCC unroll 8
    for (size_t i = 0; i < kAcc; ++i) {
      _mm256_store_ps(out + i * kLanes, acc[i]);
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
  static_assert(std::size(kFull) == kMaxSlabCols / kLanes + 1);
  return sw % kLanes == 0 ? kFull[sw / kLanes] : kTailed[sw / kLanes];
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

PackedSpanFn SelectPackedSpan(size_t) { return &PackedSpanScalar; }

#endif  // OMEGA_SPMM_SIMD_TU

// The slab loop of both packed kernels: for each slab of up to kMaxSlabCols
// packed columns, runs the span body over every span `for_each_span` hands
// to its callback. Each span's ptr indexes the format's `cols`/`vals`.
template <typename ForEachSpan>
void PackedSlabs(const graph::NodeId* cols, const float* vals,
                 const PackedOperand& packed, linalg::DenseMatrix* c,
                 const ForEachSpan& for_each_span) {
  const size_t width = packed.width();
  const size_t cstride = c->col_stride();
  for (size_t s0 = 0; s0 < width; s0 += kMaxSlabCols) {
    const size_t sw = std::min(kMaxSlabCols, width - s0);
    const PackedSpanFn span_fn = SelectPackedSpan(sw);
    const float* p = packed.Row(0) + s0;
    float* cp = c->ColData(packed.col_begin() + s0);
    for_each_span([&](const graph::CsdbMatrix::BlockSpan& s) {
      span_fn(s, cols, vals, p, width, sw, cp, cstride);
    });
  }
}

}  // namespace

bool SpmmSimdEnabled() { return OMEGA_SPMM_SIMD_TU != 0; }

void PackedOperand::Reshape(size_t rows, size_t col_begin, size_t col_end) {
  rows_ = rows;
  col_begin_ = col_begin;
  width_ = col_end - col_begin;
  const size_t bytes = rows_ * width_ * sizeof(float);
  if (data_ != nullptr && bytes <= data_.get_deleter().bytes) return;
  // Mapped straight from the OS and unmapped on release. Recycled through
  // malloc instead, these large buffers left the arena of the thread that
  // packed them (a refresh writer, say) holding resident pages, which raised
  // the process's peak RSS. The old mapping goes before the new one is made.
  data_.reset();
  if (bytes == 0) return;
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
  PackedSlabs(a.col_list().data(), a.nnz_list().data(), packed, c,
              [&](const auto& run) {
                for (auto blk = a.BlocksInRange(row_begin, row_end);
                     !blk.AtEnd(); blk.Next()) {
                  run(blk.span());
                }
              });
}

void CsrPackedSpmm(const graph::CsrMatrix& a, const PackedOperand& packed,
                   linalg::DenseMatrix* c, uint32_t row_begin,
                   uint32_t row_end) {
  row_end = std::min(row_end, a.num_rows());
  PackedSlabs(a.col_idx().data(), a.values().data(), packed, c,
              [&](const auto& run) {
                for (uint32_t r = row_begin; r < row_end; ++r) {
                  run({r, r + 1, a.RowDegree(r), a.RowBegin(r)});
                }
              });
}

void CsdbPanelSpmmScalar(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                         linalg::DenseMatrix* c, uint32_t row_begin,
                         uint32_t row_end, size_t col_begin, size_t col_end) {
  const graph::NodeId* cols = a.col_list().data();
  const float* vals = a.nnz_list().data();
  for (auto blk = a.BlocksInRange(row_begin, row_end); !blk.AtEnd();
       blk.Next()) {
    const graph::CsdbMatrix::BlockSpan& s = blk.span();
    uint64_t ptr = s.ptr;
    for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += s.degree) {
      OracleRow(cols + ptr, vals + ptr, s.degree, b, c, r, col_begin, col_end);
    }
  }
}

void CsrPanelSpmmScalar(const graph::CsrMatrix& a, const linalg::DenseMatrix& b,
                        linalg::DenseMatrix* c, uint32_t row_begin,
                        uint32_t row_end, size_t col_begin, size_t col_end) {
  const graph::NodeId* cols = a.col_idx().data();
  const float* vals = a.values().data();
  for (uint32_t r = row_begin; r < row_end; ++r) {
    const uint64_t start = a.RowBegin(r);
    OracleRow(cols + start, vals + start, a.RowDegree(r), b, c, r, col_begin,
              col_end);
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
      for (; j + kLanes <= d; j += kLanes) {
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
  for (; c + kLanes <= row_end; c += kLanes) {
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

}  // namespace omega::sparse::kernels
