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

// Where a span body sends each finished row r. ColumnStore writes it to
// the column-major C; ChebyshevStep applies the Chebyshev epilogue
// (spmm_kernels.h) in place in the packed recurrence state. Both hold
// slab-offset bases, so column j of the slab is element j of a row. The
// vector body hands over the row's accumulator registers (the tail vector's
// live lanes under `tail_mask`), the scalar body an array of sw values.
struct ColumnStore {
  float* cp;  // C's first slab column
  size_t cstride;

  void Row(uint32_t r, const float* acc, size_t sw) const {
    for (size_t j = 0; j < sw; ++j) cp[r + j * cstride] = acc[j];
  }
};

struct ChebyshevStep {
  const float* src;    // the gather source, T_0 at term 1
  const float* t_km2;  // T_{k-2} in (k >= 2), may be `t`
  float* t;            // T_k out
  float* sum;
  size_t stride;       // the packed width of all four
  bool first;          // term 1
  float coeff;
  float coeff0;

  // Element j of row r, or the elements a vector of V covers from there.
  template <typename V, typename Load, typename Store>
  void Step(size_t off, const V& st, const Load& load, const Store& store) const {
    if (first) {
      const V tk = ChebyshevFirstTerm(st);
      store(t + off, tk);
      store(sum + off, ChebyshevAddTerm(ChebyshevFirstSum(coeff0, load(src + off)),
                                        coeff, tk));
    } else {
      const V tk = ChebyshevNextTerm(st, load(t_km2 + off));
      store(t + off, tk);
      store(sum + off, ChebyshevAddTerm(load(sum + off), coeff, tk));
    }
  }

  void Row(uint32_t r, const float* acc, size_t sw) const {
    const auto load = [](const float* x) { return *x; };
    const auto store = [](float* x, float v) { *x = v; };
    for (size_t j = 0; j < sw; ++j) Step(r * stride + j, acc[j], load, store);
  }
};

// One packed slab over one span of constant-degree rows (PackedSpanSimd /
// PackedSpanScalar below): a CSDB degree block, or a single CSR row. p is the
// packed row of node 0 offset to the slab, pstride the packed width, sw the
// slab width; `sink` takes each finished row.
template <typename Sink>
using PackedSpanFn = void (*)(const graph::CsdbMatrix::BlockSpan& s,
                              const graph::NodeId* cols, const float* vals,
                              const float* p, size_t pstride, size_t sw,
                              const Sink& sink);

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

// acc[i] += v * (the slab's packed row `row`), for kVecs full vectors plus,
// with kTail, one masked load of the slab's last sw % 8 columns.
template <size_t kVecs, bool kTail>
inline void FmaRow(__m256 v, const float* row, __m256i tail_mask, __m256* acc) {
#pragma GCC unroll 8
  for (size_t i = 0; i < kVecs; ++i) {
    acc[i] = _mm256_fmadd_ps(v, _mm256_loadu_ps(row + i * kLanes), acc[i]);
  }
  if constexpr (kTail) {
    acc[kVecs] = _mm256_fmadd_ps(
        v, _mm256_maskload_ps(row + kVecs * kLanes, tail_mask), acc[kVecs]);
  }
}

// Hands row r's accumulators to the sink: the column store takes them
// through a stack copy, the Chebyshev step straight from the registers.
template <size_t kVecs, bool kTail>
inline void FinishRow(uint32_t r, const __m256* acc, __m256i, size_t sw,
                      const ColumnStore& sink) {
  constexpr size_t kAcc = kVecs + (kTail ? 1 : 0);
  alignas(32) float out[kAcc * kLanes];
#pragma GCC unroll 8
  for (size_t i = 0; i < kAcc; ++i) _mm256_store_ps(out + i * kLanes, acc[i]);
  sink.Row(r, out, sw);
}

template <size_t kVecs, bool kTail>
inline void FinishRow(uint32_t r, const __m256* acc, __m256i tail_mask,
                      size_t, const ChebyshevStep& sink) {
  const size_t off = size_t{r} * sink.stride;
  const auto load = [](const float* x) { return _mm256_loadu_ps(x); };
  const auto store = [](float* x, __m256 v) { _mm256_storeu_ps(x, v); };
#pragma GCC unroll 8
  for (size_t i = 0; i < kVecs; ++i) sink.Step(off + i * kLanes, acc[i], load, store);
  if constexpr (kTail) {
    // Masked-off lanes load 0, compute on it and are never stored.
    sink.Step(
        off + kVecs * kLanes, acc[kVecs],
        [tail_mask](const float* x) { return _mm256_maskload_ps(x, tail_mask); },
        [tail_mask](float* x, __m256 v) { _mm256_maskstore_ps(x, tail_mask, v); });
  }
}

// One packed slab of sw = 8 * kVecs (+ sw % 8 when kTail) columns over one
// span: per nonzero, kVecs contiguous vector loads from the packed row plus,
// with kTail, one masked load. Masked-off lanes load 0 and are never handed
// on. Every live lane is the same single fused ascending-k chain as MulAdd,
// so each element lands on OracleRow's bits. No argument is a vector type,
// so the compiler ends the function with vzeroupper: a dirty upper-YMM state
// leaking into the SSE code of other translation units slows all of it down.
template <size_t kVecs, bool kTail, typename Sink>
void PackedSpanSimd(const graph::CsdbMatrix::BlockSpan& s,
                    const graph::NodeId* cols, const float* vals,
                    const float* p, size_t pstride, size_t sw,
                    const Sink& sink) {
  constexpr size_t kAcc = kVecs + (kTail ? 1 : 0);
  const __m256i tail_mask = TailMask(sw % kLanes);
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    __m256 acc[kAcc] = {};
    for (uint32_t k = 0; k < deg; ++k) {
      FmaRow<kVecs, kTail>(_mm256_set1_ps(vals[ptr + k]),
                           p + size_t{cols[ptr + k]} * pstride, tail_mask, acc);
    }
    FinishRow<kVecs, kTail>(r, acc, tail_mask, sw, sink);
  }
}

// The instantiation for a slab width in [1, kMaxSlabCols].
template <typename Sink>
PackedSpanFn<Sink> SelectPackedSpan(size_t sw) {
  static constexpr PackedSpanFn<Sink> kFull[] = {
      nullptr,
      &PackedSpanSimd<1, false, Sink>, &PackedSpanSimd<2, false, Sink>,
      &PackedSpanSimd<3, false, Sink>, &PackedSpanSimd<4, false, Sink>,
      &PackedSpanSimd<5, false, Sink>, &PackedSpanSimd<6, false, Sink>,
      &PackedSpanSimd<7, false, Sink>, &PackedSpanSimd<8, false, Sink>};
  static constexpr PackedSpanFn<Sink> kTailed[] = {
      &PackedSpanSimd<0, true, Sink>, &PackedSpanSimd<1, true, Sink>,
      &PackedSpanSimd<2, true, Sink>, &PackedSpanSimd<3, true, Sink>,
      &PackedSpanSimd<4, true, Sink>, &PackedSpanSimd<5, true, Sink>,
      &PackedSpanSimd<6, true, Sink>, &PackedSpanSimd<7, true, Sink>};
  static_assert(std::size(kFull) == kMaxSlabCols / kLanes + 1);
  return sw % kLanes == 0 ? kFull[sw / kLanes] : kTailed[sw / kLanes];
}

#else  // !OMEGA_SPMM_SIMD_TU

// Scalar build: the same packed slab with one MulAdd chain per column, one
// row at a time.
template <typename Sink>
void PackedSpanScalar(const graph::CsdbMatrix::BlockSpan& s,
                      const graph::NodeId* cols, const float* vals,
                      const float* p, size_t pstride, size_t sw,
                      const Sink& sink) {
  const uint32_t deg = s.degree;
  uint64_t ptr = s.ptr;
  for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
    float acc[kMaxSlabCols] = {};
    for (uint32_t k = 0; k < deg; ++k) {
      const float v = vals[ptr + k];
      const float* row = p + size_t{cols[ptr + k]} * pstride;
      for (size_t j = 0; j < sw; ++j) acc[j] = MulAdd(v, row[j], acc[j]);
    }
    sink.Row(r, acc, sw);
  }
}

template <typename Sink>
PackedSpanFn<Sink> SelectPackedSpan(size_t) { return &PackedSpanScalar<Sink>; }

#endif  // OMEGA_SPMM_SIMD_TU

// The slab loop of both packed kernels: for each slab of up to kMaxSlabCols
// of the packed columns [col_begin, col_end), runs the span body over every
// span `for_each_span` hands to its callback, each finished row going to
// make_sink(slab's first packed column). Each span's ptr indexes the
// format's `cols`/`vals`.
template <typename MakeSink, typename ForEachSpan>
void PackedSlabs(const graph::NodeId* cols, const float* vals,
                 const PackedOperand& packed, size_t col_begin, size_t col_end,
                 const MakeSink& make_sink, const ForEachSpan& for_each_span) {
  using Sink = decltype(make_sink(size_t{0}));
  const size_t width = packed.width();
  for (size_t s0 = col_begin; s0 < col_end; s0 += kMaxSlabCols) {
    const size_t sw = std::min(kMaxSlabCols, col_end - s0);
    const PackedSpanFn<Sink> span_fn = SelectPackedSpan<Sink>(sw);
    const float* p = packed.Row(0) + s0;
    const Sink sink = make_sink(s0);
    for_each_span([&](const graph::CsdbMatrix::BlockSpan& s) {
      span_fn(s, cols, vals, p, width, sw, sink);
    });
  }
}

// The sinks of the two kernel flavours.
auto ColumnSinks(const PackedOperand& packed, linalg::DenseMatrix* c) {
  return [&packed, c](size_t s0) {
    return ColumnStore{c->ColData(packed.col_begin() + s0), c->col_stride()};
  };
}

auto ChebyshevSinks(const PackedOperand& source, const ChebyshevEpilogue& step) {
  return [&source, &step](size_t s0) {
    const bool first = step.term == 1;
    return ChebyshevStep{source.Row(0) + s0, first ? nullptr : step.t_km2->Row(0) + s0,
                         step.t->Row(0) + s0, step.sum->Row(0) + s0, source.width(),
                         first, step.coeff, step.coeff0};
  };
}

// The span walks of the two formats: CSDB degree blocks, single CSR rows.
auto CsdbSpans(const graph::CsdbMatrix& a, uint32_t row_begin, uint32_t row_end) {
  return [&a, row_begin, row_end](const auto& run) {
    for (auto blk = a.BlocksInRange(row_begin, row_end); !blk.AtEnd(); blk.Next()) {
      run(blk.span());
    }
  };
}

auto CsrSpans(const graph::CsrMatrix& a, uint32_t row_begin, uint32_t row_end) {
  row_end = std::min(row_end, a.num_rows());
  return [&a, row_begin, row_end](const auto& run) {
    for (uint32_t r = row_begin; r < row_end; ++r) {
      run({r, r + 1, a.RowDegree(r), a.RowBegin(r)});
    }
  };
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

void UnpackRows(const PackedOperand& packed, size_t row_begin, size_t row_end,
                linalg::DenseMatrix* out) {
  // PackRows' tiles, transposed.
  constexpr size_t kTileRows = 16;
  const size_t w = packed.width();
  for (size_t r0 = row_begin; r0 < row_end; r0 += kTileRows) {
    const size_t r1 = std::min(row_end, r0 + kTileRows);
    for (size_t j = 0; j < w; ++j) {
      float* dst = out->ColData(j);
      for (size_t r = r0; r < r1; ++r) dst[r] = packed.Row(r)[j];
    }
  }
}

void CsdbPackedSpmm(const graph::CsdbMatrix& a, const PackedOperand& packed,
                    linalg::DenseMatrix* c, uint32_t row_begin,
                    uint32_t row_end) {
  PackedSlabs(a.col_list().data(), a.nnz_list().data(), packed, 0,
              packed.width(), ColumnSinks(packed, c),
              CsdbSpans(a, row_begin, row_end));
}

void CsrPackedSpmm(const graph::CsrMatrix& a, const PackedOperand& packed,
                   linalg::DenseMatrix* c, uint32_t row_begin,
                   uint32_t row_end) {
  PackedSlabs(a.col_idx().data(), a.values().data(), packed, 0, packed.width(),
              ColumnSinks(packed, c), CsrSpans(a, row_begin, row_end));
}

void CsdbPackedSpmm(const graph::CsdbMatrix& a, const PackedOperand& source,
                    const ChebyshevEpilogue& step, uint32_t row_begin,
                    uint32_t row_end, size_t col_begin, size_t col_end) {
  PackedSlabs(a.col_list().data(), a.nnz_list().data(), source, col_begin,
              col_end, ChebyshevSinks(source, step),
              CsdbSpans(a, row_begin, row_end));
}

void CsrPackedSpmm(const graph::CsrMatrix& a, const PackedOperand& source,
                   const ChebyshevEpilogue& step, uint32_t row_begin,
                   uint32_t row_end, size_t col_begin, size_t col_end) {
  PackedSlabs(a.col_idx().data(), a.values().data(), source, col_begin, col_end,
              ChebyshevSinks(source, step), CsrSpans(a, row_begin, row_end));
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
