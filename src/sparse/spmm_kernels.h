// Host SpMM compute kernels (host arithmetic only, no memsim).
//
// The per-column kernels in spmm.cc walk the whole sparse row list once per
// dense column: every nonzero's (col, val) pair is re-loaded d times and pays
// one scalar gather per load. The kernels here amortize one index/value load
// per nonzero across many register-resident column accumulators instead.
//
// Both formats run one packed-operand kernel: the dense slice B[:, col_begin:
// col_end) is copied row-major once per call (into a PackedOperand the
// caller keeps across calls), so a nonzero's
// whole width is one contiguous run, and the kernel walks spans of
// constant-degree rows once per slab of up to kMaxSlabCols columns with plain
// vector loads and a masked ragged tail. CsdbPackedSpmm's spans are the CSDB
// degree blocks (CsdbMatrix::BlocksInRange); CsrPackedSpmm's are single CSR
// rows; both bodies, vector and scalar, run one row of a span at a time.
//
// A finished row goes to one of two places: the column-major C, or the
// Chebyshev epilogue (ChebyshevEpilogue below), which applies one term of
// ProNE's recurrence to the row and writes it back row-major, so the
// recurrence's state stays packed from one term's SpMM to the next.
//
// Numerics policy (DESIGN.md "SpMM packed kernel"): every output
// element C(r, t) is reduced over its row's nonzeros in ascending k with a
// single accumulator, and all paths inside this translation unit — vector
// slabs, masked tails, the scalar span body, the scalar oracles — round
// identically (explicit FMA everywhere when the TU is compiled with AVX2+FMA
// under OMEGA_SPMM_SIMD, plain multiply-add everywhere otherwise; the TU is
// built with -ffp-contract=off so the compiler cannot mix the two). An
// element therefore lands on the same bits no matter how the column range is
// sliced, which is what keeps embeddings bit-identical across thread counts
// when NaDP/ASL shift slice boundaries.
//
// These kernels never touch the simulator: charging stays in spmm.cc's
// ChargeWorkload* functions and is byte-identical to the per-column era.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "graph/csdb.h"
#include "graph/csr.h"
#include "linalg/dense_matrix.h"

namespace omega::sparse::kernels {

/// True when this build compiled the kernel TU with the AVX2+FMA variant
/// (OMEGA_SPMM_SIMD on a supporting toolchain).
bool SpmmSimdEnabled();

// --- Packed-operand kernel ---------------------------------------------------

/// Columns per packed-kernel slab: 8 register-resident vector accumulators.
inline constexpr size_t kMaxSlabCols = 64;

/// A row-major copy of the dense column slice B[:, col_begin:col_end): the
/// width() values of B's row r sit contiguously at Row(r). Holds page-aligned
/// storage of its own mapping, uninitialized until PackRows fills it.
///
/// One operand serves many packs: Reshape maps new storage only when the
/// shape needs more floats than the mapping holds, so an owner that packs
/// every SpMM of a run into one operand maps it once, at the widest width it
/// sees, and packing a narrower slice reuses it. The mapping is unmapped when
/// the operand dies (OmegaSpmm and the CSR executors own one per run, a
/// Chebyshev capture one per recurrence term for as long as it is kept, the
/// incremental refresh its filter sum per Refresh call), so none outlives its
/// owner.
class PackedOperand {
 public:
  /// Becomes rows x (col_end - col_begin) for B[:, col_begin:col_end). The
  /// contents are unspecified until PackRows fills them.
  void Reshape(size_t rows, size_t col_begin, size_t col_end);

  size_t rows() const { return rows_; }
  size_t col_begin() const { return col_begin_; }
  size_t col_end() const { return col_begin_ + width_; }
  size_t width() const { return width_; }
  const float* Row(size_t r) const { return data_.get() + r * width_; }
  float* Row(size_t r) { return data_.get() + r * width_; }

 private:
  struct Unmap {
    size_t bytes;
    void operator()(float* p) const;
  };
  std::unique_ptr<float, Unmap> data_;
  size_t rows_ = 0;
  size_t col_begin_ = 0;
  size_t width_ = 0;
};

/// Copies rows [row_begin, row_end) of B's slice into `packed` (whose shape
/// was set beforehand; b.rows() == packed->rows()). Writes only those
/// rows, so disjoint row ranges may be packed concurrently.
void PackRows(const linalg::DenseMatrix& b, size_t row_begin, size_t row_end,
              PackedOperand* packed);

/// The inverse: out(r, j) = packed.Row(r)[j] for rows [row_begin, row_end)
/// and every packed column j (`out` is packed.rows() x packed.width()).
void UnpackRows(const PackedOperand& packed, size_t row_begin, size_t row_end,
                linalg::DenseMatrix* out);

// --- The Chebyshev step --------------------------------------------------------
//
// ProNE's stage 2 (embed/chebyshev.h) computes T_k = -2 S T_{k-1} - T_{k-2}
// and the filter sum sum_k c_k T_k. Its per-element arithmetic is defined
// once, here, and run by the packed kernel's epilogue, on whole AVX2 vectors
// (V = __m256) where the build has them and on floats (V = float) in the
// scalar body and masked tails. Training and the incremental refresh run
// that same epilogue, over all rows or over a row subset, so a refreshed row
// lands on a from-scratch recompute's bits. Every multiply and add rounds
// on its own: the kernel's translation unit is built with -ffp-contract=off.
// st is an element of S T_{k-1}; a vector is eight independent elements.

/// T_1 = -1 * st.
template <typename V>
inline V ChebyshevFirstTerm(V st) {
  return -1.0f * st;
}

/// T_k = (0 + -2 * st) + -1 * T_{k-2} for k >= 2. The explicit 0 + turns the
/// -0 of -2 * 0 into +0.
template <typename V>
inline V ChebyshevNextTerm(V st, V t_km2) {
  return (0.0f + -2.0f * st) + -1.0f * t_km2;
}

/// The filter sum's first term, 0 + c_0 * T_0.
template <typename V>
inline V ChebyshevFirstSum(float c0, V t0) {
  return 0.0f + c0 * t0;
}

/// sum + c_k * T_k.
template <typename V>
inline V ChebyshevAddTerm(V sum, float ck, V tk) {
  return sum + ck * tk;
}

/// The epilogue that turns a packed SpMM into one Chebyshev term k >= 1.
/// The SpMM's gather source is T_{k-1}; every operand has its shape. For
/// each element of a finished row r, with st its SpMM value:
///   k == 1: T_1 = ChebyshevFirstTerm(st), sum = ChebyshevAddTerm(
///           ChebyshevFirstSum(coeff0, T_0), coeff, T_1), with T_0 read from
///           the gather source's row r (term 0 folds into term 1);
///   k >= 2: T_k = ChebyshevNextTerm(st, T_{k-2}), read from `t_km2`'s row r,
///           and sum = ChebyshevAddTerm(sum, coeff, T_k).
/// T_k is written to `t`'s row r, the next term's gather source. `t_km2` may
/// be `t` itself (training keeps two live terms, so T_k overwrites T_{k-2})
/// or apart from it (the refresh keeps every term). Rows are independent
/// and no element reads another row of `t_km2`, `t` or `sum`, so any row or
/// column split computes the same bits.
struct ChebyshevEpilogue {
  size_t term = 1;                        ///< k
  float coeff = 0.0f;                     ///< c_k
  float coeff0 = 0.0f;                    ///< c_0, read for k == 1 only
  const PackedOperand* t_km2 = nullptr;   ///< T_{k-2}, read for k >= 2 only
  PackedOperand* t = nullptr;             ///< T_k out
  PackedOperand* sum = nullptr;           ///< the filter sum through term k
};

/// C(r, packed.col_begin() + j) = sum_k A(r, :) * B(:, packed.col_begin() + j)
/// for rows [row_begin, row_end) of the CSDB matrix and every packed column;
/// `packed` covers all of A's columns. Bit-identical to CsdbPanelSpmmScalar
/// over the same columns.
void CsdbPackedSpmm(const graph::CsdbMatrix& a, const PackedOperand& packed,
                    linalg::DenseMatrix* c, uint32_t row_begin,
                    uint32_t row_end);

/// The same for rows [row_begin, row_end) of a CSR matrix, each row one span
/// of the packed slab loop. Bit-identical to CsrPanelSpmmScalar.
void CsrPackedSpmm(const graph::CsrMatrix& a, const PackedOperand& packed,
                   linalg::DenseMatrix* c, uint32_t row_begin,
                   uint32_t row_end);

/// One Chebyshev term over rows [row_begin, row_end) and packed columns
/// [col_begin, col_end) of `source`: the SpMM of CsdbPackedSpmm (every
/// element with CsdbPanelSpmmScalar's bits), each finished row handed to
/// `step` instead of stored column-major. step.t and step.sum are
/// source.rows() x source.width(), like `source`.
void CsdbPackedSpmm(const graph::CsdbMatrix& a, const PackedOperand& source,
                    const ChebyshevEpilogue& step, uint32_t row_begin,
                    uint32_t row_end, size_t col_begin, size_t col_end);

/// The CSR flavour of the Chebyshev term (CsrPanelSpmmScalar's bits).
void CsrPackedSpmm(const graph::CsrMatrix& a, const PackedOperand& source,
                   const ChebyshevEpilogue& step, uint32_t row_begin,
                   uint32_t row_end, size_t col_begin, size_t col_end);

/// Scalar oracles over B in place, always compiled: the bit-exact references
/// the packed kernels are tested and benchmarked against; no compute path
/// runs them. Each row is one ascending-k MulAdd chain per column of
/// [col_begin, col_end). The caller pre-clamps the columns, and for CSR the
/// rows too.
void CsdbPanelSpmmScalar(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                         linalg::DenseMatrix* c, uint32_t row_begin,
                         uint32_t row_end, size_t col_begin, size_t col_end);

void CsrPanelSpmmScalar(const graph::CsrMatrix& a, const linalg::DenseMatrix& b,
                        linalg::DenseMatrix* c, uint32_t row_begin,
                        uint32_t row_end, size_t col_begin, size_t col_end);

// --- Serving-layer kernels (multi-key gather + dot-product scoring) ---------
//
// The serving batch path lives in this TU so it inherits the rounding policy
// above: GatherRows is a pure copy (trivially identical across variants), and
// ScoreRows reduces each row's dot product over ascending j with a single
// accumulator — fused exactly when the packed kernel is fused — so top-k
// scores are bit-identical whether a scan is served per-request or batched,
// vector or scalar.

/// out(j, i) = e(keys[i], j): gathers n embedding rows of the column-major
/// matrix `e` into the e.cols() x n matrix `out`, one key's vector per output
/// column (contiguous, ready to use as a query vector). `out` must be
/// pre-sized e.cols() x n. The SIMD variant gathers 8 columns per
/// _mm256_i32gather_ps, guarded against strides that overflow int32.
void GatherRows(const linalg::DenseMatrix& e, const uint32_t* keys, size_t n,
                linalg::DenseMatrix* out);

void GatherRowsScalar(const linalg::DenseMatrix& e, const uint32_t* keys,
                      size_t n, linalg::DenseMatrix* out);

/// scores[c - row_begin] = sum_j e(c, j) * q[j] for c in [row_begin,
/// row_end); q holds e.cols() entries. The SIMD variant scores 8 consecutive
/// rows per iteration with sequential column loads (no gathers needed:
/// consecutive rows of a column-major matrix are adjacent).
void ScoreRows(const linalg::DenseMatrix& e, const float* q,
               uint32_t row_begin, uint32_t row_end, float* scores);

void ScoreRowsScalar(const linalg::DenseMatrix& e, const float* q,
                     uint32_t row_begin, uint32_t row_end, float* scores);

}  // namespace omega::sparse::kernels
