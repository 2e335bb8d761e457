// The Chebyshev recurrence's step as separate row passes over column-major
// operands, built from the per-element step in sparse/spmm_kernels.h: the
// oracle the packed kernel's epilogue, which training and the incremental
// refresh both run, is checked against. Rows are independent.

#pragma once

#include <cstddef>

#include "linalg/dense_matrix.h"
#include "sparse/spmm_kernels.h"

namespace omega::embed {

/// Term k >= 1 from st = S T_{k-1}: T_1 = ChebyshevFirstTerm(st), else
/// T_k = ChebyshevNextTerm(st, T_{k-2}). `t_km2` is not read for k == 1;
/// `t_k` may alias `st` or `t_km2`.
inline void ChebyshevTermRows(size_t k, const linalg::DenseMatrix& st,
                              const linalg::DenseMatrix* t_km2,
                              linalg::DenseMatrix* t_k, size_t begin, size_t end) {
  for (size_t c = 0; c < st.cols(); ++c) {
    const float* s_col = st.ColData(c);
    float* dst = t_k->ColData(c);
    for (size_t r = begin; r < end; ++r) {
      dst[r] = k == 1 ? sparse::kernels::ChebyshevFirstTerm(s_col[r])
                      : sparse::kernels::ChebyshevNextTerm(s_col[r],
                                                           t_km2->ColData(c)[r]);
    }
  }
}

/// Adds term k to the filter output: out = ChebyshevFirstSum(c_0, T_0) for
/// k == 0, out = ChebyshevAddTerm(out, c_k, T_k) after. Terms must come in
/// ascending k.
inline void ChebyshevAccumulateRows(size_t k, double c_k, const linalg::DenseMatrix& t_k,
                                    linalg::DenseMatrix* out, size_t begin, size_t end) {
  const float coeff = static_cast<float>(c_k);
  for (size_t c = 0; c < t_k.cols(); ++c) {
    const float* src = t_k.ColData(c);
    float* dst = out->ColData(c);
    for (size_t r = begin; r < end; ++r) {
      dst[r] = k == 0 ? sparse::kernels::ChebyshevFirstSum(coeff, src[r])
                      : sparse::kernels::ChebyshevAddTerm(dst[r], coeff, src[r]);
    }
  }
}

}  // namespace omega::embed
