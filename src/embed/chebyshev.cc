#include "embed/chebyshev.h"

#include <algorithm>
#include <cmath>

#include "sparse/spmm_kernels.h"

namespace omega::embed {

SpectralFilter ProneBandPass(double mu, double theta) {
  return [mu, theta](double lambda) {
    const double centered = lambda - mu;
    return std::exp(-0.5 * theta * (centered * centered - 1.0));
  };
}

std::vector<double> ChebyshevCoefficients(const SpectralFilter& filter, int order,
                                          int quad_points) {
  std::vector<double> coeffs(order, 0.0);
  const double pi = 3.14159265358979323846;
  for (int j = 0; j < quad_points; ++j) {
    const double theta = pi * (j + 0.5) / quad_points;
    const double x = std::cos(theta);
    const double hx = filter(x + 1.0);  // lambda = x + 1 in [0, 2]
    for (int k = 0; k < order; ++k) {
      coeffs[k] += hx * std::cos(k * theta);
    }
  }
  for (int k = 0; k < order; ++k) {
    coeffs[k] *= (k == 0 ? 1.0 : 2.0) / quad_points;
  }
  return coeffs;
}

void ChebyshevTermRows(size_t k, const linalg::DenseMatrix& st,
                       const linalg::DenseMatrix* t_km2, linalg::DenseMatrix* t_k,
                       size_t begin, size_t end) {
  for (size_t c = 0; c < st.cols(); ++c) {
    const float* s_col = st.ColData(c);
    float* dst = t_k->ColData(c);
    if (k == 1) {
      for (size_t r = begin; r < end; ++r) {
        dst[r] = sparse::kernels::ChebyshevFirstTerm(s_col[r]);
      }
      continue;
    }
    const float* prev = t_km2->ColData(c);
    for (size_t r = begin; r < end; ++r) {
      dst[r] = sparse::kernels::ChebyshevNextTerm(s_col[r], prev[r]);
    }
  }
}

void ChebyshevAccumulateRows(size_t k, double c_k, const linalg::DenseMatrix& t_k,
                             linalg::DenseMatrix* out, size_t begin, size_t end) {
  const float coeff = static_cast<float>(c_k);
  for (size_t c = 0; c < t_k.cols(); ++c) {
    const float* src = t_k.ColData(c);
    float* dst = out->ColData(c);
    if (k == 0) {
      for (size_t r = begin; r < end; ++r) {
        dst[r] = sparse::kernels::ChebyshevFirstSum(coeff, src[r]);
      }
    } else {
      for (size_t r = begin; r < end; ++r) {
        dst[r] = sparse::kernels::ChebyshevAddTerm(dst[r], coeff, src[r]);
      }
    }
  }
}

void L2NormalizeRows(linalg::DenseMatrix* m, size_t begin, size_t end) {
  // A row's columns sit col_stride() floats apart; walked one row at a time,
  // a large power-of-two stride puts all of them in one cache set.
  constexpr size_t kTileRows = 16;
  const size_t cols = m->cols();
  for (size_t r0 = begin; r0 < end; r0 += kTileRows) {
    const size_t rows = std::min(end, r0 + kTileRows) - r0;
    double norm2[kTileRows] = {};
    for (size_t c = 0; c < cols; ++c) {
      const float* col = m->ColData(c) + r0;
      for (size_t i = 0; i < rows; ++i) {
        const double v = col[i];
        norm2[i] += v * v;
      }
    }
    float inv[kTileRows];
    for (size_t i = 0; i < rows; ++i) {
      inv[i] = norm2[i] > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm2[i])) : 0.0f;
    }
    for (size_t c = 0; c < cols; ++c) {
      float* col = m->ColData(c) + r0;
      for (size_t i = 0; i < rows; ++i) col[i] *= inv[i];
    }
  }
}

Result<double> ChebyshevFilterApply(const graph::CsdbMatrix& propagation,
                                    const std::vector<double>& coefficients,
                                    const linalg::DenseMatrix& r,
                                    linalg::DenseMatrix* out,
                                    const SpmmExecutor& spmm, ThreadPool* pool,
                                    ChebyshevCapture* capture,
                                    const ChebyshevHooks* hooks) {
  if (coefficients.empty()) return Status::InvalidArgument("no coefficients");
  const bool resuming = hooks != nullptr && hooks->resume != nullptr &&
                        hooks->resume->valid();
  if (resuming && capture != nullptr) {
    return Status::InvalidArgument(
        "Chebyshev resume cannot rebuild the terms a capture needs");
  }
  const size_t n = r.rows();
  const size_t d = r.cols();
  auto n_by_d = [&](const linalg::DenseMatrix& m) {
    return m.rows() == n && m.cols() == d;
  };
  if (propagation.num_rows() != n || propagation.num_cols() != n) {
    return Status::InvalidArgument("propagation matrix does not match the basis");
  }
  if (resuming && !(n_by_d(hooks->resume->t_prev) && n_by_d(hooks->resume->t_cur) &&
                    n_by_d(hooks->resume->partial))) {
    return Status::InvalidArgument("Chebyshev resume state does not match the basis");
  }
  if (capture != nullptr) {
    capture->r0 = r;
    capture->coefficients = coefficients;
    capture->terms.clear();
  }
  if (!resuming && coefficients.size() == 1) {
    out->ResizeForOverwrite(n, d);
    linalg::ForEachRowBlock(n, d, pool, [&](size_t begin, size_t end) {
      ChebyshevAccumulateRows(0, coefficients[0], r, out, begin, end);
    });
    return 0.0;
  }

  // L - I = -S, so T_1 = -S R and T_{k+1} = -2 S T_k - T_{k-1}. The state is
  // packed: terms[src] holds T_{k-1}, the gather source of term k's SpMM,
  // and terms[1 - src] holds T_{k-2}, which that SpMM's epilogue overwrites
  // with T_k. Every buffer is written in full before it is read: terms[0]
  // and `sum` by the packs or term 1, terms[1] by term 1.
  sparse::kernels::PackedOperand terms[2];
  sparse::kernels::PackedOperand sum;
  size_t src = 0;
  size_t first_term = 1;
  if (resuming) {
    // Everything through term next_term - 1 is already in the restored
    // accumulator; the skipped terms' SpMMs charge nothing.
    sparse::PackDense(hooks->resume->t_cur, pool, &terms[0]);
    sparse::PackDense(hooks->resume->t_prev, pool, &terms[1]);
    sparse::PackDense(hooks->resume->partial, pool, &sum);
    first_term = hooks->resume->next_term;
  } else {
    sparse::PackDense(r, pool, &terms[0]);  // T_0
    terms[1].Reshape(n, 0, d);
    sum.Reshape(n, 0, d);
  }

  double sim_seconds = 0.0;
  for (size_t k = first_term; k < coefficients.size(); ++k) {
    const sparse::kernels::ChebyshevEpilogue step{
        k, static_cast<float>(coefficients[k]), static_cast<float>(coefficients[0]),
        &terms[1 - src], &sum};
    OMEGA_ASSIGN_OR_RETURN(double secs, spmm(propagation, {terms[src], step}));
    sim_seconds += secs;
    src = 1 - src;  // T_k is the next gather source
    const ChebyshevTermState state(terms[1 - src], terms[src], sum, pool);
    if (capture != nullptr) capture->terms.push_back(state.t_cur());
    if (hooks != nullptr && hooks->after_term) {
      OMEGA_RETURN_NOT_OK(hooks->after_term(k + 1, state));
    }
  }
  sparse::UnpackDense(sum, pool, out);
  return sim_seconds;
}

}  // namespace omega::embed
