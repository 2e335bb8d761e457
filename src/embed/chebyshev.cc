#include "embed/chebyshev.h"

#include <cmath>
#include <utility>

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
      for (size_t r = begin; r < end; ++r) dst[r] = -1.0f * s_col[r];
      continue;
    }
    const float* prev = t_km2->ColData(c);
    for (size_t r = begin; r < end; ++r) {
      float acc = 0.0f;
      acc += -2.0f * s_col[r];
      acc += -1.0f * prev[r];
      dst[r] = acc;
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
      for (size_t r = begin; r < end; ++r) dst[r] = 0.0f + coeff * src[r];
    } else {
      for (size_t r = begin; r < end; ++r) dst[r] += coeff * src[r];
    }
  }
}

void L2NormalizeRows(linalg::DenseMatrix* m, size_t begin, size_t end) {
  for (size_t r = begin; r < end; ++r) {
    double norm2 = 0.0;
    for (size_t c = 0; c < m->cols(); ++c) {
      const double v = m->At(r, c);
      norm2 += v * v;
    }
    const float inv = norm2 > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm2)) : 0.0f;
    for (size_t c = 0; c < m->cols(); ++c) m->At(r, c) *= inv;
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
  double sim_seconds = 0.0;
  if (capture != nullptr) {
    capture->r0 = r;
    capture->coefficients = coefficients;
    capture->terms.clear();
  }

  auto after_term = [&](size_t next_term, const linalg::DenseMatrix& prev,
                        const linalg::DenseMatrix& cur) -> Status {
    if (hooks != nullptr && hooks->after_term) {
      return hooks->after_term(next_term, prev, cur, *out);
    }
    return Status::OK();
  };

  // L - I = -S, so T_1 = -S R and T_{k+1} = -2 S T_k - T_{k-1}.
  // Every buffer below is written in full before it is read: `tmp` by each
  // SpMM, T_1 by term 1's pass, `out` by term 0's.
  linalg::DenseMatrix t_prev;
  linalg::DenseMatrix t_cur;
  linalg::DenseMatrix tmp = linalg::DenseMatrix::Uninitialized(n, d);
  size_t first_term = 1;
  if (resuming) {
    // Everything through term next_term - 1 is already in the restored
    // accumulator; the skipped terms' SpMMs charge nothing.
    *out = hooks->resume->partial;
    t_prev = hooks->resume->t_prev;
    t_cur = hooks->resume->t_cur;
    first_term = hooks->resume->next_term;
  } else {
    out->ResizeForOverwrite(n, d);
    linalg::ForEachRowBlock(n, d, pool, [&](size_t begin, size_t end) {
      ChebyshevAccumulateRows(0, coefficients[0], r, out, begin, end);
    });
    t_prev = linalg::DenseMatrix::Uninitialized(n, d);  // T_1 lands here
    t_cur = r;                           // T_0
  }

  for (size_t k = first_term; k < coefficients.size(); ++k) {
    OMEGA_ASSIGN_OR_RETURN(double secs, spmm(propagation, t_cur, &tmp));
    sim_seconds += secs;
    // One pass writes T_k over T_{k-2}, whose last reader it is, and adds
    // c_k T_k to the output.
    linalg::ForEachRowBlock(n, d, pool, [&](size_t begin, size_t end) {
      ChebyshevTermRows(k, tmp, &t_prev, &t_prev, begin, end);
      ChebyshevAccumulateRows(k, coefficients[k], t_prev, out, begin, end);
    });
    std::swap(t_prev, t_cur);
    if (capture != nullptr) capture->terms.push_back(t_cur);
    OMEGA_RETURN_NOT_OK(after_term(k + 1, t_prev, t_cur));
  }
  return sim_seconds;
}

}  // namespace omega::embed
