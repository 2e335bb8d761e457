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

namespace {

// L2NormalizeRows over rows [begin, end) of a matrix whose element (r, c)
// sits at data[r * row_stride + c * col_stride]. A column-major row's
// columns sit col_stride() floats apart; walked one row at a time, a large
// power-of-two stride puts all of them in one cache set, hence the tiles.
void NormalizeRows(float* data, size_t row_stride, size_t col_stride, size_t cols,
                   size_t begin, size_t end) {
  constexpr size_t kTileRows = 16;
  for (size_t r0 = begin; r0 < end; r0 += kTileRows) {
    const size_t rows = std::min(end, r0 + kTileRows) - r0;
    float* tile = data + r0 * row_stride;
    double norm2[kTileRows] = {};
    for (size_t c = 0; c < cols; ++c) {
      for (size_t i = 0; i < rows; ++i) {
        const double v = tile[i * row_stride + c * col_stride];
        norm2[i] += v * v;
      }
    }
    float inv[kTileRows];
    for (size_t i = 0; i < rows; ++i) {
      inv[i] = norm2[i] > 0.0 ? static_cast<float>(1.0 / std::sqrt(norm2[i])) : 0.0f;
    }
    for (size_t c = 0; c < cols; ++c) {
      for (size_t i = 0; i < rows; ++i) tile[i * row_stride + c * col_stride] *= inv[i];
    }
  }
}

}  // namespace

void L2NormalizeRows(linalg::DenseMatrix* m, size_t begin, size_t end) {
  NormalizeRows(m->data(), 1, m->col_stride(), m->cols(), begin, end);
}

void L2NormalizeRows(sparse::kernels::PackedOperand* m, size_t begin, size_t end) {
  NormalizeRows(m->Row(0), m->width(), 1, m->width(), begin, end);
}

void ChebyshevPartialSumRow(const ChebyshevCapture& capture, size_t k, size_t r,
                            sparse::kernels::PackedOperand* sum) {
  float* s = sum->Row(r);
  const size_t d = sum->width();
  const float c0 = static_cast<float>(capture.coefficients[0]);
  const float* t0 = capture.terms[0].Row(r);
  for (size_t j = 0; j < d; ++j) s[j] = sparse::kernels::ChebyshevFirstSum(c0, t0[j]);
  for (size_t i = 1; i < k; ++i) {
    const float ci = static_cast<float>(capture.coefficients[i]);
    const float* ti = capture.terms[i].Row(r);
    for (size_t j = 0; j < d; ++j) s[j] = sparse::kernels::ChebyshevAddTerm(s[j], ci, ti[j]);
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
    capture->coefficients = coefficients;
    capture->terms.clear();
    capture->terms.resize(coefficients.size());
  }
  // L - I = -S, so T_1 = -S R and T_{k+1} = -2 S T_k - T_{k-1}. The state is
  // packed: term(k - 1) is the gather source of term k's SpMM, whose
  // epilogue reads T_{k-2} from term(k - 2) and writes T_k to term(k). A
  // capture keeps every term; otherwise two operands take turns, so T_k
  // overwrites T_{k-2}, which nothing reads after term k. Every buffer is
  // written in full before it is read: T_0 and `sum` by the packs or term 1,
  // each later term by its SpMM.
  sparse::kernels::PackedOperand live[2];
  auto term = [&](size_t k) -> sparse::kernels::PackedOperand& {
    return capture != nullptr ? capture->terms[k] : live[k % 2];
  };
  sparse::kernels::PackedOperand sum;
  size_t first_term = 1;
  if (resuming) {
    // Everything through term next_term - 1 is already in the restored
    // accumulator; the skipped terms' SpMMs charge nothing.
    first_term = hooks->resume->next_term;
    sparse::PackDense(hooks->resume->t_cur, pool, &term(first_term - 1));
    sparse::PackDense(hooks->resume->t_prev, pool, &term(first_term - 2));
    sparse::PackDense(hooks->resume->partial, pool, &sum);
  } else if (coefficients.size() == 1) {
    if (capture != nullptr) sparse::PackDense(r, pool, &term(0));
    const float c0 = static_cast<float>(coefficients[0]);
    out->ResizeForOverwrite(n, d);
    linalg::ForEachRowBlock(n, d, pool, [&](size_t begin, size_t end) {
      for (size_t c = 0; c < d; ++c) {
        const float* src = r.ColData(c);
        float* dst = out->ColData(c);
        for (size_t i = begin; i < end; ++i) {
          dst[i] = sparse::kernels::ChebyshevFirstSum(c0, src[i]);
        }
      }
    });
    return 0.0;
  } else {
    sparse::PackDense(r, pool, &term(0));  // T_0
    sum.Reshape(n, 0, d);
  }

  double sim_seconds = 0.0;
  for (size_t k = first_term; k < coefficients.size(); ++k) {
    term(k).Reshape(n, 0, d);  // maps only a term not mapped yet
    const sparse::kernels::ChebyshevEpilogue step{
        k, static_cast<float>(coefficients[k]), static_cast<float>(coefficients[0]),
        k >= 2 ? &term(k - 2) : nullptr, &term(k), &sum};
    OMEGA_ASSIGN_OR_RETURN(double secs, spmm(propagation, {term(k - 1), step}));
    sim_seconds += secs;
    if (hooks != nullptr && hooks->after_term) {
      OMEGA_RETURN_NOT_OK(hooks->after_term(
          k + 1, ChebyshevTermState(term(k - 1), term(k), sum, pool)));
    }
  }
  sparse::UnpackDense(sum, pool, out);
  return sim_seconds;
}

}  // namespace omega::embed
