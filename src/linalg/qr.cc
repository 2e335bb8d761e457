#include "linalg/qr.h"

#include <algorithm>
#include <cmath>
#include <vector>

namespace omega::linalg {

namespace {

// Per-column work below this many scalar ops is not worth a pool dispatch.
constexpr size_t kParallelWorkThreshold = 1 << 15;

// Q columns formed together, so each reflector streams once per panel.
constexpr size_t kQPanelWidth = 4;

// Trailing columns one elimination task updates, so v_j streams once per
// group instead of once per column.
constexpr size_t kElimGroupWidth = 4;

// Applies reflector j (v_j = colj[j..n), scaled by beta) to the W trailing
// columns starting at c and records their row-j entries of R. Every column
// keeps the arithmetic of a one-column loop: its dot product is its own
// chain, summed over ascending i, and the W chains run interleaved so they
// share the loads of v_j and overlap their add latencies; the axpys follow
// one column at a time.
template <size_t W>
void ApplyReflector(const double* colj, double beta, size_t n, size_t k,
                    size_t j, size_t c, double* work, double* rmat) {
  double* cols[W];
  for (size_t w = 0; w < W; ++w) cols[w] = work + (c + w) * n;
  // Fully unrolled so the W accumulators live in registers.
  double dot[W] = {};
  for (size_t i = j; i < n; ++i) {
#pragma GCC unroll 4
    for (size_t w = 0; w < W; ++w) dot[w] += colj[i] * cols[w][i];
  }
  for (size_t w = 0; w < W; ++w) {
    double* colc = cols[w];
    const double scale = beta * dot[w];
    for (size_t i = j; i < n; ++i) colc[i] -= scale * colj[i];
    rmat[(c + w) * k + j] = colc[j];
  }
}

// Forms Q columns [c0, c0 + W) by applying reflectors j_top, ..., 0 (stored
// in `work`, scaled by `betas`) to unit vectors. `e` is W * n scratch with
// column c0 + w's row i at e[i * W + w]. Every column keeps the arithmetic of
// a one-column loop: its dot product is its own chain, summed over ascending
// i; only the loads of v_j are shared across the panel.
template <size_t W>
void FormQPanel(const std::vector<double>& work, const std::vector<double>& betas,
                size_t n, size_t c0, size_t j_top, double* e, DenseMatrix* q) {
  std::fill(e, e + W * n, 0.0);
  for (size_t w = 0; w < W; ++w) e[(c0 + w) * W + w] = 1.0;
  for (size_t j = j_top + 1; j-- > 0;) {
    if (betas[j] == 0.0) continue;
    const double* vj = work.data() + j * n;
    double dot[W] = {};
    for (size_t i = j; i < n; ++i) {
      for (size_t w = 0; w < W; ++w) dot[w] += vj[i] * e[i * W + w];
    }
    double scale[W];
    for (size_t w = 0; w < W; ++w) scale[w] = betas[j] * dot[w];
    for (size_t i = j; i < n; ++i) {
      for (size_t w = 0; w < W; ++w) e[i * W + w] -= scale[w] * vj[i];
    }
  }
  for (size_t w = 0; w < W; ++w) {
    float* qc = q->ColData(c0 + w);
    for (size_t i = 0; i < n; ++i) qc[i] = static_cast<float>(e[i * W + w]);
  }
}

}  // namespace

Status ReducedQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                 ThreadPool* pool) {
  const size_t n = a.rows();
  const size_t k = a.cols();
  if (n < k) return Status::InvalidArgument("ReducedQr requires rows >= cols");
  if (k == 0) return Status::InvalidArgument("ReducedQr on empty matrix");

  const bool parallel = pool != nullptr && pool->size() > 1 && k >= 2 &&
                        n * k >= kParallelWorkThreshold;

  // Work in double for numerical robustness on float inputs.
  std::vector<double> work(n * k);
  for (size_t c = 0; c < k; ++c) {
    const float* col = a.ColData(c);
    for (size_t i = 0; i < n; ++i) work[c * n + i] = col[i];
  }

  // Householder vectors stored below the diagonal of `work`; betas separate.
  std::vector<double> betas(k, 0.0);
  std::vector<double> rmat(k * k, 0.0);
  // betas[j] != 0 implies a finite vnorm2, hence a finite v_j; only a beta
  // overflowing on a subnormal vnorm2 can be non-finite.
  bool finite_reflectors = true;

  for (size_t j = 0; j < k; ++j) {
    double* colj = work.data() + j * n;
    double norm = 0.0;
    for (size_t i = j; i < n; ++i) norm += colj[i] * colj[i];
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      // Rank-deficient column: leave the zero reflector; R gets a zero.
      rmat[j * k + j] = 0.0;
      continue;
    }
    const double alpha = colj[j] >= 0 ? -norm : norm;
    const double v0 = colj[j] - alpha;
    colj[j] = v0;
    double vnorm2 = 0.0;
    for (size_t i = j; i < n; ++i) vnorm2 += colj[i] * colj[i];
    betas[j] = vnorm2 > 0.0 ? 2.0 / vnorm2 : 0.0;
    finite_reflectors = finite_reflectors && std::isfinite(betas[j]);
    rmat[j * k + j] = alpha;

    // Apply the reflector to the remaining columns in groups of up to
    // kElimGroupWidth; each group is an independent task, so the groups fan
    // out across the pool.
    auto apply_group = [&](size_t group) {
      const size_t c = j + 1 + group * kElimGroupWidth;
      double* w = work.data();
      double* rm = rmat.data();
      switch (std::min(kElimGroupWidth, k - c)) {
        case 4: ApplyReflector<4>(colj, betas[j], n, k, j, c, w, rm); break;
        case 3: ApplyReflector<3>(colj, betas[j], n, k, j, c, w, rm); break;
        case 2: ApplyReflector<2>(colj, betas[j], n, k, j, c, w, rm); break;
        default: ApplyReflector<1>(colj, betas[j], n, k, j, c, w, rm); break;
      }
    };
    const size_t groups = (k - j - 1 + kElimGroupWidth - 1) / kElimGroupWidth;
    if (parallel && groups >= 2) {
      pool->ParallelFor(groups, [&](size_t, size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) apply_group(t);
      });
    } else {
      for (size_t t = 0; t < groups; ++t) apply_group(t);
    }
  }
  // Upper part of R above diagonal was collected during elimination; collect
  // the remaining entries (columns already reduced).
  for (size_t c = 0; c < k; ++c) {
    for (size_t i = 0; i < c; ++i) rmat[c * k + i] = work[c * n + i];
  }

  // Form Q by applying reflectors to the first k columns of the identity,
  // in panels of columns; each panel is formed by one worker. Reflector
  // j > c leaves unit column c untouched: with v_j and beta_j finite its dot
  // product is +0.0 and so is the update, so panels skip those reflectors.
  // A non-finite reflector would turn that 0 into NaN, so then every panel
  // applies all of them, as an unskipped loop would.
  *q = DenseMatrix(n, k);
  const size_t num_panels = (k + kQPanelWidth - 1) / kQPanelWidth;
  auto form_panel = [&](size_t panel, std::vector<double>& e) {
    const size_t c0 = panel * kQPanelWidth;
    const size_t width = std::min(kQPanelWidth, k - c0);
    const size_t j_top = finite_reflectors ? c0 + width - 1 : k - 1;
    e.resize(width * n);
    switch (width) {
      case 4: FormQPanel<4>(work, betas, n, c0, j_top, e.data(), q); break;
      case 3: FormQPanel<3>(work, betas, n, c0, j_top, e.data(), q); break;
      case 2: FormQPanel<2>(work, betas, n, c0, j_top, e.data(), q); break;
      default: FormQPanel<1>(work, betas, n, c0, j_top, e.data(), q); break;
    }
  };
  if (parallel) {
    // Later panels apply more reflectors; hand them out first.
    std::vector<std::vector<double>> scratch(pool->size());
    pool->ParallelForDynamic(num_panels, 1, [&](size_t w, size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) form_panel(num_panels - 1 - t, scratch[w]);
    });
  } else {
    std::vector<double> e;
    for (size_t panel = 0; panel < num_panels; ++panel) form_panel(panel, e);
  }

  if (r != nullptr) {
    *r = DenseMatrix(k, k);
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i <= c; ++i) r->At(i, c) = static_cast<float>(rmat[c * k + i]);
    }
  }
  return Status::OK();
}

}  // namespace omega::linalg
