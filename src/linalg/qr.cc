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

// Trailing columns one elimination pass updates together, so the reflectors
// stream once per group instead of once per column.
constexpr size_t kElimGroupWidth = 4;

// W lanes of the column-major working matrix: lane w is column c + w.
struct ColumnLanes {
  double* base;  // column c
  size_t n;
  double& operator()(size_t i, size_t w) const { return base[w * n + i]; }
};

// W lanes of a Q panel: row i of lane w at e[i * W + w].
template <size_t W>
struct PanelLanes {
  double* e;
  double& operator()(size_t i, size_t w) const { return e[i * W + w]; }
};

// One pass over rows of W lanes that fuses two reflector steps. When `u` is
// given, reflector u (rows i >= a) updates every lane: x = lane[i] -
// scale_w * u[i] with scale_w = beta * dot[w]. When `v` is given, reflector v
// (rows i >= b) then takes its dot with each lane, reading every row after
// u's update of it, and leaves it in dot[w]. Rows where only one reflector
// is active get only that one's operation. Each element is therefore stored
// with exactly the value the two steps give when run one after the other,
// and each dot is its own chain summed over ascending i; the W chains run
// interleaved so they share the loads of u and v and overlap their add
// latencies.
template <size_t W, typename Lanes>
void ReflectorPass(const Lanes& lane, size_t n, const double* u, size_t a, double beta,
                   const double* v, size_t b, double* dot) {
  double scale[W] = {};
  double acc[W] = {};
  if (u != nullptr) {
    for (size_t w = 0; w < W; ++w) scale[w] = beta * dot[w];
  }
  auto axpy = [&](size_t i) {
#pragma GCC unroll 4
    for (size_t w = 0; w < W; ++w) lane(i, w) -= scale[w] * u[i];
  };
  auto accumulate = [&](size_t i) {
#pragma GCC unroll 4
    for (size_t w = 0; w < W; ++w) acc[w] += v[i] * lane(i, w);
  };
  if (v == nullptr) {
    for (size_t i = a; i < n; ++i) axpy(i);
    return;
  }
  if (u == nullptr) {
    for (size_t i = b; i < n; ++i) accumulate(i);
  } else {
    for (size_t i = a; i < b; ++i) axpy(i);
    for (size_t i = b; i < a; ++i) accumulate(i);
    for (size_t i = std::max(a, b); i < n; ++i) {
      const double ui = u[i];
      const double vi = v[i];
#pragma GCC unroll 4
      for (size_t w = 0; w < W; ++w) {
        const double x = lane(i, w) - scale[w] * ui;
        lane(i, w) = x;
        acc[w] += vi * x;
      }
    }
  }
  for (size_t w = 0; w < W; ++w) dot[w] = acc[w];
}

// Forms Q columns [c0, c0 + W) by applying reflectors j_top, ..., 0 (stored
// in `work`, scaled by `betas`; a zero beta is skipped) to unit vectors. `e`
// is W * n scratch in PanelLanes layout. Each pass applies one reflector and
// takes the dot of the next one below it.
template <size_t W>
void FormQPanel(const double* work, const std::vector<double>& betas,
                size_t n, size_t c0, size_t j_top, double* e, DenseMatrix* q) {
  std::fill(e, e + W * n, 0.0);
  for (size_t w = 0; w < W; ++w) e[(c0 + w) * W + w] = 1.0;
  const PanelLanes<W> lanes{e};
  double dot[W];
  const double* u = nullptr;  // the reflector whose dot is in `dot`
  size_t a = 0;
  for (size_t j = j_top + 1; j-- > 0;) {
    if (betas[j] == 0.0) continue;
    const double* vj = work + j * n;
    ReflectorPass<W>(lanes, n, u, a, u != nullptr ? betas[a] : 0.0, vj, j, dot);
    u = vj;
    a = j;
  }
  // The last reflector's update is written straight to Q.
  float* qc[W];
  double scale[W] = {};
  for (size_t w = 0; w < W; ++w) {
    qc[w] = q->ColData(c0 + w);
    if (u != nullptr) scale[w] = betas[a] * dot[w];
  }
  const size_t first = u != nullptr ? a : n;
  for (size_t i = 0; i < first; ++i) {
#pragma GCC unroll 4
    for (size_t w = 0; w < W; ++w) qc[w][i] = static_cast<float>(e[i * W + w]);
  }
  for (size_t i = first; i < n; ++i) {
#pragma GCC unroll 4
    for (size_t w = 0; w < W; ++w) {
      qc[w][i] = static_cast<float>(e[i * W + w] - scale[w] * u[i]);
    }
  }
}

}  // namespace

double* QrWorkspace::Reserve(size_t count) {
  if (count > capacity_) {
    data_.reset();  // free before the new allocation
    data_.reset(new double[count]);
    capacity_ = count;
  }
  return data_.get();
}

Status ReducedQr(const DenseMatrix& a, DenseMatrix* q, DenseMatrix* r,
                 ThreadPool* pool, QrWorkspace* workspace) {
  const size_t n = a.rows();
  const size_t k = a.cols();
  if (n < k) return Status::InvalidArgument("ReducedQr requires rows >= cols");
  if (k == 0) return Status::InvalidArgument("ReducedQr on empty matrix");

  const bool parallel = pool != nullptr && pool->size() > 1 && k >= 2 &&
                        n * k >= kParallelWorkThreshold;

  // Work in double for numerical robustness on float inputs, in the caller's
  // workspace when there is one. Its tail holds one Q panel's lanes per
  // worker. Left uninitialized: the copy writes every element of the working
  // matrix, on the pool if there is one, and each panel clears its lanes.
  QrWorkspace local;
  if (workspace == nullptr) workspace = &local;
  const size_t lanes_per_panel = kQPanelWidth * n;
  double* const work =
      workspace->Reserve(n * k + (parallel ? pool->size() : 1) * lanes_per_panel);
  double* const panel_lanes = work + n * k;
  auto copy_columns = [&](size_t, size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      const float* col = a.ColData(c);
      for (size_t i = 0; i < n; ++i) work[c * n + i] = col[i];
    }
  };
  if (parallel) {
    pool->ParallelFor(k, copy_columns);
  } else {
    copy_columns(0, 0, k);
  }

  // Householder vectors stored below the diagonal of `work`; betas separate.
  std::vector<double> betas(k, 0.0);
  // R's diagonal; above it, R is what elimination leaves in `work`, since row
  // j of column c is final once reflector j has run.
  std::vector<double> r_diag(k, 0.0);
  // dots[c]: the dot of the latest active reflector with column c, taken one
  // pass ahead of the step that applies it.
  std::vector<double> dots(k, 0.0);
  // betas[j] != 0 implies a finite vnorm2, hence a finite v_j; only a beta
  // overflowing on a subnormal vnorm2 can be non-finite.
  bool finite_reflectors = true;

  // Forms reflector j from column j. When `u` (reflector j - 1) is given, it
  // is applied to column j first, in the same pass as the norm. Returns false
  // for a zero column, whose step is skipped: no reflector, a zero in R.
  auto form_reflector = [&](size_t j, const double* u) {
    double* colj = work + j * n;
    double norm = 0.0;
    if (u != nullptr) {
      const double scale = betas[j - 1] * dots[j];
      colj[j - 1] -= scale * u[j - 1];
      for (size_t i = j; i < n; ++i) {
        const double x = colj[i] - scale * u[i];
        colj[i] = x;
        norm += x * x;
      }
    } else {
      for (size_t i = j; i < n; ++i) norm += colj[i] * colj[i];
    }
    norm = std::sqrt(norm);
    if (norm == 0.0) return false;
    const double alpha = colj[j] >= 0 ? -norm : norm;
    colj[j] -= alpha;
    double vnorm2 = 0.0;
    for (size_t i = j; i < n; ++i) vnorm2 += colj[i] * colj[i];
    betas[j] = vnorm2 > 0.0 ? 2.0 / vnorm2 : 0.0;
    finite_reflectors = finite_reflectors && std::isfinite(betas[j]);
    r_diag[j] = alpha;
    return true;
  };

  // One elimination pass over columns [c_begin, k): reflector c_begin - 2
  // (`u`, when given) is applied and reflector c_begin - 1 (`v`, when given)
  // takes its dots. Column c_begin then holds what forming reflector c_begin
  // needs, so the worker that updated it forms it at once, while the other
  // columns are still in flight. Returns whether reflector c_begin exists.
  // Groups of kElimGroupWidth columns are handed out dynamically, the one
  // holding column c_begin first; grouping changes no column's arithmetic.
  auto sweep = [&](size_t c_begin, const double* u, const double* v) {
    if (u == nullptr && v == nullptr) return form_reflector(c_begin, nullptr);
    const size_t a = c_begin - 2;
    const size_t b = c_begin - 1;
    const double beta = u != nullptr ? betas[a] : 0.0;
    bool formed = false;
    auto run_group = [&](size_t group) {
      const size_t c = c_begin + group * kElimGroupWidth;
      const ColumnLanes lanes{work + c * n, n};
      double* d = dots.data() + c;
      switch (std::min(kElimGroupWidth, k - c)) {
        case 4: ReflectorPass<4>(lanes, n, u, a, beta, v, b, d); break;
        case 3: ReflectorPass<3>(lanes, n, u, a, beta, v, b, d); break;
        case 2: ReflectorPass<2>(lanes, n, u, a, beta, v, b, d); break;
        default: ReflectorPass<1>(lanes, n, u, a, beta, v, b, d); break;
      }
      if (group == 0) formed = form_reflector(c_begin, v);
    };
    const size_t groups = (k - c_begin + kElimGroupWidth - 1) / kElimGroupWidth;
    if (parallel && groups >= 2) {
      pool->ParallelForDynamic(groups, 1, [&](size_t, size_t begin, size_t end) {
        for (size_t g = begin; g < end; ++g) run_group(g);
      });
    } else {
      for (size_t g = 0; g < groups; ++g) run_group(g);
    }
    return formed;
  };

  // Look-ahead elimination. The pass that applies reflector j to columns
  // j + 2.. also takes reflector j + 1's dots with them, and forms reflector
  // j + 2 from its freshly updated column; the first pass only takes v_0's
  // dots. Every element gets the value and every dot the chain of applying
  // the reflectors one at a time.
  auto column = [&](size_t j, bool exists) {
    return exists ? work + j * n : nullptr;
  };
  bool active = form_reflector(0, nullptr);  // reflector j exists
  bool next = k > 1 && sweep(1, nullptr, column(0, active));  // reflector j + 1
  for (size_t j = 0; j + 2 < k; ++j) {
    const bool after = sweep(j + 2, column(j, active), column(j + 1, next));
    active = next;
    next = after;
  }

  // Form Q by applying reflectors to the first k columns of the identity,
  // in panels of columns; each panel is formed by one worker. Reflector
  // j > c leaves unit column c untouched: with v_j and beta_j finite its dot
  // product is +0.0 and so is the update, so panels skip those reflectors.
  // A non-finite reflector would turn that 0 into NaN, so then every panel
  // applies all of them, as an unskipped loop would.
  q->ResizeForOverwrite(n, k);  // the panels write every element
  const size_t num_panels = (k + kQPanelWidth - 1) / kQPanelWidth;
  auto form_panel = [&](size_t panel, double* e) {
    const size_t c0 = panel * kQPanelWidth;
    const size_t width = std::min(kQPanelWidth, k - c0);
    const size_t j_top = finite_reflectors ? c0 + width - 1 : k - 1;
    switch (width) {
      case 4: FormQPanel<4>(work, betas, n, c0, j_top, e, q); break;
      case 3: FormQPanel<3>(work, betas, n, c0, j_top, e, q); break;
      case 2: FormQPanel<2>(work, betas, n, c0, j_top, e, q); break;
      default: FormQPanel<1>(work, betas, n, c0, j_top, e, q); break;
    }
  };
  if (parallel) {
    // Later panels apply more reflectors; hand them out first.
    pool->ParallelForDynamic(num_panels, 1, [&](size_t w, size_t begin, size_t end) {
      for (size_t t = begin; t < end; ++t) {
        form_panel(num_panels - 1 - t, panel_lanes + w * lanes_per_panel);
      }
    });
  } else {
    for (size_t panel = 0; panel < num_panels; ++panel) form_panel(panel, panel_lanes);
  }

  if (r != nullptr) {
    *r = DenseMatrix(k, k);
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < c; ++i) r->At(i, c) = static_cast<float>(work[c * n + i]);
      r->At(c, c) = static_cast<float>(r_diag[c]);
    }
  }
  return Status::OK();
}

}  // namespace omega::linalg
