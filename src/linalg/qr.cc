#include "linalg/qr.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <vector>

namespace omega::linalg {

namespace {

// Per-column work below this many scalar ops is not worth a pool dispatch.
constexpr size_t kParallelWorkThreshold = 1 << 15;

// Columns one group eliminates and forms Q for together. A group's columns
// are row-interleaved lanes, so one 4-wide vector op updates a row of all
// four; a narrower last group leaves its spare lanes zero and never reads
// them back.
constexpr size_t kGroupWidth = 4;

// One row of a group's lanes. Rows sit at any double-aligned address.
typedef double LaneRow __attribute__((vector_size(kGroupWidth * sizeof(double)),
                                      aligned(sizeof(double)), may_alias));

// One pass over the rows of a group's lanes `e` that fuses two reflector
// steps. When `u` is given, reflector u (rows i >= a) updates every lane: x =
// lane[i] - scale_w * u[i] with scale_w = beta * dot[w]. When `v` is given,
// reflector v (rows i >= b) then takes its dot with each lane, reading every
// row after u's update of it, and leaves it in dot[w]. Rows where only one
// reflector is active get only that one's operation. Each element is
// therefore stored with exactly the value the two steps give when run one
// after the other, and each dot is its own chain summed over ascending i;
// the four chains share the loads of u and v and one vector op.
void ReflectorPass(double* e, size_t n, const double* u, size_t a, double beta,
                   const double* v, size_t b, double* dot) {
  LaneRow* const row = reinterpret_cast<LaneRow*>(e);
  LaneRow scale = {};
  LaneRow acc = {};
  if (u != nullptr) {
    for (size_t w = 0; w < kGroupWidth; ++w) scale[w] = beta * dot[w];
  }
  auto axpy = [&](size_t i) {
    const LaneRow ui = {u[i], u[i], u[i], u[i]};
    row[i] -= scale * ui;
  };
  auto accumulate = [&](size_t i) {
    const LaneRow vi = {v[i], v[i], v[i], v[i]};
    acc += vi * row[i];
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
      const LaneRow ui = {u[i], u[i], u[i], u[i]};
      const LaneRow vi = {v[i], v[i], v[i], v[i]};
      const LaneRow x = row[i] - scale * ui;
      row[i] = x;
      acc += vi * x;
    }
  }
  for (size_t w = 0; w < kGroupWidth; ++w) dot[w] = acc[w];
}

// Forms Q columns [c0, c0 + width) by applying reflectors j_top, ..., 0
// (stored in `store`, scaled by `betas`; a zero beta is skipped) to unit
// vectors. `e` is a group's lanes, 4 * n doubles. Each pass applies one
// reflector and takes the dot of the next one below it.
void FormQPanel(const double* store, const std::vector<double>& betas, size_t n,
                size_t c0, size_t width, size_t j_top, double* e, DenseMatrix* q) {
  std::fill(e, e + kGroupWidth * n, 0.0);
  for (size_t w = 0; w < width; ++w) e[(c0 + w) * kGroupWidth + w] = 1.0;
  double dot[kGroupWidth];
  const double* u = nullptr;  // the reflector whose dot is in `dot`
  size_t a = 0;
  for (size_t j = j_top + 1; j-- > 0;) {
    if (betas[j] == 0.0) continue;
    const double* vj = store + j * n;
    ReflectorPass(e, n, u, a, u != nullptr ? betas[a] : 0.0, vj, j, dot);
    u = vj;
    a = j;
  }
  // The last reflector's update is written straight to Q.
  const LaneRow* const row = reinterpret_cast<const LaneRow*>(e);
  float* qc[kGroupWidth];
  LaneRow scale = {};
  for (size_t w = 0; w < width; ++w) {
    qc[w] = q->ColData(c0 + w);
    if (u != nullptr) scale[w] = betas[a] * dot[w];
  }
  const size_t first = u != nullptr ? a : n;
  for (size_t i = 0; i < first; ++i) {
    for (size_t w = 0; w < width; ++w) qc[w][i] = static_cast<float>(row[i][w]);
  }
  for (size_t i = first; i < n; ++i) {
    const LaneRow ui = {u[i], u[i], u[i], u[i]};
    const LaneRow x = row[i] - scale * ui;
    for (size_t w = 0; w < width; ++w) qc[w][i] = static_cast<float>(x[w]);
  }
}

// What the groups of one factorization share. Column j of the column-major
// `store` holds R's entries above row j and reflector v_j from row j down.
// Reflectors are formed in ascending order, and `formed` counts those that
// are final in the store, together with their beta, R diagonal and
// `exists` flag (a zero column forms no reflector and its step is skipped).
struct Factorization {
  Factorization(const DenseMatrix& a, double* store)
      : a(a), n(a.rows()), k(a.cols()), store(store), betas(k, 0.0), r_diag(k, 0.0),
        exists(k, 0) {}

  // Blocks until reflector j is published.
  void WaitFor(size_t j) {
    uint32_t seen = formed.load(std::memory_order_acquire);
    while (seen <= j) {
      formed.wait(seen, std::memory_order_acquire);
      seen = formed.load(std::memory_order_acquire);
    }
  }

  void Publish(size_t j) {
    formed.store(static_cast<uint32_t>(j + 1), std::memory_order_release);
    formed.notify_all();
  }

  const DenseMatrix& a;
  const size_t n;
  const size_t k;
  double* const store;
  std::vector<double> betas;
  std::vector<double> r_diag;
  std::vector<uint8_t> exists;
  std::atomic<uint32_t> formed{0};
};

// Forms and publishes reflector j from lane w of `e`. When `u` (reflector
// ua < j) is given, it is first applied to the lane with `scale` = beta_ua
// times its dot with the lane. The same pass moves the lane into store
// column j and sums the squares from row j down.
void FormReflector(Factorization& f, const double* e, size_t w, size_t j,
                   const double* u, size_t ua, double scale) {
  const size_t n = f.n;
  const double* lane = e + w;  // row i at lane[i * kGroupWidth]
  double* col = f.store + j * n;
  double norm = 0.0;
  if (u == nullptr) {
    for (size_t i = 0; i < j; ++i) col[i] = lane[i * kGroupWidth];
    for (size_t i = j; i < n; ++i) {
      const double x = lane[i * kGroupWidth];
      col[i] = x;
      norm += x * x;
    }
  } else {
    for (size_t i = 0; i < ua; ++i) col[i] = lane[i * kGroupWidth];
    for (size_t i = ua; i < j; ++i) col[i] = lane[i * kGroupWidth] - scale * u[i];
    for (size_t i = j; i < n; ++i) {
      const double x = lane[i * kGroupWidth] - scale * u[i];
      col[i] = x;
      norm += x * x;
    }
  }
  norm = std::sqrt(norm);
  if (norm != 0.0) {
    const double alpha = col[j] >= 0 ? -norm : norm;
    col[j] -= alpha;
    double vnorm2 = 0.0;
    for (size_t i = j; i < n; ++i) vnorm2 += col[i] * col[i];
    f.betas[j] = vnorm2 > 0.0 ? 2.0 / vnorm2 : 0.0;
    f.r_diag[j] = alpha;
    f.exists[j] = 1;
  }
  f.Publish(j);
}

// Left-looking elimination of one group's columns, then its Q panel. The
// columns are copied into the lanes `e` (4 * n doubles). Each reflector of
// the lower groups is applied as soon as it is published, in ascending
// order, by a pass that also takes the next reflector's dots. The group then
// forms its own reflectors one lane at a time. Every element gets each
// reflector's axpy in ascending j and every dot is its ascending-i chain, so
// the bytes are those of applying the reflectors one at a time. The panel
// skips reflectors above the group, which is exact while all of them are
// finite; ReducedQr re-forms it otherwise.
void EliminateGroup(Factorization& f, size_t group, double* e, DenseMatrix* q) {
  const size_t n = f.n;
  const size_t c0 = group * kGroupWidth;
  const size_t width = std::min(kGroupWidth, f.k - c0);
  const float* src[kGroupWidth] = {};
  for (size_t w = 0; w < width; ++w) src[w] = f.a.ColData(c0 + w);
  for (size_t i = 0; i < n; ++i) {
    for (size_t w = 0; w < kGroupWidth; ++w) {
      e[i * kGroupWidth + w] = w < width ? src[w][i] : 0.0;
    }
  }

  double dot[kGroupWidth];
  const double* u = nullptr;  // the reflector whose dots are in `dot`, not yet applied
  size_t ua = 0;
  auto take_dots = [&](size_t j) {
    const double* v = f.store + j * n;
    ReflectorPass(e, n, u, ua, u != nullptr ? f.betas[ua] : 0.0, v, j, dot);
    u = v;
    ua = j;
  };
  for (size_t j = 0; j < c0; ++j) {
    f.WaitFor(j);
    if (f.exists[j]) take_dots(j);
  }
  // Lane w takes u's axpy inside FormReflector; the later lanes take it in
  // the pass that follows, with the dots of the reflector just formed.
  for (size_t w = 0; w < width; ++w) {
    const size_t j = c0 + w;
    FormReflector(f, e, w, j, u, ua, u != nullptr ? f.betas[ua] * dot[w] : 0.0);
    if (w + 1 < width && f.exists[j]) take_dots(j);
  }
  FormQPanel(f.store, f.betas, n, c0, width, c0 + width - 1, e, q);
}

// Forms the Q panel of `group` with every reflector applied.
void FormFullQPanel(const Factorization& f, size_t group, double* e, DenseMatrix* q) {
  const size_t c0 = group * kGroupWidth;
  FormQPanel(f.store, f.betas, f.n, c0, std::min(kGroupWidth, f.k - c0), f.k - 1, e, q);
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

  const size_t num_groups = (k + kGroupWidth - 1) / kGroupWidth;
  const bool parallel = pool != nullptr && pool->size() > 1 && num_groups >= 2 &&
                        n * k >= kParallelWorkThreshold;

  // Work in double for numerical robustness on float inputs, in the caller's
  // workspace when there is one: the n x k store, then one group's lanes per
  // worker. Left uninitialized: each group writes its store columns and
  // lanes before reading them.
  QrWorkspace local;
  if (workspace == nullptr) workspace = &local;
  const size_t lanes_per_group = kGroupWidth * n;
  double* const store =
      workspace->Reserve(n * k + (parallel ? pool->size() : 1) * lanes_per_group);
  double* const lanes = store + n * k;
  Factorization f(a, store);

  // A group waits only for reflectors of lower groups, which workers claimed
  // before it and are still running, so no wait can deadlock. Each group's
  // worker forms its Q panel as soon as the group's reflectors are final.
  q->ResizeForOverwrite(n, k);  // the panels write every element
  if (parallel) {
    pool->ParallelForDynamic(num_groups, 1, [&](size_t w, size_t begin, size_t end) {
      for (size_t g = begin; g < end; ++g) EliminateGroup(f, g, lanes + w * lanes_per_group, q);
    });
  } else {
    for (size_t g = 0; g < num_groups; ++g) EliminateGroup(f, g, lanes, q);
  }

  // Reflector j > c leaves unit column c untouched: with v_j and beta_j
  // finite its dot product is +0.0 and so is the update, so the panels
  // skipped those reflectors. A non-finite reflector would turn that 0 into
  // NaN, so then every panel is formed again with all of them, as an
  // unskipped loop would.
  const bool finite_reflectors = std::all_of(
      f.betas.begin(), f.betas.end(), [](double b) { return std::isfinite(b); });
  if (!finite_reflectors) {
    if (parallel) {
      // Later panels apply more reflectors; hand them out first.
      pool->ParallelForDynamic(num_groups, 1, [&](size_t w, size_t begin, size_t end) {
        for (size_t t = begin; t < end; ++t) {
          FormFullQPanel(f, num_groups - 1 - t, lanes + w * lanes_per_group, q);
        }
      });
    } else {
      for (size_t g = 0; g < num_groups; ++g) FormFullQPanel(f, g, lanes, q);
    }
  }

  if (r != nullptr) {
    *r = DenseMatrix(k, k);
    for (size_t c = 0; c < k; ++c) {
      for (size_t i = 0; i < c; ++i) r->At(i, c) = static_cast<float>(store[c * n + i]);
      r->At(c, c) = static_cast<float>(f.r_diag[c]);
    }
  }
  return Status::OK();
}

}  // namespace omega::linalg
