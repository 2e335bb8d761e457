#include "embed/prone.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "embed/chebyshev.h"
#include "linalg/randomized_svd.h"
#include "sparse/csdb_ops.h"

namespace omega::embed {

linalg::DenseMatrix EmbeddingResult::ToOriginalOrder(ThreadPool* pool) const {
  if (perm.empty()) return vectors;
  // perm is a permutation of the rows, so the scatter writes every element
  // once, whatever rows each worker takes.
  linalg::DenseMatrix out =
      linalg::DenseMatrix::Uninitialized(vectors.rows(), vectors.cols());
  linalg::ForEachRowBlock(vectors.rows(), vectors.cols(), pool,
                          [&](size_t begin, size_t end) {
    for (size_t c = 0; c < vectors.cols(); ++c) {
      const float* src = vectors.ColData(c);
      float* dst = out.ColData(c);
      for (size_t r = begin; r < end; ++r) dst[perm[r]] = src[r];
    }
  });
  return out;
}

graph::CsdbMatrix BuildTargetMatrix(const graph::CsdbMatrix& adjacency,
                                    double neg_lambda, ThreadPool* pool) {
  // Per-row factors of the entry expression below, once per degree block:
  // the clamped structural degree d = max(1, entry count) and its ProNE
  // negative-sampling weight d^0.75. pd_norm = sum_j deg_j^0.75 normalizes
  // P_D(j) ~ deg_j^0.75; it stays a serial ascending-row sum.
  const uint32_t n = adjacency.num_rows();
  std::vector<double> clamped_degree(n);
  std::vector<double> sampling_weight(n);
  double pd_norm = 0.0;
  for (uint32_t b = 0; b < adjacency.num_blocks(); ++b) {
    const double degree = adjacency.deg_list()[b];
    const double clamped = std::max(1.0, degree);
    const double weight = std::pow(clamped, 0.75);
    const double pd_term = std::pow(degree, 0.75);
    for (uint32_t r = adjacency.deg_ind()[b]; r < adjacency.deg_ind()[b + 1]; ++r) {
      clamped_degree[r] = clamped;
      sampling_weight[r] = weight;
      pd_norm += pd_term;
    }
  }
  if (pd_norm <= 0.0) pd_norm = 1.0;

  // Entries transform independently into a fresh value array over the
  // adjacency's structure; each row is written by one worker.
  const std::vector<float>& weights = adjacency.nnz_list();
  std::vector<float> vals(weights.size());
  const std::vector<graph::NodeId>& cols = adjacency.col_list();
  graph::ForEachRowRange(adjacency, pool, [&](size_t, uint32_t row_begin, uint32_t row_end) {
    for (auto cur = adjacency.Rows(row_begin); cur.row() < row_end; cur.Next()) {
      const double di = clamped_degree[cur.row()];
      const double wi = sampling_weight[cur.row()];
      for (uint64_t idx = cur.ptr(); idx < cur.ptr() + cur.degree(); ++idx) {
        const graph::NodeId col = cols[idx];
        const double p =
            static_cast<double>(weights[idx]) / std::sqrt(di * clamped_degree[col]);
        // Symmetrized negative-sampling shift sqrt(P_D(i) P_D(j)) so that the
        // target stays symmetric (apply == apply^T in the tSVD; see header).
        const double pd = std::sqrt(wi * sampling_weight[col]) / pd_norm;
        const double val = std::log(std::max(p, 1e-12)) -
                           std::log(std::max(neg_lambda * pd, 1e-12));
        // Shifted-PPMI truncation keeps the factorized matrix non-negative.
        vals[idx] = static_cast<float>(std::max(val, 0.0));
      }
    }
  });
  return adjacency.WithValues(std::move(vals));
}

graph::CsdbMatrix BuildPropagationMatrix(const graph::CsdbMatrix& adjacency,
                                         ThreadPool* pool) {
  graph::CsdbMatrix s = adjacency;
  sparse::SymmetricNormalize(&s, pool);
  return s;
}

Result<EmbeddingResult> ProneEmbed(const graph::CsdbMatrix& adjacency,
                                   const ProneOptions& options,
                                   const SpmmExecutor& spmm) {
  if (options.dim == 0) return Status::InvalidArgument("embedding dim must be > 0");
  if (adjacency.num_rows() != adjacency.num_cols()) {
    return Status::InvalidArgument("adjacency must be square");
  }
  const size_t n = adjacency.num_rows();
  if (options.dim + options.oversample > n) {
    return Status::InvalidArgument("dim + oversample exceeds node count");
  }

  EmbeddingResult result;
  result.perm = adjacency.perm();
  const ProneDurability* durability = options.durability;

  // ----- Stage 1: sparse matrix factorization via randomized tSVD. ---------
  // Scoped so the target matrix is freed before stage 2 builds the
  // propagation matrix (peak: adjacency + one derived value array; the
  // derived matrices share the adjacency's structure).
  linalg::DenseMatrix r0;
  if (durability != nullptr && durability->resume_r0 != nullptr) {
    // Restored basis: stage 1 is skipped entirely — no tSVD work, no
    // factorize charges, no stage notification.
    r0 = *durability->resume_r0;
  } else {
    if (options.stage_notifier) options.stage_notifier("factorize");
    const graph::CsdbMatrix target =
        BuildTargetMatrix(adjacency, options.neg_lambda, options.pool);
    double factorize_seconds = 0.0;
    linalg::MatMulFn apply = [&](const linalg::DenseMatrix& in,
                                 linalg::DenseMatrix* out) -> Status {
      auto res = spmm(target, in, out);
      if (!res.ok()) return res.status();
      factorize_seconds += res.value();
      return Status::OK();
    };
    // Symmetric target: apply == apply^T (see header).
    linalg::RandomizedSvdOptions svd_opts;
    svd_opts.rank = options.dim;
    svd_opts.oversample = options.oversample;
    svd_opts.power_iterations = options.power_iterations;
    svd_opts.seed = options.seed;
    svd_opts.pool = options.pool;
    OMEGA_ASSIGN_OR_RETURN(linalg::SvdResult svd,
                           linalg::RandomizedSvd(n, n, apply, apply, svd_opts));

    // R = U * sqrt(Sigma).
    r0 = std::move(svd.u);
    for (size_t c = 0; c < options.dim; ++c) {
      const float scale =
          static_cast<float>(std::sqrt(std::max(0.0, svd.singular[c])));
      float* col = r0.ColData(c);
      for (size_t i = 0; i < n; ++i) col[i] *= scale;
    }
    result.factorize_seconds = factorize_seconds;
  }
  if (durability != nullptr && durability->after_factorize &&
      durability->resume_r0 == nullptr) {
    OMEGA_RETURN_NOT_OK(durability->after_factorize(r0));
  }

  // ----- Stage 2: Chebyshev spectral propagation. ---------------------------
  if (options.stage_notifier) options.stage_notifier("propagate");
  const graph::CsdbMatrix propagation = BuildPropagationMatrix(adjacency, options.pool);
  const std::vector<double> coeffs = ChebyshevCoefficients(
      ProneBandPass(options.mu, options.theta), options.chebyshev_order);
  OMEGA_ASSIGN_OR_RETURN(
      double propagate_seconds,
      ChebyshevFilterApply(propagation, coeffs, r0, &result.vectors, spmm,
                           options.pool, options.capture,
                           durability != nullptr ? &durability->cheb
                                                 : nullptr));
  if (options.capture != nullptr) options.capture->perm = adjacency.perm();
  result.propagate_seconds = propagate_seconds;
  result.total_seconds = result.factorize_seconds + result.propagate_seconds;

  if (options.l2_normalize_rows) {
    linalg::ForEachRowBlock(n, options.dim, options.pool, [&](size_t begin, size_t end) {
      L2NormalizeRows(&result.vectors, begin, end);
    });
  }
  return result;
}

}  // namespace omega::embed
