#include "embed/prone.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <utility>

#include "common/first_touch.h"
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
  // Per-block factors of the entry expression below: the clamped structural
  // degree d = max(1, entry count) and its ProNE negative-sampling weight
  // d^0.75. pd_norm = sum_j deg_j^0.75 normalizes P_D(j) ~ deg_j^0.75; it
  // stays a serial ascending-row sum. block_of maps a row (or column) to
  // its degree block.
  const uint32_t blocks = adjacency.num_blocks();
  std::vector<double> clamped_degree(blocks);
  std::vector<double> sampling_weight(blocks);
  std::vector<uint32_t> block_of(adjacency.num_rows());
  double pd_norm = 0.0;
  for (uint32_t b = 0; b < blocks; ++b) {
    const double degree = adjacency.deg_list()[b];
    clamped_degree[b] = std::max(1.0, degree);
    sampling_weight[b] = std::pow(clamped_degree[b], 0.75);
    const double pd_term = std::pow(degree, 0.75);
    for (uint32_t r = adjacency.deg_ind()[b]; r < adjacency.deg_ind()[b + 1]; ++r) {
      block_of[r] = b;
      pd_norm += pd_term;
    }
  }
  if (pd_norm <= 0.0) pd_norm = 1.0;

  // An entry's value is a pure function of (row block, column block, weight
  // bits), so each worker memoises it in a table indexed by column block and
  // stamped with the row block it was computed for. Weights are keyed by
  // their bits: -0.0f == +0.0f, yet the two give different p below.
  struct Memo {
    uint32_t row_block = std::numeric_limits<uint32_t>::max();
    uint32_t weight_bits = 0;
    float value = 0.0f;
  };
  std::vector<std::vector<Memo>> memos(pool != nullptr ? pool->size() : 1);
  const std::vector<float>& weights = adjacency.nnz_list();
  std::vector<float> vals = ZeroedArray<float>(weights.size(), pool);
  const std::vector<graph::NodeId>& cols = adjacency.col_list();
  graph::ForEachRowRange(adjacency, pool,
                         [&](size_t worker, uint32_t row_begin, uint32_t row_end) {
    std::vector<Memo>& memo = memos[worker];
    memo.resize(blocks);
    for (auto blk = adjacency.BlocksInRange(row_begin, row_end); !blk.AtEnd(); blk.Next()) {
      const graph::CsdbMatrix::BlockSpan& span = blk.span();
      const uint32_t rb = block_of[span.row_begin];
      const double di = clamped_degree[rb];
      const double wi = sampling_weight[rb];
      const uint64_t end = span.ptr + static_cast<uint64_t>(span.rows()) * span.degree;
      for (uint64_t idx = span.ptr; idx < end; ++idx) {
        const uint32_t cb = block_of[cols[idx]];
        const uint32_t bits = std::bit_cast<uint32_t>(weights[idx]);
        Memo& m = memo[cb];
        if (m.row_block != rb || m.weight_bits != bits) {
          const double p =
              static_cast<double>(weights[idx]) / std::sqrt(di * clamped_degree[cb]);
          // Symmetrized negative-sampling shift sqrt(P_D(i) P_D(j)) so that
          // the target stays symmetric (apply == apply^T in the tSVD; see
          // header).
          const double pd = std::sqrt(wi * sampling_weight[cb]) / pd_norm;
          const double val = std::log(std::max(p, 1e-12)) -
                             std::log(std::max(neg_lambda * pd, 1e-12));
          // Shifted-PPMI truncation keeps the factorized matrix non-negative.
          m = {rb, bits, static_cast<float>(std::max(val, 0.0))};
        }
        vals[idx] = m.value;
      }
    }
  });
  return adjacency.WithValues(std::move(vals));
}

graph::CsdbMatrix BuildPropagationMatrix(const graph::CsdbMatrix& adjacency,
                                         ThreadPool* pool) {
  // a(r, c) / sqrt(rs(r) * rs(c)) over the row sums rs; an entry whose
  // denominator is zero keeps its weight.
  const std::vector<double> sums = sparse::RowSums(adjacency, pool);
  const std::vector<float>& weights = adjacency.nnz_list();
  std::vector<float> vals = ZeroedArray<float>(weights.size(), pool);
  const std::vector<graph::NodeId>& cols = adjacency.col_list();
  graph::ForEachRowRange(adjacency, pool, [&](size_t, uint32_t row_begin, uint32_t row_end) {
    for (auto cur = adjacency.Rows(row_begin); cur.row() < row_end; cur.Next()) {
      const double sr = sums[cur.row()];
      for (uint64_t idx = cur.ptr(); idx < cur.ptr() + cur.degree(); ++idx) {
        const double denom = std::sqrt(sr * sums[cols[idx]]);
        vals[idx] = denom > 0.0 ? static_cast<float>(weights[idx] / denom) : weights[idx];
      }
    }
  });
  return adjacency.WithValues(std::move(vals));
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
  // derived matrices share the adjacency's structure). The tSVD's dense
  // blocks are freed when RandomizedSvd returns; only R (n x dim) reaches
  // stage 2, which maps its own packed n x dim terms and sum.
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
      auto res = spmm(target, {in, out});
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

    // R = U * sqrt(Sigma), elementwise, so any row split gives the same bits.
    r0 = std::move(svd.u);
    std::vector<float> scale(options.dim);
    for (size_t c = 0; c < options.dim; ++c) {
      scale[c] = static_cast<float>(std::sqrt(std::max(0.0, svd.singular[c])));
    }
    linalg::ForEachRowBlock(n, options.dim, options.pool, [&](size_t begin, size_t end) {
      for (size_t c = 0; c < options.dim; ++c) {
        float* col = r0.ColData(c);
        for (size_t i = begin; i < end; ++i) col[i] *= scale[c];
      }
    });
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
