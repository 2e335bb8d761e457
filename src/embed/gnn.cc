#include "embed/gnn.h"

#include <cmath>

#include "linalg/gemm.h"
#include "linalg/random_matrix.h"
#include "sparse/csdb_ops.h"

namespace omega::embed {

namespace {

// Xavier-ish scaled Gaussian weights.
linalg::DenseMatrix MakeWeights(size_t in_dim, size_t out_dim, uint64_t seed) {
  linalg::DenseMatrix w = linalg::GaussianMatrix(in_dim, out_dim, seed);
  w.Scale(static_cast<float>(1.0 / std::sqrt(static_cast<double>(in_dim))));
  return w;
}

void ReluInPlace(linalg::DenseMatrix* m) {
  float* data = m->data();
  for (size_t i = 0; i < m->size(); ++i) data[i] = std::max(0.0f, data[i]);
}

}  // namespace

Result<GnnResult> GnnForward(const graph::CsdbMatrix& adjacency,
                             const linalg::DenseMatrix& features,
                             const GnnOptions& options, const SpmmExecutor& spmm,
                             double cpu_ops_per_second) {
  if (options.num_layers <= 0) {
    return Status::InvalidArgument("num_layers must be positive");
  }
  if (adjacency.num_rows() != adjacency.num_cols()) {
    return Status::InvalidArgument("adjacency must be square");
  }
  const size_t n = adjacency.num_rows();

  // Mean aggregator: row-normalized adjacency.
  graph::CsdbMatrix s = adjacency;
  sparse::RowNormalize(&s);

  linalg::DenseMatrix h = features;
  if (h.rows() == 0) {
    h = linalg::GaussianMatrix(n, options.input_dim, options.seed ^ 0xfeedULL);
  } else if (h.rows() != n) {
    return Status::InvalidArgument("features must have one row per node");
  }

  GnnResult result;
  for (int layer = 0; layer < options.num_layers; ++layer) {
    const size_t out_dim = (layer == options.num_layers - 1) ? options.output_dim
                                                             : options.hidden_dim;
    const linalg::DenseMatrix w_agg =
        MakeWeights(h.cols(), out_dim, options.seed + 2 * layer);
    const linalg::DenseMatrix w_self =
        MakeWeights(h.cols(), out_dim, options.seed + 2 * layer + 1);

    // Aggregation: one charged SpMM per layer.
    linalg::DenseMatrix aggregated;
    OMEGA_ASSIGN_OR_RETURN(double secs, spmm(s, {h, &aggregated}));
    result.spmm_seconds += secs;

    // Weight multiplies: real GEMMs, charged at the simulated CPU rate.
    linalg::DenseMatrix next;
    OMEGA_RETURN_NOT_OK(linalg::Gemm(aggregated, w_agg, &next));
    linalg::DenseMatrix self_part;
    OMEGA_RETURN_NOT_OK(linalg::Gemm(h, w_self, &self_part));
    OMEGA_RETURN_NOT_OK(next.AddScaled(self_part, 1.0f));
    result.dense_seconds += 2.0 * 2.0 * static_cast<double>(n) * h.cols() *
                            out_dim / cpu_ops_per_second;

    if (layer + 1 < options.num_layers) ReluInPlace(&next);
    h = std::move(next);
  }

  if (options.l2_normalize_rows) {
    for (size_t r = 0; r < n; ++r) {
      double norm2 = 0.0;
      for (size_t c = 0; c < h.cols(); ++c) {
        norm2 += static_cast<double>(h.At(r, c)) * h.At(r, c);
      }
      const float inv = norm2 > 0 ? static_cast<float>(1.0 / std::sqrt(norm2)) : 0.0f;
      for (size_t c = 0; c < h.cols(); ++c) h.At(r, c) *= inv;
    }
  }
  result.embeddings = std::move(h);
  return result;
}

}  // namespace omega::embed
