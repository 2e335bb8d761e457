#include "sparse/csdb_ops.h"

#include <algorithm>
#include <cmath>

namespace omega::sparse {

Result<CsdbDeltaResult> ApplyDelta(const graph::CsdbMatrix& old_csdb,
                                   const graph::Graph& new_graph,
                                   const std::vector<graph::NodeId>& touched_nodes,
                                   memsim::MemorySystem* ms,
                                   memsim::WorkerCtx* ctx) {
  const graph::NodeId n = new_graph.num_nodes();
  if (old_csdb.num_rows() != n || old_csdb.num_cols() != n) {
    return Status::InvalidArgument("ApplyDelta: shape mismatch with new graph");
  }
  if (old_csdb.perm().size() != n) {
    return Status::InvalidArgument("ApplyDelta: old matrix lacks a row perm");
  }
  for (const graph::NodeId v : touched_nodes) {
    if (v >= n) return Status::OutOfRange("ApplyDelta: touched node out of range");
  }

  const double clock_before = ctx != nullptr ? ctx->clock->seconds() : 0.0;

  // New row order: the same stable degree-descending sort FromGraph uses, so
  // the result's perm matches a from-scratch build exactly.
  const std::vector<graph::NodeId> order = new_graph.DegreeDescendingOrder();
  std::vector<graph::NodeId> new_inverse(n);
  for (graph::NodeId i = 0; i < n; ++i) new_inverse[order[i]] = i;
  std::vector<graph::NodeId> old_inverse(n);
  for (graph::NodeId r = 0; r < n; ++r) old_inverse[old_csdb.perm()[r]] = r;

  std::vector<char> touched(n, 0);
  for (const graph::NodeId v : touched_nodes) touched[v] = 1;

  CsdbDeltaResult result;
  std::vector<uint32_t> row_degrees(n);
  std::vector<graph::NodeId> col_list;
  std::vector<float> nnz_list;
  col_list.reserve(new_graph.num_arcs());
  nnz_list.reserve(new_graph.num_arcs());
  const auto& old_cols = old_csdb.col_list();
  const auto& old_vals = old_csdb.nnz_list();

  uint64_t touched_arcs = 0;
  graph::RowSorter sorter;
  for (graph::NodeId i = 0; i < n; ++i) {
    const graph::NodeId node = order[i];
    const uint32_t deg = new_graph.degree(node);
    row_degrees[i] = deg;
    const size_t row_begin = col_list.size();
    if (touched[node]) {
      // Re-gather this row from the new adjacency, as FromGraph would.
      const graph::NodeId* nbrs = new_graph.neighbors(node);
      const float* wts = new_graph.weights(node);
      for (uint32_t k = 0; k < deg; ++k) {
        col_list.push_back(new_inverse[nbrs[k]]);
        nnz_list.push_back(wts[k]);
      }
      ++result.touched_rows;
      touched_arcs += deg;
    } else {
      // Reuse the gathered payload; only the column ids need remapping from
      // the old CSDB id space into the new one.
      const uint64_t ptr = old_csdb.RowPtr(old_inverse[node]);
      for (uint32_t k = 0; k < deg; ++k) {
        col_list.push_back(new_inverse[old_csdb.perm()[old_cols[ptr + k]]]);
        nnz_list.push_back(old_vals[ptr + k]);
      }
      ++result.reused_rows;
    }
    // Rows usually stay nearly sorted after the remap; only sort, with
    // FromGraph's row sort, when the permutation actually reordered this
    // row's columns.
    if (!std::is_sorted(col_list.begin() + row_begin, col_list.end())) {
      sorter.Sort(col_list.data() + row_begin, nnz_list.data() + row_begin, deg);
    }
  }

  OMEGA_ASSIGN_OR_RETURN(
      result.matrix,
      graph::CsdbMatrix::FromParts(n, n, row_degrees, std::move(col_list),
                                   std::move(nnz_list), order));

  if (ms != nullptr && ctx != nullptr) {
    // Reused rows stream through DRAM (read old entry, write remapped entry,
    // a few ops per entry for the remap + ascending check); touched rows
    // gather their arcs from the PM-resident adjacency; the order rebuild is
    // a comparison sort over the degree array.
    const memsim::Placement dram{memsim::Tier::kDram, 0};
    const memsim::Placement pm{memsim::Tier::kPm, memsim::Placement::kInterleaved};
    const uint64_t reused_entries = result.matrix.nnz() - touched_arcs;
    ms->ChargeAccess(ctx, dram, memsim::MemOp::kRead, memsim::Pattern::kSequential,
                     reused_entries * 8, 1);
    ms->ChargeAccess(ctx, dram, memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                     reused_entries * 8, 1);
    ms->ChargeAccess(ctx, pm, memsim::MemOp::kRead, memsim::Pattern::kRandom,
                     touched_arcs * 64, touched_arcs);
    ms->ChargeCompute(ctx, reused_entries * 4 + touched_arcs * 24 +
                               static_cast<uint64_t>(n) * 32);
    result.sim_seconds = ctx->clock->seconds() - clock_before;
  }
  return result;
}

void ScaleValues(graph::CsdbMatrix* a, float alpha) {
  for (float& v : a->mutable_nnz_list()) v *= alpha;
}

std::vector<double> RowSums(const graph::CsdbMatrix& a, ThreadPool* pool) {
  std::vector<double> sums(a.num_rows(), 0.0);
  const auto& vals = a.nnz_list();
  graph::ForEachRowRange(a, pool, [&](size_t, uint32_t row_begin, uint32_t row_end) {
    for (auto cur = a.Rows(row_begin); cur.row() < row_end; cur.Next()) {
      double s = 0.0;
      for (uint32_t k = 0; k < cur.degree(); ++k) s += vals[cur.ptr() + k];
      sums[cur.row()] = s;
    }
  });
  return sums;
}

void RowNormalize(graph::CsdbMatrix* a) {
  const std::vector<double> sums = RowSums(*a);
  auto& vals = a->mutable_nnz_list();
  for (auto cur = a->Rows(0); !cur.AtEnd(); cur.Next()) {
    const double s = sums[cur.row()];
    if (s == 0.0) continue;
    for (uint32_t k = 0; k < cur.degree(); ++k) {
      vals[cur.ptr() + k] = static_cast<float>(vals[cur.ptr() + k] / s);
    }
  }
}

Status SpMV(const graph::CsdbMatrix& a, const std::vector<float>& x,
            std::vector<float>* y) {
  if (x.size() != a.num_cols()) return Status::InvalidArgument("SpMV: dim mismatch");
  y->assign(a.num_rows(), 0.0f);
  const graph::NodeId* cols = a.col_list().data();
  const float* vals = a.nnz_list().data();
  const float* xv = x.data();
  float* yv = y->data();
  // Degree blocks give the inner reduction a per-block constant trip count —
  // the same spans the packed SpMM kernel walks; the ascending-k order (and
  // hence the result) is unchanged.
  for (auto blk = a.BlocksInRange(0, a.num_rows()); !blk.AtEnd(); blk.Next()) {
    const graph::CsdbMatrix::BlockSpan& s = blk.span();
    const uint32_t deg = s.degree;
    uint64_t ptr = s.ptr;
    for (uint32_t r = s.row_begin; r < s.row_end; ++r, ptr += deg) {
      float acc = 0.0f;
      for (uint32_t k = 0; k < deg; ++k) {
        acc += vals[ptr + k] * xv[cols[ptr + k]];
      }
      yv[r] = acc;
    }
  }
  return Status::OK();
}

linalg::DenseMatrix ToDense(const graph::CsdbMatrix& a) {
  linalg::DenseMatrix m(a.num_rows(), a.num_cols());
  const auto& cols = a.col_list();
  const auto& vals = a.nnz_list();
  for (auto cur = a.Rows(0); !cur.AtEnd(); cur.Next()) {
    for (uint32_t k = 0; k < cur.degree(); ++k) {
      m.At(cur.row(), cols[cur.ptr() + k]) += vals[cur.ptr() + k];
    }
  }
  return m;
}

Result<graph::CsrMatrix> ToCsr(const graph::CsdbMatrix& a) {
  std::vector<uint64_t> row_ptr(a.num_rows() + 1, 0);
  for (auto cur = a.Rows(0); !cur.AtEnd(); cur.Next()) {
    row_ptr[cur.row() + 1] = row_ptr[cur.row()] + cur.degree();
  }
  return graph::CsrMatrix::FromParts(a.num_rows(), a.num_cols(), std::move(row_ptr),
                                     a.col_list(), a.nnz_list());
}

Status ReferenceSpmm(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                     linalg::DenseMatrix* c, ThreadPool* pool) {
  if (b.rows() != a.num_cols()) {
    return Status::InvalidArgument("ReferenceSpmm: dim mismatch");
  }
  *c = linalg::DenseMatrix(a.num_rows(), b.cols());
  const auto& cols = a.col_list();
  const auto& vals = a.nnz_list();
  auto compute_rows = [&](uint32_t row_begin, uint32_t row_end) {
    for (size_t t = 0; t < b.cols(); ++t) {
      const float* bt = b.ColData(t);
      float* ct = c->ColData(t);
      for (auto cur = a.Rows(row_begin); cur.row() < row_end; cur.Next()) {
        float acc = 0.0f;
        for (uint32_t k = 0; k < cur.degree(); ++k) {
          acc += vals[cur.ptr() + k] * bt[cols[cur.ptr() + k]];
        }
        ct[cur.row()] = acc;
      }
    }
  };
  if (pool != nullptr && pool->size() > 1 && a.num_rows() >= 2048) {
    pool->ParallelForDynamic(a.num_rows(), /*chunk_size=*/1024,
                             [&](size_t, size_t begin, size_t end) {
                               compute_rows(static_cast<uint32_t>(begin),
                                            static_cast<uint32_t>(end));
                             });
  } else {
    compute_rows(0, a.num_rows());
  }
  return Status::OK();
}

}  // namespace omega::sparse
