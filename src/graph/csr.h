// Compressed Sparse Row matrix — the baseline graph/sparse-matrix format the
// paper compares CSDB against (Fig. 19a). Index arrays are O(|V|).

#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace omega::graph {

/// Square sparse matrix in CSR layout; rows are graph nodes.
class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Builds the (weighted) adjacency matrix of `g`.
  static CsrMatrix FromGraph(const Graph& g);

  /// Builds directly from raw arrays (used by operators/tests).
  static Result<CsrMatrix> FromParts(uint32_t num_rows, uint32_t num_cols,
                                     std::vector<uint64_t> row_ptr,
                                     std::vector<NodeId> col_idx,
                                     std::vector<float> values);

  uint32_t num_rows() const { return num_rows_; }
  uint32_t num_cols() const { return num_cols_; }
  uint64_t nnz() const { return col_idx_.size(); }

  uint64_t RowBegin(uint32_t r) const { return row_ptr_[r]; }
  uint32_t RowDegree(uint32_t r) const {
    return static_cast<uint32_t>(row_ptr_[r + 1] - row_ptr_[r]);
  }

  const std::vector<uint64_t>& row_ptr() const { return row_ptr_; }
  const std::vector<NodeId>& col_idx() const { return col_idx_; }
  const std::vector<float>& values() const { return values_; }
  std::vector<float>& mutable_values() { return values_; }

  /// Bytes of index metadata (the O(|V|) cost CSDB avoids).
  size_t IndexBytes() const { return row_ptr_.size() * sizeof(uint64_t); }

 private:
  uint32_t num_rows_ = 0;
  uint32_t num_cols_ = 0;
  std::vector<uint64_t> row_ptr_;
  std::vector<NodeId> col_idx_;
  std::vector<float> values_;
};

}  // namespace omega::graph
