// CSDB — the paper's Compressed Sparse Degree-Block format (§III-A).
//
// Nodes are relabeled in non-increasing degree order so that all rows with
// the same degree form one contiguous block. Row indexing then needs only
// per-block metadata:
//   Deg_list  — the distinct degrees, non-increasing (the paper's Deg_list);
//   Deg_ind   — the first row of each block (the paper's Deg_ind);
//   block_ptr — the first nnz offset of each block (prefix of Eq. 1).
// All three are O(|distinct degrees|) instead of CSR's O(|V|) row pointers.
// Within a block every row has the same degree d, so
//   Deg_ptr(row) = block_ptr[b] + (row - Deg_ind[b]) * d        (Eq. 1)
// is computable in O(1).
//
// The index (perm, the three block arrays and col_list) is immutable once
// built and lives behind one shared pointer; a matrix owns only its values
// (nnz_list). WithValues() derives a matrix over the same structure, so
// ProNE's target and propagation matrices and every copy share the
// adjacency's index and allocate only a value array.

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/graph.h"

namespace omega::graph {

/// Square sparse matrix in CSDB layout. Rows and columns are in the format's
/// own degree-sorted id space; `perm()` maps back to original node ids.
class CsdbMatrix {
 public:
  CsdbMatrix() = default;
  CsdbMatrix(const CsdbMatrix&) = default;
  CsdbMatrix& operator=(const CsdbMatrix&) = default;
  /// A moved-from matrix is the empty matrix.
  CsdbMatrix(CsdbMatrix&& other) noexcept;
  CsdbMatrix& operator=(CsdbMatrix&& other) noexcept;

  /// Builds the weighted adjacency matrix of `g` in CSDB form, relabeling
  /// nodes into degree-descending order. Each row is gathered through the
  /// relabeling and put in column order by a RowSorter; with a pool, rows
  /// are built in parallel and the result is byte-identical at any thread
  /// count.
  static CsdbMatrix FromGraph(const Graph& g, ThreadPool* pool = nullptr);

  /// Builds from explicit parts. `row_degrees` must be non-increasing.
  /// Column indices are taken as already being in the CSDB id space.
  static Result<CsdbMatrix> FromParts(uint32_t num_rows, uint32_t num_cols,
                                      const std::vector<uint32_t>& row_degrees,
                                      std::vector<NodeId> col_list,
                                      std::vector<float> nnz_list,
                                      std::vector<NodeId> perm = {});

  /// This matrix's structure with `values` as its nnz_list (one per stored
  /// entry, in col_list order). The structure is shared, not copied.
  CsdbMatrix WithValues(std::vector<float> values) const;

  uint32_t num_rows() const { return s_->num_rows; }
  uint32_t num_cols() const { return s_->num_cols; }
  uint64_t nnz() const { return s_->col_list.size(); }
  uint32_t num_blocks() const { return static_cast<uint32_t>(s_->deg_list.size()); }

  const std::vector<uint32_t>& deg_list() const { return s_->deg_list; }
  const std::vector<uint32_t>& deg_ind() const { return s_->deg_ind; }
  const std::vector<uint64_t>& block_ptr() const { return s_->block_ptr; }
  const std::vector<NodeId>& col_list() const { return s_->col_list; }
  const std::vector<float>& nnz_list() const { return nnz_list_; }
  std::vector<float>& mutable_nnz_list() { return nnz_list_; }

  /// CSDB row i corresponds to original node perm()[i]. Empty when the matrix
  /// was built without relabeling.
  const std::vector<NodeId>& perm() const { return s_->perm; }

  /// Block containing `row` (binary search, O(log blocks)).
  uint32_t BlockOfRow(uint32_t row) const;

  /// Degree of `row` (O(log blocks); use RowCursor for linear scans).
  uint32_t RowDegree(uint32_t row) const { return s_->deg_list[BlockOfRow(row)]; }

  /// Starting nnz offset of `row` — the paper's Deg_ptr (Eq. 1).
  uint64_t RowPtr(uint32_t row) const;

  /// Bytes of index metadata — O(|distinct degrees|), the CSDB saving.
  size_t IndexBytes() const {
    return s_->deg_list.size() * sizeof(uint32_t) + s_->deg_ind.size() * sizeof(uint32_t) +
           s_->block_ptr.size() * sizeof(uint64_t);
  }

  /// O(1)-per-step forward iterator over rows for sequential kernels.
  class RowCursor {
   public:
    RowCursor(const CsdbMatrix& m, uint32_t start_row);

    uint32_t row() const { return row_; }
    uint32_t degree() const { return degree_; }
    uint64_t ptr() const { return ptr_; }
    bool AtEnd() const { return row_ >= m_->num_rows(); }

    void Next();

   private:
    const CsdbMatrix* m_;
    uint32_t row_;
    uint32_t block_;
    uint32_t degree_;
    uint64_t ptr_;
  };

  RowCursor Rows(uint32_t start_row = 0) const { return RowCursor(*this, start_row); }

  /// One maximal run of same-degree rows inside a queried row range: rows
  /// [row_begin, row_end) all have degree `degree`, with row r's elements at
  /// nnz offset ptr + (r - row_begin) * degree. Every row of a span shares the
  /// same inner-loop trip count, which is what lets the packed SpMM kernel
  /// run a whole block per call (§III-A's point: the degree-descending layout
  /// turns short-row handling into a per-block, branch-predictable decision).
  /// The kernel takes a CSR row as a one-row span.
  struct BlockSpan {
    uint32_t row_begin = 0;
    uint32_t row_end = 0;
    uint32_t degree = 0;
    uint64_t ptr = 0;  ///< first nnz offset of row_begin

    uint32_t rows() const { return row_end - row_begin; }
  };

  /// Forward iterator over the degree blocks intersecting [row_begin,
  /// row_end): each step yields the current block clamped to the range.
  /// O(log blocks) to start, O(1) per step, same as RowCursor.
  class BlockCursor {
   public:
    BlockCursor(const CsdbMatrix& m, uint32_t row_begin, uint32_t row_end);

    bool AtEnd() const { return span_.row_begin >= end_; }
    const BlockSpan& span() const { return span_; }
    void Next();

   private:
    const CsdbMatrix* m_;
    uint32_t end_;
    uint32_t block_;
    BlockSpan span_;
  };

  /// Degree blocks overlapping [row_begin, min(row_end, num_rows())).
  BlockCursor BlocksInRange(uint32_t row_begin, uint32_t row_end) const {
    return BlockCursor(*this, row_begin, row_end);
  }

 private:
  // Everything but the values; never modified once a matrix holds it.
  struct Structure {
    uint32_t num_rows = 0;
    uint32_t num_cols = 0;
    std::vector<uint32_t> deg_list;   // distinct degrees, non-increasing
    std::vector<uint32_t> deg_ind;    // size num_blocks+1: first row per block
    std::vector<uint64_t> block_ptr;  // size num_blocks+1: first nnz per block
    std::vector<NodeId> col_list;
    std::vector<NodeId> perm;
  };

  // The empty matrix's structure, shared by every default-constructed and
  // moved-from matrix so that s_ is never null.
  static const std::shared_ptr<const Structure>& EmptyStructure();

  std::shared_ptr<const Structure> s_ = EmptyStructure();
  std::vector<float> nnz_list_;
};

/// Sorts one row's entries (cols[k], vals[k]), k < n, into ascending column
/// order in place, without comparisons: an LSD radix sort over 8-bit column
/// digits that skips every digit no entry of the row varies in, and an
/// insertion sort for short rows. Both are stable, so on a row with distinct
/// columns (every graph row is deduplicated) the result is the one any sort
/// by column gives. The scratch row is reused across calls: keep one sorter
/// per worker.
class RowSorter {
 public:
  void Sort(NodeId* cols, float* vals, uint32_t n);

 private:
  std::vector<NodeId> cols_;
  std::vector<float> vals_;
};

/// Row ranges carry at least this much work (nnz + rows) before a pool
/// dispatch pays off.
inline constexpr uint64_t kMinRangeWork = 1 << 14;

/// Runs `fn(worker, row_begin, row_end)` over contiguous row ranges that
/// cover [0, m.num_rows()) exactly once. On a pool of more than one thread
/// the ranges are balanced by work (a row costs its degree plus one, so hub
/// rows get short ranges) and handed out dynamically; `worker` is the pool
/// thread index, for per-worker scratch. Without such a pool, or when the
/// matrix is too small to split, `fn(0, 0, m.num_rows())` runs inline. Must
/// not be called from inside a pool job (RunOnAll is not reentrant).
void ForEachRowRange(const CsdbMatrix& m, ThreadPool* pool,
                     const std::function<void(size_t, uint32_t, uint32_t)>& fn);

}  // namespace omega::graph
