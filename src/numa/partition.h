// Socket-level partitioning of the SpMM operands (§III-D, Fig. 10).
//
// NaDP splits the sparse matrix M into per-socket row blocks (balanced by
// nnz) and the dense matrix L into per-socket column blocks. Socket s owns
// L_s and computes C[:, cols_s] = M x L_s: its threads read every sparse row
// block sequentially (local or remote — global sequential read) and write the
// per-socket intermediates locally (local write).

#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/csdb.h"
#include "sched/workload.h"

namespace omega::numa {

/// Per-socket sparse row blocks of `a`: contiguous, nnz-balanced, covering
/// every row.
std::vector<sched::RowRange> SocketRowBlocks(const graph::CsdbMatrix& a,
                                             int num_sockets);

/// [col_begin, col_end) split into `parts` equal-count dense column blocks
/// [begin, end), in order; the last ones may be short or empty.
std::vector<std::pair<size_t, size_t>> ColumnBlocks(size_t col_begin, size_t col_end,
                                                    int parts);

/// Clips a workload to one row block; ranges outside the block are dropped.
sched::Workload IntersectWorkload(const sched::Workload& w,
                                  const sched::RowRange& block);

}  // namespace omega::numa
