// Operators over the CSDB format (§III-A) that the pipeline uses: the
// incremental delta rebuild, the value transforms ProNE needs, and the
// reference and conversion helpers. Multiplication with a dense operand is in
// sparse/spmm.h. The paper's addition, subtraction and transposition are not
// implemented: nothing in the pipeline calls them.

#pragma once

#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "graph/csdb.h"
#include "graph/csr.h"
#include "linalg/dense_matrix.h"
#include "memsim/memory_system.h"

namespace omega::sparse {

/// Result of a CSDB delta application (ApplyDelta below).
struct CsdbDeltaResult {
  graph::CsdbMatrix matrix;
  uint64_t touched_rows = 0;  ///< rows re-gathered from the new graph
  uint64_t reused_rows = 0;   ///< rows remapped from the old matrix
  double sim_seconds = 0.0;   ///< simulated cost charged (0 without a memsim)
};

/// Applies a graph delta to an existing CSDB matrix without a full rebuild.
/// `touched_nodes` are the nodes whose adjacency changed between the graph
/// `old_csdb` was built from and `new_graph` (a MutableGraph::Synchronize
/// delta's touched set). Untouched rows keep their gathered (col, value)
/// payload and are only remapped into the new degree-descending id space;
/// touched rows are re-gathered from `new_graph`. The result is byte-identical
/// to CsdbMatrix::FromGraph(new_graph) — same perm, metadata, col_list and
/// nnz_list — but its simulated cost scales with |touched| + remap traffic
/// instead of a full sort-and-gather.
Result<CsdbDeltaResult> ApplyDelta(const graph::CsdbMatrix& old_csdb,
                                   const graph::Graph& new_graph,
                                   const std::vector<graph::NodeId>& touched_nodes,
                                   memsim::MemorySystem* ms = nullptr,
                                   memsim::WorkerCtx* ctx = nullptr);

/// In-place value scaling: a *= alpha.
void ScaleValues(graph::CsdbMatrix* a, float alpha);

/// Row degree-sum vector d_r = sum_c a(r, c) of the stored values. Each row
/// sums in ascending column order on one worker, so a pool changes nothing
/// but which thread computes which row.
std::vector<double> RowSums(const graph::CsdbMatrix& a, ThreadPool* pool = nullptr);

/// In-place row normalization a(r, c) /= row_sum(r)  (the D^-1 A operator).
/// Zero rows are left untouched.
void RowNormalize(graph::CsdbMatrix* a);

/// y = a * x (SpMV; no memsim charging — used by tests and small utilities).
Status SpMV(const graph::CsdbMatrix& a, const std::vector<float>& x,
            std::vector<float>* y);

/// Densifies (tests / reference checks only).
linalg::DenseMatrix ToDense(const graph::CsdbMatrix& a);

/// Converts to CSR, preserving the CSDB row order (used by the CSR-based
/// baseline engines).
Result<graph::CsrMatrix> ToCsr(const graph::CsdbMatrix& a);

/// Reference (uncharged) SpMM for correctness checks. A pool parallelizes the
/// row loop on the host via dynamic row blocks; each element's reduction
/// order is fixed, so the result is bit-identical at any thread count.
Status ReferenceSpmm(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                     linalg::DenseMatrix* c, ThreadPool* pool = nullptr);

}  // namespace omega::sparse
