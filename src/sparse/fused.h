// FusedMM baseline (Rahman, Sujon, Azad; IPDPS'21; the paper's §IV-H
// competitor): an in-memory CSR kernel that fuses the SDDMM/SpMM pipeline
// into a single row-major pass.
//
// Everything lives in DRAM, the sparse matrix is streamed once per SpMM, and
// rows are split in equal-count chunks across threads (OpenMP-static style),
// so it is fast on small graphs but (a) cannot run once the operands exceed
// DRAM and (b) suffers stragglers on skewed graphs — the two effects the
// paper reports (OOM on TW-2010; 2.11-3.26x behind OMeGa).

#pragma once

#include "common/status.h"
#include "graph/csr.h"
#include "linalg/dense_matrix.h"
#include "omega/exec_context.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"

namespace omega::sparse {

/// Runs C = A * B with the FusedMM strategy on ctx.threads() workers through
/// ParallelCsrSpmm. Fails with CapacityExceeded when sparse + dense + result
/// do not fit in the simulated machine's total DRAM. Builds the kEqualRows
/// plan per call unless `plan` is given; a given plan must match
/// (a, ctx.threads(), kEqualRows), and repeated SpMMs on the same structure
/// should build it once. The simulated charges are identical either way.
Result<ParallelSpmmResult> FusedMmSpmm(const graph::CsrMatrix& a,
                                       const linalg::DenseMatrix& b,
                                       linalg::DenseMatrix* c,
                                       const exec::Context& ctx,
                                       const CsrSpmmPlan* plan = nullptr);

}  // namespace omega::sparse
