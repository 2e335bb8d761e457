// SEM-SpMM baseline (Zheng et al., TPDS'17; the paper's §IV-H competitor):
// semi-external-memory SpMM that keeps the sparse matrix on SSD and the dense
// matrices in memory.
//
// The kernel streams the sparse matrix from the SSD tier once per SpMM
// (row-major, all dense columns per pass — the semi-external optimization)
// and gathers from the dense operand in DRAM. When the dense working set
// exceeds the DRAM budget, the spilled fraction of gathers pays SSD random
// 4 KB page accesses, which is what makes SEM-SpMM collapse on the larger
// graphs (Fig. 18b).

#pragma once

#include "graph/csr.h"
#include "linalg/dense_matrix.h"
#include "omega/exec_context.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"

namespace omega::sparse {

struct SemiExternalOptions {
  /// DRAM bytes available to hold the dense operand + result. Working sets
  /// beyond this spill to SSD.
  size_t dram_budget_bytes = 96ULL << 20;
};

/// Runs C = A * B with the SEM-SpMM strategy on ctx.threads() workers through
/// ParallelCsrSpmm; returns the simulated phase result (breakdowns attribute
/// SSD traffic to the sparse/dense components). Builds the kEqualNnz plan per
/// call unless `plan` is given; a given plan must match (a, ctx.threads(),
/// kEqualNnz), and repeated SpMMs on the same structure should build it once.
/// The simulated charges are identical either way.
ParallelSpmmResult SemiExternalSpmm(const graph::CsrMatrix& a,
                                    const linalg::DenseMatrix& b,
                                    linalg::DenseMatrix* c,
                                    const SemiExternalOptions& options,
                                    const exec::Context& ctx,
                                    const CsrSpmmPlan* plan = nullptr);

}  // namespace omega::sparse
