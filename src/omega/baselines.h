// Baseline engines of Fig. 12: the ProNE family (CSR, no HM awareness) and
// the SSD-based out-of-core family (Ginex / MariusGNN analogues).
//
// Substitution note (DESIGN.md): Ginex and MariusGNN are GNN training systems
// with GPUs; what the paper's Fig. 12 compares is end-to-end embedding
// generation time, dominated in both by SSD I/O on large graphs. The
// analogues here run the same ProNE pipeline with each system's I/O
// discipline — Ginex-style neighbor-cached gathers with random-page misses,
// Marius-style partition-ordered I/O with sequential misses — and a GPU-class
// arithmetic rate, which preserves exactly the bottleneck structure the paper
// attributes to them.

#pragma once

#include "graph/csr.h"
#include "memsim/memory_system.h"
#include "omega/engine.h"
#include "omega/exec_context.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"

namespace omega::engine {

/// ProNE-DRAM / ProNE-HM (§IV-A): CSR storage, OpenMP-static equal-row
/// chunking, no EaTA/WoFP/NaDP/ASL.
Result<RunReport> RunProneFamily(const graph::Graph& g, const std::string& dataset,
                                 const EngineOptions& options,
                                 const exec::Context& ctx);

/// Ginex / MariusGNN analogues (see file comment).
Result<RunReport> RunOutOfCoreFamily(const graph::Graph& g,
                                     const std::string& dataset,
                                     const EngineOptions& options,
                                     const exec::Context& ctx);

/// Charged parallel CSR SpMM with equal-row static chunking — the baseline
/// execution style of the ProNE family. Uses ctx.threads() workers. Exposed
/// for tests and benches. When `plan` is non-null it must match
/// (a, ctx.threads(), kEqualRows); otherwise one is built for this call.
sparse::ParallelSpmmResult StaticCsrSpmm(const graph::CsrMatrix& a,
                                         const linalg::DenseMatrix& b,
                                         linalg::DenseMatrix* c,
                                         const sparse::SpmmPlacements& placements,
                                         const exec::Context& ctx,
                                         const sparse::CsrSpmmPlan* plan = nullptr);

}  // namespace omega::engine
