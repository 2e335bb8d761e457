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
/// execution style of the ProNE family: ChargeWorkloadCsr on `placements`
/// over sparse::ParallelCsrSpmm, with ctx.threads() workers. Exposed for
/// tests and benches. When `plan` is non-null it must match
/// (a, ctx.threads(), kEqualRows); otherwise one is built for this call.
/// `dense` and `packed` are as in ParallelCsrSpmm.
sparse::ParallelSpmmResult StaticCsrSpmm(
    const graph::CsrMatrix& a, const sparse::SpmmOperands& dense,
    const sparse::SpmmPlacements& placements,
    const exec::Context& ctx, const sparse::CsrSpmmPlan* plan = nullptr,
    sparse::kernels::PackedOperand* packed = nullptr);

namespace internal {

/// Caches the CSR conversion of an embedder's current CSDB matrix (stage 1's
/// target, then stage 2's propagation matrix, used strictly sequentially).
/// Pointer identity alone is unsafe (the target is freed before the
/// propagation matrix is built and the allocation may be reused), so the entry
/// is validated against the matrix's shape and value fingerprint. Exposed for
/// tests.
class CsrCache {
 public:
  /// The CSR form of `m`, converted on a miss. A matrix whose value list no
  /// longer matches its columns (resized through mutable_nnz_list()) fails
  /// the conversion; the error is returned and the cache is left empty.
  Result<const graph::CsrMatrix*> Get(const graph::CsdbMatrix& m);

 private:
  struct Fingerprint {
    const void* data = nullptr;
    uint64_t nnz = 0;
    float first = 0.0f;
    float mid = 0.0f;

    bool operator==(const Fingerprint& other) const = default;
  };

  static Fingerprint FingerprintOf(const graph::CsdbMatrix& m);

  bool valid_ = false;
  Fingerprint key_;
  graph::CsrMatrix cached_;
};

}  // namespace internal

}  // namespace omega::engine
