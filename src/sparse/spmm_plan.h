// Plan/execute split for the SpMM kernels (inspector-executor).
//
// ProNE calls the same SpMM on the same sparse structure dozens of times
// (tSVD power iterations + the Chebyshev recurrence). All of the inspector
// work — the EaTA entropy scan behind sched::Allocate, the column in-degree
// scan, the per-part nnz/entropy metadata of the CSR baselines — depends only
// on the matrix *structure*, never on the dense values, so it can be built
// once per (structure, thread count, allocator) and reused by every execute.
// This header holds the plan keys, the CSR baselines' plan and the one CSR
// SpMM driver that executes it; the CSDB plan is numa::NadpPlan.
//
// Two-clock contract (DESIGN.md): a plan caches host-side structures only.
// Every simulated charge is still issued per execute, in the same order and
// with the same arguments as the per-call path, so reusing a plan changes
// host wall-clock but not one byte of simulated output.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/csdb.h"
#include "graph/csr.h"
#include "sparse/spmm.h"

namespace omega::sparse {

/// In-degree of every column of `a` (number of stored entries per column);
/// WoFP's degree-based prefetchers rank columns by it. With a pool, each
/// worker counts its slice of the entries into its own array and the arrays
/// are summed in worker order; integer counts, so the result is the same at
/// any pool size.
std::vector<uint32_t> ComputeInDegrees(const graph::CsdbMatrix& a,
                                       ThreadPool* pool = nullptr);

/// Structural identity of a sparse matrix — the invalidation key of every
/// plan. Pointer identity alone is unsafe (allocations are reused across the
/// embedder's stage-1/stage-2 matrices), so the key adds shape and sampled
/// column indices, mirroring the engine's CsrCache fingerprint. Two matrices
/// with equal keys have (with the usual sampling caveat) the same sparsity
/// structure, and plans depend on structure only.
struct SparseStructureKey {
  const void* col_data = nullptr;  ///< col_list / col_idx storage
  uint64_t nnz = 0;
  uint32_t rows = 0;
  uint32_t cols = 0;
  uint32_t first = 0;  ///< col sample at 0
  uint32_t mid = 0;    ///< col sample at nnz/2
  uint32_t last = 0;   ///< col sample at nnz-1
  /// Optional content fingerprint (FingerprintOf().combined). 0 = not
  /// computed; StructureOf never fills it — the dynamic path sets it where
  /// pointer+sample identity is too weak (delta-applied matrices reuse sizes
  /// and often allocator addresses).
  uint64_t block_fingerprint = 0;

  bool operator==(const SparseStructureKey& other) const = default;
};

SparseStructureKey StructureOf(const graph::CsdbMatrix& a);
SparseStructureKey StructureOf(const graph::CsrMatrix& a);

/// Per-row-block content fingerprint of a CSDB matrix: the rows are cut into
/// fixed stripes of `stripe_rows` CSDB rows and each stripe's structure
/// (degrees + column ids) is hashed separately. Two uses: `combined` extends
/// SparseStructureKey for the dynamic path, and comparing `stripes` between
/// the pre- and post-delta matrices yields the touched row blocks so plan
/// caches can invalidate only plans covering them.
struct RowBlockFingerprint {
  uint32_t stripe_rows = 0;
  std::vector<uint64_t> stripes;  ///< one structure hash per stripe
  std::vector<uint64_t> value_stripes;  ///< one value (nnz payload) hash per stripe
  uint64_t combined = 0;          ///< hash over all stripe structure hashes
};

RowBlockFingerprint FingerprintOf(const graph::CsdbMatrix& a,
                                  uint32_t stripe_rows = 4096);

/// Stripe indices whose structure hash differs between two fingerprints (all
/// stripes when the stripe widths or counts differ). Empty means the sparsity
/// structure is unchanged — a weight-only delta at most.
std::vector<uint32_t> TouchedStripes(const RowBlockFingerprint& a,
                                     const RowBlockFingerprint& b);

/// One thread's contiguous CSR row part with the pre-scanned metadata its
/// charges need: total nnz and the raw workload entropy H (Eq. 3, accumulated
/// in ascending-row order — the same AddRow order as the per-call scan, so
/// the Z-blended gather charge is bit-identical).
struct CsrPlanPart {
  uint32_t row_begin = 0;
  uint32_t row_end = 0;
  uint64_t nnz = 0;
  double entropy = 0.0;
};

/// Reusable inspector state for the CSR baselines (FusedMM, SEM-SpMM, the
/// ProNE/out-of-core engines): the static row partition plus per-part charge
/// metadata.
class CsrSpmmPlan {
 public:
  /// kEqualRows: OpenMP-static equal-count chunks. kEqualNnz: contiguous
  /// parts of ~equal nnz (sequential row consumption, last part absorbs the
  /// tail) — both exactly the partitions the per-call kernels produce.
  enum class Split { kEqualRows, kEqualNnz };

  CsrSpmmPlan() = default;

  static CsrSpmmPlan Build(const graph::CsrMatrix& a, int threads, Split split);

  bool valid() const { return threads_ > 0; }
  bool Matches(const graph::CsrMatrix& a, int threads, Split split) const;

  /// Exactly num_threads() entries (possibly empty parts).
  const std::vector<CsrPlanPart>& parts() const { return parts_; }
  int num_threads() const { return threads_; }
  Split split() const { return split_; }

 private:
  SparseStructureKey structure_;
  Split split_ = Split::kEqualRows;
  int threads_ = 0;
  std::vector<CsrPlanPart> parts_;
};

/// Prices one plan part on its simulated worker: charges `ctx` and returns
/// the part's breakdown.
using CsrPartPricing =
    std::function<SpmmCostBreakdown(const CsrPlanPart& part, memsim::WorkerCtx* ctx)>;

/// The parallel CSR SpMM driver. The CSR baselines (FusedMM, SEM-SpMM, the
/// ProNE and out-of-core engines) all run Algorithm 1 through it and differ
/// only in `price`. Uses `plan`, which must match (a, ctx.threads(), split),
/// or builds one for this call. For column-major operands, packs B once
/// (PackDense, into `packed` when given, into an operand local to the call
/// otherwise) and computes every row of C = A * B on ctx.pool() with the
/// packed kernel CSDB runs too (kernels::CsrPackedSpmm), writing every
/// element of C; a packed Chebyshev term runs the same kernel with its
/// epilogue over every row and column (SpmmOperands). Then it prices each of
/// the plan's parts on its own worker of a memsim::WorkerFrame (whole-pool
/// contention, fault cursors starting at `fault_site`). nnz_processed is
/// a.nnz(). C and every simulated second are the same at any pool size.
ParallelSpmmResult ParallelCsrSpmm(const graph::CsrMatrix& a,
                                   const SpmmOperands& dense,
                                   const exec::Context& ctx,
                                   CsrSpmmPlan::Split split, const CsrSpmmPlan* plan,
                                   const CsrPartPricing& price,
                                   uint64_t fault_site = 0,
                                   kernels::PackedOperand* packed = nullptr);

}  // namespace omega::sparse
