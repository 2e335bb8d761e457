// Parallel SpMM — Algorithm 1 of the paper, executed for real on host memory
// while charging the simulated heterogeneous-memory machine.
//
// The per-thread cost decomposes into the paper's five operations (Fig. 7a):
//   1 read_index     — sequential reads of the row metadata;
//   2 get_sparse_nnz — sequential reads of col_list/nnz_list;
//   3 get_dense_nnz  — the dominant term: gathers from the dense operand at
//                      rows A.col_list[k]. Per the paper's cost model (Eqs.
//                      4-5), a workload's gather stream achieves a bandwidth
//                      between sequential and random in proportion to its
//                      normalized entropy Z(H): cost is the Z-weighted blend
//                      of the random-access and sequential-access charges.
//                      This is how the W_sca effect (Fig. 7b) enters the
//                      simulation;
//   4 accumulation   — multiply-accumulate arithmetic (the BW_CPU term);
//   5 write_result   — sequential writes of the column-major result.
//
// A DenseCacheView (implemented by WoFP) can intercept gathers: cached
// columns are charged against the cache's (DRAM) placement instead of the
// dense operand's (PM) placement.

#pragma once

#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "graph/csdb.h"
#include "graph/csr.h"
#include "linalg/dense_matrix.h"
#include "memsim/memory_system.h"
#include "memsim/worker_frame.h"
#include "omega/exec_context.h"
#include "sched/workload.h"
#include "sparse/spmm_kernels.h"

namespace omega::sparse {

/// nnz fetched per simulated second — the paper's SpMM throughput metric
/// (Fig. 16). Shared by every phase-result type that reports it.
inline double ThroughputNnzPerSec(uint64_t nnz_processed, double phase_seconds) {
  return phase_seconds > 0.0
             ? static_cast<double>(nnz_processed) / phase_seconds
             : 0.0;
}

/// The five cost components of Algorithm 1.
enum class SpmmOp {
  kReadIndex = 0,
  kGetSparseNnz = 1,
  kGetDenseNnz = 2,
  kAccumulate = 3,
  kWriteResult = 4,
};
inline constexpr int kNumSpmmOps = 5;

const char* SpmmOpName(SpmmOp op);

/// Simulated seconds attributed to each component.
struct SpmmCostBreakdown {
  double seconds[kNumSpmmOps] = {};

  double Total() const;
  SpmmCostBreakdown& operator+=(const SpmmCostBreakdown& other);
};

/// Where each operand of the SpMM lives on the simulated machine.
struct SpmmPlacements {
  memsim::Placement index{memsim::Tier::kDram, 0};   ///< CSDB/CSR row metadata
  memsim::Placement sparse{memsim::Tier::kPm, 0};    ///< col_list / nnz_list
  memsim::Placement dense{memsim::Tier::kPm, 0};     ///< dense operand B
  memsim::Placement result{memsim::Tier::kDram, 0};  ///< result matrix C
};

/// Read-only view of a software prefetch cache over the dense operand's rows
/// (WoFP, §III-C). Gathers whose column is Contained are charged against
/// `placement()` instead of the dense operand's placement.
class DenseCacheView {
 public:
  virtual ~DenseCacheView() = default;
  virtual bool Contains(graph::NodeId col) const = 0;
  virtual memsim::Placement placement() const = 0;
  /// Simulated bytes charged per served gather. Small stores are effectively
  /// CPU-cache-resident; large ones pay full DRAM lines plus hash overhead.
  virtual uint64_t BytesPerHit() const { return 64; }
};

/// The dense side of one SpMM by A, in one of two forms:
/// - column-major: *out = A * *in. The compute packs `in` (PackDense) and
///   writes every element of `out`, which the caller sized
///   A.num_rows() x in->cols() (SizeOutput).
/// - a packed Chebyshev term: `source` is T_{k-1}, already packed row-major
///   over all of its columns, and the kernel's epilogue (`step`,
///   kernels::ChebyshevEpilogue) writes T_k and the filter sum into packed
///   operands of the same shape. Nothing is packed or written column-major.
/// Either way the SpMM is A.num_rows() x cols() wide and charges alike.
struct SpmmOperands {
  SpmmOperands(const linalg::DenseMatrix& in, linalg::DenseMatrix* out)
      : in(&in), out(out) {}
  SpmmOperands(const kernels::PackedOperand& source,
               const kernels::ChebyshevEpilogue& step)
      : source(&source), step(step) {}

  bool packed() const { return source != nullptr; }
  /// The dense operand's width.
  size_t cols() const { return packed() ? source->width() : in->cols(); }
  /// Makes a column-major `out` rows x cols(), keeping its storage when the
  /// shape matches (the compute overwrites every element); nothing to do
  /// for a packed term.
  void SizeOutput(size_t rows) const {
    if (!packed()) out->ResizeForOverwrite(rows, cols());
  }

  const linalg::DenseMatrix* in = nullptr;
  linalg::DenseMatrix* out = nullptr;
  const kernels::PackedOperand* source = nullptr;
  kernels::ChebyshevEpilogue step;
};

/// Packs B[:, col_begin:min(col_end, b.cols())) row-major into `packed` for
/// the packed kernel (col_begin is clamped to the clamped col_end, so any
/// range is safe), its rows split across `pool` when the slice is large
/// enough to pay for the dispatch (serial when `pool` is null). `packed` is
/// the caller's and is reused: it maps new storage only when this slice
/// needs more than it holds (PackedOperand::Reshape). Must not run inside a
/// job of `pool`.
void PackDense(const linalg::DenseMatrix& b, ThreadPool* pool,
               kernels::PackedOperand* packed, size_t col_begin = 0,
               size_t col_end = SIZE_MAX);

/// The inverse of PackDense for a whole operand: `out` becomes
/// packed.rows() x packed.width() (storage kept when the shape matches) and
/// column j receives packed column j, rows split across `pool` as PackDense
/// splits them. Must not run inside a job of `pool`.
void UnpackDense(const kernels::PackedOperand& packed, ThreadPool* pool,
                 linalg::DenseMatrix* out);

/// Computes every row of the SpMM by A for dense columns [col_begin,
/// min(col_end, dense.cols())), with the packed kernel over row ranges from
/// graph::ForEachRowRange (serial when `pool` is null). Column-major: packs
/// those columns of `in` on `pool` into `packed` (an operand local to the
/// call when null) and writes every element of them in `out`, zero-degree
/// rows included, so `out` needs no zero-fill. Packed Chebyshev term: runs
/// the epilogue over those columns of every row; `packed` is not used. The
/// compute step of every parallel CSDB SpMM driver; every element is reduced
/// in ascending k with one accumulator, so the result is bit-identical at
/// any pool size.
void ComputeAllRowsCsdb(const graph::CsdbMatrix& a, const SpmmOperands& dense,
                        ThreadPool* pool, size_t col_begin = 0,
                        size_t col_end = SIZE_MAX,
                        kernels::PackedOperand* packed = nullptr);

/// ComputeAllRowsCsdb over the rows in `rows` only (sorted, disjoint
/// ranges; every row when null): the same bits in those rows, and every
/// other row of `out` (or of the epilogue's T_k and sum) left as it was.
void ComputeRowsCsdb(const graph::CsdbMatrix& a, const SpmmOperands& dense,
                     ThreadPool* pool, const std::vector<sched::RowRange>* rows,
                     size_t col_begin = 0, size_t col_end = SIZE_MAX,
                     kernels::PackedOperand* packed = nullptr);

/// The original per-column kernel (Algorithm 1's loop nesting verbatim), kept
/// as the oracle the packed kernel is tested and benchmarked against. Same
/// clamp as PackDense and the same reduction order as the packed kernel.
void ComputeWorkloadCsdbPerColumn(const graph::CsdbMatrix& a,
                                  const linalg::DenseMatrix& b,
                                  linalg::DenseMatrix* c, const sched::Workload& w,
                                  size_t col_begin = 0, size_t col_end = SIZE_MAX);

/// Pre-scanned charge metadata for one CSDB workload: everything its charge
/// depends on besides the dense width and placements. Plans scan it once; for
/// a fixed workload and cache contents it is a constant.
struct CsdbChargeMeta {
  uint64_t rows = 0;
  uint64_t nnz = 0;
  double entropy_h = 0.0;   ///< raw workload entropy H (Eq. 3), ascending rows
  uint64_t cache_hits = 0;  ///< gathers the scanned cache serves (per column)
};

/// Walks the workload's row metadata in ascending-row order. With a cache,
/// also counts the elements whose column the cache Contains; the cache's
/// contents must not change while the meta is in use.
CsdbChargeMeta ScanChargeMetaCsdb(const graph::CsdbMatrix& a,
                                  const sched::Workload& w,
                                  const DenseCacheView* cache = nullptr);

/// Charges one workload's SpMM over `dense_cols` columns to `ctx` from its
/// pre-scanned metadata. `cache` must be the one `meta` was scanned with (or
/// null); it supplies only the hit placement and BytesPerHit. Reads no
/// matrix element, so simulated seconds cannot depend on how the host
/// computed C.
SpmmCostBreakdown ChargeWorkloadCsdb(const graph::CsdbMatrix& a,
                                     uint64_t dense_cols,
                                     const CsdbChargeMeta& meta,
                                     const SpmmPlacements& placements,
                                     memsim::MemorySystem* ms,
                                     memsim::WorkerCtx* ctx,
                                     const DenseCacheView* cache = nullptr);

/// Simulated seconds for `touches` dense-operand gathers (64 bytes each)
/// whose stream has normalized workload entropy `z` in [0, 1]: the Z-weighted
/// blend of the random and sequential access charges (Eqs. 4-5). Updates the
/// traffic counters; the caller advances the worker clock.
double GatherSeconds(memsim::MemorySystem* ms, int cpu_socket,
                     memsim::Placement dense, double z, uint64_t touches,
                     int active_threads);

/// Charges one access on `ctx`'s clock and attributes its seconds to `op` in
/// `breakdown`. Nothing is charged when bytes and accesses are both zero.
/// With ChargeGather and ChargeCompute, the building blocks every SpMM
/// pricing (Algorithm 1's five components) is written in.
void Charge(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
            SpmmCostBreakdown* breakdown, SpmmOp op, memsim::Placement p,
            memsim::MemOp mem_op, memsim::Pattern pat, uint64_t bytes,
            uint64_t accesses);

/// Charges GatherSeconds' Z-blended gathers as get_dense_nnz.
void ChargeGather(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
                  SpmmCostBreakdown* breakdown, memsim::Placement dense,
                  double z, uint64_t touches);

/// Charges `ops` arithmetic operations as accumulation.
void ChargeCompute(memsim::MemorySystem* ms, memsim::WorkerCtx* ctx,
                   SpmmCostBreakdown* breakdown, uint64_t ops);

/// Per-column CSR oracle, mirroring ComputeWorkloadCsdbPerColumn: rows
/// [row_begin, row_end), the same column clamp and reduction order. The CSR
/// compute step itself is ParallelCsrSpmm's (sparse/spmm_plan.h), which runs
/// the packed kernel CSDB runs.
void ComputeWorkloadCsrPerColumn(const graph::CsrMatrix& a,
                                 const linalg::DenseMatrix& b,
                                 linalg::DenseMatrix* c, uint32_t row_begin,
                                 uint32_t row_end, size_t col_begin = 0,
                                 size_t col_end = SIZE_MAX);

/// CSR flavor of the charge step. `nnz` and `entropy_h` are the part's
/// pre-scanned metadata (a CsrPlanPart carries them). CSR pays O(|V|)
/// row-pointer reads where CSDB's O(|degrees|) metadata is DRAM-resident.
SpmmCostBreakdown ChargeWorkloadCsr(const graph::CsrMatrix& a,
                                    uint64_t dense_cols, uint32_t row_begin,
                                    uint32_t row_end, uint64_t nnz,
                                    double entropy_h,
                                    const SpmmPlacements& placements,
                                    memsim::MemorySystem* ms,
                                    memsim::WorkerCtx* ctx);

/// Outcome of a parallel SpMM phase.
struct ParallelSpmmResult {
  std::vector<double> thread_seconds;    ///< simulated time per worker
  std::vector<SpmmCostBreakdown> thread_breakdowns;
  SpmmCostBreakdown total_breakdown;     ///< summed across workers
  double phase_seconds = 0.0;            ///< max over workers (the straggler)
  uint64_t nnz_processed = 0;

  double ThroughputNnzPerSec() const {
    return sparse::ThroughputNnzPerSec(nnz_processed, phase_seconds);
  }
};

/// Runs `charge(worker, ctx)` once per worker of `frame` on `pool` and
/// assembles the breakdowns it returns into a phase result: per-worker
/// seconds and breakdowns, their sum, and the straggler. nnz_processed is
/// left to the caller.
ParallelSpmmResult ChargeParallel(
    memsim::WorkerFrame* frame, ThreadPool* pool,
    const std::function<SpmmCostBreakdown(size_t, memsim::WorkerCtx*)>& charge);

/// Runs one SpMM A (CSDB) x B -> C with one simulated worker per workload.
/// The workloads must partition A's rows (every caller passes
/// sched::Allocate output): the host compute covers all rows of A at once
/// under ComputeAllRowsCsdb, then each workload's scanned metadata is charged
/// on its own worker, bound to the socket given by the topology's block
/// assignment. C and the simulated seconds do not depend on the pool's size
/// (a null pool runs serially).
ParallelSpmmResult ParallelSpmm(const graph::CsdbMatrix& a,
                                const linalg::DenseMatrix& b,
                                linalg::DenseMatrix* c,
                                const std::vector<sched::Workload>& workloads,
                                const SpmmPlacements& placements,
                                const exec::Context& ctx);

}  // namespace omega::sparse
