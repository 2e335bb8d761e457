// NaDP — NUMA-aware data placement for parallel SpMM (§III-D).
//
// With NaDP enabled the execution follows Fig. 10:
//   1. NUMA-aware memory allocation: the sparse matrix is row-partitioned and
//      the dense matrix column-partitioned across sockets;
//   2. CPU-binding based computing: each socket's threads multiply every
//      sparse row block (local or remote, always sequentially) against the
//      socket-local dense block — global sequential read;
//   3. Local-priority based updating: intermediates are written to
//      socket-local buffers and only the small merge touches remote memory.
//
// With NaDP disabled, the kernel runs against the OS Interleaved placement
// (the paper's no-NaDP baseline), paying ~50% remote traffic on every stream.

#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "graph/csdb.h"
#include "linalg/dense_matrix.h"
#include "memsim/worker_frame.h"
#include "omega/exec_context.h"
#include "prefetch/wofp.h"
#include "sched/allocators.h"
#include "sched/hetero_placement.h"
#include "sparse/pim_spmm.h"
#include "sparse/spmm.h"
#include "sparse/spmm_plan.h"

namespace omega::numa {

struct NadpOptions {
  int num_threads = 36;
  sched::AllocatorKind allocator = sched::AllocatorKind::kEntropyAware;
  double beta = 0.415;

  bool enabled = true;    ///< false => OS Interleaved baseline (OMeGa-w/o-NaDP)
  bool use_wofp = true;   ///< attach WoFP caches to the gather stream
  prefetch::WofpOptions wofp;

  memsim::Tier sparse_tier = memsim::Tier::kPm;
  memsim::Tier dense_tier = memsim::Tier::kPm;
  memsim::Tier result_tier = memsim::Tier::kDram;

  /// PIM offload (NaDP mode only; the Interleaved baseline ignores it). The
  /// config is part of the plan key — including dense_cols, because the ship
  /// cost does not scale with the operand width while every other cost does,
  /// so the optimal split depends on it.
  sched::PimConfig pim;

  /// The tiers above as SpMM placements, every stream on `socket`
  /// (memsim::Placement::kInterleaved for the OS baseline); the CSDB row
  /// metadata always lives in DRAM.
  sparse::SpmmPlacements placements(int socket = 0) const {
    return {{memsim::Tier::kDram, socket}, {sparse_tier, socket},
            {dense_tier, socket}, {result_tier, socket}};
  }
};

struct NadpResult {
  double phase_seconds = 0.0;
  std::vector<double> thread_seconds;
  sparse::SpmmCostBreakdown breakdown;
  uint64_t nnz_processed = 0;
  /// Simulated seconds the straggler spent building its WoFP store (contained
  /// in phase_seconds; the engines surface it as an aux trace phase).
  double wofp_build_seconds = 0.0;

  // PIM offload sub-phases (all contained in phase_seconds: the pipeline
  // front overlaps the host panels, the drain tail is serial after both).
  double pim_transfer_seconds = 0.0;  ///< broadcast + ship + readback DMA
  double pim_compute_seconds = 0.0;   ///< bank straggler MACs
  double pim_reduce_seconds = 0.0;    ///< host merge + degraded fallbacks
  uint64_t pim_nnz = 0;               ///< nnz processed on the banks
  uint64_t pim_degraded_blocks = 0;   ///< blocks recharged at host cost

  double ThroughputNnzPerSec() const {
    return sparse::ThroughputNnzPerSec(nnz_processed, phase_seconds);
  }
};

class NadpPlan;

/// One SpMM C[:, col_begin:col_end) = A * B[:, col_begin:col_end) under the
/// configured placement policy. C must be pre-sized to a.num_rows() x
/// b.cols(). With NaDP enabled each socket covers its share of the column
/// range; when disabled, all threads cover the whole range. The default range
/// is the full width (ASL passes one partition at a time).
///
/// Per-call planning: equivalent to NadpPlan::Build + NadpExecute. Callers
/// issuing the same SpMM repeatedly should build the plan once instead.
NadpResult NadpSpmm(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                    linalg::DenseMatrix* c, const NadpOptions& options,
                    const exec::Context& ctx, size_t col_begin = 0,
                    size_t col_end = SIZE_MAX);

/// Inspector state of one NaDP SpMM, reusable across executes on the same
/// sparse structure: the NaDP row partition, each worker's host-side WoFP
/// store, and the pieces of each worker's EaTA workload (per socket, or
/// flat) with their charge metadata (WoFP hits included — a worker's store
/// and rows are fixed by the plan, so its hit counts are constants). Workers
/// sit on Topology's worker->socket layout. Building charges nothing;
/// NadpExecute replays the WoFP build charges per all-row call, so executing
/// through a reused plan produces byte-identical simulated output to
/// per-call planning while skipping the host-side inspector work.
///
/// The column partition is NOT part of the plan: it depends on the execute
/// call's [col_begin, col_end) range (ASL passes one partition at a time) and
/// is recomputed per call (cheap arithmetic).
class NadpPlan {
 public:
  NadpPlan() = default;
  NadpPlan(NadpPlan&&) = default;
  NadpPlan& operator=(NadpPlan&&) = default;

  /// Builds the plan on the context's pool (each worker's WoFP store and
  /// charge metadata build in parallel). No simulated charging happens here.
  static NadpPlan Build(const graph::CsdbMatrix& a, const NadpOptions& options,
                        const exec::Context& ctx);

  bool valid() const { return threads_ > 0; }

  /// True when the plan was built for the same sparse structure and options.
  bool Matches(const graph::CsdbMatrix& a, const NadpOptions& options) const;

  const NadpOptions& options() const { return options_; }
  const sparse::SparseStructureKey& structure() const { return structure_; }

  /// The heterogeneous (host vs PIM) row split this plan was built with.
  /// Empty (no blocks, no ranges) unless options.pim is active in NaDP mode.
  const sched::HeteroPlacement& hetero() const { return hetero_; }

  /// Re-keys the plan onto `a` without rebuilding. Only sound when `a` has
  /// the same sparsity structure as the matrix the plan was built for (a
  /// weight-only delta): plans depend on structure, never on values.
  void RebindStructure(const graph::CsdbMatrix& a) {
    structure_ = sparse::StructureOf(a);
  }

  /// Charges every worker's WoFP store warm-up (the charges Build skipped)
  /// as one lap of `frame` (a frame of the plan's workers when null) and
  /// returns the lap's straggler. Row-subset executes replay nothing; the
  /// incremental refresh calls this once per plan rebuild instead.
  double ReplayWofpBuild(const exec::Context& ctx,
                         memsim::WorkerFrame* frame = nullptr) const;

 private:
  friend NadpResult NadpExecute(const NadpPlan& plan, const graph::CsdbMatrix& a,
                                const sparse::SpmmOperands& dense,
                                const exec::Context& ctx, size_t col_begin,
                                size_t col_end,
                                sparse::kernels::PackedOperand* packed,
                                const std::vector<sched::RowRange>* rows);

  memsim::Contention contention() const {
    return options_.enabled ? memsim::Contention::kSocket
                            : memsim::Contention::kPool;
  }
  /// A worker's group (its socket under NaDP; the interleaved baseline has
  /// one group of every worker) and its rank in the group.
  std::pair<int, int> GroupOf(const memsim::Topology& topology, int worker) const {
    if (!options_.enabled) return {0, worker};
    return {topology.SocketOfWorker(worker, threads_),
            topology.IndexOnSocket(worker, threads_)};
  }
  int GroupSize(const memsim::Topology& topology, int group) const {
    return options_.enabled ? topology.ThreadsOnSocket(group, threads_) : threads_;
  }

  NadpOptions options_;
  sparse::SparseStructureKey structure_;
  sched::HeteroPlacement hetero_;
  int threads_ = 0;
  int groups_ = 0;
  std::vector<sched::RowRange> row_blocks_;  ///< per socket, or [0, rows)
  /// [worker][block]: each worker's workload cut at every socket's row block
  /// (the interleaved baseline: one piece, the whole workload; empty where a
  /// worker has none), and each piece's charge metadata (ScanChargeMetaCsdb
  /// against the worker's WoFP store, if any).
  std::vector<std::vector<sched::Workload>> sub_workloads_;
  std::vector<std::vector<sparse::CsdbChargeMeta>> sub_meta_;
  /// Frame pool behind the workers' WoFP stores (hot-pinned: the η-rule
  /// resident sets are never evicted). Declared before caches_ so the
  /// prefetchers' pins are released before the pool dies; unique_ptr keeps
  /// the pool address stable across plan moves.
  std::unique_ptr<buffer::BufferManager> frames_;
  /// Host-side WoFP stores, slot per worker (null where a worker has no
  /// workload or use_wofp is off). DRAM frames are held for the plan's
  /// lifetime.
  std::vector<std::unique_ptr<prefetch::WofpPrefetcher>> caches_;
};

/// Executor half: runs one SpMM through a prebuilt plan in two steps. The
/// compute step covers dense columns [col_begin, col_end) of every row in
/// one pooled pass, or of the `rows` subset only (sorted, disjoint ranges),
/// so every other output row keeps its contents. For column-major operands
/// it packs B into `packed` when given, so an executor that passes the same
/// operand every call maps it once, and writes every element of those rows
/// and columns of C (sized a.num_rows() x b.cols() by the caller); a packed
/// Chebyshev term runs its epilogue over them. The charge step then issues
/// every simulated charge — each worker's WoFP build warm-up (all-row calls
/// only), its pieces' charges, the merge, the tail stall and the PIM side —
/// in the same order as NadpSpmm, so simulated seconds and traffic are
/// byte-identical to per-call planning, and the same for both forms. A row
/// subset replaces the plan's workloads: each group's workers split it by
/// nnz, and each part is cut and scanned as Build cuts and scans a workload.
/// A plan that offloads to PIM takes no subset: PimSpmm prices whole blocks.
NadpResult NadpExecute(const NadpPlan& plan, const graph::CsdbMatrix& a,
                       const sparse::SpmmOperands& dense,
                       const exec::Context& ctx, size_t col_begin = 0,
                       size_t col_end = SIZE_MAX,
                       sparse::kernels::PackedOperand* packed = nullptr,
                       const std::vector<sched::RowRange>* rows = nullptr);

/// Small LRU plan cache keyed by (structure, options) — the engines' SpMM
/// executors hit it once per ProNE stage. Multiple slots let the stage-1 and
/// stage-2 matrices (and a delta-applied successor) coexist; Get counts hits
/// and misses, and InvalidateDelta gives graph deltas structure-aware
/// eviction instead of relying on pointer identity going stale.
class NadpPlanCache {
 public:
  explicit NadpPlanCache(size_t capacity = 4)
      : capacity_(capacity > 0 ? capacity : 1) {}

  bool Contains(const graph::CsdbMatrix& a, const NadpOptions& options) const;

  /// Returns the cached plan for (a, options), building (and inserting,
  /// evicting the least-recently-used slot when full) on a miss.
  const NadpPlan& Get(const graph::CsdbMatrix& a, const NadpOptions& options,
                      const exec::Context& ctx);

  /// Structure-aware invalidation after a delta replaced `old_m` with
  /// `new_m`. A weight-only delta (no touched stripes between the two
  /// fingerprints) rebinds slots built for `old_m` onto `new_m` — the plans
  /// stay valid because they depend on structure only. A structural delta
  /// drops exactly the slots built for `old_m`; plans for other matrices
  /// (the stage-1 modularity matrix, say) are untouched. Returns the number
  /// of slots dropped or rebound.
  size_t InvalidateDelta(const graph::CsdbMatrix& old_m,
                         const graph::CsdbMatrix& new_m);

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t invalidations() const { return invalidations_; }
  size_t size() const { return slots_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    NadpPlan plan;
    uint64_t last_used = 0;
  };

  size_t capacity_ = 4;
  uint64_t tick_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t invalidations_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace omega::numa
