#include "numa/nadp.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "memsim/worker_frame.h"
#include "numa/partition.h"

namespace omega::numa {

namespace {

// Cuts a worker's rows at the socket row blocks (NaDP reads each block from
// its owning socket) and scans each piece's charge metadata against the
// worker's WoFP store.
void ClipToBlocks(const graph::CsdbMatrix& a, const sched::Workload& w,
                  const std::vector<sched::RowRange>& blocks,
                  const sparse::DenseCacheView* cache,
                  std::vector<sched::Workload>* pieces,
                  std::vector<sparse::CsdbChargeMeta>* meta) {
  for (const sched::RowRange& block : blocks) {
    pieces->push_back(IntersectWorkload(w, block));
    meta->push_back(sparse::ScanChargeMetaCsdb(a, pieces->back(), cache));
  }
}

// Splits the row subset `all` (sorted ranges, nnz counted) into at most
// `parts` groups of contiguous rows balanced by nnz: a group takes rows
// until it holds its share, the last one takes the rest. A group always
// takes a row (the share is at least 1), so an all-empty subset becomes one
// group, as on one thread.
std::vector<sched::Workload> SplitRanges(const graph::CsdbMatrix& a,
                                         const sched::Workload& all, int parts) {
  std::vector<sched::Workload> out;
  const uint64_t share = std::max<uint64_t>(1, (all.nnz + parts - 1) / parts);
  uint64_t nnz = 0;  // of the open group
  for (const sched::RowRange& r : all.ranges) {
    for (uint32_t row = r.begin; row < r.end; ++row) {
      if (out.empty() || (nnz >= share && static_cast<int>(out.size()) < parts)) {
        out.emplace_back();
        nnz = 0;
      }
      std::vector<sched::RowRange>& ranges = out.back().ranges;
      if (ranges.empty() || ranges.back().end != row) ranges.push_back({row, row});
      ++ranges.back().end;
      nnz += a.Rows(row).degree();
    }
  }
  return out;
}

}  // namespace

NadpPlan NadpPlan::Build(const graph::CsdbMatrix& a, const NadpOptions& options,
                         const exec::Context& exec_ctx) {
  memsim::MemorySystem* ms = exec_ctx.ms();
  ThreadPool* pool = exec_ctx.pool();
  const int threads = options.num_threads;
  OMEGA_CHECK(threads > 0);
  OMEGA_CHECK(pool != nullptr && pool->size() >= static_cast<size_t>(threads));

  NadpPlan plan;
  plan.options_ = options;
  plan.structure_ = sparse::StructureOf(a);
  plan.threads_ = threads;
  plan.caches_.resize(threads);
  plan.sub_workloads_.resize(threads);
  plan.sub_meta_.resize(threads);
  std::vector<uint32_t> in_degrees;
  if (options.use_wofp) {
    in_degrees = sparse::ComputeInDegrees(a, pool);
    // One pool for all workers' stores; its mutex makes the concurrent
    // RunOnAll pins below safe.
    plan.frames_ = std::make_unique<buffer::BufferManager>(
        ms, buffer::BufferManager::Options{
                0, buffer::EvictionPolicy::kHotPinned});
  }

  sched::AllocatorOptions alloc_opts;
  alloc_opts.beta = options.beta;

  // Under NaDP only sockets that hold a worker form a group (5 threads on 4
  // sockets fill 2/2/1/0), over the matrix's socket row blocks; the column
  // blocks depend on the execute call's range. The interleaved baseline is
  // one group of every worker over one block of every row.
  const memsim::Topology& topology = ms->topology();
  if (options.enabled) {
    plan.groups_ = topology.SocketOfWorker(threads - 1, threads) + 1;
    plan.row_blocks_ = SocketRowBlocks(a, topology.num_sockets());
  } else {
    plan.groups_ = 1;
    plan.row_blocks_ = {{0, a.num_rows()}};
  }

  // Heterogeneous placement (NaDP only): price every degree block against
  // the PIM gang and carve the offloaded rows out of the host allocations
  // below. When the placement offloads nothing (host-only policy, or auto
  // deciding against), the original full-matrix Allocate path runs so the
  // charges are byte-identical to a PIM-less build.
  if (options.enabled && options.pim.active()) {
    plan.hetero_ = sched::PlaceDegreeBlocks(a, options.pim, *ms, threads,
                                            options.sparse_tier,
                                            options.dense_tier,
                                            options.result_tier);
  }
  const bool offload = plan.hetero_.any_pim();

  // Per-group thread allocations (identical when threads % sockets == 0).
  std::vector<std::vector<sched::Workload>> per_group(plan.groups_);
  for (int g = 0; g < plan.groups_; ++g) {
    const int ws = plan.GroupSize(topology, g);
    if (ws <= 0) continue;
    alloc_opts.num_threads = ws;
    per_group[g] = offload ? sched::AllocateSubset(a, options.allocator,
                                                   plan.hetero_.host_ranges,
                                                   alloc_opts)
                           : sched::Allocate(a, options.allocator, alloc_opts);
  }

  // Per worker: its WoFP store, then its pieces and their charge metadata.
  pool->RunOnAll([&](size_t worker) {
    if (worker >= static_cast<size_t>(threads)) return;
    const auto [g, wi] = plan.GroupOf(topology, static_cast<int>(worker));
    // Workers without a workload build no cache and no pieces; NadpExecute
    // skips them.
    if (wi >= static_cast<int>(per_group[g].size())) return;
    const sched::Workload& workload = per_group[g][wi];
    // Host-side store construction only (ctx = nullptr): every all-row
    // execute replays its simulated warm-up, so the clocks see the same
    // charge sequence as per-call planning.
    if (options.use_wofp) {
      prefetch::WofpOptions wofp = options.wofp;
      wofp.cache_placement.socket = options.enabled ? g : memsim::Placement::kInterleaved;
      plan.caches_[worker] = prefetch::WofpPrefetcher::Build(
          a, workload, in_degrees, wofp, ms, nullptr, plan.frames_.get());
    }
    ClipToBlocks(a, workload, plan.row_blocks_, plan.caches_[worker].get(),
                 &plan.sub_workloads_[worker], &plan.sub_meta_[worker]);
  });
  return plan;
}

bool NadpPlan::Matches(const graph::CsdbMatrix& a,
                       const NadpOptions& options) const {
  if (!valid()) return false;
  if (!(structure_ == sparse::StructureOf(a))) return false;
  const NadpOptions& p = options_;
  return p.num_threads == options.num_threads &&
         p.allocator == options.allocator && p.beta == options.beta &&
         p.enabled == options.enabled && p.use_wofp == options.use_wofp &&
         p.wofp.eta == options.wofp.eta && p.wofp.sigma == options.wofp.sigma &&
         p.wofp.cache_placement == options.wofp.cache_placement &&
         p.wofp.charge_build == options.wofp.charge_build &&
         p.sparse_tier == options.sparse_tier &&
         p.dense_tier == options.dense_tier &&
         p.result_tier == options.result_tier && p.pim == options.pim;
}

double NadpPlan::ReplayWofpBuild(const exec::Context& ctx,
                                 memsim::WorkerFrame* frame) const {
  if (frame == nullptr) {
    memsim::WorkerFrame own(ctx.ms()->topology(), threads_, contention());
    return ReplayWofpBuild(ctx, &own);
  }
  return frame->Run(ctx.pool(), [&](size_t worker, memsim::WorkerCtx* wctx) {
    if (const prefetch::WofpPrefetcher* cache = caches_[worker].get()) {
      cache->ReplayBuildCharges(wctx);
    }
  });
}

NadpResult NadpExecute(const NadpPlan& plan, const graph::CsdbMatrix& a,
                       const sparse::SpmmOperands& dense,
                       const exec::Context& exec_ctx, size_t col_begin,
                       size_t col_end, sparse::kernels::PackedOperand* packed,
                       const std::vector<sched::RowRange>* rows) {
  OMEGA_CHECK(plan.valid());
  OMEGA_CHECK(rows == nullptr || !plan.hetero_.any_pim())
      << "PimSpmm prices whole degree blocks, not a row subset";
  memsim::MemorySystem* ms = exec_ctx.ms();
  ThreadPool* pool = exec_ctx.pool();
  const NadpOptions& options = plan.options_;
  const int threads = plan.threads_;
  OMEGA_CHECK(pool != nullptr && pool->size() >= static_cast<size_t>(threads));
  OMEGA_CHECK(dense.packed() || (dense.out->rows() == a.num_rows() &&
                                  dense.out->cols() == dense.in->cols()));
  col_end = std::min(col_end, dense.cols());
  OMEGA_CHECK(col_begin <= col_end);

  NadpResult result;
  std::vector<sparse::SpmmCostBreakdown> breakdowns(threads);
  // NaDP's point: each socket's thread group contends only for its own
  // socket's devices (local dense block, local intermediates), so the
  // per-device concurrency is the socket group, not the whole pool. The
  // Interleaved baseline spreads every thread across all devices and is
  // charged at full-pool contention. Per-execute WorkerCtxs must not reuse
  // fault sites across executes, or every execute would replay the first
  // one's tail-stall draws.
  const uint64_t fault_epoch = ms->NextFaultEpoch();
  const memsim::Topology& topology = ms->topology();
  memsim::WorkerFrame frame(topology, threads, plan.contention(), fault_epoch);

  // Compute: every row (or every subset row) of C[:, col_begin:col_end) in
  // one pooled pass — the host workers' rows and the PIM-offloaded rows
  // alike. Everything below only charges.
  sparse::ComputeRowsCsdb(a, dense, pool, rows, col_begin, col_end, packed);
  sched::Workload subset;  // nnz counted
  if (rows != nullptr) subset.ranges = *rows;
  sched::RefreshCounts(a, &subset);
  result.nnz_processed = rows == nullptr ? a.nnz() : subset.nnz;

  // Each worker's WoFP build warm-up first, as per-call planning paid it, so
  // a reused plan is simulation-identical to rebuilding; the straggler of
  // that lap is the phase's WoFP build time.
  if (options.wofp.charge_build && rows == nullptr) {
    result.wofp_build_seconds = plan.ReplayWofpBuild(exec_ctx, &frame);
  }

  // A row subset's split, [group][rank]: each active socket's workers share
  // it under NaDP, all workers in the interleaved baseline.
  std::vector<std::vector<sched::Workload>> parts;
  for (int g = 0; rows != nullptr && g < plan.groups_; ++g) {
    parts.push_back(SplitRanges(a, subset, plan.GroupSize(topology, g)));
  }
  // NaDP (Fig. 10): socket s's threads compute C[:, cols_s] = A * B[:,
  // cols_s], reading each sparse row block from its owning socket. The
  // column blocks partition [col_begin, col_end) over the groups, so the
  // interleaved baseline's one group covers it all.
  const std::vector<std::pair<size_t, size_t>> col_blocks =
      ColumnBlocks(col_begin, col_end, plan.groups_);

  frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
    const auto [g, wi] = plan.GroupOf(topology, static_cast<int>(worker));
    const prefetch::WofpPrefetcher* cache = plan.caches_[worker].get();
    // The plan's pieces of this worker's workload, or its part of the row
    // subset cut the same way.
    std::vector<sched::Workload> subset_pieces;
    std::vector<sparse::CsdbChargeMeta> subset_meta;
    if (rows != nullptr && wi < static_cast<int>(parts[g].size())) {
      ClipToBlocks(a, parts[g][wi], plan.row_blocks_, cache, &subset_pieces,
                   &subset_meta);
    }
    const std::vector<sched::Workload>& pieces =
        rows != nullptr ? subset_pieces : plan.sub_workloads_[worker];
    const std::vector<sparse::CsdbChargeMeta>& meta =
        rows != nullptr ? subset_meta : plan.sub_meta_[worker];
    if (pieces.empty()) return;  // no rows: no charge and no tail stall
    const auto [begin, end] = col_blocks[g];
    // NaDP: CSDB metadata (tiny), the dense block and the intermediate writes
    // are socket-local; the sparse row blocks are read from their owning
    // socket. The OS Interleaved baseline: every stream pays the interleaved
    // local/remote mix.
    sparse::SpmmPlacements pl = options.placements(
        options.enabled ? ctx->cpu_socket : memsim::Placement::kInterleaved);
    uint64_t rows_processed = 0;
    for (size_t block = 0; block < pieces.size(); ++block) {
      if (pieces[block].ranges.empty()) continue;
      if (options.enabled) pl.sparse.socket = static_cast<int>(block);
      breakdowns[worker] += sparse::ChargeWorkloadCsdb(a, end - begin, meta[block],
                                                       pl, ms, ctx, cache);
      for (const sched::RowRange& range : pieces[block].ranges) {
        rows_processed += range.size();
      }
    }
    // NaDP's merge: copy the local intermediate into the assembled result.
    // Reads are local; the destination is page-interleaved, so a fraction of
    // the writes is remote — the "few remote accesses" of Fig. 10 step 4.
    const uint64_t merge_bytes =
        options.enabled ? rows_processed * (end - begin) * sizeof(float) : 0;
    if (merge_bytes > 0) {
      ms->ChargeAccess(ctx, pl.result, memsim::MemOp::kRead,
                       memsim::Pattern::kSequential, merge_bytes, 1);
      ms->ChargeAccess(ctx, {options.result_tier, memsim::Placement::kInterleaved},
                       memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                       merge_bytes, 1);
    }
    // Under fault injection, the dense tier can hit a tail stall that
    // lengthens this worker's whole phase (no-op when faults are off).
    ms->ChargeTailStall(ctx, options.dense_tier, ctx->clock->seconds());
  });

  result.thread_seconds.resize(threads);
  for (int t = 0; t < threads; ++t) {
    result.thread_seconds[t] = frame.seconds(t);
    result.breakdown += breakdowns[t];
  }
  result.phase_seconds = frame.MaxSeconds();

  // PIM offload: the banks are charged for the plan's pim_ranges over the
  // full column range while the host threads above covered only host_ranges.
  // The pipeline front (broadcast + ship + bank compute) overlaps the host
  // panels; the drain tail lands after the straggler of either side.
  if (plan.hetero_.any_pim()) {
    sparse::PimSpmmOptions popts;
    popts.config = options.pim;
    popts.host = options.placements();
    // Merged panels land in the assembled (page-interleaved) result, same as
    // the host merge step's destination.
    popts.host.result.socket = memsim::Placement::kInterleaved;
    popts.dense_cols = col_end - col_begin;
    const sparse::PimSpmmResult pr =
        sparse::PimSpmm(a, plan.hetero_, popts, ms, fault_epoch);
    result.pim_transfer_seconds = pr.transfer_seconds;
    result.pim_compute_seconds = pr.compute_seconds;
    result.pim_reduce_seconds = pr.reduce_seconds;
    result.pim_nnz = pr.nnz_processed;
    result.pim_degraded_blocks = pr.degraded_blocks;
    result.phase_seconds =
        std::max(result.phase_seconds, pr.pipeline_seconds) + pr.tail_seconds;
  }
  return result;
}

NadpResult NadpSpmm(const graph::CsdbMatrix& a, const linalg::DenseMatrix& b,
                    linalg::DenseMatrix* c, const NadpOptions& options,
                    const exec::Context& exec_ctx, size_t col_begin,
                    size_t col_end) {
  const NadpPlan plan = NadpPlan::Build(a, options, exec_ctx);
  return NadpExecute(plan, a, {b, c}, exec_ctx, col_begin, col_end);
}

bool NadpPlanCache::Contains(const graph::CsdbMatrix& a,
                             const NadpOptions& options) const {
  for (const Slot& slot : slots_) {
    if (slot.plan.Matches(a, options)) return true;
  }
  return false;
}

const NadpPlan& NadpPlanCache::Get(const graph::CsdbMatrix& a,
                                   const NadpOptions& options,
                                   const exec::Context& ctx) {
  ++tick_;
  for (Slot& slot : slots_) {
    if (slot.plan.Matches(a, options)) {
      ++hits_;
      slot.last_used = tick_;
      return slot.plan;
    }
  }
  ++misses_;
  if (slots_.size() < capacity_) {
    slots_.emplace_back();
  } else {
    // Reuse the least-recently-used slot.
    size_t victim = 0;
    for (size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].last_used < slots_[victim].last_used) victim = i;
    }
    if (victim != slots_.size() - 1) {
      std::swap(slots_[victim], slots_.back());
    }
  }
  slots_.back().plan = NadpPlan::Build(a, options, ctx);
  slots_.back().last_used = tick_;
  return slots_.back().plan;
}

size_t NadpPlanCache::InvalidateDelta(const graph::CsdbMatrix& old_m,
                                      const graph::CsdbMatrix& new_m) {
  const sparse::SparseStructureKey old_key = sparse::StructureOf(old_m);
  const bool weight_only =
      sparse::TouchedStripes(sparse::FingerprintOf(old_m),
                             sparse::FingerprintOf(new_m))
          .empty();
  size_t affected = 0;
  for (size_t i = 0; i < slots_.size();) {
    if (slots_[i].plan.structure() != old_key) {
      ++i;
      continue;
    }
    ++affected;
    if (weight_only) {
      slots_[i].plan.RebindStructure(new_m);
      ++i;
    } else {
      ++invalidations_;
      slots_.erase(slots_.begin() + static_cast<ptrdiff_t>(i));
    }
  }
  return affected;
}

}  // namespace omega::numa
