#include "numa/nadp.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "memsim/worker_frame.h"
#include "numa/partition.h"

namespace omega::numa {

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
  plan.sockets_ = ms->topology().num_sockets();
  plan.caches_.resize(threads);
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

  // Host-side store construction only (ctx = nullptr): the simulated warm-up
  // is replayed on every NadpExecute so the clocks see the same charge
  // sequence as per-call planning.
  auto build_cache = [&](size_t worker, const sched::Workload& w, int socket) {
    if (!options.use_wofp) return;
    prefetch::WofpOptions wofp = options.wofp;
    wofp.cache_placement.socket = socket;
    plan.caches_[worker] = prefetch::WofpPrefetcher::Build(
        a, w, in_degrees, wofp, ms, nullptr, plan.frames_.get());
  };

  if (!options.enabled) {
    alloc_opts.num_threads = threads;
    plan.flat_workloads_ = sched::Allocate(a, options.allocator, alloc_opts);
    plan.flat_meta_.resize(threads);
    pool->RunOnAll([&](size_t worker) {
      if (worker >= static_cast<size_t>(threads)) return;
      const sched::Workload& w = plan.flat_workloads_[worker];
      build_cache(worker, w, memsim::Placement::kInterleaved);
      plan.flat_meta_[worker] =
          sparse::ScanChargeMetaCsdb(a, w, plan.caches_[worker].get());
    });
    return plan;
  }

  // Only sockets that hold a worker take part: the block layout can leave the
  // last sockets empty (5 threads on 4 sockets fill 2/2/1/0).
  const memsim::Topology& topology = ms->topology();
  const int active_sockets = topology.SocketOfWorker(threads - 1, threads) + 1;
  plan.active_sockets_ = active_sockets;
  // The sparse row partition depends only on the matrix and socket count; the
  // dense column partition depends on the execute call's column range and is
  // recomputed there.
  plan.row_blocks_ =
      std::move(MakeSocketPartition(a, /*dense_cols=*/0, plan.sockets_).row_blocks);

  // Heterogeneous placement: price every degree block against the PIM gang
  // and carve the offloaded rows out of the host allocations below. When the
  // placement offloads nothing (host-only policy, or auto deciding against),
  // the original full-matrix Allocate path runs so the charges are
  // byte-identical to a PIM-less build.
  if (options.pim.active()) {
    plan.hetero_ = sched::PlaceDegreeBlocks(a, options.pim, *ms, threads,
                                            options.sparse_tier,
                                            options.dense_tier,
                                            options.result_tier);
  }
  const bool offload = plan.hetero_.any_pim();

  // Per-socket thread allocations (identical when threads % sockets == 0).
  plan.per_socket_workloads_.resize(plan.sockets_);
  for (int s = 0; s < active_sockets; ++s) {
    const int ws = topology.ThreadsOnSocket(s, threads);
    if (ws <= 0) continue;
    alloc_opts.num_threads = ws;
    plan.per_socket_workloads_[s] =
        offload ? sched::AllocateSubset(a, options.allocator,
                                        plan.hetero_.host_ranges, alloc_opts)
                : sched::Allocate(a, options.allocator, alloc_opts);
  }

  // Per worker: its WoFP store, then the per-socket-block intersections of
  // its workload and each piece's charge metadata against that store.
  plan.sub_workloads_.resize(threads);
  plan.sub_meta_.resize(threads);
  pool->RunOnAll([&](size_t worker) {
    if (worker >= static_cast<size_t>(threads)) return;
    const int w = static_cast<int>(worker);
    const int s = topology.SocketOfWorker(w, threads);
    const int wi = topology.IndexOnSocket(w, threads);
    // Workers without a workload never build a cache (NadpSpmm's early
    // exit); their slots stay empty and NadpExecute skips them identically.
    if (wi >= static_cast<int>(plan.per_socket_workloads_[s].size())) return;
    const sched::Workload& workload = plan.per_socket_workloads_[s][wi];
    build_cache(worker, workload, s);
    plan.sub_workloads_[w].reserve(plan.sockets_);
    plan.sub_meta_[w].reserve(plan.sockets_);
    for (int block = 0; block < plan.sockets_; ++block) {
      plan.sub_workloads_[w].push_back(
          IntersectWorkload(workload, plan.row_blocks_[block]));
      plan.sub_meta_[w].push_back(sparse::ScanChargeMetaCsdb(
          a, plan.sub_workloads_[w].back(), plan.caches_[worker].get()));
    }
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

NadpResult NadpExecute(const NadpPlan& plan, const graph::CsdbMatrix& a,
                       const sparse::SpmmOperands& dense,
                       const exec::Context& exec_ctx, size_t col_begin,
                       size_t col_end, sparse::kernels::PackedOperand* packed) {
  OMEGA_CHECK(plan.valid());
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
  result.nnz_processed = a.nnz();
  std::vector<sparse::SpmmCostBreakdown> breakdowns(threads);
  // NaDP's point: each socket's thread group contends only for its own
  // socket's devices (local dense block, local intermediates), so the
  // per-device concurrency is the socket group, not the whole pool. The
  // Interleaved baseline spreads every thread across all devices and is
  // charged at full-pool contention. Per-execute WorkerCtxs must not reuse
  // fault sites across executes, or every execute would replay the first
  // one's tail-stall draws.
  const uint64_t fault_epoch = ms->NextFaultEpoch();
  memsim::WorkerFrame frame(
      ms->topology(), threads,
      options.enabled ? memsim::Contention::kSocket : memsim::Contention::kPool,
      fault_epoch);

  // Compute: every row of C[:, col_begin:col_end) in one pooled pass — the
  // host workers' rows and the PIM-offloaded rows alike. Everything below
  // only charges.
  sparse::ComputeAllRowsCsdb(a, dense, pool, col_begin, col_end, packed);

  // Each worker's WoFP build warm-up first, as per-call planning paid it, so
  // a reused plan is simulation-identical to rebuilding; the straggler of
  // that lap is the phase's WoFP build time.
  if (options.wofp.charge_build) {
    result.wofp_build_seconds =
        frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
          if (const prefetch::WofpPrefetcher* cache = plan.caches_[worker].get()) {
            cache->ReplayBuildCharges(ctx);
          }
        });
  }

  if (!options.enabled) {
    // OS Interleaved baseline: one global allocation; every stream pays the
    // interleaved local/remote mix.
    sparse::SpmmPlacements pl;
    pl.index = {memsim::Tier::kDram, memsim::Placement::kInterleaved};
    pl.sparse = {options.sparse_tier, memsim::Placement::kInterleaved};
    pl.dense = {options.dense_tier, memsim::Placement::kInterleaved};
    pl.result = {options.result_tier, memsim::Placement::kInterleaved};

    frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
      breakdowns[worker] = sparse::ChargeWorkloadCsdb(
          a, col_end - col_begin, plan.flat_meta_[worker], pl, ms, ctx,
          plan.caches_[worker].get());
      // Under fault injection, the dense tier can hit a tail stall that
      // lengthens this worker's whole phase (no-op when faults are off).
      ms->ChargeTailStall(ctx, options.dense_tier, ctx->clock->seconds());
    });
  } else {
    // NaDP (Fig. 10): socket s's threads compute C[:, cols_s] = A * B[:,
    // cols_s], reading each sparse row block from its owning socket. The
    // column blocks partition [col_begin, col_end). Only the sockets that
    // have a worker receive a column block (the data partition across
    // sockets is unchanged).
    const int active_sockets = plan.active_sockets_;
    const int sockets = plan.sockets_;
    std::vector<std::pair<size_t, size_t>> col_blocks(sockets);
    {
      // Same arithmetic as MakeSocketPartition's equal-count column split over
      // active_sockets, shifted into [col_begin, col_end).
      const size_t span = col_end - col_begin;
      const size_t per = (span + active_sockets - 1) / active_sockets;
      for (int s = 0; s < sockets; ++s) {
        if (s < active_sockets) {
          const size_t begin = std::min(span, static_cast<size_t>(s) * per);
          const size_t end = std::min(span, begin + per);
          col_blocks[s] = {col_begin + begin, col_begin + end};
        } else {
          col_blocks[s] = {col_begin, col_begin};
        }
      }
    }
    // CSDB metadata (tiny), the dense block and the intermediate writes are
    // socket-local; the sparse row blocks are read from their owning socket.
    const sparse::SpmmPlacements home{{memsim::Tier::kDram, 0},
                                      {options.sparse_tier, 0},
                                      {options.dense_tier, 0},
                                      {options.result_tier, 0}};

    frame.Run(pool, [&](size_t worker, memsim::WorkerCtx* ctx) {
      const int s = ctx->cpu_socket;
      const int wi = ms->topology().IndexOnSocket(ctx->worker, threads);
      if (wi >= static_cast<int>(plan.per_socket_workloads_[s].size())) return;
      const auto [col_begin, col_end] = col_blocks[s];
      const prefetch::WofpPrefetcher* cache = plan.caches_[worker].get();
      sparse::SpmmPlacements pl = frame.PinToSocket(home, worker);

      uint64_t rows_processed = 0;
      for (int block = 0; block < sockets; ++block) {
        const sched::Workload& sub = plan.sub_workloads_[worker][block];
        if (sub.ranges.empty()) continue;
        pl.sparse.socket = block;  // sequential, local or remote
        breakdowns[worker] += sparse::ChargeWorkloadCsdb(
            a, col_end - col_begin, plan.sub_meta_[worker][block], pl, ms, ctx,
            cache);
        for (const sched::RowRange& range : sub.ranges) rows_processed += range.size();
      }

      // Merge: copy the local intermediate into the assembled result. Reads
      // are local; the destination is page-interleaved, so a fraction of the
      // writes is remote — the "few remote accesses" of Fig. 10 step 4.
      const uint64_t merge_bytes =
          rows_processed * (col_end - col_begin) * sizeof(float);
      if (merge_bytes > 0) {
        ms->ChargeAccess(ctx, pl.result, memsim::MemOp::kRead,
                         memsim::Pattern::kSequential, merge_bytes, 1);
        ms->ChargeAccess(ctx,
                         {options.result_tier, memsim::Placement::kInterleaved},
                         memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                         merge_bytes, 1);
      }
      // See the interleaved branch: per-worker tail stall on the dense tier.
      ms->ChargeTailStall(ctx, options.dense_tier, ctx->clock->seconds());
    });
  }

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
  if (options.enabled && plan.hetero_.any_pim()) {
    sparse::PimSpmmOptions popts;
    popts.config = options.pim;
    popts.host.index = {memsim::Tier::kDram, 0};
    popts.host.sparse = {options.sparse_tier, 0};
    popts.host.dense = {options.dense_tier, 0};
    // Merged panels land in the assembled (page-interleaved) result, same as
    // the host merge step's destination.
    popts.host.result = {options.result_tier, memsim::Placement::kInterleaved};
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
