#include "omega/incremental.h"

#include <algorithm>
#include <utility>

#include "embed/chebyshev.h"
#include "graph/traversal.h"
#include "numa/nadp.h"
#include "omega/placement.h"
#include "sparse/csdb_ops.h"
#include "sparse/spmm.h"

namespace omega::engine {

namespace {

using memsim::MemOp;
using memsim::Pattern;

// Step 4: moves the captured recurrence state into the new epoch's CSDB row
// order when the degree sort moved.
void RepermuteCapture(const std::vector<graph::NodeId>& new_perm,
                      memsim::Placement dense, memsim::MemorySystem* ms,
                      memsim::WorkerCtx* serial, embed::ChebyshevCapture* capture) {
  if (capture->perm == new_perm) return;
  const size_t n = new_perm.size();
  std::vector<uint32_t> new_row_of_node(n);
  for (size_t r = 0; r < n; ++r) new_row_of_node[new_perm[r]] = static_cast<uint32_t>(r);
  // Each term's rows go to a spare operand, which then swaps in; the old
  // term's storage is the spare for the next one.
  sparse::kernels::PackedOperand spare;
  for (sparse::kernels::PackedOperand& t : capture->terms) {
    spare.Reshape(t.rows(), t.col_begin(), t.col_end());
    for (size_t r = 0; r < n; ++r) {
      std::copy_n(t.Row(r), t.width(), spare.Row(new_row_of_node[capture->perm[r]]));
    }
    std::swap(t, spare);
  }
  capture->perm = new_perm;
  const uint64_t mats = capture->terms.size();
  const uint64_t mat_bytes = mats * n * capture->terms[0].width() * 4;
  ms->ChargeAccess(serial, dense, MemOp::kRead, Pattern::kSequential, mat_bytes);
  ms->ChargeAccess(serial, dense, MemOp::kWrite, Pattern::kRandom, mat_bytes, mats * n);
}

// Step 5: the BFS depth of the node each CSDB row embeds (UINT32_MAX = out of
// every ball), from a multi-source BFS over the new graph.
std::vector<uint32_t> AffectedRowLevels(const graph::Graph& g,
                                        const std::vector<graph::NodeId>& touched,
                                        bool all_rows, size_t order,
                                        const std::vector<graph::NodeId>& perm,
                                        memsim::Placement index,
                                        memsim::MemorySystem* ms,
                                        memsim::WorkerCtx* serial) {
  const size_t n = perm.size();
  std::vector<uint32_t> dist;
  if (all_rows) {
    dist.assign(n, 0);
  } else {
    dist = graph::BfsDistances(g, touched);
    uint64_t scanned = 0;
    for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
      if (dist[v] != UINT32_MAX && dist[v] + 1 < order) scanned += g.degree(v);
    }
    ms->ChargeAccess(serial, index, MemOp::kRead, Pattern::kRandom, scanned * 8,
                     std::max<uint64_t>(1, scanned));
    ms->ChargeCompute(serial, scanned * 2);
  }
  std::vector<uint32_t> row_level(n);
  for (size_t r = 0; r < n; ++r) row_level[r] = dist[perm[r]];
  return row_level;
}

// Steps 6-7: the per-level recurrence update restricted to ball_k, each
// level one NadpExecute over its rows, computed and priced like a training
// SpMM: the packed SpMM's Chebyshev epilogue gathers from the captured
// T_{k-1}, writes T_k into the capture apart from T_{k-2} and adds c_k T_k
// into a packed filter sum. Pooled passes around it build the partial sums
// of rows entering at this level and, after the last level (whose rows are
// the output rows), normalise and scatter them into `embedding`. (One term
// means no level: T_0 = R never changes.) Returns the SpMM seconds.
double RefreshTerms(const exec::Context& ctx, const graph::CsdbMatrix& propagation,
                    const numa::NadpPlan& plan, const std::vector<uint32_t>& row_level,
                    bool l2_normalize, memsim::Placement dense,
                    memsim::WorkerCtx* serial, embed::ChebyshevCapture* capture,
                    linalg::DenseMatrix* embedding) {
  memsim::MemorySystem* ms = ctx.ms();
  const size_t n = row_level.size();
  std::vector<sparse::kernels::PackedOperand>& terms = capture->terms;
  const std::vector<double>& coeffs = capture->coefficients;
  const size_t d = terms[0].width();
  const size_t order = coeffs.size();  // T_0..T_{K-1}
  double spmm_seconds = 0.0;
  // The filter sum, packed like the terms. Only refreshed rows are written
  // or read, so the rest of its mapping is never touched.
  sparse::kernels::PackedOperand sum;
  sum.Reshape(n, 0, d);
  // Runs fn(range) over the level's ranges on the pool.
  auto for_each_range = [&](const std::vector<sched::RowRange>& ranges, auto fn) {
    ctx.pool()->ParallelFor(ranges.size(), [&](size_t, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) fn(ranges[i]);
    });
  };
  for (size_t k = 1; k < order; ++k) {
    std::vector<sched::RowRange> ranges;
    uint64_t num_rows = 0;
    for (uint32_t r = 0; r < n; ++r) {
      if (row_level[r] > k) continue;
      ++num_rows;
      if (ranges.empty() || ranges.back().end != r) ranges.push_back({r, r});
      ++ranges.back().end;
    }
    if (ranges.empty()) continue;

    // A row first recomputed at this level k >= 2 (BFS depth k) enters the
    // epilogue with its sum through T_{k-1}.
    if (k >= 2) {
      for_each_range(ranges, [&](const sched::RowRange& rr) {
        for (uint32_t r = rr.begin; r < rr.end; ++r) {
          if (row_level[r] == k) embed::ChebyshevPartialSumRow(*capture, k, r, &sum);
        }
      });
    }
    const sparse::kernels::ChebyshevEpilogue step{
        k, static_cast<float>(coeffs[k]), static_cast<float>(coeffs[0]),
        k >= 2 ? &terms[k - 2] : nullptr, &terms[k], &sum};
    spmm_seconds += numa::NadpExecute(plan, propagation, {terms[k - 1], step}, ctx,
                                      0, SIZE_MAX, nullptr, &ranges)
                        .phase_seconds;
    if (k + 1 == order) {
      for_each_range(ranges, [&](const sched::RowRange& rr) {
        if (l2_normalize) embed::L2NormalizeRows(&sum, rr.begin, rr.end);
        for (size_t c = 0; c < d; ++c) {
          for (uint32_t r = rr.begin; r < rr.end; ++r) {
            embedding->At(capture->perm[r], c) = sum.Row(r)[c];
          }
        }
      });
    }

    const uint64_t pass_bytes = num_rows * d * 4;
    ms->ChargeAccess(serial, dense, MemOp::kRead, Pattern::kSequential,
                     (k == 1 ? 1 : 2) * pass_bytes);
    ms->ChargeAccess(serial, dense, MemOp::kWrite, Pattern::kSequential, pass_bytes);
    ms->ChargeCompute(serial, num_rows * d * 2);
  }
  return spmm_seconds;
}

}  // namespace

DynamicEmbedder::DynamicEmbedder(graph::Graph base, const EngineOptions& options,
                                 std::string dataset, int num_workers)
    : mutable_(std::move(base), num_workers),
      options_(options),
      dataset_(std::move(dataset)) {}

numa::NadpOptions DynamicEmbedder::nadp_options(const exec::Context& ctx) const {
  numa::NadpOptions nadp =
      DecidePlacement(options_, *ctx.ms(), mutable_.graph().num_nodes(),
                      mutable_.graph().num_arcs(), ctx.threads())
          .nadp;
  // Refresh prices row subsets through NadpExecute, and PimSpmm has no
  // row-subset pricing, so refresh never offloads to PIM.
  nadp.pim = sched::PimConfig{};
  return nadp;
}

Status DynamicEmbedder::Train(const exec::Context& ctx) {
  const SystemKind s = options_.system;
  if (s != SystemKind::kOmega && s != SystemKind::kOmegaDram && s != SystemKind::kOmegaPm) {
    return Status::InvalidArgument(
        "DynamicEmbedder supports the OMeGa-family systems only");
  }
  // Fold any pending mutations into the snapshot first (uncharged: the full
  // run's graph-read phase re-prices the whole structure anyway).
  if (mutable_.pending() > 0) OMEGA_RETURN_NOT_OK(mutable_.Synchronize().status());

  EngineOptions opts = options_;
  opts.prone.capture = &capture_;
  OMEGA_ASSIGN_OR_RETURN(RunReport report,
                         RunEmbedding(mutable_.graph(), dataset_, opts, ctx));
  train_report_ = std::move(report);
  embedding_ = train_report_.embedding;
  adjacency_ = graph::CsdbMatrix::FromGraph(mutable_.graph(), ctx.pool());
  propagation_ = embed::BuildPropagationMatrix(adjacency_, ctx.pool());
  // Warm the stage-2 plan so the first Refresh exercises the delta
  // invalidation path instead of a cold build.
  plan_cache_.Get(propagation_, nadp_options(ctx), ctx);
  return Status::OK();
}

Result<RefreshReport> DynamicEmbedder::Refresh(const exec::Context& ctx,
                                               bool refresh_all_rows) {
  if (!trained()) {
    return Status::InvalidArgument("Refresh called before Train");
  }
  memsim::MemorySystem* ms = ctx.ms();
  if (ms == nullptr) return Status::InvalidArgument("context has no MemorySystem");
  const numa::NadpOptions nadp = nadp_options(ctx);
  const sparse::SpmmPlacements placements = nadp.placements();

  RefreshReport report;
  exec::PhaseSpan span(ctx, "dynamic.refresh");

  // ---- 1. Op-log merge + graph rebuild (graph layer). ----------------------
  memsim::SimClock sync_clock;
  memsim::WorkerCtx serial_ctx;
  serial_ctx.active_threads = 1;
  serial_ctx.clock = &sync_clock;
  OMEGA_ASSIGN_OR_RETURN(graph::GraphDelta delta, mutable_.Synchronize(ms, &serial_ctx));
  report.sync_seconds = sync_clock.seconds();
  report.epoch = mutable_.epoch();
  report.mutations_applied = delta.applied.size();
  report.mutations_rejected = delta.rejected_total();
  report.touched_nodes = delta.touched_nodes.size();
  if (delta.empty() && !refresh_all_rows) {
    report.no_op = true;
    report.total_seconds = report.sync_seconds;
    span.AddSimSeconds(report.total_seconds);
    return report;
  }

  // ---- 2. CSDB delta overlay + propagation rebuild (sparse layer). ---------
  memsim::SimClock delta_clock;
  serial_ctx.clock = &delta_clock;
  OMEGA_ASSIGN_OR_RETURN(
      sparse::CsdbDeltaResult dres,
      sparse::ApplyDelta(adjacency_, mutable_.graph(), delta.touched_nodes, ms,
                         &serial_ctx));
  report.csdb_touched_rows = dres.touched_rows;
  report.csdb_reused_rows = dres.reused_rows;
  graph::CsdbMatrix new_adjacency = std::move(dres.matrix);
  graph::CsdbMatrix new_propagation =
      embed::BuildPropagationMatrix(new_adjacency, ctx.pool());
  // Renormalization: s_uv = a_uv * d_u^-1/2 * d_v^-1/2 changes only where an
  // endpoint's degree changed, i.e. in touched rows and touched columns — the
  // symmetric structure makes those the same arc set, traversed twice (once
  // row-wise in place, once column-wise through the row index).
  uint64_t touched_nnz = 0;
  for (const graph::NodeId v : delta.touched_nodes) {
    touched_nnz += mutable_.graph().degree(v) + 1;  // + the diagonal entry
  }
  ms->ChargeAccess(&serial_ctx, placements.sparse, MemOp::kRead,
                   Pattern::kSequential, touched_nnz * 8);
  ms->ChargeAccess(&serial_ctx, placements.sparse, MemOp::kWrite,
                   Pattern::kRandom, touched_nnz * 8,
                   std::max<uint64_t>(1, 2 * delta.touched_nodes.size()));
  ms->ChargeCompute(&serial_ctx,
                    touched_nnz * 8 + delta.touched_nodes.size() * 4);
  report.delta_seconds = delta_clock.seconds();

  // ---- 3. Plan-cache invalidation + re-warm. -------------------------------
  const uint64_t hits0 = plan_cache_.hits();
  const uint64_t misses0 = plan_cache_.misses();
  const uint64_t inval0 = plan_cache_.invalidations();
  report.plan_slots_affected =
      plan_cache_.InvalidateDelta(propagation_, new_propagation);
  const numa::NadpPlan& plan = plan_cache_.Get(new_propagation, nadp, ctx);
  const bool plan_rebuilt = plan_cache_.misses() > misses0;
  span.AddPlanCounters(plan_cache_.hits() - hits0, plan_cache_.misses() - misses0,
                       plan_cache_.invalidations() - inval0);

  // ---- 4.-7. Recurrence refresh over the k-hop affected rows. --------------
  memsim::SimClock refresh_clock;
  serial_ctx.clock = &refresh_clock;
  const std::vector<graph::NodeId>& new_perm = new_adjacency.perm();
  RepermuteCapture(new_perm, placements.dense, ms, &serial_ctx, &capture_);
  const size_t order = capture_.coefficients.size();
  const std::vector<uint32_t> row_level =
      AffectedRowLevels(mutable_.graph(), delta.touched_nodes, refresh_all_rows,
                        order, new_perm, placements.index, ms, &serial_ctx);
  // A structural delta rebuilt the plan, so its WoFP stores were re-staged:
  // charge that warm-up once. The stores stay resident for every level (a
  // replay per level would price a few hundred rows like a full scan).
  double spmm_seconds =
      plan_rebuilt && nadp.wofp.charge_build ? plan.ReplayWofpBuild(ctx) : 0.0;
  spmm_seconds += RefreshTerms(ctx, new_propagation, plan, row_level,
                               options_.prone.l2_normalize_rows, placements.dense,
                               &serial_ctx, &capture_, &embedding_);
  for (uint32_t r = 0; r < row_level.size(); ++r) {
    if (row_level[r] <= order - 1) report.refreshed_nodes.push_back(new_perm[r]);
  }
  report.affected_rows = report.refreshed_nodes.size();
  std::sort(report.refreshed_nodes.begin(), report.refreshed_nodes.end());
  // Step 7's charges: the output rows priced as summed over every term,
  // normalized and written back (on the host each level's epilogue adds its
  // term to the sum as it goes).
  const uint64_t out_elems = report.affected_rows * capture_.terms[0].width();
  ms->ChargeAccess(&serial_ctx, placements.dense, MemOp::kRead, Pattern::kSequential,
                   (order + 1) * out_elems * 4);
  ms->ChargeAccess(&serial_ctx, placements.result, MemOp::kWrite,
                   Pattern::kSequential, out_elems * 4);
  ms->ChargeCompute(&serial_ctx, out_elems * (2 * order + 3));

  report.refresh_seconds = spmm_seconds + refresh_clock.seconds();
  report.total_seconds =
      report.sync_seconds + report.delta_seconds + report.refresh_seconds;
  span.AddSimSeconds(report.total_seconds);

  // ---- 8. Commit the new epoch's sparse state. -----------------------------
  adjacency_ = std::move(new_adjacency);
  propagation_ = std::move(new_propagation);
  return report;
}

}  // namespace omega::engine
