// Incremental embedding refresh over a mutable graph (dynamic-graph path).
//
// DynamicEmbedder owns the full dynamic pipeline on top of the trained
// state of one OMeGa-family run:
//   1. mutations are logged per worker into a graph::MutableGraph;
//   2. Synchronize() merges the op logs and rebuilds the Graph;
//   3. sparse::ApplyDelta patches the CSDB adjacency without a full rebuild
//      (byte-identical to a from-scratch FromGraph);
//   4. the propagation matrix S = D^-1/2 A D^-1/2 is re-derived and the
//      NadpPlanCache invalidated structure-aware (weight-only deltas rebind);
//   5. a multi-source BFS from the delta's touched nodes bounds the k-hop
//      affected set, and only those rows of the Chebyshev recurrence
//      T_k = -2 S T_{k-1} - T_{k-2} are recomputed, in place in the captured
//      training-time terms (embed::ChebyshevCapture, kept packed), by
//      training's own packed SpMM and Chebyshev epilogue
//      (sparse/spmm_kernels.h) over the affected rows;
//   6. the epilogue accumulates the refreshed rows' filter sum as it goes;
//      the last level normalizes those rows and writes them back into the
//      node-order embedding.
//
// Correctness contract: a mutation batch touching node set M changes S only
// in rows/columns of M, so T_k changes only inside ball_k(M) (the <=k-hop
// BFS ball) — by induction over the recurrence. Refreshing exactly those
// rows therefore produces an embedding bit-identical to recomputing every
// row against the new S from the same captured basis (the refresh_all_rows
// baseline), at any thread count. The stage-1 basis R is intentionally kept
// from training ("stale basis" refresh, the standard dynamic-embedding
// trade-off); a periodic full Train() re-anchors it.
//
// Two-clock contract: every level's SpMM runs and is charged through
// numa::NadpExecute, the executor of the training SpMMs, with the training
// run's placements (PIM aside).

#pragma once

#include <string>
#include <vector>

#include "common/status.h"
#include "embed/prone.h"
#include "graph/mutable_graph.h"
#include "numa/nadp.h"
#include "omega/engine.h"
#include "omega/options.h"

namespace omega::engine {

/// Outcome of one DynamicEmbedder::Refresh call.
struct RefreshReport {
  uint64_t epoch = 0;               ///< graph epoch after the refresh
  size_t mutations_applied = 0;     ///< survived validation and were applied
  size_t mutations_rejected = 0;    ///< duplicates / missing / out-of-range
  size_t touched_nodes = 0;         ///< distinct mutation endpoints
  size_t affected_rows = 0;         ///< |ball_{K-1}|: embedding rows refreshed
  size_t csdb_touched_rows = 0;     ///< adjacency rows re-gathered by ApplyDelta
  size_t csdb_reused_rows = 0;      ///< adjacency rows remapped without re-gather
  size_t plan_slots_affected = 0;   ///< plan-cache slots dropped or rebound

  double sync_seconds = 0.0;     ///< simulated: op-log merge + graph rebuild
  double delta_seconds = 0.0;    ///< simulated: CSDB delta + propagation rebuild
  double refresh_seconds = 0.0;  ///< simulated: BFS + recurrence + output rows
  double total_seconds = 0.0;    ///< sync + delta + refresh

  /// Original node ids of the refreshed embedding rows — the serving layer
  /// re-pins exactly these (serve::EmbeddingServer::RefreshRows).
  std::vector<graph::NodeId> refreshed_nodes;

  /// True when the batch applied nothing (all-rejected or empty logs); the
  /// embedding and all derived state are untouched.
  bool no_op = false;
};

/// Trained embedding plus the captured recurrence state, refreshable in
/// place as the underlying graph mutates. Only the OMeGa-family systems
/// (kOmega / kOmegaDram / kOmegaPm) are supported: they share the CSDB SpMM
/// path whose capture hook and cost model the refresh replays.
class DynamicEmbedder {
 public:
  /// `num_workers` sizes the mutation op-log array (one lock-sharded log per
  /// ingesting thread).
  DynamicEmbedder(graph::Graph base, const EngineOptions& options,
                  std::string dataset, int num_workers = 1);

  DynamicEmbedder(const DynamicEmbedder&) = delete;
  DynamicEmbedder& operator=(const DynamicEmbedder&) = delete;
  DynamicEmbedder(DynamicEmbedder&&) = default;
  DynamicEmbedder& operator=(DynamicEmbedder&&) = default;

  /// Full training run (RunEmbedding) with the Chebyshev capture attached;
  /// rebuilds the adjacency/propagation matrices and warms the plan cache.
  /// Pending mutations logged before Train are folded in first.
  Status Train(const exec::Context& ctx);

  bool trained() const { return capture_.valid(); }
  const RunReport& train_report() const { return train_report_; }

  /// Embedding in original node order (row v = node v).
  const linalg::DenseMatrix& embedding() const { return embedding_; }

  const graph::Graph& graph() const { return mutable_.graph(); }
  uint64_t epoch() const { return mutable_.epoch(); }
  size_t pending() const { return mutable_.pending(); }
  const numa::NadpPlanCache& plan_cache() const { return plan_cache_; }

  /// Thread-safe mutation ingestion (worker id taken modulo num_workers).
  void Log(int worker, const graph::Mutation& m) { mutable_.Log(worker, m); }

  /// Applies all pending mutations and refreshes the affected embedding
  /// rows. With `refresh_all_rows` every row is recomputed against the new
  /// propagation matrix — the full-recompute baseline the selective path is
  /// bit-identical to (and that bench_update_throughput prices it against).
  Result<RefreshReport> Refresh(const exec::Context& ctx,
                                bool refresh_all_rows = false);

  /// The NaDP options refresh prices its SpMMs with: the training run's
  /// placement (DecidePlacement) for ctx.threads() workers, with PIM cleared.
  numa::NadpOptions nadp_options(const exec::Context& ctx) const;

 private:
  graph::MutableGraph mutable_;
  EngineOptions options_;
  std::string dataset_;

  graph::CsdbMatrix adjacency_;     ///< CSDB of graph() at the current epoch
  graph::CsdbMatrix propagation_;   ///< BuildPropagationMatrix(adjacency_)
  embed::ChebyshevCapture capture_; ///< stage-2 state in adjacency_ row order
  linalg::DenseMatrix embedding_;   ///< node order
  numa::NadpPlanCache plan_cache_;
  RunReport train_report_;
};

}  // namespace omega::engine
