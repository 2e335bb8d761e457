// Mutable wrapper over the immutable Graph: per-worker mutation op logs.
//
// The design follows the sv6 `logged_object` pattern: every worker appends
// edge mutations to its own log (no cross-worker synchronization on the
// append path), and the logs are merged and applied only when a structural
// read needs to observe them (Synchronize). Between synchronizations the
// base Graph stays immutable, so every existing consumer (CSDB builds, SpMM
// plans, embeddings) keeps its snapshot semantics.
//
// Mutations address *undirected* edges in the base graph's node-id space
// (the node universe is fixed at construction). Validation happens at merge
// time against the synchronized edge set, in deterministic worker-id /
// append order, so the applied delta — and therefore the rebuilt graph — is
// independent of log-append interleaving.
//
// Two-clock contract: Synchronize optionally charges the simulated machine
// for the ingestion work (log merge reads, membership probes, adjacency
// rebuild writes), so mutation ingestion shows up in traffic reports. Host
// results never depend on whether charging is attached.

#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "graph/graph.h"
#include "memsim/memory_system.h"

namespace omega::graph {

enum class MutationKind : uint8_t {
  kInsertEdge = 0,  ///< insert undirected edge (src, dst) with `weight`
  kDeleteEdge = 1,  ///< delete undirected edge (src, dst)
  kUpdateWeight = 2,  ///< set undirected edge (src, dst) weight to `weight`
};

struct Mutation {
  MutationKind kind = MutationKind::kInsertEdge;
  NodeId src = 0;
  NodeId dst = 0;
  float weight = 1.0f;
};

/// Outcome of one Synchronize(): the mutations that survived validation (in
/// the deterministic merge order) plus per-reason rejection counters.
struct GraphDelta {
  std::vector<Mutation> applied;
  /// Endpoints of the applied mutations, sorted ascending, unique — the seed
  /// set of the k-hop affected-set BFS.
  std::vector<NodeId> touched_nodes;

  uint64_t rejected_duplicates = 0;    ///< insert of an existing edge
  uint64_t rejected_missing = 0;       ///< delete/update of an absent edge
  uint64_t rejected_self_loops = 0;    ///< src == dst
  uint64_t rejected_out_of_range = 0;  ///< endpoint >= num_nodes

  bool empty() const { return applied.empty(); }
  uint64_t rejected_total() const {
    return rejected_duplicates + rejected_missing + rejected_self_loops +
           rejected_out_of_range;
  }
};

/// Graph + per-worker mutation logs (see file comment).
class MutableGraph {
 public:
  /// `num_workers` sizes the log array; Log() accepts worker ids modulo it.
  explicit MutableGraph(Graph base, int num_workers = 1);

  MutableGraph(MutableGraph&&) = default;
  MutableGraph& operator=(MutableGraph&&) = default;

  /// The last synchronized snapshot. Pending (un-synchronized) mutations are
  /// not visible here.
  const Graph& graph() const { return base_; }

  /// Monotone synchronization count: bumps every time Synchronize applies at
  /// least one mutation, so snapshot consumers can detect staleness.
  uint64_t epoch() const { return epoch_; }

  int num_workers() const { return static_cast<int>(slots_.size()); }

  /// Appends one mutation to `worker`'s log. Lock-free across workers (each
  /// slot has its own mutex, contended only if two threads share a worker id).
  void Log(int worker, const Mutation& m);

  /// Total mutations logged and not yet synchronized.
  uint64_t pending() const;

  /// Merges the per-worker logs (worker 0..W-1, append order within each),
  /// validates every mutation against the evolving edge set, rebuilds the
  /// base Graph, and returns the applied delta. Logs are cleared. When `ms`
  /// and `ctx` are non-null the ingestion work is charged to the simulated
  /// machine (advancing ctx->clock). When the rebuild fails (an applied
  /// mutation carries a non-finite weight) the error is returned, the drained
  /// mutations are dropped, and the snapshot and epoch stay as they were.
  Result<GraphDelta> Synchronize(memsim::MemorySystem* ms = nullptr,
                                 memsim::WorkerCtx* ctx = nullptr);

 private:
  struct Slot {
    std::mutex mu;
    std::vector<Mutation> log;
  };

  Graph base_;
  uint64_t epoch_ = 0;
  std::vector<std::unique_ptr<Slot>> slots_;
};

/// Deterministic synthetic mutation stream over `g`: `count` mutations drawn
/// from `seed` — `insert_fraction` of them insert a currently-absent edge
/// between two random nodes, the rest delete a random existing edge. The
/// generator tracks its own inserts/deletes so the stream is self-consistent
/// (no duplicate inserts or double deletes within one call).
std::vector<Mutation> SyntheticMutations(const Graph& g, size_t count,
                                         uint64_t seed,
                                         double insert_fraction = 0.5);

}  // namespace omega::graph
