#include "graph/mutable_graph.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace omega::graph {

namespace {

inline uint64_t EdgeKey(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<uint64_t>(lo) << 32) | hi;
}

inline bool BaseHasEdge(const Graph& g, NodeId u, NodeId v) {
  const NodeId* begin = g.neighbors(u);
  const NodeId* end = begin + g.degree(u);
  return std::binary_search(begin, end, v);
}

// splitmix64 — deterministic, seedable, no global state.
inline uint64_t NextRand(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace

MutableGraph::MutableGraph(Graph base, int num_workers) : base_(std::move(base)) {
  const int workers = num_workers > 0 ? num_workers : 1;
  slots_.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) slots_.push_back(std::make_unique<Slot>());
}

void MutableGraph::Log(int worker, const Mutation& m) {
  Slot& slot = *slots_[static_cast<size_t>(worker) % slots_.size()];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.log.push_back(m);
}

uint64_t MutableGraph::pending() const {
  uint64_t total = 0;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    total += slot->log.size();
  }
  return total;
}

Result<GraphDelta> MutableGraph::Synchronize(memsim::MemorySystem* ms,
                                             memsim::WorkerCtx* ctx) {
  // 1. Merge: drain the per-worker logs in worker-id order (append order
  // within each), so the applied delta is deterministic regardless of how
  // the appends interleaved in host time.
  std::vector<Mutation> merged;
  for (const auto& slot : slots_) {
    std::lock_guard<std::mutex> lock(slot->mu);
    merged.insert(merged.end(), slot->log.begin(), slot->log.end());
    slot->log.clear();
  }

  GraphDelta delta;
  if (merged.empty()) return delta;

  // 2. Validate against the evolving edge set. `upsert` holds the current
  // weight of every inserted/updated edge; `removed` suppresses base arcs.
  // Membership = in upsert, or in base and not removed.
  std::unordered_map<uint64_t, float> upsert;
  std::unordered_set<uint64_t> removed;
  const NodeId n = base_.num_nodes();
  auto is_member = [&](NodeId u, NodeId v, uint64_t key) {
    if (upsert.count(key) > 0) return true;
    return BaseHasEdge(base_, u, v) && removed.count(key) == 0;
  };
  for (const Mutation& m : merged) {
    if (m.src >= n || m.dst >= n) {
      ++delta.rejected_out_of_range;
      continue;
    }
    if (m.src == m.dst) {
      ++delta.rejected_self_loops;
      continue;
    }
    const uint64_t key = EdgeKey(m.src, m.dst);
    const bool member = is_member(m.src, m.dst, key);
    switch (m.kind) {
      case MutationKind::kInsertEdge:
        if (member) {
          ++delta.rejected_duplicates;
          continue;
        }
        upsert[key] = m.weight;
        break;
      case MutationKind::kDeleteEdge:
        if (!member) {
          ++delta.rejected_missing;
          continue;
        }
        upsert.erase(key);
        if (BaseHasEdge(base_, m.src, m.dst)) removed.insert(key);
        break;
      case MutationKind::kUpdateWeight:
        if (!member) {
          ++delta.rejected_missing;
          continue;
        }
        upsert[key] = m.weight;
        if (BaseHasEdge(base_, m.src, m.dst)) removed.insert(key);
        break;
    }
    delta.applied.push_back(m);
    delta.touched_nodes.push_back(m.src);
    delta.touched_nodes.push_back(m.dst);
  }
  std::sort(delta.touched_nodes.begin(), delta.touched_nodes.end());
  delta.touched_nodes.erase(
      std::unique(delta.touched_nodes.begin(), delta.touched_nodes.end()),
      delta.touched_nodes.end());

  // 3. Charge the ingestion: the merged log streams off PM, each validation
  // probes the adjacency (one cache line per mutation), and — if anything
  // changed — the rebuilt arc payload is written back sequentially.
  const memsim::Placement pm{memsim::Tier::kPm, memsim::Placement::kInterleaved};
  const memsim::Placement dram{memsim::Tier::kDram, 0};
  if (ms != nullptr && ctx != nullptr) {
    ms->ChargeAccess(ctx, pm, memsim::MemOp::kRead, memsim::Pattern::kSequential,
                     merged.size() * sizeof(Mutation), 1);
    ms->ChargeAccess(ctx, dram, memsim::MemOp::kRead, memsim::Pattern::kRandom,
                     merged.size() * 64, merged.size());
  }

  if (delta.applied.empty()) return delta;

  // 4. Rebuild the immutable snapshot: surviving base edges plus the upsert
  // set. Each undirected edge is listed once; FromEdges symmetrizes.
  std::vector<Edge> edges;
  edges.reserve(base_.num_arcs() / 2 + upsert.size());
  for (NodeId u = 0; u < n; ++u) {
    const NodeId* nbrs = base_.neighbors(u);
    const float* wts = base_.weights(u);
    const uint32_t deg = base_.degree(u);
    for (uint32_t k = 0; k < deg; ++k) {
      const NodeId v = nbrs[k];
      if (v <= u) continue;  // each undirected edge once
      if (!removed.empty() && removed.count(EdgeKey(u, v)) > 0) continue;
      edges.push_back({u, v, wts[k]});
    }
  }
  for (const auto& [key, weight] : upsert) {
    edges.push_back({static_cast<NodeId>(key >> 32),
                     static_cast<NodeId>(key & 0xffffffffull), weight});
  }
  OMEGA_ASSIGN_OR_RETURN(base_, Graph::FromEdges(n, edges, /*undirected=*/true));
  ++epoch_;

  if (ms != nullptr && ctx != nullptr) {
    // Only the touched nodes' adjacency lists are rewritten (the lazy-apply
    // point of the oplog: untouched lists are reused in place, exactly like
    // the CSDB delta path reuses untouched degree blocks). Charge the touched
    // arc payload sequentially plus one index-entry update per touched node.
    uint64_t touched_arcs = 0;
    for (const NodeId v : delta.touched_nodes) touched_arcs += base_.degree(v);
    ms->ChargeAccess(ctx, pm, memsim::MemOp::kWrite, memsim::Pattern::kSequential,
                     touched_arcs * 8, 1);
    ms->ChargeAccess(ctx, dram, memsim::MemOp::kWrite, memsim::Pattern::kRandom,
                     delta.touched_nodes.size() * 8, delta.touched_nodes.size());
    ms->ChargeCompute(ctx, touched_arcs * 24);
  }
  return delta;
}

std::vector<Mutation> SyntheticMutations(const Graph& g, size_t count,
                                         uint64_t seed,
                                         double insert_fraction) {
  std::vector<Mutation> out;
  out.reserve(count);
  if (g.num_nodes() < 2) return out;
  uint64_t state = seed ^ 0x6f4a7c15u;
  // Overlay keeping the stream self-consistent within this call.
  std::unordered_set<uint64_t> added;
  std::unordered_set<uint64_t> removed;
  const NodeId n = g.num_nodes();
  const std::vector<uint64_t>& offsets = g.offsets();
  auto member = [&](NodeId u, NodeId v) {
    const uint64_t key = EdgeKey(u, v);
    if (added.count(key) > 0) return true;
    return BaseHasEdge(g, u, v) && removed.count(key) == 0;
  };
  const uint64_t insert_threshold = static_cast<uint64_t>(
      insert_fraction * 4294967296.0);  // fraction of a 32-bit draw
  for (size_t i = 0; i < count; ++i) {
    const bool want_insert =
        (NextRand(&state) & 0xffffffffull) < insert_threshold ||
        g.num_arcs() == 0;
    bool produced = false;
    for (int attempt = 0; attempt < 64 && !produced; ++attempt) {
      if (want_insert) {
        const NodeId u = static_cast<NodeId>(NextRand(&state) % n);
        const NodeId v = static_cast<NodeId>(NextRand(&state) % n);
        if (u == v || member(u, v)) continue;
        added.insert(EdgeKey(u, v));
        removed.erase(EdgeKey(u, v));
        out.push_back({MutationKind::kInsertEdge, u, v, 1.0f});
        produced = true;
      } else {
        const uint64_t arc = NextRand(&state) % g.num_arcs();
        const NodeId u = static_cast<NodeId>(
            std::upper_bound(offsets.begin(), offsets.end(), arc) -
            offsets.begin() - 1);
        const NodeId v = g.neighbor_array()[arc];
        if (u == v || !member(u, v)) continue;
        const uint64_t key = EdgeKey(u, v);
        removed.insert(key);
        added.erase(key);
        out.push_back({MutationKind::kDeleteEdge, u, v, 0.0f});
        produced = true;
      }
    }
  }
  return out;
}

}  // namespace omega::graph
