#include "graph/graph.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <unordered_set>

namespace omega::graph {

Result<Graph> Graph::FromEdges(NodeId num_nodes, const std::vector<Edge>& edges,
                               bool undirected) {
  if (num_nodes == 0) {
    return Status::InvalidArgument("graph must have at least one node");
  }
  // Pass 1: validate in input order and count every arc by dst and by src
  // (counts land one slot up, so the prefix sums below yield start offsets).
  std::vector<uint64_t> dst_starts(size_t{num_nodes} + 1, 0);
  std::vector<uint64_t> offsets(size_t{num_nodes} + 1, 0);
  for (const Edge& e : edges) {
    if (e.src >= num_nodes || e.dst >= num_nodes) {
      return Status::OutOfRange("edge endpoint out of range: " +
                                std::to_string(e.src) + "->" + std::to_string(e.dst));
    }
    if (!std::isfinite(e.weight)) {
      return Status::InvalidArgument("edge weight is not finite: " +
                                     std::to_string(e.src) + "->" + std::to_string(e.dst));
    }
    if (e.src == e.dst) continue;  // drop self-loops
    ++dst_starts[e.dst + 1];
    ++offsets[e.src + 1];
    if (undirected) {
      ++dst_starts[e.src + 1];
      ++offsets[e.dst + 1];
    }
  }
  std::partial_sum(dst_starts.begin(), dst_starts.end(), dst_starts.begin());
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  const uint64_t num_arcs = offsets[num_nodes];

  Graph g;
  g.num_nodes_ = num_nodes;
  g.neighbors_.resize(num_arcs);
  g.weights_.resize(num_arcs);
  {
    // Pass 2: scatter every arc into its dst bucket, in input order. Each arc
    // costs 8 bytes of scratch here, freed before the merge; its dst is
    // implied by the bucket.
    struct SrcWeight {
      NodeId src;
      float weight;
    };
    std::vector<SrcWeight> by_dst(num_arcs);
    std::vector<uint64_t> cursor(dst_starts.begin(), dst_starts.end() - 1);
    for (const Edge& e : edges) {
      if (e.src == e.dst) continue;
      by_dst[cursor[e.dst]++] = SrcWeight{e.src, e.weight};
      if (undirected) by_dst[cursor[e.src]++] = SrcWeight{e.dst, e.weight};
    }

    // Pass 3: walk the dst buckets in ascending order and scatter into the
    // src rows, so every row comes out sorted by dst with duplicates adjacent
    // and still in input order.
    cursor.assign(offsets.begin(), offsets.end() - 1);
    for (NodeId dst = 0; dst < num_nodes; ++dst) {
      for (uint64_t i = dst_starts[dst]; i < dst_starts[dst + 1]; ++i) {
        const uint64_t at = cursor[by_dst[i].src]++;
        g.neighbors_[at] = dst;
        g.weights_[at] = by_dst[i].weight;
      }
    }
  }

  // Pass 4: merge duplicates in place, summing their weights in input order,
  // and close up the rows. Row v is read from its old extent before
  // offsets[v] is overwritten with its compacted start.
  uint64_t write = 0;
  for (NodeId v = 0; v < num_nodes; ++v) {
    const uint64_t begin = offsets[v];
    const uint64_t end = offsets[v + 1];
    offsets[v] = write;
    for (uint64_t i = begin; i < end; ++i) {
      if (write > offsets[v] && g.neighbors_[write - 1] == g.neighbors_[i]) {
        g.weights_[write - 1] += g.weights_[i];
        continue;
      }
      g.neighbors_[write] = g.neighbors_[i];
      g.weights_[write] = g.weights_[i];
      ++write;
    }
    g.max_degree_ = std::max(g.max_degree_, static_cast<uint32_t>(write - offsets[v]));
  }
  offsets[num_nodes] = write;
  g.neighbors_.resize(write);
  g.neighbors_.shrink_to_fit();
  g.weights_.resize(write);
  g.weights_.shrink_to_fit();
  g.offsets_ = std::move(offsets);
  return g;
}

uint32_t Graph::num_distinct_degrees() const {
  std::unordered_set<uint32_t> seen;
  for (NodeId v = 0; v < num_nodes_; ++v) seen.insert(degree(v));
  return static_cast<uint32_t>(seen.size());
}

Result<Graph> Graph::Relabel(const std::vector<NodeId>& perm) const {
  if (perm.size() != num_nodes_) {
    return Status::InvalidArgument("permutation size mismatch");
  }
  std::vector<NodeId> inverse(num_nodes_, num_nodes_);
  for (NodeId i = 0; i < num_nodes_; ++i) {
    if (perm[i] >= num_nodes_ || inverse[perm[i]] != num_nodes_) {
      return Status::InvalidArgument("perm is not a permutation of [0, num_nodes)");
    }
    inverse[perm[i]] = i;
  }
  std::vector<Edge> edges;
  edges.reserve(num_arcs());
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const NodeId new_src = inverse[v];
    for (uint64_t i = offsets_[v]; i < offsets_[v + 1]; ++i) {
      edges.push_back(Edge{new_src, inverse[neighbors_[i]], weights_[i]});
    }
  }
  // Arcs are already symmetric, so insert them directed.
  return FromEdges(num_nodes_, edges, /*undirected=*/false);
}

std::vector<NodeId> Graph::DegreeDescendingOrder() const {
  // Stable counting sort on k = max_degree - degree, so nodes of one degree
  // keep ascending id order. Counts go one slot up, so after the prefix sum
  // start[k] is where the nodes of key k begin.
  std::vector<NodeId> start(size_t{max_degree_} + 2, 0);
  for (NodeId v = 0; v < num_nodes_; ++v) ++start[max_degree_ - degree(v) + 1];
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<NodeId> order(num_nodes_);
  for (NodeId v = 0; v < num_nodes_; ++v) order[start[max_degree_ - degree(v)]++] = v;
  return order;
}

}  // namespace omega::graph
